"""Normalized chains on standard simplices, shuffles, and the EZ/AW maps.

Generators e_{i0..il} of N(Z Delta^n) are strictly increasing index
tuples; the boundary is the alternating face sum.  Nondegenerate cells of
a product Delta^n x Delta^m are stored as staircase paths (a pair of
nondecreasing vertex tuples that never stall simultaneously), which is
exactly the shuffle description: degenerate simplices never materialize.

The shuffle sign is sgn(mu, nu) = (-1)^(mu_1 + (mu_2 - 1) + ... + (mu_p - p + 1)).

Cells are immutable slotted objects that store their dimension and hash
when built.  The public constructors check their input in one pass: a
generator that its indices increase strictly inside the ambient simplex, a
product cell its staircase inside the two ambient simplices, a chain that
every generator has its first generator's degree.  The builders here skip
those checks where their output is valid by construction, through each
type's private `_valid`: a face of a strictly increasing tuple or of a
staircase is one too once `face` has refused a vertex and the degenerate
case, an EZ path advances one side by one index at each step, the
distinct front and back vertices of a product cell's `aw_map` split are
a generator each, and the terms of one `boundary`, `tensor_boundary`,
`ez_map` or `aw_map` call are distinct cells of one
degree with coefficient +-1.  `Chain.linear` checks one degree per image
and leaves the full check to the public constructor when two images
differ.  Nothing here caches across calls, so the EZ route and the
step-position route that it cross-checks share no state.
"""

from __future__ import annotations

from itertools import chain, combinations
from math import comb
from typing import Callable, Dict, Iterable, List, Tuple

from .value import Value

# Cells and chains are immutable: their constructors set their slots here.
_set = object.__setattr__


class Generator(Value):
    """A nondegenerate cell e_{i0..il} of the standard ambient-simplex."""

    __slots__ = ("indices", "ambient", "dim", "_hash")

    def __init__(self, indices: Tuple[int, ...], ambient: int):
        idx = tuple(indices)
        if not idx:
            raise ValueError("empty generator")
        if any(a >= b for a, b in zip(idx, idx[1:])):
            raise ValueError(f"indices must be strictly increasing: {idx}")
        if idx[0] < 0 or idx[-1] > ambient:
            raise ValueError(f"indices {idx} out of range for ambient {ambient}")
        self._fill(idx, ambient)

    @staticmethod
    def _valid(idx: Tuple[int, ...], ambient: int) -> "Generator":
        """The constructor for a tuple valid by construction: no check."""
        g = Generator.__new__(Generator)
        g._fill(idx, ambient)
        return g

    def _fill(self, idx: Tuple[int, ...], ambient: int):
        _set(self, "indices", idx)
        _set(self, "ambient", ambient)
        _set(self, "dim", len(idx) - 1)
        _set(self, "_hash", hash((idx, ambient)))

    def __eq__(self, other) -> bool:
        if other.__class__ is not Generator:
            return NotImplemented
        return self.indices == other.indices and self.ambient == other.ambient

    def __hash__(self):
        return self._hash

    def face(self, j: int) -> "Generator":
        _check_face(self, j)
        return Generator._valid(self.indices[:j] + self.indices[j + 1:], self.ambient)

    def __repr__(self):
        return "e[" + ",".join(map(str, self.indices)) + "]"


class Chain(Value):
    """Integer combination of generators of a single degree."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Dict = None):
        clean = {g: c for g, c in (coeffs or {}).items() if c}
        dim = None
        for g in clean:
            if dim is None:
                dim = _degree_of(g)
            elif _degree_of(g) != dim:
                raise ValueError("mixed-degree chain")
        _set(self, "coeffs", clean)

    @staticmethod
    def _valid(coeffs: Dict) -> "Chain":
        """The constructor for nonzero coefficients on cells of one degree:
        no check."""
        ch = Chain.__new__(Chain)
        _set(ch, "coeffs", coeffs)
        return ch

    @staticmethod
    def of(g, coeff: int = 1) -> "Chain":
        return Chain({g: coeff})

    @staticmethod
    def zero() -> "Chain":
        return Chain({})

    @staticmethod
    def sum(terms: Iterable[Tuple[object, int]]) -> "Chain":
        """The chain of a stream of (generator, coefficient) terms, collected once."""
        out: Dict = {}
        for g, c in terms:
            out[g] = out.get(g, 0) + c
        return Chain(out)

    def linear(self, fn: Callable[[object], "Chain"]) -> "Chain":
        """The image under the linear extension of a map on generators,
        collected once.  Each image is a chain, so one degree per image is
        checked; images of two degrees get the public constructor's check."""
        out: Dict = {}
        dim, mixed = None, False
        for g, c in self.coeffs.items():
            image = fn(g).coeffs
            if not image:
                continue
            d = _degree_of(next(iter(image)))
            if dim is None:
                dim = d
            elif d != dim:
                mixed = True
            for h, k in image.items():
                out[h] = out.get(h, 0) + c * k
        if mixed:
            return Chain(out)
        return Chain._valid({h: k for h, k in out.items() if k})

    def __add__(self, other: "Chain") -> "Chain":
        return Chain.sum(chain(self.coeffs.items(), other.coeffs.items()))

    def __sub__(self, other: "Chain") -> "Chain":
        return self + other.scale(-1)

    def scale(self, k: int) -> "Chain":
        return Chain({g: k * c for g, c in self.coeffs.items()})

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        if not isinstance(other, Chain):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __iter__(self):
        return iter(sorted(self.coeffs.items(), key=lambda kv: repr(kv[0])))

    def __repr__(self):
        if not self.coeffs:
            return "0"
        return " + ".join(f"{c}*{g!r}" for g, c in self)


def _degree_of(g) -> int:
    if isinstance(g, (Generator, ProductGenerator)):
        return g.dim
    if isinstance(g, tuple):  # tensor generator (left, right)
        return g[0].dim + g[1].dim
    raise TypeError(f"unsupported chain generator {g!r}")


def _check_face(g, j: int):
    """Refuse a face that is no cell: a vertex has none, and j names a position."""
    if not 0 <= j <= g.dim or not g.dim:
        raise ValueError(f"{g!r} has no face {j}")


def nondegenerate_generators(n: int, ell: int) -> List[Generator]:
    """All C(n+1, ell+1) generators of N(Z Delta^n) in dimension ell."""
    if ell < 0 or ell > n:
        return []
    return [Generator._valid(c, n) for c in combinations(range(n + 1), ell + 1)]


def boundary(g) -> Chain:
    """Alternating face sum; degenerate faces of product cells are dropped."""
    if not isinstance(g, (Generator, ProductGenerator)):
        raise TypeError(f"unsupported generator {g!r}")
    # the faces of a nondegenerate cell are distinct, so none is collected twice
    faces = {}
    for j in range(g.dim + 1 if g.dim else 0):
        face = g.face(j)
        if face is not None:
            faces[face] = -1 if j % 2 else 1
    return Chain._valid(faces)


def boundary_chain(ch: Chain) -> Chain:
    return ch.linear(boundary)


def shuffles(p: int, q: int) -> List[Tuple[Tuple[int, ...], Tuple[int, ...], int]]:
    """All (p,q)-shuffles (mu, nu, sign), mu of size p, nu its complement."""
    out = []
    universe = range(p + q)
    for mu in combinations(universe, p):
        nu = tuple(sorted(set(universe) - set(mu)))
        exponent = sum(m - t for t, m in enumerate(mu))
        sign = -1 if exponent % 2 else 1
        out.append((mu, nu, sign))
    return out


class ProductGenerator(Value):
    """A nondegenerate cell of Delta^n x Delta^m as a staircase path.

    left/right are nondecreasing vertex tuples of equal length; at every
    step at least one of them advances.
    """

    __slots__ = ("left", "right", "left_ambient", "right_ambient", "dim", "_hash")

    def __init__(self, left: Tuple[int, ...], right: Tuple[int, ...], left_ambient: int, right_ambient: int):
        left, right = tuple(left), tuple(right)
        if len(left) != len(right) or not left:
            raise ValueError("paths must be nonempty and of equal length")
        for a, a1, b, b1 in zip(left, left[1:], right, right[1:]):
            if a1 < a or b1 < b:
                raise ValueError("paths must be nondecreasing")
            if a1 == a and b1 == b:
                raise ValueError("degenerate product cell")
        if left[0] < 0 or left[-1] > left_ambient or right[0] < 0 or right[-1] > right_ambient:
            raise ValueError(f"paths {left}, {right} out of range for ambients {left_ambient}, {right_ambient}")
        self._fill(left, right, left_ambient, right_ambient)

    @staticmethod
    def _valid(left: Tuple[int, ...], right: Tuple[int, ...], left_ambient: int,
               right_ambient: int) -> "ProductGenerator":
        """The constructor for a staircase valid by construction: no check."""
        g = ProductGenerator.__new__(ProductGenerator)
        g._fill(left, right, left_ambient, right_ambient)
        return g

    def _fill(self, left, right, left_ambient: int, right_ambient: int):
        _set(self, "left", left)
        _set(self, "right", right)
        _set(self, "left_ambient", left_ambient)
        _set(self, "right_ambient", right_ambient)
        _set(self, "dim", len(left) - 1)
        _set(self, "_hash", hash((left, right, left_ambient, right_ambient)))

    def __eq__(self, other) -> bool:
        if other.__class__ is not ProductGenerator:
            return NotImplemented
        return (self.left == other.left and self.right == other.right
                and self.left_ambient == other.left_ambient and self.right_ambient == other.right_ambient)

    def __hash__(self):
        return self._hash

    def face(self, j: int):
        """Delete position j; None when the result is degenerate, which
        happens only when the neighbours of an inner position agree."""
        _check_face(self, j)
        left, right = self.left, self.right
        if 0 < j < self.dim and left[j - 1] == left[j + 1] and right[j - 1] == right[j + 1]:
            return None
        return ProductGenerator._valid(left[:j] + left[j + 1:], right[:j] + right[j + 1:],
                                       self.left_ambient, self.right_ambient)

    def __repr__(self):
        pairs = ",".join(f"({a},{b})" for a, b in zip(self.left, self.right))
        return f"P[{pairs}]"


def ez_map(left: Generator, right: Generator) -> Chain:
    """Eilenberg-Zilber: e_J (x) e_I -> signed sum over (p,q)-shuffles.

    The left path advances at the mu positions, the right at the nu
    positions, producing the staircase (s_nu e_J, s_mu e_I).  Distinct
    shuffles give distinct staircases, so each term is built once.
    """
    p, q = left.dim, right.dim
    lidx, ridx = left.indices, right.indices
    terms = {}
    for mu, _, sign in shuffles(p, q):
        # li counts the left advances so far, so mu[li] is the next one
        li = ri = 0
        lpath, rpath = [lidx[0]], [ridx[0]]
        for t in range(p + q):
            if li < p and mu[li] == t:
                li += 1
            else:
                ri += 1
            lpath.append(lidx[li])
            rpath.append(ridx[ri])
        terms[ProductGenerator._valid(tuple(lpath), tuple(rpath), left.ambient, right.ambient)] = sign
    return Chain._valid(terms)


def aw_map(g: ProductGenerator) -> Chain:
    """Alexander-Whitney: front face of the left path (x) back face of the
    right; each split position s gives its own term."""
    terms = {}
    for s in range(g.dim + 1):
        front = g.left[: s + 1]
        back = g.right[s:]
        if len(set(front)) != len(front) or len(set(back)) != len(back):
            continue  # degenerate tensor factor: zero in normalized chains
        terms[(Generator._valid(front, g.left_ambient), Generator._valid(back, g.right_ambient))] = 1
    return Chain._valid(terms)


def aw_chain(ch: Chain) -> Chain:
    return ch.linear(aw_map)


def tensor_boundary(pair: Tuple[Generator, Generator]) -> Chain:
    """Koszul boundary on N (x) N: d(a (x) b) = da (x) b + (-1)^dim(a) a (x) db.
    The two sums' terms differ in their left degree, so none collides."""
    a, b = pair
    sign = -1 if a.dim % 2 else 1
    terms = {(g, b): c for g, c in boundary(a).coeffs.items()}
    terms.update(((a, g), sign * c) for g, c in boundary(b).coeffs.items())
    return Chain._valid(terms)


def brute_force_shuffle_sign(mu: Iterable[int], nu: Iterable[int]) -> int:
    """Parity of the permutation word mu ++ nu, counted by inversions."""
    word = list(mu) + list(nu)
    inversions = sum(
        1 for i in range(len(word)) for j in range(i + 1, len(word)) if word[i] > word[j]
    )
    return -1 if inversions % 2 else 1


def shuffle_count(p: int, q: int) -> int:
    return comb(p + q, p)
