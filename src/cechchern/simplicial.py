"""Normalized chains on standard simplices, shuffles, and the EZ/AW maps.

Generators e_{i0..il} of N(Z Delta^n) are strictly increasing index
tuples; the boundary is the alternating face sum.  Nondegenerate cells of
a product Delta^n x Delta^m are stored as staircase paths (a pair of
nondecreasing vertex tuples that never stall simultaneously), which is
exactly the shuffle description: degenerate simplices never materialize.

The shuffle sign is sgn(mu, nu) = (-1)^(mu_1 + (mu_2 - 1) + ... + (mu_p - p + 1)).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations
from math import comb
from typing import Callable, Dict, Iterable, List, Tuple


@dataclass(frozen=True)
class Generator:
    """A nondegenerate cell e_{i0..il} of the standard ambient-simplex."""

    indices: Tuple[int, ...]
    ambient: int

    def __post_init__(self):
        idx = self.indices
        if not idx:
            raise ValueError("empty generator")
        if list(idx) != sorted(set(idx)):
            raise ValueError(f"indices must be strictly increasing: {idx}")
        if idx[0] < 0 or idx[-1] > self.ambient:
            raise ValueError(f"indices {idx} out of range for ambient {self.ambient}")

    @property
    def dim(self) -> int:
        return len(self.indices) - 1

    def face(self, j: int) -> "Generator":
        return Generator(self.indices[:j] + self.indices[j + 1:], self.ambient)

    def __repr__(self):
        return "e[" + ",".join(map(str, self.indices)) + "]"


class Chain:
    """Integer combination of generators of a single degree."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Dict = None):
        clean = {g: c for g, c in (coeffs or {}).items() if c}
        degs = {self._degree_of(g) for g in clean}
        if len(degs) > 1:
            raise ValueError("mixed-degree chain")
        object.__setattr__(self, "coeffs", clean)

    @staticmethod
    def _degree_of(g):
        if isinstance(g, Generator):
            return g.dim
        if isinstance(g, ProductGenerator):
            return g.dim
        if isinstance(g, tuple):  # tensor generator (left, right)
            return g[0].dim + g[1].dim
        raise TypeError(f"unsupported chain generator {g!r}")

    def __setattr__(self, name, value):
        raise AttributeError("Chain is immutable")

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
        """The image under the linear extension of a map on generators."""
        return Chain.sum((h, c * k) for g, c in self.coeffs.items() for h, k in fn(g).coeffs.items())

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


def nondegenerate_generators(n: int, ell: int) -> List[Generator]:
    """All C(n+1, ell+1) generators of N(Z Delta^n) in dimension ell."""
    if ell < 0 or ell > n:
        return []
    return [Generator(tuple(c), n) for c in combinations(range(n + 1), ell + 1)]


def boundary(g) -> Chain:
    """Alternating face sum; degenerate faces of product cells are dropped."""
    if not isinstance(g, (Generator, ProductGenerator)):
        raise TypeError(f"unsupported generator {g!r}")
    faces = (g.face(j) for j in range(g.dim + 1)) if g.dim else ()
    return Chain.sum((face, -1 if j % 2 else 1) for j, face in enumerate(faces) if face is not None)


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


@dataclass(frozen=True)
class ProductGenerator:
    """A nondegenerate cell of Delta^n x Delta^m as a staircase path.

    left/right are nondecreasing vertex tuples of equal length; at every
    step at least one of them advances.
    """

    left: Tuple[int, ...]
    right: Tuple[int, ...]
    left_ambient: int
    right_ambient: int

    def __post_init__(self):
        if len(self.left) != len(self.right) or not self.left:
            raise ValueError("paths must be nonempty and of equal length")
        for t in range(len(self.left) - 1):
            da = self.left[t + 1] - self.left[t]
            db = self.right[t + 1] - self.right[t]
            if da < 0 or db < 0:
                raise ValueError("paths must be nondecreasing")
            if da == 0 and db == 0:
                raise ValueError("degenerate product cell")

    @property
    def dim(self) -> int:
        return len(self.left) - 1

    def face(self, j: int):
        """Delete position j; None when the result is degenerate."""
        left = self.left[:j] + self.left[j + 1:]
        right = self.right[:j] + self.right[j + 1:]
        for t in range(len(left) - 1):
            if left[t] == left[t + 1] and right[t] == right[t + 1]:
                return None
        return ProductGenerator(left, right, self.left_ambient, self.right_ambient)

    def __repr__(self):
        pairs = ",".join(f"({a},{b})" for a, b in zip(self.left, self.right))
        return f"P[{pairs}]"


def ez_map(left: Generator, right: Generator) -> Chain:
    """Eilenberg-Zilber: e_J (x) e_I -> signed sum over (p,q)-shuffles.

    The left path advances at the mu positions, the right at the nu
    positions, producing the staircase (s_nu e_J, s_mu e_I).
    """
    p, q = left.dim, right.dim
    terms = []
    for mu, nu, sign in shuffles(p, q):
        lpath = [left.indices[0]]
        rpath = [right.indices[0]]
        li = ri = 0
        for t in range(p + q):
            if t in mu:
                li += 1
            else:
                ri += 1
            lpath.append(left.indices[li])
            rpath.append(right.indices[ri])
        terms.append((ProductGenerator(tuple(lpath), tuple(rpath), left.ambient, right.ambient), sign))
    return Chain.sum(terms)


def aw_map(g: ProductGenerator) -> Chain:
    """Alexander-Whitney: front face of the left path (x) back face of the right."""
    terms = []
    for s in range(g.dim + 1):
        front = g.left[: s + 1]
        back = g.right[s:]
        if len(set(front)) != len(front) or len(set(back)) != len(back):
            continue  # degenerate tensor factor: zero in normalized chains
        terms.append(((Generator(front, g.left_ambient), Generator(back, g.right_ambient)), 1))
    return Chain.sum(terms)


def aw_chain(ch: Chain) -> Chain:
    return ch.linear(aw_map)


def tensor_boundary(pair: Tuple[Generator, Generator]) -> Chain:
    """Koszul boundary on N (x) N: d(a (x) b) = da (x) b + (-1)^dim(a) a (x) db."""
    a, b = pair
    sign = -1 if a.dim % 2 else 1
    return Chain.sum(chain(
        (((g, b), c) for g, c in boundary(a).coeffs.items()),
        (((a, g), sign * c) for g, c in boundary(b).coeffs.items()),
    ))


def brute_force_shuffle_sign(mu: Iterable[int], nu: Iterable[int]) -> int:
    """Parity of the permutation word mu ++ nu, counted by inversions."""
    word = list(mu) + list(nu)
    inversions = sum(
        1 for i in range(len(word)) for j in range(i + 1, len(word)) if word[i] > word[j]
    )
    return -1 if inversions % 2 else 1


def shuffle_count(p: int, q: int) -> int:
    return comb(p + q, p)
