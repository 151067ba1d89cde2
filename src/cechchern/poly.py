"""Sparse multivariate polynomials over Q(i), stored over the Gaussian integers.

A polynomial stores a sorted tuple of variable names, one positive integer
denominator `den`, and two dicts `re` and `im` that map packed exponents to
the nonzero integer real and imaginary parts of the numerators: the
coefficient of x^e is (re[k] + i*im[k])/den for the key k of e.  Real data
never touches the imaginary dict.  The canonical form keeps exactly the
variables that occur with positive exponent somewhere, stores no zero part
and has gcd(den, every part) = 1, so structural equality is mathematical
equality across different ambient variable sets.

A key packs x^e (Johnson, SIGSAM Bull. 8(3), 1974; Monagan and Pearce,
CASC 2007) into fields of FIELD = 32 bits: the total degree on top, then
the exponents in variable order.  Graded-lex order (variables sorted by
name) is int order, so the leading term has the largest key, and a
product's key is the sum of its factors'.  The layout depends only on the
variables, so equal values have equal keys and hashes.  `make` and `*`
raise ValueError for a total degree that would reach 2^32 instead of
carrying into the next field.  Each polynomial finds its total degree and
its degree in each variable at most once.

Exponent tuples and GaussianRational appear only at the edges: `make`
takes both, `const` a GaussianRational or an int, and `terms` (a fresh
exponent -> GaussianRational dict) and `monomials` return tuples.  The
arithmetic, exact division and the gcd run on Python ints; a scalar
factor is an int triple (cr, ci, d) standing for (cr + i*ci)/d, as
`monic_factor` returns and `scaled` takes.

`cofactors(a, b)` returns the monic gcd g of a and b with a/g and b/g, and
`poly_gcd(a, b)` is its g.  Both go through one shape dispatch, `_gcd`,
which takes the first shape that fits:

- zero: the other side, made monic, with its leading coefficient as its
  quotient;
- a constant: g = 1, and the quotients are the operands;
- a monomial: the least exponents over the other side's terms;
- a divisor: when the degrees in each variable let one side divide the
  other, one exact division; if it leaves no remainder, its quotient is
  one cofactor and the divisor's leading coefficient the other;
- coprime by images: for each variable x of both sides, the numerators
  mapped to F_P[x] (i to a square root of -1, every other variable to a
  fixed point) keep a's degree in x and have a gcd of degree 0, which
  proves g = 1, and the quotients are the operands;
- heuristic, when both numerators are real (`heugcd`, loaded when first
  reached): the numerators are set to integer points one variable at a
  time, the integer gcd of the two values is interpolated from its
  balanced digits into a candidate G, and the quotients are interpolated
  from the two integer quotients.  G is taken only when G times each
  quotient is the numerator exactly and the images prove the quotients
  coprime, so the gcd rests on that algebra, not on the heuristic.  A
  constant candidate, a failed check or running out of points falls
  through to
- otherwise a subresultant pseudo-remainder sequence (PRS), whose
  contents are gcds through the same dispatch.

The zero, constant, divisor, image and heuristic shapes form the quotients
themselves; after the others `cofactors` divides each operand by g once.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from itertools import chain
from math import gcd, lcm, prod
from operator import or_
from typing import Dict, Iterable, Tuple

from .scalars import GaussianRational
from .value import Value

Exponent = Tuple[int, ...]
# packed exponent -> integer part
Ints = Dict[int, int]
# packed exponent -> (real, imaginary) integer part, for the division loops
Pairs = Dict[int, Tuple[int, int]]

FIELD = 32
_MASK = (1 << FIELD) - 1


def collect(terms: Iterable[Tuple[object, object]]) -> Dict:
    """Add a stream of (key, value) terms once per key; a key whose terms
    cancel keeps its zero, for the constructor of the result to drop."""
    out: Dict = {}
    for key, value in terms:
        out[key] = out[key] + value if key in out else value
    return out


@lru_cache(maxsize=64)
def _shifts(n: int) -> Tuple[int, ...]:
    """The bit offsets of the n exponent fields of a key, first variable first."""
    return tuple(range(FIELD * (n - 1), -1, -FIELD))


def _fits(total: int) -> int:
    if total > _MASK:
        raise ValueError(f"total degree {total} does not fit a {FIELD}-bit exponent field")
    return total


def _pack(e: Iterable[int]) -> int:
    """The key of the exponents e."""
    e = list(e)
    key = _fits(sum(e))
    for x in e:
        if x < 0:
            raise ValueError(f"negative exponent {x}")
        key = key << FIELD | x
    return key


def _unpack(key: int, n: int) -> Exponent:
    return tuple([key >> s & _MASK for s in _shifts(n)])


@lru_cache(maxsize=1024)
def _runs(src: Tuple[str, ...], dst: Tuple[str, ...]) -> tuple:
    """How a key over the variables src moves onto dst: (source offset,
    mask, target offset) for each run of fields that stays adjacent, the
    total degree's included, top first; a lone run is padded with one that
    moves nothing, so that there are always at least two."""
    n, m = len(src), len(dst)
    runs: list = []
    fields = chain([(FIELD * n, FIELD * m)], ((s, FIELD * (m - 1 - dst.index(v)))
                                              for v, s in zip(src, _shifts(n)) if v in dst))
    for a, b in fields:
        if runs and runs[-1][0] == a + FIELD and runs[-1][2] == b + FIELD:
            runs[-1] = (a, runs[-1][1] << FIELD | _MASK, b)
        else:
            runs.append((a, _MASK, b))
    return tuple(runs) if len(runs) > 1 else (runs[0], (0, 0, 0))


def _rekey(d: Ints, src: Tuple[str, ...], dst: Tuple[str, ...]) -> Ints:
    """d with its keys over the variables src re-packed over dst, a superset
    or a subset of src that keeps every variable occurring in d."""
    if not d:
        return {}
    runs = _runs(src, dst)
    if len(runs) == 2:
        (a, m, b), (a2, m2, b2) = runs
        return {(k >> a & m) << b | (k >> a2 & m2) << b2: c for k, c in d.items()}
    return {sum((k >> a & m) << b for a, m, b in runs): c for k, c in d.items()}


def _convolve(*factors: Tuple[Ints, Ints]) -> Ints:
    """The sum of the products of the given pairs of term dicts."""
    return collect((ka + kb, ca * cb) for a, b in factors for ka, ca in a.items() for kb, cb in b.items())


def _gauss_pow(r: int, i: int, n: int) -> Tuple[int, int]:
    """(r + i*i)^n for n >= 0, by binary powering."""
    out_r, out_i = 1, 0
    while n:
        if n & 1:
            out_r, out_i = out_r * r - out_i * i, out_r * i + out_i * r
        n >>= 1
        if n:
            r, i = r * r - i * i, 2 * r * i
    return out_r, out_i


def _times(d: Ints, k: int) -> Iterable[Tuple[int, int]]:
    return d.items() if k == 1 else ((e, c * k) for e, c in d.items())


def _sum_terms(parts: Iterable[Tuple[int, int, Ints, Ints]]) -> Tuple[int, Ints, Ints]:
    """The sum of fractions sign * (re + i*im)/den, given as (sign, den, re,
    im) with their dicts keyed over the same variables: the least common
    denominator and the real and imaginary numerators over it, each key's
    terms added once and in the order given."""
    parts = tuple(parts)
    den = lcm(*[d for _, d, _, _ in parts])
    res, ims = [], []
    for sign, d, re, im in parts:
        f = sign * (den // d)
        res.append(_times(re, f))
        ims.append(_times(im, f))
    return den, collect(chain.from_iterable(res)), collect(chain.from_iterable(ims))


def _canonical(variables, den: int, re: Ints, im: Ints, prune: bool = True) -> "Polynomial":
    """The canonical polynomial (re + i*im)/den: zero parts dropped, the
    integer content shared with den divided out, den made positive and,
    with prune, the variables that no longer occur removed."""
    re = {e: c for e, c in re.items() if c}
    im = {e: c for e, c in im.items() if c} if im else im
    if not re and not im:
        return Polynomial((), 1, {}, {})
    if den != 1:
        g = gcd(den, *re.values(), *im.values())
        if den < 0:
            g = -g
        if g != 1:
            den //= g
            re = {e: c // g for e, c in re.items()}
            im = {e: c // g for e, c in im.items()}
    if prune:
        # a variable occurs when its field of the OR of the keys is nonzero
        used = reduce(or_, chain(re, im))
        kept = tuple(v for v, s in zip(variables, _shifts(len(variables))) if used >> s & _MASK)
        if len(kept) != len(variables):
            re, im = _rekey(re, variables, kept), _rekey(im, variables, kept)
            variables = kept
    return Polynomial(variables, den, re, im)


def _split(c: GaussianRational) -> Tuple[int, int, int]:
    """c as (re, im, d) with ints: c = (re + i*im)/d, d > 0."""
    d = lcm(c.re.denominator, c.im.denominator)
    return c.re.numerator * (d // c.re.denominator), c.im.numerator * (d // c.im.denominator), d


def _from_pairs(variables, den: int, pairs: Pairs, prune: bool = True) -> "Polynomial":
    return _canonical(variables, den, {e: c[0] for e, c in pairs.items()},
                      {e: c[1] for e, c in pairs.items()}, prune)


class Polynomial(Value):
    # _total and _degrees cache the total degree and the degree in each
    # variable; each stays unset until it is first known
    __slots__ = ("variables", "den", "re", "im", "_total", "_degrees")

    def __init__(self, variables: Tuple[str, ...], den: int, re: Ints, im: Ints):
        # Internal constructor: inputs must already be canonical.
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)

    # -- construction ------------------------------------------------------

    @staticmethod
    def make(variables: Tuple[str, ...], terms: Dict[Exponent, GaussianRational]) -> "Polynomial":
        """Build a canonical polynomial from GaussianRational terms aligned
        with strictly increasing variables: pruned to the variables actually
        used, zero coefficients dropped."""
        variables = tuple(variables)
        if any(a >= b for a, b in zip(variables, variables[1:])):
            raise ValueError(f"variables {variables} are not sorted and distinct")
        if any(len(exp) != len(variables) for exp in terms):
            raise ValueError("exponent length does not match variables")
        split = {_pack(e): _split(GaussianRational.coerce(c)) for e, c in terms.items()}
        den = lcm(*(d for _, _, d in split.values()))
        return _canonical(variables, den, {e: r * (den // d) for e, (r, _, d) in split.items()},
                          {e: i * (den // d) for e, (_, i, d) in split.items()})

    @staticmethod
    def const(c) -> "Polynomial":
        if type(c) is int:
            # an integer is canonical as it stands
            return Polynomial((), 1, {0: c} if c else {}, {})
        return Polynomial.make((), {(): c})

    @staticmethod
    def variable(name: str) -> "Polynomial":
        return Polynomial((name,), 1, {1 << FIELD | 1: 1}, {})

    @staticmethod
    def zero() -> "Polynomial":
        return Polynomial((), 1, {}, {})

    @staticmethod
    def one() -> "Polynomial":
        return Polynomial((), 1, {0: 1}, {})

    # -- basic queries ------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.re and not self.im

    @property
    def is_constant(self) -> bool:
        return not self.variables

    @property
    def is_one(self) -> bool:
        return not self.variables and self.den == 1 and self.re == {0: 1} and not self.im

    @property
    def terms(self) -> Dict[Exponent, GaussianRational]:
        """A fresh exponent -> GaussianRational dict of the nonzero terms."""
        n = len(self.variables)
        return {_unpack(k, n): self._coefficient(k) for k in self._exponents()}

    def _coefficient(self, k: int) -> GaussianRational:
        return GaussianRational(Fraction(self.re.get(k, 0), self.den), Fraction(self.im.get(k, 0), self.den))

    def _exponents(self) -> Iterable[int]:
        # in the order the terms were made, which fixes the order of sums
        # over them (and so their intermediate values)
        return dict.fromkeys(chain(self.re, self.im))

    def term_count(self) -> int:
        return len(self.re.keys() | self.im.keys()) if self.im else len(self.re)

    @property
    def is_monomial(self) -> bool:
        return self.term_count() <= 1

    def degree(self) -> int:
        """The total degree; 0 for constants and for zero."""
        total = getattr(self, "_total", None)
        if total is None:
            if not self.variables:
                return 0
            total = max(chain(self.re, self.im)) >> FIELD * len(self.variables)
            object.__setattr__(self, "_total", total)
        return total

    def _degree_vector(self) -> Tuple[int, ...]:
        """The degree in each variable, in variable order."""
        degrees = getattr(self, "_degrees", None)
        if degrees is None:
            keys = [*self.re, *self.im]
            degrees = tuple([max([k >> s & _MASK for k in keys]) for s in _shifts(len(self.variables))])
            object.__setattr__(self, "_degrees", degrees)
        return degrees

    def degree_in(self, var: str) -> int:
        if var not in self.variables:
            return 0
        return self._degree_vector()[self.variables.index(var)]

    def monomials(self) -> Iterable[Tuple[Exponent, "Polynomial"]]:
        """Each term's exponent with its coefficient as a constant polynomial."""
        n = len(self.variables)
        for k in self._exponents():
            r, i = self.re.get(k, 0), self.im.get(k, 0)
            yield _unpack(k, n), _canonical((), self.den, {0: r}, {0: i}, prune=False)

    def _leading(self) -> Tuple[int, int]:
        """The real and imaginary parts of the leading numerator."""
        if self.is_zero:
            raise ValueError("zero polynomial has no leading term")
        k = max(chain(self.re, self.im))
        return self.re.get(k, 0), self.im.get(k, 0)

    def coeff_bits(self) -> int:
        """The bit length of the largest integer stored: the denominator or
        a real or imaginary numerator coefficient."""
        return max(map(int.bit_length, chain((self.den,), self.re.values(), self.im.values())))

    def monic_factor(self) -> Tuple[int, int, int]:
        """The factor (cr, ci, d) in lowest terms, d > 0, that makes self
        monic: den * conj(l) / |l|^2 for the leading numerator l.  It is
        (1, 0, 1) exactly when self is already monic."""
        lr, li = self._leading()
        cr, ci, d = self.den * lr, -self.den * li, lr * lr + li * li
        g = gcd(cr, ci, d)
        return cr // g, ci // g, d // g

    # -- alignment of variable sets ------------------------------------------

    def _embedded(self, variables: Tuple[str, ...]) -> Tuple[Ints, Ints]:
        """The real and imaginary dicts re-keyed onto a superset tuple of
        variables; with the same variables, or none (every key of a
        constant is 0), these are the polynomial's own dicts, not to be
        mutated."""
        if variables == self.variables or not self.variables:
            return self.re, self.im
        return _rekey(self.re, self.variables, variables), _rekey(self.im, self.variables, variables)

    def _pairs(self, variables: Tuple[str, ...]) -> Pairs:
        re, im = self._embedded(variables)
        return {e: (re.get(e, 0), im.get(e, 0)) for e in dict.fromkeys(chain(re, im))}

    @staticmethod
    def _union_vars(*polys: "Polynomial") -> Tuple[str, ...]:
        first = polys[0].variables
        for p in polys:
            if p.variables != first:
                return tuple(sorted(set().union(*(p.variables for p in polys))))
        return first

    # -- arithmetic -----------------------------------------------------------

    @staticmethod
    def sum(polys: Iterable["Polynomial"]) -> "Polynomial":
        """The sum of one or more polynomials, their terms collected in one
        pass, in the order given."""
        polys = tuple(polys)
        vs = Polynomial._union_vars(*polys)
        den, re, im = _sum_terms((1, p.den, *p._embedded(vs)) for p in polys)
        # every variable occurs in some term, so only a cancellation prunes
        return _canonical(vs, den, re, im, prune=0 in re.values() or 0 in im.values())

    def __add__(self, other: "Polynomial") -> "Polynomial":
        return Polynomial.sum((self, other))

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.variables, self.den, {e: -c for e, c in self.re.items()},
                          {e: -c for e, c in self.im.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if self.is_zero or other.is_zero:
            return Polynomial.zero()
        # most products of rational functions have a factor 1 (a denominator)
        if other.is_one:
            return self
        if self.is_one:
            return other
        total = _fits(self.degree() + other.degree())
        vs = Polynomial._union_vars(self, other)
        (ar, ai), (br, bi) = self._embedded(vs), other._embedded(vs)
        # (ar + i ai)(br + i bi): only products of nonzero parts are formed,
        # and no variable of a product of nonzero factors cancels
        re = _convolve((ar, br), (ai, {e: -c for e, c in bi.items()}))
        im = _convolve((ar, bi), (ai, br))
        out = _canonical(vs, self.den * other.den, re, im, prune=False)
        # the product of the leading terms leads, so the degrees add
        object.__setattr__(out, "_total", total)
        return out

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        if n and self.is_monomial and not self.is_zero:
            # c*x^e to the n is c^n*x^(n*e): its key times n, which no field
            # carries out of once the total degree fits
            total = _fits(self.degree() * n)
            (k,) = self._exponents()
            cr, ci = _gauss_pow(self.re.get(k, 0), self.im.get(k, 0), n)
            out = _canonical(self.variables, self.den ** n, {k * n: cr}, {k * n: ci}, prune=False)
            object.__setattr__(out, "_total", total)
            return out
        # one product by the base per step: a factor of few terms keeps each
        # product cheap, which beats squaring two dense powers for a sparse
        # multivariate base (Fateman, Stud. Appl. Math. 53, 1974); a dense
        # univariate power loses, (1 + x)^256 by about 4 times
        out = Polynomial.one()
        for _ in range(n):
            out = out * self
        return out

    def scaled(self, cr: int, ci: int, d: int) -> "Polynomial":
        """self * (cr + i*ci)/d for ints, (cr, ci) nonzero and d nonzero."""
        re = collect(chain(_times(self.re, cr), _times(self.im, -ci)))
        im = collect(chain(_times(self.re, ci), _times(self.im, cr)))
        return _canonical(self.variables, self.den * d, re, im, prune=False)

    def monic(self) -> "Polynomial":
        return self if self.is_zero else self.scaled(*self.monic_factor())

    def derivative(self, var: str) -> "Polynomial":
        if var not in self.variables:
            return Polynomial.zero()
        n = len(self.variables)
        s = FIELD * (n - 1 - self.variables.index(var))
        # one less in var's field and in the total degree's
        step = (1 << FIELD * n) + (1 << s)

        # lowering one exponent is injective, so no two terms meet
        def lower(d: Ints) -> Ints:
            return {k - step: c * e for k, c in d.items() if (e := k >> s & _MASK)}

        return _canonical(self.variables, self.den, lower(self.re), lower(self.im))

    # -- equality / hashing -----------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (self.variables == other.variables and self.den == other.den
                and self.re == other.re and self.im == other.im)

    def __hash__(self):
        return hash((self.variables, self.den, frozenset(self.re.items()), frozenset(self.im.items())))

    def __bool__(self):
        return not self.is_zero

    # -- display -------------------------------------------------------------------

    def __str__(self):
        return poly_str(self)

    def __repr__(self):
        return f"Polynomial<{poly_str(self)}>"


# -- exact division -------------------------------------------------------------


def _divides(e: int, f: int) -> bool:
    """Whether the monomial of key e divides that of key f, field by field."""
    while e:
        if e & _MASK > f & _MASK:
            return False
        e, f = e >> FIELD, f >> FIELD
    return True


def _reduce(rem: Pairs, divisor: Pairs):
    """Divide rem by divisor while the divisor's leading monomial divides
    the remainder's.  With l the divisor's leading coefficient, c = conj(l)
    when l is not real and c = ±1 otherwise, so that n = c*l > 0, returns
    (q, r, s, c) with s*rem = q*(c*divisor) + r over Z[i] and s a positive
    integer.  The remainder is scaled only by what each step needs to stay
    integral."""
    eb = max(divisor)
    lr, li = divisor[eb]
    c = (lr, -li) if li else (1 if lr > 0 else -1, 0)
    if c != (1, 0):
        cr, ci = c
        divisor = {e: (x * cr - y * ci, x * ci + y * cr) for e, (x, y) in divisor.items()}
    n = divisor[eb][0]
    rem, quot, s = dict(rem), {}, 1
    while rem:
        er = max(rem)
        if not _divides(eb, er):
            break
        rr, ri = rem[er]
        g = gcd(n, rr, ri)
        m = n // g
        if m != 1:
            rem = {e: (x * m, y * m) for e, (x, y) in rem.items()}
            quot = {e: (x * m, y * m) for e, (x, y) in quot.items()}
            s *= m
        qr, qi = rr // g, ri // g
        shift = er - eb
        quot[shift] = (qr, qi)
        # rem -= (q * x^shift) * divisor
        for e, (x, y) in divisor.items():
            key = shift + e
            old = rem.get(key, (0, 0))
            new = (old[0] - (qr * x - qi * y), old[1] - (qr * y + qi * x))
            if new[0] or new[1]:
                rem[key] = new
            else:
                rem.pop(key, None)
    return quot, rem, s, c


def divexact(a: Polynomial, b: Polynomial) -> Polynomial | None:
    """Return a / b if b divides a exactly, else None."""
    if b.is_zero:
        raise ZeroDivisionError("division by zero polynomial")
    if a.is_zero:
        return Polynomial.zero()
    if b.is_constant:
        return a.scaled(*b.monic_factor())
    vs = Polynomial._union_vars(a, b)
    quot, rem, s, (cr, ci) = _reduce(a._pairs(vs), b._pairs(vs))
    if rem:
        return None
    # a/b = (A/den_a)/(B/den_b) with s*A = quot*(c*B)
    return _from_pairs(vs, s * a.den, quot).scaled(b.den * cr, b.den * ci, 1)


def _quo(a: Polynomial, b: Polynomial) -> Polynomial:
    """a / b for a divisor b of a."""
    if b.is_one:
        return a
    q = divexact(a, b)
    if q is None:
        raise AssertionError("an exact division in the gcd left a remainder")
    return q


# -- gcd: one shape dispatch ---------------------------------------------------------

_ONE = Polynomial.one()


def _as_univariate(p: Polynomial, var: str) -> Dict[int, Polynomial]:
    """View p as a polynomial in var with Polynomial coefficients."""
    n, i = len(p.variables), p.variables.index(var)
    s, top = FIELD * (n - 1 - i), FIELD * (n - 1)
    out: Dict[int, Tuple[Ints, Ints]] = {}
    rest = p.variables[:i] + p.variables[i + 1:]
    for part, d in enumerate((p.re, p.im)):
        for k, c in d.items():
            # var's field dropped, and its exponent taken off the total
            e = k >> s & _MASK
            out.setdefault(e, ({}, {}))[part][(k >> s + FIELD << s | k & (1 << s) - 1) - (e << top)] = c
    return {k: _canonical(rest, p.den, re, im) for k, (re, im) in out.items()}


def _content(cs: Dict[int, Polynomial]) -> Polynomial:
    first, *rest = cs.values()
    g = first.monic()
    for p in rest:
        if g.is_one:
            break
        g = poly_gcd(g, p)
    return g


def _primitive(p: Polynomial, var: str) -> Tuple[Polynomial, Polynomial]:
    cont = _content(_as_univariate(p, var))
    return cont, _quo(p, cont)


def _prem(p: Polynomial, q: Polynomial, var: str) -> Polynomial:
    """The pseudo-remainder lc(q)^(δ+1)·p mod q with respect to var, for
    δ = deg p − deg q ≥ 0: a step whose leading coefficient cancels still
    counts its power of lc(q)."""
    dq = q.degree_in(var)
    lq = _as_univariate(q, var)[dq]
    x = Polynomial.variable(var)
    r, missing = p, p.degree_in(var) - dq + 1
    while not r.is_zero and r.degree_in(var) >= dq:
        dr = r.degree_in(var)
        lr = _as_univariate(r, var)[dr]
        r = lq * r - lr * q * x ** (dr - dq)
        missing -= 1
    return r * lq ** missing


def _monomial_gcd(m: Polynomial, p: Polynomial) -> Polynomial:
    # gcd(monomial, p) = the largest monomial dividing every term of p,
    # capped by m; no PRS needed.
    vs = Polynomial._union_vars(m, p)
    keys = [*m._pairs(vs), *p._pairs(vs)]
    return _canonical(vs, 1, {_pack(min(k >> s & _MASK for k in keys) for s in _shifts(len(vs))): 1}, {})


def _prs_gcd(a: Polynomial, b: Polynomial, variables) -> Polynomial:
    """The monic gcd by a subresultant pseudo-remainder sequence (Collins,
    JACM 14, 1967; Brown and Traub, JACM 18, 1971): each pseudo-remainder
    is divided exactly by β = g·h^δ, for the previous leading coefficient
    g and the subresultant factor h, and one primitive part is taken at
    the end."""
    # Main variable: the cheapest pseudo-remainder sequence comes from the
    # variable where the smaller of the two degrees is minimal.
    var = min(variables, key=lambda v: (min(a.degree_in(v), b.degree_in(v)), v))
    if var not in a.variables or var not in b.variables:
        # One side is free of var: gcd(content of the other, that side).
        if var in a.variables:
            a, b = b, a
        return poly_gcd(a, _content(_as_univariate(b, var)))
    ca, p = _primitive(a, var)
    cb, q = _primitive(b, var)
    g = poly_gcd(ca, cb)
    if p.degree_in(var) < q.degree_in(var):
        p, q = q, p
    lead = h = _ONE
    while True:
        delta = p.degree_in(var) - q.degree_in(var)
        r = _prem(p, q, var)
        if r.is_zero:
            result = _primitive(q, var)[1]
            break
        if r.degree_in(var) == 0:
            result = _ONE
            break
        p, q = q, _quo(r, lead * h ** delta)
        lead = _as_univariate(p, var)[p.degree_in(var)]
        if delta:
            h = _quo(lead ** delta, h ** (delta - 1))
    return (g * result).monic()


# The coprimality certificate maps Z[i] onto F_P, sending i to a square
# root R of -1 (P = 119·2^23 + 1 ≡ 1 mod 4, R = 3^((P-1)/4)), and the k-th
# variable of the operands' union to _POINTS[k].  The points are unstructured
# residues: points in arithmetic or geometric progression make symbolic
# determinants vanish at them, and so certify almost nothing.
_P = 998244353
_R = 911660635
_POINTS = (
    949337181, 140480114, 22624757, 713875491, 348697663, 752290847, 759305196, 887125084,
    159516449, 525668367, 465580981, 223665142, 834220045, 862112020, 926564506, 795558188,
    61636126, 349699645, 242272401, 459750354, 328048, 682894662, 201698139, 836183087,
    237349055, 700251362, 329860564, 391091913, 599313467, 826651427, 554370237, 829669662,
)


def _images(p: Polynomial, vs) -> Tuple[list, list]:
    """The (key, value in F_P) pairs of p's numerator terms, each evaluated
    once at the points of its variables' positions in vs, and p's degree in
    each of its variables."""
    tops = p._degree_vector()
    shifts = _shifts(len(tops))
    powers = []
    for var, top in zip(p.variables, tops):
        point, row = _POINTS[vs.index(var)], [1]
        for _ in range(top):
            row.append(row[-1] * point % _P)
        powers.append(row)
    re, im = p.re, p.im
    return [(k, (re.get(k, 0) + _R * im.get(k, 0)) * prod(row[k >> s & _MASK] for row, s in zip(powers, shifts)) % _P)
            for k in p._exponents()], tops


def _univariate_image(images: Tuple[list, list], k: int) -> list:
    """The dense coefficient list, lowest first, of the image with every
    variable but the k-th set to its point and the k-th one x scaled to
    x·point (a unit change of variable, which keeps the degree of every
    gcd).  It runs up to the k-th variable's degree, so its last entry is
    the image of the leading coefficient in x, maybe 0."""
    terms, tops = images
    s = FIELD * (len(tops) - 1 - k)
    dense = [0] * (tops[k] + 1)
    for key, value in terms:
        dense[key >> s & _MASK] += value
    return [c % _P for c in dense]


def _gcd_degree_mod_p(u: list, v: list) -> int:
    """The degree of the gcd in F_P[x] of dense coefficient lists, lowest
    first, with u's leading coefficient nonzero."""
    u = list(u)
    while v and not v[-1]:
        v = v[:-1]
    while v:
        inverse = pow(v[-1], _P - 2, _P)
        while len(u) >= len(v):
            factor = u[-1] * inverse % _P
            shift = len(u) - len(v)
            for j, c in enumerate(v):
                u[shift + j] = (u[shift + j] - factor * c) % _P
            while u and not u[-1]:
                u.pop()
        u, v = v, u
    return len(u) - 1


def _proven_coprime(a: Polynomial, b: Polynomial, vs) -> bool:
    """Whether images in F_P prove gcd(a, b) = 1 (Brown, JACM 18, 1971).
    For each variable x of both, let φ map the numerators to F_P[x]: then
    lc_x(gcd) divides lc_x(a), which φ keeps nonzero when the image of a
    keeps a's degree in x, so deg_x gcd is at most the degree of the gcd of
    the images.  A gcd free of every shared variable is constant.  False
    means only that nothing was proved."""
    if len(vs) > len(_POINTS):
        return False
    ia, ib = _images(a, vs), _images(b, vs)
    for k, var in enumerate(a.variables):
        if var in b.variables:
            u = _univariate_image(ia, k)
            if not u[-1] or _gcd_degree_mod_p(u, _univariate_image(ib, b.variables.index(var))):
                return False
    return True


def _may_divide(b: Polynomial, a: Polynomial) -> bool:
    """Whether the degrees let b divide a: each variable of b occurs in a,
    to at least b's degree."""
    return all(v in a.variables and b.degree_in(v) <= a.degree_in(v) for v in b.variables)


def _divisor_shape(flip: bool, divisor: Polynomial, other_over_g: Polynomial):
    """(g, other/g, divisor/g), or with flip (g, divisor/g, other/g), for a
    divisor of the other side: g is the divisor made monic, and divisor/g
    is its leading coefficient."""
    lr, li = divisor._leading()
    divisor_over_g = _canonical((), divisor.den, {0: lr}, {0: li}, prune=False)
    if flip:
        return divisor.monic(), divisor_over_g, other_over_g
    return divisor.monic(), other_over_g, divisor_over_g


def _gcd(a: Polynomial, b: Polynomial):
    """(g, a/g, b/g) for the monic gcd g of a and b over Q(i), with None for
    a quotient that the shape taken did not form."""
    if a.is_zero or b.is_zero:
        # the nonzero side divides the other; gcd(0, 0) = 0 has no cofactors
        if b.is_zero:
            return (a, None, None) if a.is_zero else _divisor_shape(True, a, b)
        return _divisor_shape(False, b, a)
    if a.is_constant or b.is_constant:
        return _ONE, a, b
    if a.is_monomial:
        return _monomial_gcd(a, b), None, None
    if b.is_monomial:
        return _monomial_gcd(b, a), None, None
    vs = Polynomial._union_vars(a, b)
    # b is the side whose degrees may let it divide the other
    flip = not _may_divide(b, a)
    if flip:
        a, b = b, a
    if _may_divide(b, a):
        quot, rem, s, (cr, ci) = _reduce(a._pairs(vs), b._pairs(vs))
        if not rem:
            # s*A = quot*(c*B) for the numerators A, B of a, b; with l the
            # leading coefficient of B, a/g = a*lc(b)/b = quot*n/(s*den_a)
            # for the positive integer n = c*l
            lr, li = b._leading()
            n = lr * cr - li * ci
            a_over_g = _canonical(vs, s * a.den, {e: x * n for e, (x, _) in quot.items()},
                                  {e: y * n for e, (_, y) in quot.items()})
            return _divisor_shape(flip, b, a_over_g)
    if _proven_coprime(a, b, vs):
        return (_ONE, b, a) if flip else (_ONE, a, b)
    if not a.im and not b.im:
        # imported when first reached, so that a run whose gcds never get
        # this far does not load it
        from .heugcd import heu_gcd

        found = heu_gcd(b, a, vs) if flip else heu_gcd(a, b, vs)
        if found:
            return found
    return _prs_gcd(a, b, vs), None, None


def cofactors(a: Polynomial, b: Polynomial) -> Tuple[Polynomial, Polynomial, Polynomial]:
    """(g, a/g, b/g) for the monic gcd g of a and b over Q(i), which are not
    both zero; each quotient is formed once, by the gcd's own shape where it
    can."""
    g, a_over_g, b_over_g = _gcd(a, b)
    return (g, _quo(a, g) if a_over_g is None else a_over_g,
            _quo(b, g) if b_over_g is None else b_over_g)


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic gcd of a and b over Q(i)."""
    return _gcd(a, b)[0]


# -- display ------------------------------------------------------------------


def _monomial_str(variables: Tuple[str, ...], e: Exponent) -> str:
    parts = []
    for v, k in zip(variables, e):
        if k == 1:
            parts.append(v)
        elif k > 1:
            parts.append(f"{v}^{k}")
    return "*".join(parts)


def poly_str(p: Polynomial) -> str:
    """Canonical rendering: descending graded-lex order, parser-compatible."""
    if p.is_zero:
        return "0"
    from .scalars import gaussian_str

    pieces = []
    for k in sorted(p._exponents(), reverse=True):
        c = p._coefficient(k)
        mono = _monomial_str(p.variables, _unpack(k, len(p.variables)))
        if not mono:
            pieces.append(gaussian_str(c))
        elif c.is_one:
            pieces.append(mono)
        elif c == GaussianRational(-1):
            pieces.append("-" + mono)
        else:
            pieces.append(f"{gaussian_str(c)}*{mono}")
    out = pieces[0]
    for piece in pieces[1:]:
        if piece.startswith("-"):
            out += " - " + piece[1:]
        else:
            out += " + " + piece
    return out
