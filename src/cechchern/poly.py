"""Sparse multivariate polynomials over Q(i), stored over the Gaussian integers.

A polynomial stores a sorted tuple of variable names, one positive integer
denominator `den`, and two dicts `re` and `im` that map exponent tuples
(aligned with the variables) to the nonzero integer real and imaginary
parts of the numerators: the coefficient of x^e is (re[e] + i*im[e])/den.
Real data never touches the imaginary dict.  The canonical form keeps
exactly the variables that occur with positive exponent somewhere, stores
no zero part and has gcd(den, every part) = 1, so structural equality is
mathematical equality across different ambient variable sets.

GaussianRational appears only at the edges: `make`, `const` and `scale`
take one, and `terms` (a fresh exponent -> GaussianRational dict),
`leading_coeff` and `coefficients_in` return them.  Sums, products,
powers, derivatives, exact division and the gcd run on Python ints.

Monomial order: graded lexicographic, variables sorted by name.  The gcd
is computed by a primitive pseudo-remainder sequence, or by Euclid over
Q(i) when only one variable occurs.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import add, sub
from typing import Dict, Iterable, Tuple

from .scalars import GaussianRational

Exponent = Tuple[int, ...]
Ints = Dict[Exponent, int]
# exponent -> (real, imaginary) integer part, for the division loops
Pairs = Dict[Exponent, Tuple[int, int]]


def collect(terms: Iterable[Tuple[object, object]]) -> Dict:
    """Add a stream of (key, value) terms once per key; a key whose terms
    cancel keeps its zero, for the constructor of the result to drop."""
    out: Dict = {}
    for key, value in terms:
        out[key] = out[key] + value if key in out else value
    return out


def _grlex(e: Exponent):
    """The graded-lex sort key of an exponent."""
    return sum(e), e


def _convolve(*factors: Tuple[Ints, Ints]) -> Ints:
    """The sum of the products of the given pairs of term dicts."""
    return collect((tuple(map(add, ea, eb)), ca * cb)
                   for a, b in factors for ea, ca in a.items() for eb, cb in b.items())


def _times(d: Ints, k: int) -> Iterable[Tuple[Exponent, int]]:
    return d.items() if k == 1 else ((e, c * k) for e, c in d.items())


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
        used = [i for i, column in enumerate(zip(*chain(re, im))) if any(column)]
        if len(used) != len(variables):
            variables = tuple(variables[i] for i in used)
            re = {tuple(e[i] for i in used): c for e, c in re.items()}
            im = {tuple(e[i] for i in used): c for e, c in im.items()}
    return Polynomial(variables, den, re, im)


def _split(c: GaussianRational) -> Tuple[int, int, int]:
    """c as (re, im, d) with ints: c = (re + i*im)/d, d > 0."""
    d = lcm(c.re.denominator, c.im.denominator)
    return c.re.numerator * (d // c.re.denominator), c.im.numerator * (d // c.im.denominator), d


def _from_pairs(variables, den: int, pairs: Pairs, prune: bool = True) -> "Polynomial":
    return _canonical(variables, den, {e: c[0] for e, c in pairs.items()},
                      {e: c[1] for e, c in pairs.items()}, prune)


class Polynomial:
    __slots__ = ("variables", "den", "re", "im")

    def __init__(self, variables: Tuple[str, ...], den: int, re: Ints, im: Ints):
        # Internal constructor: inputs must already be canonical.
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

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
        split = {e: _split(GaussianRational.coerce(c)) for e, c in terms.items()}
        den = lcm(*(d for _, _, d in split.values()))
        return _canonical(variables, den, {e: r * (den // d) for e, (r, _, d) in split.items()},
                          {e: i * (den // d) for e, (_, i, d) in split.items()})

    @staticmethod
    def const(c) -> "Polynomial":
        return Polynomial.one().scale(c)

    @staticmethod
    def variable(name: str) -> "Polynomial":
        return Polynomial((name,), 1, {(1,): 1}, {})

    @staticmethod
    def zero() -> "Polynomial":
        return Polynomial((), 1, {}, {})

    @staticmethod
    def one() -> "Polynomial":
        return Polynomial((), 1, {(): 1}, {})

    # -- basic queries ------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.re and not self.im

    @property
    def is_constant(self) -> bool:
        return not self.variables

    @property
    def is_one(self) -> bool:
        return not self.variables and self.den == 1 and self.re == {(): 1} and not self.im

    def _coeff(self, e: Exponent) -> GaussianRational:
        return GaussianRational(Fraction(self.re.get(e, 0), self.den), Fraction(self.im.get(e, 0), self.den))

    @property
    def terms(self) -> Dict[Exponent, GaussianRational]:
        """A fresh exponent -> GaussianRational dict of the nonzero terms."""
        return {e: self._coeff(e) for e in self._exponents()}

    def _exponents(self) -> Iterable[Exponent]:
        # in the order the terms were made, which fixes the order of sums
        # over them (and so their intermediate values)
        return dict.fromkeys(chain(self.re, self.im))

    @property
    def is_monomial(self) -> bool:
        return len(self._exponents()) <= 1

    def degree(self) -> int:
        """The total degree; 0 for constants and for zero."""
        return max(map(sum, chain(self.re, self.im)), default=0)

    def degree_in(self, var: str) -> int:
        if var not in self.variables:
            return 0
        i = self.variables.index(var)
        return max((e[i] for e in chain(self.re, self.im)), default=0)

    def coefficients_in(self, var: str) -> Dict[int, GaussianRational]:
        """The coefficients of a polynomial in var alone, keyed by power."""
        extra = set(self.variables) - {var}
        if extra:
            raise ValueError(f"polynomial depends on extra variables {sorted(extra)}")
        return {(e[0] if e else 0): c for e, c in self.terms.items()}

    def monomials(self) -> Iterable[Tuple[Exponent, "Polynomial"]]:
        """Each term's exponent with its coefficient as a constant polynomial."""
        for e in self._exponents():
            r, i = self.re.get(e, 0), self.im.get(e, 0)
            yield e, _canonical((), self.den, {(): r}, {(): i}, prune=False)

    def sorted_exponents(self) -> list:
        """Exponents in descending graded-lex order (leading term first)."""
        return sorted(self._exponents(), key=_grlex, reverse=True)

    def _leading(self) -> Tuple[Exponent, int, int]:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading term")
        e = max(self._exponents(), key=_grlex)
        return e, self.re.get(e, 0), self.im.get(e, 0)

    def leading_coeff(self) -> GaussianRational:
        return self._coeff(self._leading()[0])

    # -- alignment of variable sets ------------------------------------------

    def _embedded(self, variables: Tuple[str, ...]) -> Tuple[Ints, Ints]:
        """The real and imaginary dicts re-keyed onto a superset tuple of
        variables; with the same variables these are the polynomial's own
        dicts, not to be mutated."""
        if variables == self.variables:
            return self.re, self.im
        pos = [variables.index(v) for v in self.variables]
        n = len(variables)

        def rekey(d: Ints) -> Ints:
            out: Ints = {}
            for e, c in d.items():
                full = [0] * n
                for p, k in zip(pos, e):
                    full[p] = k
                out[tuple(full)] = c
            return out

        return rekey(self.re), rekey(self.im)

    def _pairs(self, variables: Tuple[str, ...]) -> Pairs:
        re, im = self._embedded(variables)
        return {e: (re.get(e, 0), im.get(e, 0)) for e in dict.fromkeys(chain(re, im))}

    @staticmethod
    def _union_vars(a: "Polynomial", b: "Polynomial") -> Tuple[str, ...]:
        if a.variables == b.variables:
            return a.variables
        return tuple(sorted(set(a.variables) | set(b.variables)))

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        vs = Polynomial._union_vars(self, other)
        (ar, ai), (br, bi) = self._embedded(vs), other._embedded(vs)
        den = lcm(self.den, other.den)
        ka, kb = den // self.den, den // other.den
        re = collect(chain(_times(ar, ka), _times(br, kb)))
        im = collect(chain(_times(ai, ka), _times(bi, kb)))
        # every variable occurs in some term, so only a cancellation prunes
        return _canonical(vs, den, re, im, prune=0 in re.values() or 0 in im.values())

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.variables, self.den, {e: -c for e, c in self.re.items()},
                          {e: -c for e, c in self.im.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if self.is_zero or other.is_zero:
            return Polynomial.zero()
        vs = Polynomial._union_vars(self, other)
        (ar, ai), (br, bi) = self._embedded(vs), other._embedded(vs)
        # (ar + i ai)(br + i bi): only products of nonzero parts are formed,
        # and no variable of a product of nonzero factors cancels
        re = _convolve((ar, br), (ai, {e: -c for e, c in bi.items()}))
        im = _convolve((ar, bi), (ai, br))
        return _canonical(vs, self.den * other.den, re, im, prune=False)

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out, base = Polynomial.one(), self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def _scaled(self, cr: int, ci: int, d: int) -> "Polynomial":
        """self * (cr + i*ci)/d for ints, (cr, ci) nonzero and d nonzero."""
        re = collect(chain(_times(self.re, cr), _times(self.im, -ci)))
        im = collect(chain(_times(self.re, ci), _times(self.im, cr)))
        return _canonical(self.variables, self.den * d, re, im, prune=False)

    def scale(self, c) -> "Polynomial":
        c = GaussianRational.coerce(c)
        if not c:
            return Polynomial.zero()
        return self._scaled(*_split(c))

    def monic(self) -> "Polynomial":
        if self.is_zero:
            return self
        # (x/den) * den * conj(l) / |l|^2 for the leading numerator l
        _, lr, li = self._leading()
        return self._scaled(self.den * lr, -self.den * li, lr * lr + li * li)

    def derivative(self, var: str) -> "Polynomial":
        if var not in self.variables:
            return Polynomial.zero()
        i = self.variables.index(var)

        # lowering one exponent is injective, so no two terms meet
        def lower(d: Ints) -> Ints:
            return {e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i] for e, c in d.items() if e[i]}

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


def _exp_divides(e: Exponent, f: Exponent) -> bool:
    return all(x <= y for x, y in zip(e, f))


def _reduce(rem: Pairs, divisor: Pairs):
    """Divide rem by divisor while the divisor's leading monomial divides
    the remainder's.  With l the divisor's leading coefficient, c = conj(l)
    when l is not real and c = ±1 otherwise, so that n = c*l > 0, returns
    (q, r, s, c) with s*rem = q*(c*divisor) + r over Z[i] and s a positive
    integer.  The remainder is scaled only by what each step needs to stay
    integral."""
    eb = max(divisor, key=_grlex)
    lr, li = divisor[eb]
    c = (lr, -li) if li else (1 if lr > 0 else -1, 0)
    if c != (1, 0):
        cr, ci = c
        divisor = {e: (x * cr - y * ci, x * ci + y * cr) for e, (x, y) in divisor.items()}
    n = divisor[eb][0]
    rem, quot, s = dict(rem), {}, 1
    while rem:
        er = max(rem, key=_grlex)
        if not _exp_divides(eb, er):
            break
        rr, ri = rem[er]
        g = gcd(n, rr, ri)
        m = n // g
        if m != 1:
            rem = {e: (x * m, y * m) for e, (x, y) in rem.items()}
            quot = {e: (x * m, y * m) for e, (x, y) in quot.items()}
            s *= m
        qr, qi = rr // g, ri // g
        shift = tuple(map(sub, er, eb))
        quot[shift] = (qr, qi)
        # rem -= (q * x^shift) * divisor
        for e, (x, y) in divisor.items():
            key = tuple(map(add, shift, e))
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
        # a * den_b * conj(l) / |l|^2 for b's numerator l
        br, bi = b.re.get((), 0), b.im.get((), 0)
        return a._scaled(b.den * br, -b.den * bi, br * br + bi * bi)
    vs = Polynomial._union_vars(a, b)
    quot, rem, s, (cr, ci) = _reduce(a._pairs(vs), b._pairs(vs))
    if rem:
        return None
    # a/b = (A/den_a)/(B/den_b) with s*A = quot*(c*B)
    return _from_pairs(vs, s * a.den, quot)._scaled(b.den * cr, b.den * ci, 1)


# -- gcd via primitive pseudo-remainder sequences ---------------------------------


def _univariate_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    # Euclid over Q(i), on Gaussian-integer remainders with their integer
    # content divided out; a and b share their one variable.
    u, v = a._pairs(a.variables), b._pairs(b.variables)
    while v:
        r = _reduce(u, v)[1]
        g = gcd(*chain.from_iterable(r.values()))
        u, v = v, {e: (x // g, y // g) for e, (x, y) in r.items()}
    return _from_pairs(a.variables, 1, u).monic()


def _as_univariate(p: Polynomial, var: str) -> Dict[int, Polynomial]:
    """View p as a polynomial in var with Polynomial coefficients."""
    i = p.variables.index(var)
    out: Dict[int, Tuple[Ints, Ints]] = {}
    rest = p.variables[:i] + p.variables[i + 1:]
    for part, d in enumerate((p.re, p.im)):
        for e, c in d.items():
            out.setdefault(e[i], ({}, {}))[part][e[:i] + e[i + 1:]] = c
    return {k: _canonical(rest, p.den, re, im) for k, (re, im) in out.items()}


def _content(cs: Dict[int, Polynomial]) -> Polynomial:
    g = Polynomial.zero()
    for p in cs.values():
        g = poly_gcd(g, p)
        if g.is_one:
            break
    return g


def _primitive(p: Polynomial, var: str) -> Polynomial:
    cs = _as_univariate(p, var)
    cont = _content(cs)
    q = divexact(p, cont)
    if q is None:
        raise AssertionError("content does not divide the polynomial")
    return q


def _prem(p: Polynomial, q: Polynomial, var: str) -> Polynomial:
    """Pseudo-remainder of p by q with respect to var."""
    dq = q.degree_in(var)
    lq = _as_univariate(q, var)[dq]
    x = Polynomial.variable(var)
    r = p
    while not r.is_zero and r.degree_in(var) >= dq:
        dr = r.degree_in(var)
        lr = _as_univariate(r, var)[dr]
        r = lq * r - lr * q * x ** (dr - dq)
    return r


def _monomial_gcd(m: Polynomial, p: Polynomial) -> Polynomial:
    # gcd(monomial, p) = the largest monomial dividing every term of p,
    # capped by m; no PRS needed.
    vs = Polynomial._union_vars(m, p)
    (em,) = m._pairs(vs)
    mins = None
    for e in p._pairs(vs):
        mins = e if mins is None else tuple(min(x, y) for x, y in zip(mins, e))
    e = tuple(min(x, y) for x, y in zip(em, mins))
    return _canonical(vs, 1, {e: 1}, {})


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic gcd of a and b over Q(i)."""
    if a.is_zero:
        return b.monic()
    if b.is_zero:
        return a.monic()
    if a.is_constant or b.is_constant:
        return Polynomial.one()
    if a.is_monomial:
        return _monomial_gcd(a, b)
    if b.is_monomial:
        return _monomial_gcd(b, a)
    common = sorted(set(a.variables) | set(b.variables))
    if len(common) == 1:
        return _univariate_gcd(a, b)
    # Main variable: the cheapest pseudo-remainder sequence comes from the
    # variable where the smaller of the two degrees is minimal.
    var = min(common, key=lambda v: (min(a.degree_in(v), b.degree_in(v)), v))
    if var not in a.variables or var not in b.variables:
        # One side is free of var: gcd(content of the other, that side).
        if var in a.variables:
            a, b = b, a
        return poly_gcd(a, _content(_as_univariate(b, var)))
    ca = _content(_as_univariate(a, var))
    cb = _content(_as_univariate(b, var))
    g = poly_gcd(ca, cb)
    p = _primitive(a, var)
    q = _primitive(b, var)
    if p.degree_in(var) < q.degree_in(var):
        p, q = q, p
    while True:
        r = _prem(p, q, var)
        if r.is_zero:
            result = _primitive(q, var)
            break
        if r.degree_in(var) == 0:
            result = Polynomial.one()
            break
        p, q = q, _primitive(r, var)
    return (g * result).monic()


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

    terms = p.terms
    pieces = []
    for e in p.sorted_exponents():
        c = terms[e]
        mono = _monomial_str(p.variables, e)
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
