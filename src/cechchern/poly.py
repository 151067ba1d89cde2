"""Sparse multivariate polynomials over Q(i).

A polynomial stores a sorted tuple of variable names and a dict mapping
exponent tuples (aligned with the variables) to nonzero GaussianRational
coefficients.  The canonical form keeps exactly the variables that occur
with positive exponent somewhere, so structural equality is meaningful
across different ambient variable sets.

Monomial order: graded lexicographic, variables sorted by name.  The gcd
is computed by a primitive pseudo-remainder sequence; coefficients stay
in Q(i) throughout.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, Iterable, Tuple

from .scalars import GaussianRational, ONE, ZERO

Exponent = Tuple[int, ...]
Terms = Dict[Exponent, GaussianRational]


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


class Polynomial:
    __slots__ = ("variables", "terms")

    def __init__(self, variables: Tuple[str, ...], terms: Terms):
        # Internal constructor: inputs must already be canonical.
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "terms", terms)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- construction ------------------------------------------------------

    @staticmethod
    def make(variables: Tuple[str, ...], terms: Terms) -> "Polynomial":
        """Build a canonical polynomial from terms aligned with strictly
        increasing variables: pruned to the variables actually used, zero
        coefficients dropped."""
        variables = tuple(variables)
        if any(a >= b for a, b in zip(variables, variables[1:])):
            raise ValueError(f"variables {variables} are not sorted and distinct")
        clean: Terms = {}
        for exp, c in terms.items():
            if len(exp) != len(variables):
                raise ValueError("exponent length does not match variables")
            if c:
                clean[exp] = c
        used = [i for i in range(len(variables)) if any(e[i] for e in clean)]
        if len(used) != len(variables):
            keep = tuple(variables[i] for i in used)
            clean = {tuple(e[i] for i in used): c for e, c in clean.items()}
            return Polynomial(keep, clean)
        return Polynomial(variables, clean)

    @staticmethod
    def const(c) -> "Polynomial":
        c = GaussianRational.coerce(c)
        return Polynomial((), {(): c} if c else {})

    @staticmethod
    def variable(name: str) -> "Polynomial":
        return Polynomial((name,), {(1,): ONE})

    @staticmethod
    def zero() -> "Polynomial":
        return Polynomial((), {})

    @staticmethod
    def one() -> "Polynomial":
        return Polynomial((), {(): ONE})

    # -- basic queries ------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_constant(self) -> bool:
        return not self.variables

    @property
    def is_one(self) -> bool:
        return self.terms == {(): ONE} and not self.variables

    def constant_value(self) -> GaussianRational:
        if self.variables:
            raise ValueError("not a constant polynomial")
        return self.terms.get((), ZERO)

    @property
    def is_monomial(self) -> bool:
        return len(self.terms) <= 1

    def degree_in(self, var: str) -> int:
        if var not in self.variables:
            return 0
        i = self.variables.index(var)
        return max((e[i] for e in self.terms), default=0)

    def coefficients_in(self, var: str) -> Dict[int, GaussianRational]:
        """The coefficients of a polynomial in var alone, keyed by power."""
        extra = set(self.variables) - {var}
        if extra:
            raise ValueError(f"polynomial depends on extra variables {sorted(extra)}")
        return {(e[0] if e else 0): c for e, c in self.terms.items()}

    def sorted_exponents(self) -> list:
        """Exponents in descending graded-lex order (leading term first)."""
        return sorted(self.terms, key=_grlex, reverse=True)

    def leading(self) -> Tuple[Exponent, GaussianRational]:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        e = max(self.terms, key=_grlex)
        return e, self.terms[e]

    def leading_coeff(self) -> GaussianRational:
        return self.leading()[1]

    # -- alignment of variable sets ------------------------------------------

    def embedded(self, variables: Tuple[str, ...]) -> Terms:
        """Re-key the terms onto a superset tuple of variables; with the same
        variables this is the polynomial's own dict, not to be mutated."""
        if variables == self.variables:
            return self.terms
        pos = [variables.index(v) for v in self.variables]
        out: Terms = {}
        for e, c in self.terms.items():
            full = [0] * len(variables)
            for p, k in zip(pos, e):
                full[p] = k
            out[tuple(full)] = c
        return out

    @staticmethod
    def _union_vars(a: "Polynomial", b: "Polynomial") -> Tuple[str, ...]:
        if a.variables == b.variables:
            return a.variables
        return tuple(sorted(set(a.variables) | set(b.variables)))

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        vs = Polynomial._union_vars(self, other)
        return Polynomial.make(vs, collect(chain(self.embedded(vs).items(), other.embedded(vs).items())))

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.variables, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if self.is_zero or other.is_zero:
            return Polynomial.zero()
        vs = Polynomial._union_vars(self, other)
        tb = other.embedded(vs).items()
        return Polynomial.make(vs, collect(
            (tuple(x + y for x, y in zip(ea, eb)), ca * cb)
            for ea, ca in self.embedded(vs).items()
            for eb, cb in tb
        ))

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

    def scale(self, c) -> "Polynomial":
        c = GaussianRational.coerce(c)
        if not c:
            return Polynomial.zero()
        return Polynomial(self.variables, {e: x * c for e, x in self.terms.items()})

    def monic(self) -> "Polynomial":
        if self.is_zero:
            return self
        return self.scale(self.leading_coeff().inverse())

    def derivative(self, var: str) -> "Polynomial":
        if var not in self.variables:
            return Polynomial.zero()
        i = self.variables.index(var)
        # lowering one exponent is injective, so no two terms meet
        return Polynomial.make(self.variables, {
            e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i] for e, c in self.terms.items() if e[i]
        })

    # -- equality / hashing -----------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.variables == other.variables and self.terms == other.terms

    def __hash__(self):
        return hash((self.variables, frozenset(self.terms.items())))

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


def divexact(a: Polynomial, b: Polynomial) -> Polynomial | None:
    """Return a / b if b divides a exactly, else None."""
    if b.is_zero:
        raise ZeroDivisionError("division by zero polynomial")
    if a.is_zero:
        return Polynomial.zero()
    if b.is_constant:
        return a.scale(b.constant_value().inverse())
    vs = Polynomial._union_vars(a, b)
    rem = dict(a.embedded(vs))
    tb = b.embedded(vs)
    eb = max(tb, key=_grlex)
    cb = tb[eb]
    quot: Terms = {}
    while rem:
        er = max(rem, key=_grlex)
        if not _exp_divides(eb, er):
            return None
        eq = tuple(x - y for x, y in zip(er, eb))
        cq = rem[er] / cb
        quot[eq] = cq
        # rem -= (cq * x^eq) * b
        for e, c in tb.items():
            key = tuple(x + y for x, y in zip(eq, e))
            s = rem.get(key, ZERO) - cq * c
            if s:
                rem[key] = s
            else:
                rem.pop(key, None)
    return Polynomial.make(vs, quot)


# -- gcd via primitive pseudo-remainder sequences ---------------------------------


def _univariate_gcd(a: Polynomial, b: Polynomial, var: str) -> Polynomial:
    # Plain Euclid over the field Q(i).
    def remainder(u: Dict[int, GaussianRational], v: Dict[int, GaussianRational]):
        dv = max(v)
        inv = v[dv].inverse()
        u = dict(u)
        while u and max(u) >= dv:
            du = max(u)
            factor = u[du] * inv
            for k, c in v.items():
                key = k + du - dv
                s = u.get(key, ZERO) - factor * c
                if s:
                    u[key] = s
                else:
                    u.pop(key, None)
        return u

    ca, cb = a.coefficients_in(var), b.coefficients_in(var)
    while cb:
        ca, cb = cb, remainder(ca, cb)
    return Polynomial.make((var,), {(k,): c for k, c in ca.items()}).monic()


def _as_univariate(p: Polynomial, var: str) -> Dict[int, Polynomial]:
    """View p as a polynomial in var with Polynomial coefficients."""
    i = p.variables.index(var)
    out: Dict[int, Terms] = {}
    rest = p.variables[:i] + p.variables[i + 1:]
    for e, c in p.terms.items():
        k = e[i]
        re = e[:i] + e[i + 1:]
        out.setdefault(k, {})[re] = c
    return {k: Polynomial.make(rest, t) for k, t in out.items()}


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
    (em,) = m.embedded(vs)
    mins = None
    for e in p.embedded(vs):
        mins = e if mins is None else tuple(min(x, y) for x, y in zip(mins, e))
    e = tuple(min(x, y) for x, y in zip(em, mins))
    return Polynomial.make(vs, {e: ONE})


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
        return _univariate_gcd(a, b, common[0])
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

    pieces = []
    for e in p.sorted_exponents():
        c = p.terms[e]
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
