"""Exact rational functions: quotients of multivariate polynomials over Q(i).

Canonical form: gcd(num, den) = 1, denominator monic in graded-lex order,
unused variables pruned, zero represented as 0/1.  All operations return
normalized values, so structural equality is mathematical equality.

Every operation on canonical operands cancels before it multiplies, so no
gcd is taken of a full product (Henrici, JACM 3, 1956; Knuth, TAOCP vol. 2,
section 4.5.1).  Each gcd g of p and q comes from `poly.cofactors`, with
p/g and q/g, so no operand is divided by a gcd after it is found.  In
graded-lex order the leading term of a product is the product of the
leading terms, so products and exact quotients of monic polynomials stay
monic, and `_finish` only scales both sides by the denominator's
`monic_factor`, which divides a constant denominator out.

- Powers and inverses take no gcd: powers of coprime polynomials stay
  coprime, and swapping a reduced numerator and denominator keeps them
  coprime.  `a / b` is `a * b.inverse()`, and adding to zero takes no gcd.
- (a/b)(c/d): with g1 = gcd(a, d) and g2 = gcd(c, b) divided out, the
  numerator (a/g1)(c/g2) is coprime to the denominator (b/g2)(d/g1); a
  denominator 1 gives its gcd 1 without any work, and two polynomials
  multiply without any call for a gcd.
- a/b + c/d: equal denominators add their numerators and cancel
  gcd(a + c, b).  Otherwise, with g = gcd(b, d), the sum is
  t/(g (b/g)(d/g)) for t = a(d/g) + c(b/g), and t shares factors with the
  denominator only through g, so only h = gcd(t, g) is cancelled, and the
  denominator is formed as (g/h)(b/g)(d/g); g = 1 leaves the sum reduced.
- d(n/d): with g = gcd(d, d'), e = d/g and f = d'/g, the derivative is
  (n' e - n f)/(g e^2).  An irreducible factor of e divides e exactly
  once and divides neither f nor n, so the numerator shares factors only
  with g, and only its gcd h with g is cancelled: the denominator is
  (g/h) e^2.
- A polynomial evaluated at rational functions x_i -> n_i/d_i puts every
  term over the one denominator prod d_i^(deg_i p), sums the numerators as
  polynomials and normalizes once.
"""

from __future__ import annotations

from typing import Dict, List, Mapping

from .poly import Polynomial, cofactors
from .value import Value


class RationalFunction(Value):
    __slots__ = ("num", "den")

    def __init__(self, num: Polynomial, den: Polynomial, _normalized: bool = False):
        if not _normalized:
            num, den = _normalize(num, den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    # -- construction ---------------------------------------------------------

    @staticmethod
    def from_poly(p: Polynomial) -> "RationalFunction":
        return RationalFunction(p, Polynomial.one(), _normalized=True)

    @staticmethod
    def const(c) -> "RationalFunction":
        return RationalFunction.from_poly(Polynomial.const(c))

    @staticmethod
    def variable(name: str) -> "RationalFunction":
        return RationalFunction.from_poly(Polynomial.variable(name))

    @staticmethod
    def zero() -> "RationalFunction":
        return RationalFunction.from_poly(Polynomial.zero())

    @staticmethod
    def one() -> "RationalFunction":
        return RationalFunction.from_poly(Polynomial.one())

    # -- queries ----------------------------------------------------------------

    @property
    def variables(self) -> tuple:
        return tuple(sorted(set(self.num.variables) | set(self.den.variables)))

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def is_one(self) -> bool:
        return self.num.is_one and self.den.is_one

    # -- arithmetic ----------------------------------------------------------------

    def __add__(self, o: "RationalFunction") -> "RationalFunction":
        a, b, c, d = self.num, self.den, o.num, o.den
        if b == d:
            return _reduced(a + c, b)
        if b.is_one:
            return RationalFunction(a * d + c, d, _normalized=True)
        if d.is_one:
            return RationalFunction(a + c * b, b, _normalized=True)
        g, bq, dq = cofactors(b, d)
        if g.is_one:
            return RationalFunction(a * d + c * b, b * d, _normalized=True)
        return _reduced(a * dq + c * bq, g, bq * dq)

    def __neg__(self) -> "RationalFunction":
        return RationalFunction(-self.num, self.den, _normalized=True)

    def __sub__(self, other: "RationalFunction") -> "RationalFunction":
        return self + (-other)

    def __mul__(self, o: "RationalFunction") -> "RationalFunction":
        if self.is_zero or o.is_zero:
            return RationalFunction.zero()
        if self.den.is_one and o.den.is_one:
            return RationalFunction(self.num * o.num, self.den, _normalized=True)
        # (a/b)(c/d) = ((a/g1)(c/g2)) / ((b/g2)(d/g1))
        _, a_g1, d_g1 = cofactors(self.num, o.den)
        _, c_g2, b_g2 = cofactors(o.num, self.den)
        return _finish(a_g1 * c_g2, b_g2 * d_g1)

    def __truediv__(self, o: "RationalFunction") -> "RationalFunction":
        if o.is_zero:
            raise ZeroDivisionError("division by zero rational function")
        return self * o.inverse()

    def __pow__(self, n: int) -> "RationalFunction":
        if n < 0:
            return self.inverse() ** -n
        den = self.den if self.den.is_one else self.den ** n
        return RationalFunction(self.num ** n, den, _normalized=True)

    def inverse(self) -> "RationalFunction":
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero")
        f = self.num.monic_factor()
        return RationalFunction(self.den.scaled(*f), self.num.scaled(*f), _normalized=True)

    def derivative(self, var: str) -> "RationalFunction":
        n, d = self.num, self.den
        dn = n.derivative(var)
        if d.is_one:
            return RationalFunction.from_poly(dn)
        dd = d.derivative(var)
        if dd.is_zero:
            return _reduced(dn, d)
        g, e, f = cofactors(d, dd)
        return _reduced(dn * e - n * f, g, e * e)

    def substitute(self, mapping: Mapping[str, "RationalFunction"]) -> "RationalFunction":
        """Evaluate at var -> RationalFunction; unmapped variables persist.

        Raises ZeroDivisionError when the substituted denominator vanishes
        identically.
        """
        num = _poly_substitute(self.num, mapping)
        den = _poly_substitute(self.den, mapping)
        if den.is_zero:
            raise ZeroDivisionError("substitution makes the denominator vanish")
        return num / den

    # -- equality / display -------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __bool__(self):
        return not self.is_zero

    def __str__(self):
        return rf_str(self)

    def __repr__(self):
        return f"RationalFunction<{rf_str(self)}>"


def _normalize(num: Polynomial, den: Polynomial):
    if den.is_zero:
        raise ZeroDivisionError("zero denominator")
    f = _reduced(num, den)
    return f.num, f.den


def _finish(num: Polynomial, den: Polynomial) -> RationalFunction:
    """The canonical num/den for coprime num and den != 0: both scaled to
    make the denominator monic, which makes a constant denominator 1."""
    if num.is_zero:
        return RationalFunction.zero()
    if not den.is_one:
        f = den.monic_factor()
        if f != (1, 0, 1):
            num, den = num.scaled(*f), den.scaled(*f)
    return RationalFunction(num, den, _normalized=True)


def _reduced(num: Polynomial, g: Polynomial, rest: Polynomial | None = None) -> RationalFunction:
    """The canonical num/(g rest) when every common factor of num and the
    denominator divides g: only h = gcd(num, g) is cancelled, and the
    denominator is formed as (g/h) rest."""
    if num.is_zero:
        return RationalFunction.zero()
    _, num, g = cofactors(num, g)
    return _finish(num, g if rest is None else g * rest)


def _poly_substitute(p: Polynomial, mapping: Mapping[str, RationalFunction]) -> RationalFunction:
    images = [mapping[v] if v in mapping else RationalFunction.variable(v) for v in p.variables]
    degrees = [p.degree_in(v) for v in p.variables]
    # the powers of each image's numerator and denominator, each one product
    # from the power below it: rows[i, part][k] = part^k
    rows: Dict[tuple, List[Polynomial]] = {}

    def power(i: int, k: int, part: str) -> Polynomial:
        row = rows.setdefault((i, part), [Polynomial.one()])
        while len(row) <= k:
            row.append(row[-1] * getattr(images[i], part))
        return row[k]

    # every term over the one denominator prod_i den_i^(deg_i p), and the
    # numerators summed in one pass
    terms = [Polynomial.zero()]
    for e, c in p.monomials():
        term = c
        for i, k in enumerate(e):
            if k:
                term = term * power(i, k, "num")
            if k < degrees[i] and not images[i].den.is_one:
                term = term * power(i, degrees[i] - k, "den")
        terms.append(term)
    num = Polynomial.sum(terms)
    den = Polynomial.one()
    for i, k in enumerate(degrees):
        if not images[i].den.is_one:
            den = den * power(i, k, "den")
    return _reduced(num, den)


def rf_str(f: RationalFunction) -> str:
    """Canonical serialization; parses back to the same value."""
    from .poly import poly_str

    if f.den.is_one:
        return poly_str(f.num)
    return f"({poly_str(f.num)})/({poly_str(f.den)})"
