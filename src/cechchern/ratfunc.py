"""Exact rational functions: quotients of multivariate polynomials over Q(i).

Canonical form: gcd(num, den) = 1, denominator monic in graded-lex order,
unused variables pruned, zero represented as 0/1.  All operations return
normalized values, so structural equality is mathematical equality.

Powers and inverses are normalized without a gcd.  Powers of coprime
polynomials stay coprime, and a power of a monic denominator stays monic,
since in graded-lex order the leading term of a product is the product of
the leading terms.  Swapping a reduced numerator and denominator keeps them
coprime; only the new denominator's leading coefficient is divided out.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping

from .poly import Polynomial, divexact, poly_gcd


class RationalFunction:
    __slots__ = ("num", "den")

    def __init__(self, num: Polynomial, den: Polynomial, _normalized: bool = False):
        if not _normalized:
            num, den = _normalize(num, den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RationalFunction is immutable")

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

    @staticmethod
    def sum(terms: Iterable["RationalFunction"]) -> "RationalFunction":
        """The sum of a stream of terms, started from the first: adding to a
        zero start would cost a full normalization."""
        terms = iter(terms)
        return sum(terms, next(terms, RationalFunction.zero()))

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
        return RationalFunction(self.num * o.den + o.num * self.den, self.den * o.den)

    def __neg__(self) -> "RationalFunction":
        return RationalFunction(-self.num, self.den, _normalized=True)

    def __sub__(self, other: "RationalFunction") -> "RationalFunction":
        return self + (-other)

    def __mul__(self, o: "RationalFunction") -> "RationalFunction":
        return RationalFunction(self.num * o.num, self.den * o.den)

    def __truediv__(self, o: "RationalFunction") -> "RationalFunction":
        if o.is_zero:
            raise ZeroDivisionError("division by zero rational function")
        return RationalFunction(self.num * o.den, self.den * o.num)

    def __pow__(self, n: int) -> "RationalFunction":
        if n < 0:
            return self.inverse() ** -n
        return RationalFunction(self.num ** n, self.den ** n, _normalized=True)

    def inverse(self) -> "RationalFunction":
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero")
        inv = self.num.leading_coeff().inverse()
        return RationalFunction(self.den.scale(inv), self.num.scale(inv), _normalized=True)

    def derivative(self, var: str) -> "RationalFunction":
        # Quotient rule; normalization cancels the common factors.
        return RationalFunction(
            self.num.derivative(var) * self.den - self.num * self.den.derivative(var),
            self.den * self.den,
        )

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
    if num.is_zero:
        return Polynomial.zero(), Polynomial.one()
    if den.is_constant:
        inv = den.constant_value().inverse()
        return num.scale(inv), Polynomial.one()
    g = poly_gcd(num, den)
    if not g.is_one:
        qn = divexact(num, g)
        qd = divexact(den, g)
        if qn is None or qd is None:
            raise AssertionError("gcd does not divide numerator and denominator")
        num, den = qn, qd
    lc = den.leading_coeff()
    if not lc.is_one:
        inv = lc.inverse()
        num = num.scale(inv)
        den = den.scale(inv)
    return num, den


def _poly_substitute(p: Polynomial, mapping: Mapping[str, RationalFunction]) -> RationalFunction:
    images = [mapping[v] if v in mapping else RationalFunction.variable(v) for v in p.variables]
    # Cache powers per variable to keep repeated exponents cheap.
    powers: Dict[tuple, RationalFunction] = {}
    terms = []
    for e, c in p.terms.items():
        term = RationalFunction.const(c)
        for i, k in enumerate(e):
            if k:
                key = (i, k)
                if key not in powers:
                    powers[key] = images[i] ** k
                term = term * powers[key]
        terms.append(term)
    return RationalFunction.sum(terms)


def rf_str(f: RationalFunction) -> str:
    """Canonical serialization; parses back to the same value."""
    from .poly import poly_str

    if f.den.is_one:
        return poly_str(f.num)
    return f"({poly_str(f.num)})/({poly_str(f.den)})"
