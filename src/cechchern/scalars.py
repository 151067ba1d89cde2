"""Exact scalars: the Gaussian rationals Q(i) as a parse and print type.

GaussianRational is the value type at the edges of the arithmetic: the
parser reads `i` and integer literals as one, `Polynomial.make` and
`Polynomial.const` take one, and `Polynomial.terms` returns them for
printing.  It does no arithmetic: polynomials store their coefficients as
Gaussian integers over one integer denominator and compute on ints (see
`poly`).  No floating point arithmetic occurs anywhere.  Values are
immutable and hashable.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction
from typing import Union

from .value import Value

Scalarish = Union["GaussianRational", Fraction, int]


class GaussianRational(Value):
    """A number re + im*i with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re: Fraction | int = 0, im: Fraction | int = 0):
        if type(re) is not Fraction:
            re = Fraction(re)
        if type(im) is not Fraction:
            im = Fraction(im)
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)

    @staticmethod
    def coerce(x: Scalarish) -> "GaussianRational":
        if isinstance(x, GaussianRational):
            return x
        if isinstance(x, (int, Fraction)):
            return GaussianRational(x)
        raise TypeError(f"cannot coerce {type(x).__name__} to GaussianRational")

    @property
    def is_one(self) -> bool:
        return self.re == 1 and not self.im

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = GaussianRational(other)
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        return gaussian_str(self)


# str(int) raises past sys.get_int_max_str_digits(), at least 640 digits;
# a Decimal prints the same digits at any length
_SHORT = 10 ** 600


def _int_str(n: int) -> str:
    return str(n) if -_SHORT < n < _SHORT else str(Decimal(n))


def _frac_str(q: Fraction) -> str:
    num = _int_str(q.numerator)
    return num if q.denominator == 1 else f"{num}/{_int_str(q.denominator)}"


def _imag_str(q: Fraction) -> str:
    if q == 1:
        return "i"
    if q == -1:
        return "-i"
    return f"{_frac_str(q)}*i"


def gaussian_str(c: GaussianRational) -> str:
    """Render c so that the expression parser reads it back verbatim.

    Pure real and pure imaginary values print bare; mixed values are
    parenthesized so they survive embedding in a larger term.
    """
    if not c.im:
        return _frac_str(c.re)
    if not c.re:
        return _imag_str(c.im)
    im = _imag_str(c.im)
    sep = "" if im.startswith("-") else "+"
    return f"({_frac_str(c.re)}{sep}{im})"
