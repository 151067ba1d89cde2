"""Exact scalars: the field Q(i) of Gaussian rationals.

Every coefficient in the library is a GaussianRational; no floating point
arithmetic occurs anywhere.  Values are immutable and hashable.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

Scalarish = Union["GaussianRational", Fraction, int]


class GaussianRational:
    """A number re + im*i with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re: Fraction | int = 0, im: Fraction | int = 0):
        if type(re) is not Fraction:
            re = Fraction(re)
        if type(im) is not Fraction:
            im = Fraction(im)
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    @staticmethod
    def coerce(x: Scalarish) -> "GaussianRational":
        if isinstance(x, GaussianRational):
            return x
        if isinstance(x, (int, Fraction)):
            return GaussianRational(x)
        raise TypeError(f"cannot coerce {type(x).__name__} to GaussianRational")

    @property
    def is_zero(self) -> bool:
        return not self.re and not self.im

    @property
    def is_one(self) -> bool:
        return self.re == 1 and not self.im

    def inverse(self) -> "GaussianRational":
        n = self.re * self.re + self.im * self.im
        if not n:
            raise ZeroDivisionError("inverse of zero in Q(i)")
        return GaussianRational(self.re / n, -self.im / n)

    def __add__(self, other: Scalarish) -> "GaussianRational":
        o = GaussianRational.coerce(other)
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other: Scalarish) -> "GaussianRational":
        o = GaussianRational.coerce(other)
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __mul__(self, other: Scalarish) -> "GaussianRational":
        o = GaussianRational.coerce(other)
        # real-by-real dominates in practice; skip the full complex product
        if not self.im and not o.im:
            return GaussianRational(self.re * o.re)
        return GaussianRational(
            self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re
        )

    __rmul__ = __mul__

    def __truediv__(self, other: Scalarish) -> "GaussianRational":
        return self * GaussianRational.coerce(other).inverse()

    def __pow__(self, n: int) -> "GaussianRational":
        if n < 0:
            return self.inverse() ** (-n)
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = GaussianRational(other)
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return not self.is_zero

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        return gaussian_str(self)


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)


def _frac_str(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


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
