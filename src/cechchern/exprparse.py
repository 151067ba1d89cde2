"""Recursive-descent parser for exact rational-function expressions.

Grammar (whitespace insensitive):

    expr    := term (('+' | '-') term)*
    term    := unary (('*' | '/') unary)*
    unary   := ('+' | '-')* power
    power   := atom ('^' exponent)?
    atom    := INT | 'i' | VAR | '(' expr ')'
    exponent:= ('+' | '-')? INT | '(' ('+' | '-')? INT ')'

Integer literals plus '/' give rational constants; 'i' is the imaginary
unit; '^' takes integer exponents, negative ones landing in the
denominator.  A power, or a run of sums or of products, whose numerator
or denominator degree could exceed MAX_DEGREE is an error, raised before
anything is multiplied out: a power's degrees are those of its base times
the exponent, so the operands of a run stay unexpanded powers until the
bound of the whole run has passed.  A power, or a run of sums or of
products, whose coefficient size could exceed MAX_POWER_BITS is an error
too, raised before it is built, and so is one whose numerator or
denominator could have more than MAX_TERMS terms.  Every error reports
the offending position.  A run of sums of polynomials is added in one
pass, with no partial sums.
"""

from __future__ import annotations

import re
from math import comb
from operator import add, mul, sub, truediv
from typing import List, Sequence, Tuple, Union

from .poly import Polynomial
from .ratfunc import RationalFunction
from .scalars import I as IMAG_UNIT

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|([()+\-*/^]))")

# Each parenthesis level costs a handful of interpreter frames; past this
# depth the parser stops with an ExprError before Python's recursion limit.
MAX_NESTING = 100

# The largest degree an operator's result may reach, checked before it is
# computed (the shipped, fixture and benchmark manifests stay at degree 5 or
# below).  A constant base of '^' counts as degree 1, which bounds its
# exponent but not its coefficients.
MAX_DEGREE = 256

# The largest coefficient size of a power or of a run, in bits, checked
# before it is built: the exponent's absolute value times the bit length of
# the base's largest integer, numerators and denominators alike, and for a
# run the sum over its operands, as the bit length of a product is at most
# the sum of its factors', and a sum of fractions multiplies their
# denominators.  A run of '+' and '-' whose operands are all polynomials
# with Gaussian-integer coefficients takes its largest operand's bits
# instead: such a sum grows by at most ceil(log2) of the operand count, a
# few bits that the margin below the 4 300 digits of a literal absorbs.
# For constant operands that is the result's own size, give or take one bit
# per operand; without it (3^100)^129 passes as degree 129 with 6 155 digits.
MAX_POWER_BITS = 4096

# The most terms a numerator or denominator of a power or of a run may have,
# checked before it is built (the shipped, fixture and benchmark manifests
# stay at 30 or below): at most C(D+v, v) for degree D in v variables, and
# below that C(n+t-1, t-1) for p^n with p of t terms, or for a run those of
# its result before cancellation.  Without it (1+a+b+c+d)^256 passes every
# other bound with about 1.9 * 10^8 terms; (1+a+b)^139, with 9 870, takes 1 s.
MAX_TERMS = 10000


class ExprError(ValueError):
    """Syntax or scoping error in an expression, with source position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class _Power:
    """base^n for a built base, not yet multiplied out: an operand of a run
    whose degrees, coefficient bits and terms are known before it is built."""

    __slots__ = ("base", "n", "bits", "terms", "negative")

    def __init__(self, base: RationalFunction, n: int, bits: int, terms, negative: bool = False):
        self.base, self.n, self.bits, self.terms, self.negative = base, n, bits, terms, negative

    def __neg__(self) -> "_Power":
        return _Power(self.base, self.n, self.bits, self.terms, not self.negative)

    @property
    def is_zero(self) -> bool:
        return self.base.is_zero and self.n > 0


_Operand = Union[RationalFunction, _Power]


def _degrees(x: _Operand) -> Tuple[int, int]:
    """The numerator and denominator degrees of an operand."""
    if isinstance(x, _Power):
        k = abs(x.n)
        num, den = x.base.num.degree() * k, x.base.den.degree() * k
        return (num, den) if x.n >= 0 else (den, num)
    return x.num.degree(), x.den.degree()


def _bits(x: _Operand) -> int:
    """A bound on the bit length of an operand's largest integer."""
    if isinstance(x, _Power):
        return x.bits
    return x.num.coeff_bits() if x.den.is_one else max(x.num.coeff_bits(), x.den.coeff_bits())


def _power_terms(p: Polynomial, n: int) -> int:
    """A bound on the terms of p^n, n >= 0."""
    t, v = p.term_count(), len(p.variables)
    return min(comb(n + t - 1, t - 1), comb(n * p.degree() + v, v)) if t > 1 else t


def _terms(x: _Operand) -> Tuple[int, int]:
    """Bounds on the terms of an operand's numerator and denominator."""
    return x.terms if isinstance(x, _Power) else (x.num.term_count(), x.den.term_count())


def _variables(x: _Operand) -> tuple:
    return (x.base if isinstance(x, _Power) else x).variables


def _integral(x: _Operand) -> bool:
    """Whether an operand is a polynomial with Gaussian-integer coefficients."""
    if isinstance(x, _Power):
        return x.n >= 0 and _integral(x.base)
    return x.den.is_one and x.num.den == 1


def _built(x: _Operand) -> RationalFunction:
    if isinstance(x, _Power):
        value = x.base ** x.n
        return -value if x.negative else value
    return x


def _integer(text: str, pos: int) -> int:
    try:
        return int(text)
    except ValueError:  # longer than Python converts (sys.get_int_max_str_digits)
        raise ExprError(f"integer literal of {len(text)} digits is too long", pos) from None


def _tokenize(text: str) -> List[Tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ExprError(f"unexpected character {text[pos:].strip()[0]!r}", pos)
            break
        if m.group(1):
            tokens.append(("int", m.group(1), m.start(1)))
        elif m.group(2):
            tokens.append(("name", m.group(2), m.start(2)))
        else:
            tokens.append(("op", m.group(3), m.start(3)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, variables: Sequence[str]):
        self.text = text
        self.variables = set(variables)
        self.tokens = _tokenize(text)
        self.k = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.k]

    def advance(self):
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def expect_op(self, op: str):
        kind, val, pos = self.peek()
        if kind != "op" or val != op:
            raise ExprError(f"expected {op!r}", pos)
        self.advance()

    def parse(self) -> RationalFunction:
        value = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ExprError(f"unexpected token {val!r}", pos)
        return _built(value)

    def expr(self) -> _Operand:
        return self.chain("+-", self.term)

    def term(self) -> _Operand:
        return self.chain("*/", self.unary)

    def chain(self, ops: str, operand) -> _Operand:
        """operand (op operand)*, combined left to right once the degree
        and coefficient bounds of the whole run have passed at every
        operator, or, for a run of '+' and '-' of polynomials, summed in one
        pass; a lone operand is passed on unexpanded."""
        first = operand()
        bound = bits = top = integral = terms = None
        rest = []
        while True:
            kind, val, pos = self.peek()
            if kind != "op" or val not in ops:
                break
            self.advance()
            rhs = operand()
            if val == "/" and rhs.is_zero:
                raise ExprError("division by identically-zero expression", pos)
            bound = _OPERATORS[val][1](*(bound or _degrees(first)), *_degrees(rhs))
            if max(bound) > MAX_DEGREE:
                raise ExprError(f"degree up to {max(bound)} at {val!r} exceeds {MAX_DEGREE}", pos)
            if bits is None:
                bits = top = _bits(first)
                integral = val in "+-" and _integral(first)
            terms = _OPERATORS[val][2](*(terms or _terms(first)), *_terms(rhs))
            if max(terms) > MAX_TERMS:
                # the monomials of the degree bound in the run's variables cap it
                v = len(set().union(*(_variables(x) for x in (first, rhs, *(x for _, x in rest)))))
                terms = [min(n, comb(d + v, v)) for n, d in zip(terms, bound)]
                if max(terms) > MAX_TERMS:
                    raise ExprError(f"up to {max(terms)} terms at {val!r} exceed {MAX_TERMS}", pos)
            rhs_bits = _bits(rhs)
            bits, top, integral = bits + rhs_bits, max(top, rhs_bits), integral and _integral(rhs)
            size = top if integral else bits
            if size > MAX_POWER_BITS:
                raise ExprError(f"coefficients of up to {size} bits at {val!r} exceed {MAX_POWER_BITS}", pos)
            rest.append((val, rhs))
        if not rest:
            return first
        value, built = _built(first), [_built(rhs) for _, rhs in rest]
        if ops == "+-" and value.den.is_one and all(b.den.is_one for b in built):
            # a sum of polynomials: every term collected in one pass
            nums = (b.num if val == "+" else -b.num for (val, _), b in zip(rest, built))
            return RationalFunction.from_poly(Polynomial.sum([value.num, *nums]))
        for (val, _), b in zip(rest, built):
            value = _OPERATORS[val][0](value, b)
        return value

    def unary(self) -> _Operand:
        sign = 1
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.advance()
                if val == "-":
                    sign = -sign
            else:
                break
        value = self.power()
        return -value if sign < 0 else value

    def power(self) -> _Operand:
        named = self.peek()[0] == "name"
        value = self.atom()
        kind, val, pos = self.peek()
        if kind == "op" and val == "^":
            self.advance()
            n = self.exponent()
            if n < 0 and value.is_zero:
                raise ExprError("negative power of zero expression", pos)
            degree = abs(n) * max(*_degrees(value), 1)
            if degree > MAX_DEGREE:
                raise ExprError(f"power of degree {degree} exceeds {MAX_DEGREE}", pos)
            base, k = _built(value), abs(n)
            # a power of a variable or of i has a 1-bit coefficient and one term
            bits = 1 if named else k * _bits(base)
            if bits > MAX_POWER_BITS:
                raise ExprError(f"power with coefficients of {bits} bits exceeds {MAX_POWER_BITS}", pos)
            terms = (1, 1) if named else (_power_terms(base.num, k), _power_terms(base.den, k))[::1 if n >= 0 else -1]
            if max(terms) > MAX_TERMS:
                raise ExprError(f"power of up to {max(terms)} terms exceeds {MAX_TERMS}", pos)
            return _Power(base, n, bits, terms)
        return value

    def exponent(self) -> int:
        kind, val, pos = self.peek()
        parenthesized = kind == "op" and val == "("
        if parenthesized:
            self.advance()
            kind, val, pos = self.peek()
        sign = 1
        if kind == "op" and val in "+-":
            self.advance()
            if val == "-":
                sign = -1
            kind, val, pos = self.peek()
        if kind != "int":
            raise ExprError("expected integer exponent", pos)
        self.advance()
        if parenthesized:
            self.expect_op(")")
        return sign * _integer(val, pos)

    def atom(self) -> _Operand:
        kind, val, pos = self.advance()
        if kind == "int":
            return RationalFunction.const(_integer(val, pos))
        if kind == "name":
            if val == "i":
                return RationalFunction.const(IMAG_UNIT)
            if val in self.variables:
                return RationalFunction.variable(val)
            raise ExprError(f"unknown variable {val!r}", pos)
        if kind == "op" and val == "(":
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ExprError(f"parentheses nested deeper than {MAX_NESTING}", pos)
            value = self.expr()
            self.expect_op(")")
            self.depth -= 1
            return value
        raise ExprError(f"unexpected token {val or 'end of input'!r}", pos)


# Each operator with bounds on the numerator and denominator degrees of
# a op b, from those of a (n, d) and of b (m, e), and then with bounds on
# their term counts before cancellation, from those of a and of b.
_OPERATORS = {
    "+": (add, lambda n, d, m, e: (max(n + e, m + d), d + e), lambda n, d, m, e: (n * e + m * d, d * e)),
    "-": (sub, lambda n, d, m, e: (max(n + e, m + d), d + e), lambda n, d, m, e: (n * e + m * d, d * e)),
    "*": (mul, lambda n, d, m, e: (n + m, d + e), lambda n, d, m, e: (n * m, d * e)),
    "/": (truediv, lambda n, d, m, e: (n + e, d + m), lambda n, d, m, e: (n * e, d * m)),
}


def parse_expr(text: str, variables: Sequence[str]) -> RationalFunction:
    """Parse text into a canonical RationalFunction over the declared variables."""
    if "i" in variables:
        raise ValueError("'i' is reserved for the imaginary unit")
    return _Parser(text, variables).parse()
