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
anything is multiplied out.  Every error reports the offending position.
"""

from __future__ import annotations

import re
from typing import List, Sequence, Tuple

from .ratfunc import RationalFunction
from .scalars import I as IMAG_UNIT

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|([()+\-*/^]))")

# Each parenthesis level costs a handful of interpreter frames; past this
# depth the parser stops with an ExprError before Python's recursion limit.
MAX_NESTING = 100

# The largest degree an operator's result may reach, checked before it is
# computed (the shipped, fixture and benchmark manifests stay at degree 5 or
# below).  A constant base of '^' counts as degree 1, so its coefficients
# stay bounded too.
MAX_DEGREE = 256


class ExprError(ValueError):
    """Syntax or scoping error in an expression, with source position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


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
        return value

    def expr(self) -> RationalFunction:
        return self.chain("+-", self.term)

    def term(self) -> RationalFunction:
        return self.chain("*/", self.unary)

    def chain(self, ops: str, operand) -> RationalFunction:
        """operand (op operand)*, combined left to right once the degree
        bound of the whole run has passed at every operator."""
        value = operand()
        num, den = value.num.degree(), value.den.degree()
        rest = []
        while True:
            kind, val, pos = self.peek()
            if kind != "op" or val not in ops:
                break
            self.advance()
            rhs = operand()
            if val == "/" and rhs.is_zero:
                raise ExprError("division by identically-zero expression", pos)
            num, den = _OPERATORS[val][1](num, den, rhs.num.degree(), rhs.den.degree())
            if max(num, den) > MAX_DEGREE:
                raise ExprError(f"degree up to {max(num, den)} at {val!r} exceeds {MAX_DEGREE}", pos)
            rest.append((val, rhs))
        for val, rhs in rest:
            value = _OPERATORS[val][0](value, rhs)
        return value

    def unary(self) -> RationalFunction:
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

    def power(self) -> RationalFunction:
        value = self.atom()
        kind, val, pos = self.peek()
        if kind == "op" and val == "^":
            self.advance()
            n = self.exponent()
            if n < 0 and value.is_zero:
                raise ExprError("negative power of zero expression", pos)
            degree = abs(n) * max(value.num.degree(), value.den.degree(), 1)
            if degree > MAX_DEGREE:
                raise ExprError(f"power of degree {degree} exceeds {MAX_DEGREE}", pos)
            value = value ** n
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
        return sign * int(val)

    def atom(self) -> RationalFunction:
        kind, val, pos = self.advance()
        if kind == "int":
            return RationalFunction.const(int(val))
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
# a op b, from those of a (n, d) and of b (m, e).
_OPERATORS = {
    "+": (RationalFunction.__add__, lambda n, d, m, e: (max(n + e, m + d), d + e)),
    "-": (RationalFunction.__sub__, lambda n, d, m, e: (max(n + e, m + d), d + e)),
    "*": (RationalFunction.__mul__, lambda n, d, m, e: (n + m, d + e)),
    "/": (RationalFunction.__truediv__, lambda n, d, m, e: (n + e, d + m)),
}


def parse_expr(text: str, variables: Sequence[str]) -> RationalFunction:
    """Parse text into a canonical RationalFunction over the declared variables."""
    if "i" in variables:
        raise ValueError("'i' is reserved for the imaginary unit")
    return _Parser(text, variables).parse()
