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
denominator.  Every syntax error reports the offending position.
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
        value = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.advance()
                rhs = self.term()
                value = value + rhs if val == "+" else value - rhs
            else:
                return value

    def term(self) -> RationalFunction:
        value = self.unary()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val in "*/":
                self.advance()
                rhs = self.unary()
                if val == "*":
                    value = value * rhs
                else:
                    if rhs.is_zero:
                        raise ExprError("division by identically-zero expression", pos)
                    value = value / rhs
            else:
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


def parse_expr(text: str, variables: Sequence[str]) -> RationalFunction:
    """Parse text into a canonical RationalFunction over the declared variables."""
    if "i" in variables:
        raise ValueError("'i' is reserved for the imaginary unit")
    return _Parser(text, variables).parse()
