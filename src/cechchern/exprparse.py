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
the offending position.

Integers, 'i', variables, their integer powers (negative ones included)
and products of these are Laurent monomials: one Gaussian-integer
coefficient and one packed key over the sorted declared variables, the
sum of the keys of its factors (see `poly`), whose fields may be negative.
A run of '+' and '-' of such monomials and of polynomials collects every
term into one term dict, shifts each variable by its least exponent and
puts the run over one monomial denominator, which leaves it coprime and
monic without a gcd.  RationalFunction arithmetic starts only at '/', at a
product with an operand that is not a monomial, at a power of a base that
is not one, or at a negative power of a coefficient that is not a unit.
The bounds read a monomial's degrees, bits and terms as those of the
RationalFunction it stands for, so they raise the same errors at the same
positions whichever way a run is built.
"""

from __future__ import annotations

import re
from functools import reduce
from math import comb
from operator import add, mul, sub, truediv
from typing import List, Sequence, Tuple, Union

from .poly import FIELD, Polynomial, _gauss_pow, _sum_terms
from .ratfunc import RationalFunction, _exponents, _fraction, _unit_keys

# an integer, a name, an operator or, in the last group, any other character
_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|([()+\-*/^])|(\S))")
_KINDS = (None, "int", "name", "op")

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


class _Monomial:
    """(re + i*im) * x^e for Gaussian-integer parts and integer exponents e,
    packed into one key over the parser's sorted variables `names`, so that
    the key of a product is the sum of its factors'.  Zero has the key 0,
    and `laurent` says whether some exponent is negative."""

    __slots__ = ("key", "re", "im", "names", "laurent")

    def __init__(self, key: int, re: int, im: int, names: Tuple[str, ...], laurent: bool = False):
        # laurent=True means that some exponent may be negative, and is checked
        if not (re or im):
            key, laurent = 0, False
        elif laurent:
            laurent = any(e < 0 for e in _exponents(key, len(names)))
        self.key, self.re, self.im, self.names, self.laurent = key, re, im, names, laurent

    @property
    def is_zero(self) -> bool:
        return not (self.re or self.im)

    @property
    def variables(self) -> tuple:
        return tuple(v for v, e in zip(self.names, _exponents(self.key, len(self.names))) if e)

    def degrees(self) -> Tuple[int, int]:
        """The degrees of the numerator and the denominator of its fraction."""
        if not self.laurent:
            return self.key >> FIELD * len(self.names), 0
        e = _exponents(self.key, len(self.names))
        return sum(x for x in e if x > 0), -sum(x for x in e if x < 0)

    def __neg__(self) -> "_Monomial":
        return _Monomial(self.key, -self.re, -self.im, self.names, self.laurent)

    def __mul__(self, other: "_Monomial") -> "_Monomial":
        re, im = self.re * other.re - self.im * other.im, self.re * other.im + self.im * other.re
        return _Monomial(self.key + other.key, re, im, self.names, self.laurent or other.laurent)

    def __pow__(self, n: int) -> "_Monomial":
        # a negative power is taken of a unit only, whose inverse is its conjugate
        re, im = _gauss_pow(self.re, self.im if n >= 0 else -self.im, abs(n))
        return _Monomial(self.key * n, re, im, self.names, self.laurent or n < 0)


def _rf(x: Union[RationalFunction, _Monomial]) -> RationalFunction:
    """A built operand as a RationalFunction."""
    if isinstance(x, _Monomial):
        return _fraction(x.names, 1, {x.key: x.re}, {x.key: x.im}, x.laurent)
    return x


class _Power:
    """base^n for a built base, not yet multiplied out: an operand of a run
    whose degrees, coefficient bits and terms are known before it is built.
    A monomial base has a Gaussian-integer power: n >= 0, or it is a unit."""

    __slots__ = ("base", "n", "bits", "terms", "negative")

    def __init__(self, base, n: int, bits: int, terms, negative: bool = False):
        self.base, self.n, self.bits, self.terms, self.negative = base, n, bits, terms, negative

    def __neg__(self) -> "_Power":
        return _Power(self.base, self.n, self.bits, self.terms, not self.negative)

    @property
    def is_zero(self) -> bool:
        return self.base.is_zero and self.n > 0


_Operand = Union[RationalFunction, _Monomial, _Power]


def _degrees(x: _Operand) -> Tuple[int, int]:
    """The numerator and denominator degrees of an operand."""
    if isinstance(x, _Monomial):
        return x.degrees()
    if isinstance(x, _Power):
        k = abs(x.n)
        num, den = _degrees(x.base)
        return (num * k, den * k) if x.n >= 0 else (den * k, num * k)
    return x.num.degree(), x.den.degree()


def _bits(x: _Operand) -> int:
    """A bound on the bit length of an operand's largest integer."""
    if isinstance(x, _Monomial):
        return max(1, x.re.bit_length(), x.im.bit_length())
    if isinstance(x, _Power):
        return x.bits
    return x.num.coeff_bits() if x.den.is_one else max(x.num.coeff_bits(), x.den.coeff_bits())


def _power_terms(p: Polynomial, n: int) -> int:
    """A bound on the terms of p^n, n >= 0."""
    t, v = p.term_count(), len(p.variables)
    return min(comb(n + t - 1, t - 1), comb(n * p.degree() + v, v)) if t > 1 else t


def _terms(x: _Operand) -> Tuple[int, int]:
    """Bounds on the terms of an operand's numerator and denominator."""
    if isinstance(x, _Monomial):
        return (0 if x.is_zero else 1), 1
    return x.terms if isinstance(x, _Power) else (x.num.term_count(), x.den.term_count())


def _variables(x: _Operand) -> tuple:
    return (x.base if isinstance(x, _Power) else x).variables


def _integral(x: _Operand) -> bool:
    """Whether an operand is a polynomial with Gaussian-integer coefficients."""
    if isinstance(x, _Monomial):
        return not x.laurent
    if isinstance(x, _Power):
        return x.n >= 0 and _integral(x.base)
    return x.den.is_one and x.num.den == 1


def _built(x: _Operand) -> Union[RationalFunction, _Monomial]:
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
    for m in _TOKEN.finditer(text):
        kind = m.lastindex
        if kind == 4:
            raise ExprError(f"unexpected character {m.group(4)!r}", m.start(4))
        tokens.append((_KINDS[kind], m.group(kind), m.start(kind)))
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, variables: Sequence[str]):
        self.text = text
        self.names = tuple(sorted(set(variables)))
        self.keys = _unit_keys(self.names)
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
        return _rf(_built(value))

    def expr(self) -> _Operand:
        return self.chain("+-", self.term)

    def term(self) -> _Operand:
        return self.chain("*/", self.unary)

    def chain(self, ops: str, operand) -> _Operand:
        """operand (op operand)*, combined once the degree and coefficient
        bounds of the whole run have passed at every operator: a run of '*'
        of monomials into one monomial, a run of '+' and '-' of monomials and
        polynomials into one term dict, and any other run left to right as
        RationalFunctions; a lone operand is passed on unexpanded."""
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
        built = [_built(first), *(_built(rhs) for _, rhs in rest)]
        if ops == "+-":
            if all(isinstance(b, _Monomial) or b.den.is_one for b in built):
                return self.run_sum(built, [1, *(1 if val == "+" else -1 for val, _ in rest)])
        elif all(isinstance(b, _Monomial) for b in built) and all(val == "*" for val, _ in rest):
            return reduce(mul, built)
        value = _rf(built[0])
        for (val, _), b in zip(rest, built[1:]):
            value = _OPERATORS[val][0](value, _rf(b))
        return value

    def run_sum(self, built: list, signs: List[int]) -> Union[RationalFunction, _Monomial]:
        """The sum of signed monomials and polynomials, their terms collected
        in one pass over the least common denominator of the polynomials; a
        single Gaussian-integer term stays a monomial."""
        den, re, im = _sum_terms(
            (sign, 1, {b.key: b.re}, {b.key: b.im} if b.im else {}) if isinstance(b, _Monomial)
            else (sign, b.num.den, *b.num._embedded(self.names))
            for b, sign in zip(built, signs))
        laurent = any(isinstance(b, _Monomial) and b.laurent for b in built)
        if den == 1 and len(re) <= 1 and len(keys := re.keys() | im.keys()) <= 1:
            (k,) = keys or (0,)
            return _Monomial(k, re.get(k, 0), im.get(k, 0), self.names, laurent)
        return _fraction(self.names, den, re, im, laurent)

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
            if isinstance(base, _Monomial) and n < 0 and base.re ** 2 + base.im ** 2 != 1:
                # only a unit has a Gaussian-integer inverse
                base = _rf(base)
            # a power of a variable or of i has a 1-bit coefficient
            bits = 1 if named else k * _bits(base)
            if bits > MAX_POWER_BITS:
                raise ExprError(f"power with coefficients of {bits} bits exceeds {MAX_POWER_BITS}", pos)
            if isinstance(base, _Monomial):
                # as many terms as the base: one, or none for zero
                terms = _terms(base)
            else:
                terms = (_power_terms(base.num, k), _power_terms(base.den, k))[::1 if n >= 0 else -1]
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
            return _Monomial(0, _integer(val, pos), 0, self.names)
        if kind == "name":
            if val == "i":
                return _Monomial(0, 0, 1, self.names)
            if val in self.keys:
                return _Monomial(self.keys[val], 1, 0, self.names)
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
