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

One loop reads each run and folds every operand in as its tokens are
read, the run's degree, term and bit bounds alongside as plain ints.
Integers, 'i', variables, their integer powers and products of these are
Laurent monomials (key, re, im): a Gaussian-integer coefficient and one
packed key over the sorted variables, the sum of its factors' keys (see
`poly`), whose fields may be negative.  A run of '*' multiplies its
monomials into one as it reads them; a run of '+' and '-' adds each
monomial and polynomial into one term dict, put over a monomial
denominator, coprime and monic, without a gcd.  RationalFunction
arithmetic starts only at '/', at a product with an operand that is not
a monomial, at a power of a base that is not one, or at a negative power
of a coefficient that is not a unit; such an operand waits, with its
bounds, until its run has passed.  A run of '*' of nonzero polynomials,
in parentheses or not, stays unbuilt with its degree, the sum of its
factors': the run or power around it checks that degree before the
product is formed, and reads its terms and bits off the built value.  A
monomial's bounds are those of the RationalFunction it stands for, so the
errors and positions are the same whichever way a run is built.
"""

from __future__ import annotations

import re
from functools import lru_cache, reduce
from math import comb
from operator import mul, or_
from typing import Sequence

from .poly import FIELD, _gauss_pow, _sum_terms
from .ratfunc import RationalFunction, _exponents, _fraction, _unit_keys

# an integer, a name or an operator, after any blanks
_TOKEN = re.compile(r"\s*(\d+|[A-Za-z_][A-Za-z_0-9]*|[()+\-*/^])")
_SIGNS, _PRODUCT = frozenset("+-"), frozenset("*/")
# a character that starts no token
_OTHER = re.compile(r"[^\s\dA-Za-z_()+\-*/^]")

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


class _Unbuilt:
    """A power of a built base, or a product of two or more nonzero polynomials (n = 1)."""

    __slots__ = ("parts", "n", "negative")

    def __init__(self, parts: list, n: int, negative: bool = False):
        self.parts, self.n, self.negative = parts, n, negative

    def __neg__(self) -> "_Unbuilt":
        return _Unbuilt(self.parts, self.n, not self.negative)

    @property
    def is_zero(self) -> bool:
        return len(self.parts) == 1 and self.n > 0 and self.parts[0].is_zero

    def built(self) -> RationalFunction:
        value = reduce(mul, [p.built() if type(p) is _Unbuilt else p for p in self.parts])
        value = value ** self.n if len(self.parts) == 1 else value
        return -value if self.negative else value


# An operand is read as (value, numerator and denominator degrees, their
# term bounds, bit bound, whether it is a polynomial with Gaussian-integer
# coefficients, a mask of its variables that may leave out a monomial's).
# The value is a monomial (key, re, im), zero with the key 0, a
# RationalFunction, measured (until then m is None) only when a run or a
# power reads its bounds, or an _Unbuilt, a product's terms and bits None.


def _power_terms(p, n: int) -> int:
    """A bound on the terms of the polynomial p^n, n >= 0."""
    t, v = p.term_count(), len(p.variables)
    return min(comb(n + t - 1, t - 1), comb(n * p.degree() + v, v)) if t > 1 else t


def _zero(x) -> bool:
    return not (x[1] or x[2]) if type(x) is tuple else x.is_zero


@lru_cache(maxsize=64)
def _tables(names: tuple) -> tuple:
    """A bit of a variable mask for each variable, and the atom that each
    token naming a variable, or 'i', stands for."""
    keys, bit = _unit_keys(names), {v: 1 << j for j, v in enumerate(names)}
    atoms = {v: ((keys[v], 1, 0), 1, bit[v]) for v in names if v.isascii() and v.isidentifier()}
    atoms["i"] = ((0, 0, 1), 0, 0)
    return bit, atoms


class _Parser:
    def __init__(self, text: str, variables: Sequence[str]):
        other = _OTHER.search(text)
        if other:
            raise ExprError(f"unexpected character {other.group()!r}", other.start())
        self.text, self.tokens, self.k, self.depth = text, _TOKEN.findall(text) + [""], 0, 0
        self.names = tuple(sorted(set(variables)))
        self.bit, self.atoms = _tables(self.names)

    def error(self, message: str, k: int) -> ExprError:
        starts = [m.start(1) for m in _TOKEN.finditer(self.text)] + [len(self.text)]
        return ExprError(message, starts[k])

    def integer(self, text: str, k: int) -> int:
        try:
            return int(text)
        except ValueError:  # longer than Python converts (sys.get_int_max_str_digits)
            raise self.error(f"integer literal of {len(text)} digits is too long", k) from None

    def mask(self, x) -> int:
        """The variables of a value, one bit each."""
        if type(x) is tuple:
            return sum(1 << j for j, e in enumerate(_exponents(x[0], len(self.names))) if e)
        if type(x) is _Unbuilt:
            return self.mask(x.parts[0]) if x.n else 0
        return reduce(or_, (self.bit[v] for v in (*x.num.variables, *x.den.variables)), 0)

    def measured(self, f: RationalFunction) -> tuple:
        """A built value read as an operand."""
        num, den = f.num, f.den
        bits = num.coeff_bits() if den.is_one else max(num.coeff_bits(), den.coeff_bits())
        return (f, num.degree(), den.degree(), num.term_count(), den.term_count(), bits,
                den.is_one and num.den == 1, self.mask(f))

    def rf(self, x, laurent: bool = True) -> RationalFunction:
        if type(x) is tuple:
            return _fraction(self.names, 1, {x[0]: x[1]}, {x[0]: x[2]}, laurent)
        return x.built() if type(x) is _Unbuilt else x

    def monomial(self, key: int, re: int, im: int, laurent: bool) -> tuple:
        """A built monomial, laurent when some exponent may be negative."""
        if not (re or im):
            return (0, 0, 0), 0, 0, 0, 1, 1, True, 0
        if laurent:
            x = _exponents(key, len(self.names))
            m, e = sum(v for v in x if v > 0), -sum(v for v in x if v < 0)
        else:
            m, e = key >> FIELD * len(self.names), 0
        return (key, re, im), m, e, 1, 1, max(1, re.bit_length(), im.bit_length()), not e, 0

    def cap(self, tn: int, td: int, n: int, d: int, mask: int, op: str, at: int) -> tuple:
        """Term bounds capped by the monomials of degree n and d in the run's variables."""
        v = mask.bit_count()
        tn, td = min(tn, comb(n + v, v)), min(td, comb(d + v, v))
        if max(tn, td) > MAX_TERMS:
            raise self.error(f"up to {max(tn, td)} terms at {op!r} exceed {MAX_TERMS}", at)
        return tn, td

    def parse(self) -> RationalFunction:
        x, _, e = self.expr()[:3]
        if self.tokens[self.k]:
            raise self.error(f"unexpected token {self.tokens[self.k]!r}", self.k)
        return self.rf(x, bool(e))

    def expr(self) -> tuple:
        """A run of '+' and '-' of runs of '*' and '/' of unaries, each run
        checked at every operator before anything is built; a lone operand
        is passed on unexpanded."""
        toks, atoms = self.tokens, self.atoms
        k, sop = self.k, None
        while True:
            op = None
            while True:
                negative = False
                while toks[k] in _SIGNS:
                    negative ^= toks[k] == "-"
                    k += 1
                t, at = toks[k], k
                k += 1
                te, integral, named = 1, True, atoms.get(t)
                if named:
                    y, m, fv = named
                    e, tm, b = 0, 1, 1
                elif t.isdigit():
                    c = self.integer(t, at)
                    y, m, e, tm, b, fv = (0, c, 0), 0, 0, 1 if c else 0, c.bit_length() or 1, 0
                elif t == "(":
                    self.depth += 1
                    if self.depth > MAX_NESTING:
                        raise self.error(f"parentheses nested deeper than {MAX_NESTING}", at)
                    self.k = k
                    y, m, e, tm, te, b, integral, fv = self.expr()
                    k = self.k
                    if toks[k] != ")":
                        raise self.error("expected ')'", k)
                    k += 1
                    self.depth -= 1
                    if type(y) is tuple:
                        fv |= self.mask(y)
                elif t[:1].isalpha() or t[:1] == "_":
                    raise self.error(f"unknown variable {t!r}", at)
                else:
                    raise self.error(f"unexpected token {t or 'end of input'!r}", at)
                if toks[k] == "^":
                    y, m, e, tm, te, b, integral, fv, k = self.power(y, m, e, b, fv, named, k)
                if negative:
                    y = (y[0], -y[1], -y[2]) if type(y) is tuple else -y
                nxt = toks[k]
                if op is None and nxt not in _PRODUCT:
                    break
                if m is None:
                    y, m, e, tm, te, b, integral, fv = self.measured(y)
                if op is None:
                    n, d, tn, td, bits, mask = m, e, tm, te, b, fv
                    (key, re, im), rest = (y, []) if type(y) is tuple else ((0, 1, 0), [("*", y)])
                    laurent, product = e > 0 and not rest, not rest or (not e and not _zero(y))
                else:
                    if op == "/" and _zero(y):
                        raise self.error("division by identically-zero expression", oat)
                    n, d = (n + m, d + e) if op == "*" else (n + e, d + m)
                    if n > MAX_DEGREE or d > MAX_DEGREE:
                        raise self.error(f"degree up to {max(n, d)} at {op!r} exceeds {MAX_DEGREE}", oat)
                    if tn is None:  # the first operand is an unbuilt product, its degree now checked
                        rest[0] = ("*", rest[0][1].built())
                        tn, td, bits = self.measured(rest[0][1])[3:6]
                    if tm is None:
                        y = y.built()
                        tm, te, b = self.measured(y)[3:6]
                    tn, td = (tn * tm, td * te) if op == "*" else (tn * te, td * tm)
                    mask |= fv
                    if tn > MAX_TERMS or td > MAX_TERMS:
                        tn, td = self.cap(tn, td, n, d, mask, op, oat)
                    bits += b
                    if bits > MAX_POWER_BITS:
                        raise self.error(f"coefficients of up to {bits} bits at {op!r} exceed {MAX_POWER_BITS}", oat)
                    if op == "*" and type(y) is tuple:
                        key += y[0]
                        re, im = re * y[1] - im * y[2], re * y[2] + im * y[1]
                        laurent = laurent or e > 0
                    else:
                        product = product and op == "*" and not e and not _zero(y)
                        rest.append((op, y))
                    if nxt not in _PRODUCT:
                        break
                op, oat = nxt, k
                k += 1
            if op is not None:
                if not rest:
                    y, m, e, tm, te, b, integral, fv = self.monomial(key, re, im, laurent)
                elif product and not laurent and (re or im):
                    # a product of nonzero polynomials: its degree is the sum of its factors'
                    parts = [self.rf((key, re, im), False), *(x for _, x in rest)]
                    fv = reduce(or_, map(self.mask, parts[1:]), self.mask((key, 1, 0)))
                    y, m, e, tm, te, b, integral = _Unbuilt(parts, 1), n, 0, None, None, None, None
                else:
                    y, m = self.rf((key, re, im), laurent), None
                    for op, x in rest:
                        y = y * self.rf(x) if op == "*" else y / self.rf(x)
            nxt = toks[k]
            if sop is None and nxt not in _SIGNS:
                self.k = k
                return y, m, e, tm, te, b, integral, fv
            if m is None:
                y, m, e, tm, te, b, integral, fv = self.measured(y)
            if sop is None:
                first, sn, sd, stn, std, sbits, whole, smask = y, m, e, tm, te, b, integral, fv
                later, slaurent = [], e > 0 and type(y) is tuple
            else:
                sn, sd = max(sn + e, m + sd), sd + e
                if sn > MAX_DEGREE or sd > MAX_DEGREE:
                    raise self.error(f"degree up to {max(sn, sd)} at {sop!r} exceeds {MAX_DEGREE}", sat)
                if first is not None:  # the first operand, its degree now checked
                    if stn is None:
                        first = first.built()
                        stn, std, sbits, whole = self.measured(first)[3:7]
                    sre, sim, top = {}, {}, sbits
                    if type(first) is tuple:
                        sre[first[0]] = first[1]
                        if first[2]:
                            sim[first[0]] = first[2]
                    else:
                        later.append((1, first))
                    first = None
                if tm is None:
                    y = y.built()
                    tm, te, b, integral = self.measured(y)[3:7]
                stn, std = stn * te + tm * std, std * te
                smask |= fv
                if stn > MAX_TERMS or std > MAX_TERMS:
                    keys = (sre.keys() | sim.keys()) | ({y[0]} if type(y) is tuple else set())
                    smask = reduce(or_, (self.mask((x, 1, 0)) for x in keys), smask)
                    stn, std = self.cap(stn, std, sn, sd, smask, sop, sat)
                sbits, top, whole = sbits + b, max(top, b), whole and integral
                size = top if whole else sbits
                if size > MAX_POWER_BITS:
                    raise self.error(f"coefficients of up to {size} bits at {sop!r} exceed {MAX_POWER_BITS}", sat)
                if type(y) is tuple:
                    key, f = y[0], 1 if sop == "+" else -1
                    sre[key] = sre.get(key, 0) + f * y[1]
                    if y[2]:
                        sim[key] = sim.get(key, 0) + f * y[2]
                    slaurent = slaurent or e > 0
                else:
                    later.append((1 if sop == "+" else -1, y))
            if nxt not in _SIGNS:
                break
            sop, sat = nxt, k
            k += 1
        self.k = k
        # the polynomials join the monomials over their least common denominator
        polynomials, fractions, den = [], [], 1
        for sign, y in later:
            y = self.rf(y)
            if y.den.is_one:
                polynomials.append((sign, y.num.den, *y.num._embedded(self.names)))
            else:
                fractions.append((sign, y))
        if polynomials:
            den, sre, sim = _sum_terms([(1, 1, sre, sim), *polynomials])
        if den == 1 and not fractions and len(sre) <= 1 and len(keys := sre.keys() | sim.keys()) <= 1:
            (x,) = keys or (0,)
            return self.monomial(x, sre.get(x, 0), sim.get(x, 0), slaurent)
        value = _fraction(self.names, den, sre, sim, slaurent)
        for sign, y in fractions:
            value = value + y if sign > 0 else value - y
        return value, None, None, None, None, None, None, None

    def power(self, x, m, e, b: int, fv: int, named, k: int) -> tuple:
        """x^n from the '^' at token k, checked: a monomial's built, any other unbuilt."""
        toks, at = self.tokens, k
        parenthesized = toks[k + 1] == "("
        k += 1 + parenthesized
        sign = -1 if toks[k] == "-" else 1
        k += toks[k] in _SIGNS
        if not toks[k].isdigit():
            raise self.error("expected integer exponent", k)
        if parenthesized and toks[k + 1] != ")":
            raise self.error("expected ')'", k + 1)
        n, k = sign * self.integer(toks[k], k), k + 1 + parenthesized
        if n < 0 and _zero(x):
            raise self.error("negative power of zero expression", at)
        if m is None:
            m, e = x.num.degree(), x.den.degree()
        a = abs(n)
        if a * max(m, e, 1) > MAX_DEGREE:
            raise self.error(f"power of degree {a * max(m, e, 1)} exceeds {MAX_DEGREE}", at)
        if type(x) is _Unbuilt:
            x = x.built()
        if type(x) is tuple and n < 0 and x[1] ** 2 + x[2] ** 2 != 1:
            # only a unit has a Gaussian-integer inverse
            x = self.rf(x, e > 0)
        if type(x) is tuple:
            key, r, i = x
            # a power of a variable or of i has a 1-bit coefficient
            b = 1 if named else a * max(1, r.bit_length(), i.bit_length())
            tm, te, integral = 1 if r or i else 0, 1, n >= 0 and not e
            if i or r != 1:
                r, i = _gauss_pow(r, i if n >= 0 else -i, a)
            x = (key * n, r, i)
        else:
            _, m, e, tm, te, b, whole, fv = self.measured(x)
            terms = (_power_terms(x.num, a), _power_terms(x.den, a))
            (tm, te), b = terms if n >= 0 else terms[::-1], a * b
            x, integral = _Unbuilt([x], n), n >= 0 and whole
        if b > MAX_POWER_BITS:
            raise self.error(f"power with coefficients of {b} bits exceeds {MAX_POWER_BITS}", at)
        if max(tm, te) > MAX_TERMS:
            raise self.error(f"power of up to {max(tm, te)} terms exceeds {MAX_TERMS}", at)
        m, e = (m * a, e * a) if n >= 0 else (e * a, m * a)
        return x, m, e, tm, te, b, integral, fv, k


def parse_expr(text: str, variables: Sequence[str]) -> RationalFunction:
    """Parse text into a canonical RationalFunction over the declared variables."""
    if "i" in variables:
        raise ValueError("'i' is reserved for the imaginary unit")
    return _Parser(text, variables).parse()
