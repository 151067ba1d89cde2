"""Scalar, polynomial, rational-function and parser tests.

The gcd is cross-checked against sympy, which serves purely as an
independent oracle here; the library itself never imports it.
"""

import random
from fractions import Fraction

import pytest

from cechchern import (
    ExprError,
    GaussianRational,
    Polynomial,
    RationalFunction,
    parse_expr,
    poly_gcd,
)
from cechchern.poly import divexact
from cechchern.ratfunc import rf_str


def rf(text, variables=("z", "w")):
    return parse_expr(text, variables)


# -- Gaussian rationals ---------------------------------------------------------


def test_gaussian_field_ops():
    a = GaussianRational(Fraction(1, 2), Fraction(-3, 4))
    b = GaussianRational(2, 5)
    assert (a + b) - b == a
    assert (a * b) / b == a
    assert a * a.inverse() == GaussianRational(1)
    assert GaussianRational(0, 1) ** 4 == GaussianRational(1)
    assert GaussianRational(0, 1) ** 2 == GaussianRational(-1)


def test_gaussian_inverse_of_zero():
    with pytest.raises(ZeroDivisionError):
        GaussianRational(0).inverse()


# -- polynomials --------------------------------------------------------------------


def rand_gauss(rng):
    return GaussianRational(
        Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
        Fraction(rng.randint(-2, 2), rng.randint(1, 2)),
    )


def rand_poly(rng, variables=("w", "z"), nterms=3, maxdeg=3):
    terms = {}
    for _ in range(nterms):
        e = tuple(rng.randint(0, maxdeg) for _ in variables)
        terms[e] = rand_gauss(rng)
    return Polynomial.make(variables, terms)


def test_poly_ring_axioms_random():
    rng = random.Random(7)
    for _ in range(60):
        a, b, c = (rand_poly(rng) for _ in range(3))
        assert (a + b) * c == a * c + b * c
        assert a * (b * c) == (a * b) * c
        assert a + b == b + a


def test_poly_variable_pruning():
    p = parse_expr("z + w - w", ["z", "w"])
    assert p.num.variables == ("z",)
    assert p == parse_expr("z", ["z"])


def test_poly_make_takes_sorted_distinct_variables():
    one = {(0, 1): GaussianRational(1)}
    assert Polynomial.make(("w", "z"), one) == parse_expr("z", ["z"]).num
    with pytest.raises(ValueError):
        Polynomial.make(("z", "w"), one)
    with pytest.raises(ValueError):
        Polynomial.make(("z", "z"), one)


def test_divexact_roundtrip_random():
    rng = random.Random(3)
    for _ in range(40):
        a = rand_poly(rng, nterms=2)
        b = rand_poly(rng, nterms=2)
        if b.is_zero:
            continue
        q = divexact(a * b, b)
        assert q == a or (a.is_zero and q.is_zero)


def test_gcd_basic():
    z = Polynomial.variable("z")
    one = Polynomial.one()
    assert poly_gcd(z ** 2 - one, z - one) == z - one
    assert poly_gcd(z ** 3, z ** 5) == z ** 3
    assert poly_gcd(Polynomial.zero(), z ** 2) == z ** 2


def test_gcd_matches_sympy_oracle():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(11)
    zs, ws = sympy.symbols("z w")

    def to_sympy(p):
        expr = sympy.Integer(0)
        symmap = {"z": zs, "w": ws}
        for e, c in p.terms.items():
            term = sympy.Rational(c.re.numerator, c.re.denominator) + sympy.I * sympy.Rational(
                c.im.numerator, c.im.denominator
            )
            for v, k in zip(p.variables, e):
                term *= symmap[v] ** k
            expr += term
        return sympy.expand(expr)

    for _ in range(25):
        a = rand_poly(rng, nterms=2, maxdeg=2)
        b = rand_poly(rng, nterms=2, maxdeg=2)
        g = rand_poly(rng, nterms=2, maxdeg=2)
        mine = poly_gcd(a * g, b * g)
        theirs = sympy.gcd(to_sympy(a * g), to_sympy(b * g), zs, ws, extension=[sympy.I])
        # Compare up to units: both sides must divide each other.
        mine_s = to_sympy(mine)
        if theirs == 0:
            assert mine.is_zero
            continue
        q1 = sympy.simplify(mine_s / theirs)
        assert q1.is_constant(zs, ws), (mine_s, theirs)


# -- rational functions ------------------------------------------------------------


def test_rf_normalize_examples():
    # (z^2 - 1)/(z - 1) reduces to z + 1
    f = rf("(z^2 - 1)/(z - 1)", ["z"])
    assert f == rf("z + 1", ["z"])
    # (2z)/4 normalizes with monic denominator
    g = rf("(2*z)/4", ["z"])
    assert g.den.is_one
    assert g == rf("z/2", ["z"])
    # zero canonicalizes to 0/1
    h = rf("0/(z^3)", ["z"])
    assert h.is_zero and h.den.is_one and h.variables == ()


def renormalized(f):
    return RationalFunction(f.num, f.den)


def test_rf_normalize_idempotent_and_multiplicative():
    rng = random.Random(5)
    for _ in range(40):
        a = RationalFunction(rand_poly(rng, nterms=2), rand_poly(rng, nterms=1) + Polynomial.one())
        b = RationalFunction(rand_poly(rng, nterms=2), rand_poly(rng, nterms=1) + Polynomial.one())
        assert renormalized(a) == a
        assert renormalized(a) * renormalized(b) == renormalized(a * b)


def test_rf_power_is_the_repeated_product_random():
    rng = random.Random(17)
    for _ in range(20):
        f = RationalFunction(rand_poly(rng, nterms=2, maxdeg=2), rand_poly(rng, nterms=2, maxdeg=2) + Polynomial.one())
        if f.is_zero:
            continue
        assert f.inverse() == renormalized(RationalFunction(f.den, f.num, _normalized=True))
        for n in range(-3, 4):
            product = RationalFunction.one()
            for _ in range(abs(n)):
                product = product * (f if n > 0 else f.inverse())
            assert f ** n == product
            assert renormalized(f ** n) == f ** n


def test_rf_power_and_inverse_take_no_gcd(monkeypatch):
    # a reduced fraction stays reduced under powers and inversion
    import cechchern.ratfunc

    f = rf("(z^2 + w)/(2*z - 3*w + 1)")
    calls = []
    monkeypatch.setattr(cechchern.ratfunc, "poly_gcd", lambda a, b: calls.append((a, b)) or poly_gcd(a, b))
    f ** 5
    f.inverse()
    assert not calls


def test_rf_field_axioms_random():
    rng = random.Random(13)
    for _ in range(50):
        a = RationalFunction(rand_poly(rng, nterms=2, maxdeg=2), rand_poly(rng, nterms=1, maxdeg=2) + Polynomial.one())
        b = RationalFunction(rand_poly(rng, nterms=2, maxdeg=2), rand_poly(rng, nterms=1, maxdeg=2) + Polynomial.one())
        c = RationalFunction(rand_poly(rng, nterms=2, maxdeg=2), rand_poly(rng, nterms=1, maxdeg=2) + Polynomial.one())
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        if not a.is_zero:
            assert a * (RationalFunction.one() / a) == RationalFunction.one()


def test_rf_derivative_quotient_rule():
    f = rf("1/z", ["z"])
    assert f.derivative("z") == rf("-1/z^2", ["z"])
    g = rf("(z^2 + 1)/(z - 1)", ["z"])
    h = rf("z^3", ["z"])
    prod = g * h
    assert prod.derivative("z") == g.derivative("z") * h + g * h.derivative("z")


# -- parser --------------------------------------------------------------------------


def test_parse_examples_from_contract():
    f = rf("(1+2*i)/z^2", ["z"])
    assert f.num == Polynomial.const(GaussianRational(1, 2))
    assert f.den == Polynomial.variable("z") ** 2

    assert rf("z*w - w*z").is_zero

    with pytest.raises(ExprError, match="identically-zero"):
        rf("1/(z-z)", ["z"])


def test_parse_negative_exponent_sugar():
    assert rf("z^-2", ["z"]) == rf("1/z^2", ["z"])
    assert rf("z^(-3)", ["z"]) == rf("1/z^3", ["z"])
    assert rf("(1+z)^-1", ["z"]) == rf("1/(1+z)", ["z"])


def test_parse_errors_report_position():
    with pytest.raises(ExprError) as err:
        rf("z + ", ["z"])
    assert "position" in str(err.value)
    with pytest.raises(ExprError):
        rf("q + 1", ["z"])
    with pytest.raises(ExprError):
        rf("z ^ w", ["z", "w"])


def test_parse_nesting_bound():
    from cechchern.exprparse import MAX_NESTING

    deep = "(" * MAX_NESTING + "z" + ")" * MAX_NESTING
    assert rf(deep, ["z"]) == rf("z", ["z"])
    for depth in (MAX_NESTING + 1, 3000):
        with pytest.raises(ExprError, match="nested deeper"):
            rf("(" * depth + "z" + ")" * depth, ["z"])


def test_parse_serialize_roundtrip_random():
    rng = random.Random(17)
    for _ in range(60):
        f = RationalFunction(rand_poly(rng, nterms=3), rand_poly(rng, nterms=2) + Polynomial.one())
        assert parse_expr(rf_str(f), ["z", "w"]) == f
    # Constants with mixed complex coefficients survive too.
    g = RationalFunction.const(GaussianRational(Fraction(-1, 2), Fraction(3, 7)))
    assert parse_expr(rf_str(g), []) == g
