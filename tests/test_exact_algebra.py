"""Scalar, polynomial, rational-function and parser tests.

The gcd is cross-checked against sympy, which serves purely as an
independent oracle here; the library itself never imports it.
"""

import random
import sys
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
from cechchern.poly import _unpack, cofactors, divexact
from cechchern.ratfunc import rf_str


def rf(text, variables=("z", "w")):
    return parse_expr(text, variables)


def sorted_exponents(p):
    """The exponent tuples of p in descending packed-key order, leading term first."""
    return [_unpack(k, len(p.variables)) for k in sorted(p._exponents(), reverse=True)]


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


def test_sorted_exponents_are_descending_grlex_random():
    # packed keys order terms as (total degree, exponent tuple) does, and
    # the cached degrees agree with the terms
    rng = random.Random(31)
    names = ("u", "v", "w", "z")
    for _ in range(200):
        variables = tuple(sorted(rng.sample(names, rng.randint(1, 4))))
        p = rand_poly(rng, variables, nterms=rng.randint(1, 8), maxdeg=rng.choice([1, 3, 7]))
        exponents = list(p.terms)
        assert sorted_exponents(p) == sorted(exponents, key=lambda e: (sum(e), e), reverse=True)
        assert p.degree() == max(map(sum, exponents), default=0)
        for i, v in enumerate(p.variables):
            assert p.degree_in(v) == max(e[i] for e in exponents)


def test_equal_values_over_different_variables_have_equal_keys():
    # a value built over more variables than it uses is pruned to the same
    # variables, keys, dicts and hash as the value built over those alone
    rng = random.Random(37)
    names = ("u", "v", "w", "z")
    for _ in range(100):
        used = tuple(sorted(rng.sample(names, rng.randint(0, 3))))
        wider = tuple(sorted(set(used) | set(rng.sample(names, rng.randint(1, 4)))))
        terms = {tuple(rng.randint(1, 4) for _ in used): rand_gauss(rng) for _ in range(3)}
        p = Polynomial.make(used, terms)
        spread = {tuple(e[used.index(v)] if v in used else 0 for v in wider): c for e, c in terms.items()}
        q = Polynomial.make(wider, spread)
        x = rng.choice([v for v in names if v not in used])
        extra = Polynomial.variable(x)
        for other in (q, (p + extra) - extra, (p * extra).derivative(x)):
            assert (other.variables, other.den, other.re, other.im) == (p.variables, p.den, p.re, p.im)
            assert hash(other) == hash(p)
    assert Polynomial.const(5) == Polynomial.make((), {(): GaussianRational(5)})
    assert Polynomial.const(0) == Polynomial.zero() and Polynomial.const(1).is_one


def test_total_degree_stays_inside_its_field():
    # a total degree of 2^32 - 1 fits; one that would reach 2^32 raises
    # instead of carrying into the next field
    z, w = Polynomial.variable("z"), Polynomial.variable("w")
    top = z ** (2 ** 32 - 1)
    assert top.degree() == top.degree_in("z") == 2 ** 32 - 1
    assert sorted_exponents(top) == [(2 ** 32 - 1,)]
    assert (top.derivative("z") * z).scaled(1, 0, 2 ** 32 - 1) == top
    for build in (lambda: z ** (2 ** 32), lambda: top * z, lambda: top * w,
                  lambda: z ** (2 ** 31) * w ** (2 ** 31),
                  lambda: Polynomial.make(("w", "z"), {(2 ** 31, 2 ** 31): GaussianRational(1)})):
        with pytest.raises(ValueError, match="does not fit"):
            build()
    with pytest.raises(ValueError, match="negative exponent"):
        Polynomial.make(("z",), {(-1,): GaussianRational(1)})


def test_divexact_roundtrip_random():
    rng = random.Random(3)
    for _ in range(40):
        a = rand_poly(rng, nterms=2)
        b = rand_poly(rng, nterms=2)
        if b.is_zero:
            continue
        q = divexact(a * b, b)
        assert q == a or (a.is_zero and q.is_zero)


# -- the integer representation against a plain dict-of-Gaussian-rationals oracle


class Gauss(tuple):
    """A Gaussian rational (re, im) of Fractions with the field operations
    the oracle needs; the library's scalar type does no arithmetic."""

    def __new__(cls, re=0, im=0):
        return super().__new__(cls, (Fraction(re), Fraction(im)))

    def __add__(self, o):
        return Gauss(self[0] + o[0], self[1] + o[1])

    def __neg__(self):
        return Gauss(-self[0], -self[1])

    def __mul__(self, o):
        o = o if isinstance(o, Gauss) else Gauss(o)
        return Gauss(self[0] * o[0] - self[1] * o[1], self[0] * o[1] + self[1] * o[0])

    def __truediv__(self, o):
        n = o[0] * o[0] + o[1] * o[1]
        return self * Gauss(o[0] / n, -o[1] / n)

    def __bool__(self):
        return bool(self[0] or self[1])


def ref(p):
    """p as monomial -> Gauss, a monomial being its sorted (variable, power)
    pairs, so that no ambient variable set is involved."""
    return {tuple((v, k) for v, k in zip(p.variables, e) if k): Gauss(c.re, c.im) for e, c in p.terms.items()}


def ref_clean(terms):
    return {m: c for m, c in terms.items() if c}


def ref_add(a, b):
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, Gauss()) + c
    return ref_clean(out)


def ref_mul(a, b):
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            powers = dict(ma)
            for v, k in mb:
                powers[v] = powers.get(v, 0) + k
            m = tuple(sorted(powers.items()))
            out[m] = out.get(m, Gauss()) + ca * cb
    return ref_clean(out)


def ref_derivative(a, var):
    out = {}
    for m, c in a.items():
        powers = dict(m)
        k = powers.pop(var, 0)
        if k > 1:
            powers[var] = k - 1
        if k:
            out[tuple(sorted(powers.items()))] = c * k
    return out


def ref_monic(a):
    names = sorted({v for m in a for v, _ in m})

    def grlex(m):
        e = tuple(dict(m).get(v, 0) for v in names)
        return sum(e), e

    lead = a[max(a, key=grlex)]
    return {m: c / lead for m, c in a.items()}


def rand_oracle_poly(rng):
    variables = tuple(sorted(rng.sample(["u", "w", "z"], rng.randint(0, 3))))
    terms = {}
    for _ in range(rng.randint(0, 4)):
        e = tuple(rng.randint(0, 3) for _ in variables)
        terms[e] = GaussianRational(
            Fraction(rng.randint(-6, 6), rng.randint(1, 6)),
            Fraction(rng.randint(-3, 3), rng.randint(1, 4)) if rng.random() < 0.6 else 0,
        )
    return Polynomial.make(variables, terms)


def assert_canonical(p):
    from math import gcd

    assert p.den >= 1
    parts = list(p.re.values()) + list(p.im.values())
    assert all(parts)
    assert gcd(p.den, *parts) == 1
    assert list(p.variables) == sorted(set(p.variables))
    exponents = list(p.terms)
    for i, v in enumerate(p.variables):
        assert any(e[i] for e in exponents), (v, p)
    if p.is_zero:
        assert p.den == 1 and p.variables == ()


def test_integer_representation_matches_oracle_random():
    rng = random.Random(29)
    for _ in range(150):
        a, b = rand_oracle_poly(rng), rand_oracle_poly(rng)
        cr, ci, d = rng.randint(-4, 4), rng.randint(-2, 2), rng.choice([-3, -2, -1, 1, 2, 3, 6])
        cr += not (cr or ci)
        var = rng.choice(["u", "w", "z"])
        for p in (a, b):
            assert_canonical(p)
        cases = [
            (a + b, ref_add(ref(a), ref(b))),
            (a - b, ref_add(ref(a), {m: -x for m, x in ref(b).items()})),
            (-a, {m: -x for m, x in ref(a).items()}),
            (a * b, ref_mul(ref(a), ref(b))),
            (a ** 3, ref_mul(ref(a), ref_mul(ref(a), ref(a)))),
            (a ** 0, {(): Gauss(1)}),
            (a.derivative(var), ref_derivative(ref(a), var)),
            (a.scaled(cr, ci, d), {m: x * Gauss(Fraction(cr, d), Fraction(ci, d)) for m, x in ref(a).items()}),
        ]
        if not a.is_zero:
            cases.append((a.monic(), ref_monic(ref(a))))
        if not b.is_zero:
            q = divexact(a * b, b)
            cases.append((q, ref(a)))
            if not b.is_constant and not a.is_zero:
                # a leftover term of lower degree than b is no multiple of b
                assert divexact(a * b + Polynomial.one(), b) is None
        for got, expected in cases:
            assert_canonical(got)
            assert ref(got) == expected, (a, b, got)


def test_equal_values_have_equal_representations():
    z, w = Polynomial.variable("z"), Polynomial.variable("w")
    half, two = Polynomial.const(Fraction(1, 2)), Polynomial.const(2)
    i = Polynomial.const(GaussianRational(0, 1))
    routes = [
        (z * half * two, z),
        ((z + w) - w, z),
        ((z * i) * (z * i) + z ** 2, Polynomial.zero()),
        (divexact(z ** 2 - w ** 2, z - w), z + w),
        ((z * half).derivative("z") * two, Polynomial.one()),
        ((w * z * half + i).scaled(0, -2, 1), (w * z).scaled(0, -1, 1) + two),
        ((two * z + two * i).monic(), z + i),
    ]
    for got, expected in routes:
        assert got == expected
        assert hash(got) == hash(expected)
        assert (got.variables, got.den, got.re, got.im) == (expected.variables, expected.den, expected.re, expected.im)


def test_polynomial_arithmetic_builds_no_gaussian_rational(monkeypatch):
    # sums, products, powers, derivatives, exact quotients and the monic
    # scaling of rational functions stay on ints
    rng = random.Random(31)
    a, b = rand_poly(rng, nterms=4), rand_poly(rng, nterms=3)
    product, three = a * b, Polynomial.const(GaussianRational(3, -1))
    f, g = RationalFunction(a, b), RationalFunction(b + three, a * three)
    made = []
    init = GaussianRational.__init__
    monkeypatch.setattr(GaussianRational, "__init__", lambda self, *args: made.append(args) or init(self, *args))
    a + b
    a * b
    a ** 3
    a.derivative("z")
    assert divexact(product, b) == a
    assert divexact(a, three) * three == a
    assert a.monic() == a.scaled(*a.monic_factor())
    assert (f * g) / g == f
    assert (f + g) - g == f
    assert f.inverse().inverse() == f
    assert f.derivative("z") == RationalFunction(a.derivative("z") * b - a * b.derivative("z"), b * b)
    assert RationalFunction(a, three) * RationalFunction.from_poly(three) == RationalFunction.from_poly(a)
    assert not made


def test_gcd_basic():
    z = Polynomial.variable("z")
    one = Polynomial.one()
    assert poly_gcd(z ** 2 - one, z - one) == z - one
    assert poly_gcd(z ** 3, z ** 5) == z ** 3
    assert poly_gcd(Polynomial.zero(), z ** 2) == z ** 2


def oracle_cases():
    """25 pairs (a*g, b*g) of random bivariate polynomials with a planted
    common factor g."""
    rng = random.Random(11)
    for _ in range(25):
        a, b, g = (rand_poly(rng, nterms=2, maxdeg=2) for _ in range(3))
        yield a * g, b * g


def real_oracle_cases():
    """10 pairs (a*g, b*g) in (w, z) and 10 in (u, w, z) with a planted
    common factor g, all with real rational coefficients: the operands of
    the heuristic gcd."""
    rng = random.Random(13)

    def real_poly(variables):
        return Polynomial.make(variables, {
            tuple(rng.randint(0, 2) for _ in variables):
                GaussianRational(Fraction(rng.randint(-9, 9), rng.randint(1, 3)))
            for _ in range(3)})

    for variables in (("w", "z"), ("u", "w", "z")):
        for _ in range(10):
            a, b, g = (real_poly(variables) for _ in range(3))
            yield a * g, b * g


def test_gcd_matches_sympy_oracle():
    # exact equality of the monic gcds as polynomials over Q(i); sympy's
    # monic divides by the lex-leading coefficient on both sides
    sympy = pytest.importorskip("sympy")
    gens = sympy.symbols("u w z")

    def to_sympy(p):
        terms = {}
        for e, c in p.terms.items():
            exponents = dict(zip(p.variables, e))
            terms[tuple(exponents.get(str(x), 0) for x in gens)] = (
                sympy.Rational(c.re.numerator, c.re.denominator)
                + sympy.I * sympy.Rational(c.im.numerator, c.im.denominator))
        return sympy.Poly.from_dict(terms, *gens, domain="QQ_I")

    cases = list(oracle_cases()) + list(real_oracle_cases())
    assert sum(ag.im == {} and bg.im == {} for ag, bg in cases) >= 20
    for ag, bg in cases:
        mine, theirs = to_sympy(poly_gcd(ag, bg)), to_sympy(ag).gcd(to_sympy(bg))
        if theirs.is_zero:
            assert mine.is_zero
            continue
        assert mine.monic() == theirs.monic(), (ag, bg, mine, theirs)


def test_cofactors_are_the_gcd_and_its_quotients():
    z, w = Polynomial.variable("z"), Polynomial.variable("w")
    one, zero = Polynomial.one(), Polynomial.zero()
    p = z * w + z - Polynomial.const(GaussianRational(2, 1))
    # the oracle cases, then the zero, constant, monomial and divisor
    # shapes, and a univariate pair that no shape before the PRS settles
    cases = list(oracle_cases()) + [
        (zero, p), (p, zero), (Polynomial.const(3), p), (p, one), (z ** 2 * w, p * z),
        (p * (z + w), p), (p, p * (z + w)), (p, p * Polynomial.const(GaussianRational(0, 3))),
        (z ** 3 - one, z - one), ((z - one) * (z + Polynomial.const(2)), (z - one) * (z + Polynomial.const(3))),
    ]
    for a, b in cases:
        g, ag, bg = cofactors(a, b)
        assert g == poly_gcd(a, b)
        assert g * ag == a and g * bg == b, (a, b, g, ag, bg)
    with pytest.raises(ZeroDivisionError):
        cofactors(zero, zero)


def test_divisor_pair_runs_no_prem(monkeypatch):
    # one side divides the other: the gcd is that side, found by one exact
    # division, without a pseudo-remainder sequence
    import cechchern.poly

    prems = []
    real_prem = cechchern.poly._prem
    monkeypatch.setattr(cechchern.poly, "_prem", lambda *args: prems.append(args) or real_prem(*args))
    b = rf("z*w + 2*z - i*w + 1").num
    a = b * rf("z^2 - 3*w + 5").num
    assert cofactors(a, b) == (b, divexact(a, b), Polynomial.one())
    assert cofactors(b, a) == (b, Polynomial.one(), divexact(a, b))
    assert not prems
    # a pair without a divisor still takes the PRS
    assert poly_gcd(a, b * rf("z + w").num) == b and prems


def _tool(name):
    # a module of tools/, loaded for its seeded cases: the gcd layer's
    # microbenchmark and the output comparison's expression trees
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parent.parent / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _spy(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: calls.append(args) or real(*args))
    return calls


def test_univariate_planted_gcd_takes_the_prs(monkeypatch):
    # a univariate pair takes the same route as a multivariate one: the
    # subresultant PRS finds a planted quadratic factor of a degree-63 and
    # a degree-62 polynomial with Gaussian coefficients in [-9, 9] well
    # within the bound
    import time

    import cechchern.poly

    ag, bg, g = _tool("gcd_bench").univariate_planted_pair(61)
    prs = _spy(monkeypatch, cechchern.poly, "_prs_gcd")
    start = time.perf_counter()
    assert poly_gcd(ag, bg) == g.monic()
    assert time.perf_counter() - start < 3
    assert len(prs) == 1


def test_coprime_univariate_pair_is_proven_by_images(monkeypatch):
    # a coprime pair of degree 40 and 39 is settled by the certificate,
    # once, without a PRS
    import cechchern.poly

    a, b = _tool("gcd_bench").univariate_coprime_pair(40)
    assert (a.degree(), b.degree()) == (40, 39)
    proofs = []
    real_proof = cechchern.poly._proven_coprime
    monkeypatch.setattr(cechchern.poly, "_proven_coprime",
                        lambda *args: proofs.append(real_proof(*args)) or proofs[-1])
    prs = _spy(monkeypatch, cechchern.poly, "_prs_gcd")
    assert cofactors(a, b) == (Polynomial.one(), a, b)
    assert proofs == [True] and not prs


def test_certificate_constants():
    from cechchern.poly import _P, _POINTS, _R

    assert _P % 4 == 1 and pow(2, _P - 1, _P) == 1
    assert _R * _R % _P == _P - 1
    assert len(set(_POINTS)) == len(_POINTS) and all(0 < x < _P for x in _POINTS)


def test_certificate_never_passes_a_planted_factor():
    # a nonconstant common factor is never proven coprime, in 2 to 4
    # variables, and the cofactors multiply back to the operands
    from cechchern.poly import _proven_coprime

    rng = random.Random(23)
    names = ("u", "v", "w", "z")
    checked = 0
    while checked < 40:
        variables = names[:rng.randint(2, 4)]
        g = rand_poly(rng, variables, nterms=3, maxdeg=1)
        a, b = (rand_poly(rng, variables, nterms=3, maxdeg=2) for _ in range(2))
        if g.is_constant or a.is_zero or b.is_zero:
            continue
        ag, bg = a * g, b * g
        vs = Polynomial._union_vars(ag, bg)
        assert not _proven_coprime(ag, bg, vs), (ag, bg)
        gcd, ag_over, bg_over = cofactors(ag, bg)
        assert divexact(gcd, g.monic()) is not None
        assert gcd * ag_over == ag and gcd * bg_over == bg
        checked += 1


def test_certificate_agrees_with_the_prs():
    # every pair the images prove coprime has gcd 1 by the PRS too, and a
    # coprime pair whose operands the dispatch swaps keeps the caller's order
    from cechchern.poly import _prs_gcd, _proven_coprime

    rng = random.Random(29)
    proven = 0
    for _ in range(60):
        variables = ("u", "w", "z")[:rng.randint(2, 3)]
        a, b = (rand_poly(rng, variables, nterms=4, maxdeg=2) for _ in range(2))
        vs = Polynomial._union_vars(a, b)
        if a.is_monomial or b.is_monomial or not _proven_coprime(a, b, vs):
            continue
        proven += 1
        assert _prs_gcd(a, b, vs).is_one, (a, b)
        assert cofactors(a, b) == (Polynomial.one(), a, b)
    assert proven > 30
    z, w = Polynomial.variable("z"), Polynomial.variable("w")
    a, b = z ** 2 + w, z + w ** 2
    assert cofactors(a, b) == (Polynomial.one(), a, b)
    assert cofactors(b, a) == (Polynomial.one(), b, a)


def test_vanishing_leading_coefficient_falls_through_to_the_prs(monkeypatch):
    # with w's point at 5, lc_z(a) = w - 5 vanishes there: the image of a
    # loses its degree in z, nothing is proven, and the PRS finds the gcd
    import cechchern.poly

    a, b = rf("(w - 5)*z^2 + w + z").num, rf("z^2 + w*z + 3").num
    g = rf("z*w + 2*z - i*w + 1").num
    prs = _spy(monkeypatch, cechchern.poly, "_prs_gcd")
    assert poly_gcd(a, b).is_one and not prs
    monkeypatch.setattr(cechchern.poly, "_POINTS", (5, 7))
    assert poly_gcd(a, b).is_one and len(prs) == 1
    assert poly_gcd(a * g, b * g) == g.monic()
    # more variables than points: nothing is proven, nothing raises
    c, before = rf("u*z + w", ("u", "w", "z")).num, len(prs)
    assert poly_gcd(a, b * c).is_one and len(prs) > before


def test_prem_is_the_full_pseudo_remainder():
    # _prem(p, q) = lc(q)^(δ+1)·p mod q: its difference from that multiple
    # of p is a multiple of q, and its degree is below q's
    from cechchern.poly import _as_univariate, _prem

    def check(p, q, var):
        dq = q.degree_in(var)
        lq = _as_univariate(q, var)[dq]
        r = _prem(p, q, var)
        assert r.is_zero or r.degree_in(var) < dq
        assert divexact(lq ** (p.degree_in(var) - dq + 1) * p - r, q) is not None
        return r

    rng = random.Random(37)
    for _ in range(30):
        p, q = rand_poly(rng, nterms=4, maxdeg=3), rand_poly(rng, nterms=3, maxdeg=2)
        var = rng.choice(("w", "z"))
        if q.degree_in(var) == 0 or p.degree_in(var) < q.degree_in(var):
            continue
        check(p, q, var)
    # one step cancels the leading coefficient down to degree 0: the two
    # powers of lc(q) = w that no step took are still multiplied in
    p, q = rf("z^3*w + z^2 + 1").num, rf("z*w + 1").num
    assert check(p, q, "z") == rf("w^3").num


def _heu_spy(monkeypatch):
    """The (a, b, result) of every call to the heuristic shape."""
    import cechchern.heugcd

    calls = []
    real = cechchern.heugcd.heu_gcd

    def spy(a, b, vs):
        calls.append((a, b, real(a, b, vs)))
        return calls[-1][2]

    monkeypatch.setattr(cechchern.heugcd, "heu_gcd", spy)
    return calls


# gcd z: the operands are z*w(w + 1)(1 - z) and z(w - 2)(z + 1), and one
# Kronecker substitution w = x^3, z = x would share x + 1 | x^3 + 1 as well
HEU_A, HEU_B = "-w^2*z^2 + w^2*z - w*z^2 + w*z", "w*z^2 + w*z - 2*z^2 - 2*z"


def test_heuristic_gcd_finds_z_without_a_prs(monkeypatch):
    import cechchern.poly

    a, b, z = rf(HEU_A).num, rf(HEU_B).num, rf("z").num
    heu, prs = _heu_spy(monkeypatch), _spy(monkeypatch, cechchern.poly, "_prs_gcd")
    assert cofactors(a, b) == (z, divexact(a, z), divexact(b, z))
    assert cofactors(b, a) == (z, divexact(b, z), divexact(a, z))
    assert len(heu) == 2 and all(result for _, _, result in heu) and not prs


def test_heuristic_cofactors_multiply_back(monkeypatch):
    # real planted pairs in 2 and 3 variables, with rational coefficients:
    # the shape settles almost all of them, and its quotients are exact
    heu = _heu_spy(monkeypatch)
    for ag, bg in real_oracle_cases():
        g, ag_over, bg_over = cofactors(ag, bg)
        assert g * ag_over == ag and g * bg_over == bg, (ag, bg)
    found = [(a, b, result) for a, b, result in heu if result]
    assert len(found) >= 18
    for a, b, (g, a_over, b_over) in found:
        assert g == g.monic() and g * a_over == a and g * b_over == b


def test_gaussian_operands_never_enter_the_heuristic(monkeypatch):
    import cechchern.poly

    heu, prs = _heu_spy(monkeypatch), _spy(monkeypatch, cechchern.poly, "_prs_gcd")
    ag, bg, g = _tool("gcd_bench").planted_pair(4)
    assert poly_gcd(ag, bg) == g.monic() and prs
    for ag, bg in oracle_cases():
        poly_gcd(ag, bg)
    assert len(prs) > 1
    assert all(not a.im and not b.im for a, b, _ in heu)


def test_heuristic_refuses_without_the_coprimality_proof(monkeypatch):
    # the candidate z passes both products, but with no proof that the
    # quotients are coprime the shape gives way to the PRS
    import cechchern.heugcd
    import cechchern.poly

    a, b = rf(HEU_A).num, rf(HEU_B).num
    expected = cofactors(a, b)
    heu, prs = _heu_spy(monkeypatch), _spy(monkeypatch, cechchern.poly, "_prs_gcd")
    monkeypatch.setattr(cechchern.heugcd, "_proven_coprime", lambda *args: False)
    assert cofactors(a, b) == expected
    assert heu[0][:2] == (a, b) and all(result is None for _, _, result in heu)
    assert prs[0][:2] == (a, b)


def test_heuristic_refuses_a_proper_common_factor(monkeypatch):
    # a candidate that divides both operands exactly but is not their gcd
    # leaves quotients with the common factor w + 1, which the images do
    # not prove coprime
    import cechchern.heugcd
    import cechchern.poly

    z, w1 = rf("z").num, rf("w + 1").num
    a, b = z * w1 * rf("w - z + 3").num, z * w1 * rf("w*z + 2").num
    vs = Polynomial._union_vars(a, b)

    def offer(a_num, b_num, n):
        yield z._embedded(vs)[0], divexact(a, z).re, divexact(b, z).re

    monkeypatch.setattr(cechchern.heugcd, "_candidates", offer)
    proofs = []
    real_proof = cechchern.heugcd._proven_coprime
    monkeypatch.setattr(cechchern.heugcd, "_proven_coprime",
                        lambda *args: proofs.append(args[:2]) or real_proof(*args))
    assert cechchern.heugcd.heu_gcd(a, b, vs) is None
    assert proofs == [(divexact(a, z), divexact(b, z))]
    prs = _spy(monkeypatch, cechchern.poly, "_prs_gcd")
    assert poly_gcd(a, b) == z * w1 and len(prs) == 1


def test_planted_bivariate_gcd_takes_three_contents(monkeypatch):
    # the subresultant PRS takes the two operands' contents and one
    # primitive part at the end; a primitive PRS took 9 at degree 6
    import cechchern.poly

    ag, bg, g = _tool("gcd_bench").planted_pair(6)
    contents = _spy(monkeypatch, cechchern.poly, "_content")
    assert poly_gcd(ag, bg) == g.monic()
    assert len(contents) <= 3


def test_symbolic_inverse_entries_add_without_a_prs(monkeypatch):
    # the entries of a symbolic 3x3 inverse share the determinant as their
    # denominator, and the gcds of adding two of them are proven 1 by images
    import cechchern.poly
    from cechchern.linalg import inverse

    names = "abcdefghk"
    inv = inverse([[rf(names[3 * r + c], names) for c in range(3)] for r in range(3)])
    prs = _spy(monkeypatch, cechchern.poly, "_prs_gcd")
    total = inv[0][0] + inv[1][2]
    assert total.den == rf("a*e*k - a*f*h - b*d*k + b*f*g + c*d*h - c*e*g", names).num
    assert not prs


def test_parse_coprime_bivariate_quotient_without_a_prs(monkeypatch):
    # a degree-8 quotient of coprime dense numerators parses without a PRS
    import cechchern.poly

    rng = random.Random(5)

    def dense(d):
        return " + ".join(f"({rng.randint(-9, 9)} + {rng.randint(-9, 9)}*i)*z^{i}*w^{j}"
                          for i in range(d + 1) for j in range(d + 1 - i))

    a, b = dense(8), dense(8)
    pa, pb = rf(a).num, rf(b).num
    prs = _spy(monkeypatch, cechchern.poly, "_prs_gcd")
    f = rf(f"({a})/({b})")
    assert not prs
    assert f.num * pb == pa * f.den and f.den == pb.monic()


def test_gcd_bench_quick(capsys):
    import json
    import time

    start = time.perf_counter()
    assert _tool("gcd_bench").main(["--quick"]) == 0
    assert time.perf_counter() - start < 2
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [line["case"] for line in lines] == ["planted-d4"]
    assert 0 <= lines[0]["min_s"] <= lines[0]["median_s"] and len(lines[0]["digest"]) == 16


def test_gcd_bench_fails_when_runs_disagree(monkeypatch, capsys):
    # a case whose runs print different values makes the tool exit 1
    bench = _tool("gcd_bench")
    runs = iter(range(bench.REPEATS))
    monkeypatch.setattr(bench, "cases", lambda quick: [("drifting", lambda: next(runs))])
    assert bench.main(["--quick"]) == 1
    assert "drifting: its 5 runs gave the digests" in capsys.readouterr().err


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
    monkeypatch.setattr(cechchern.ratfunc, "cofactors", lambda a, b: calls.append((a, b)) or cofactors(a, b))
    f ** 5
    f.inverse()
    assert not calls


def test_power_of_a_monomial_multiplies_no_polynomials(monkeypatch):
    # z^40 scales the key of z by 40 and leaves the denominator 1 alone,
    # and a Gaussian coefficient is raised on its own
    base, expected = rf("(1 + i)*z*w^2/3"), rf("(-4 - 4*i)*z^5*w^10/243")
    muls = _spy(monkeypatch, Polynomial, "__mul__")
    assert sorted_exponents(rf("z^40", ["z"]).num) == [(40,)]
    assert base ** 5 == expected
    assert not muls


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
    # zero has no inverse, in Q(i) as in the field of fractions
    for zero in (RationalFunction.zero(), RationalFunction.const(0)):
        with pytest.raises(ZeroDivisionError):
            zero.inverse()
        with pytest.raises(ZeroDivisionError):
            RationalFunction.one() / zero
    with pytest.raises(ZeroDivisionError):
        divexact(Polynomial.one(), Polynomial.const(0))


def test_rf_derivative_quotient_rule():
    f = rf("1/z", ["z"])
    assert f.derivative("z") == rf("-1/z^2", ["z"])
    g = rf("(z^2 + 1)/(z - 1)", ["z"])
    h = rf("z^3", ["z"])
    prod = g * h
    assert prod.derivative("z") == g.derivative("z") * h + g * h.derivative("z")


# -- cancellation before multiplying, against the unreduced formulas -------------


def rand_factor(rng, variables, maxdeg=1):
    """A random nonzero polynomial in variables, with imaginary and
    non-integer coefficients; a constant when variables is empty."""
    while True:
        p = rand_poly(rng, variables, nterms=rng.randint(1, 3), maxdeg=maxdeg)
        if not p.is_zero:
            return p


def rand_variables(rng):
    return tuple(sorted(rng.sample(["w", "x", "z"], rng.randint(0, 3))))


def rand_rf_pair(rng):
    """Two reduced fractions in 0-3 variables: with shared factors planted
    across numerators and denominators, equal denominators, constant
    denominators, or denominators free of some variable."""
    p, q, r, s, t = (rand_factor(rng, rand_variables(rng)) for _ in range(5))
    shape = rng.choice(("planted", "equal", "constant", "free"))
    if shape == "planted":
        return RationalFunction(p * q, r * s), RationalFunction(s * t, p * r)
    a = RationalFunction(p * q, r)
    if shape == "equal":
        return a, RationalFunction(a.num * t + s * a.den, a.den)
    if shape == "constant":
        return a, RationalFunction.from_poly(s * t)
    return a, RationalFunction(s, rand_factor(rng, ("w",)))


def parent_substitute(p, mapping):
    """p at the images in mapping, one normalized product and sum per term."""
    out = RationalFunction.zero()
    for e, c in p.monomials():
        term = RationalFunction.from_poly(c)
        for v, k in zip(p.variables, e):
            image = mapping.get(v, RationalFunction.variable(v))
            for _ in range(k):
                term = RationalFunction(term.num * image.num, term.den * image.den)
        out = RationalFunction(out.num * term.den + term.num * out.den, out.den * term.den)
    return out


def assert_rf_canonical(f):
    assert poly_gcd(f.num, f.den).is_one
    assert f.den.monic_factor() == (1, 0, 1)
    assert not f.den.is_constant or f.den.is_one
    assert not f.is_zero or f.den.is_one


def test_rf_arithmetic_matches_unreduced_formulas_random():
    rng = random.Random(41)
    equal_dens = 0
    for _ in range(120):
        a, b = rand_rf_pair(rng)
        equal_dens += a.den == b.den
        (n, d), (m, e) = (a.num, a.den), (b.num, b.den)
        var = rng.choice(["w", "x", "z"])
        cases = [
            (a * b, RationalFunction(n * m, d * e)),
            (a + b, RationalFunction(n * e + m * d, d * e)),
            (a - b, RationalFunction(n * e - m * d, d * e)),
            (a.derivative(var), RationalFunction(n.derivative(var) * d - n * d.derivative(var), d * d)),
        ]
        if not b.is_zero:
            cases.append((a / b, RationalFunction(n * e, d * m)))
        for got, expected in cases:
            assert_rf_canonical(got)
            assert got == expected, (a, b, got, expected)
        mapping = {}
        for v in rng.sample(["w", "x", "z"], 2):
            image = RationalFunction(rand_factor(rng, rand_variables(rng)), rand_factor(rng, tuple(sorted({"x", v}))))
            mapping[v] = rng.choice((image, RationalFunction.variable(v) ** -1))
        try:
            top, bottom = parent_substitute(n, mapping), parent_substitute(d, mapping)
            expected = RationalFunction(top.num * bottom.den, top.den * bottom.num)
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError):
                a.substitute(mapping)
            continue
        got = a.substitute(mapping)
        assert_rf_canonical(got)
        assert got == expected, (a, mapping, got, expected)
    assert equal_dens >= 10


def test_rf_gcds_see_no_full_product(monkeypatch):
    # products and sums of reduced fractions take gcds of operand-sized
    # pieces only, never of the unreduced numerator and denominator
    import cechchern.ratfunc

    a = rf("(z + w)*(z - 1)/((z + 1)*(w + 2))")
    cases = [
        (a, rf("(w + 2)*(z^2 + i)/((z + w)*(w - 3))")),  # cross-cancelling
        (a, rf("(3*z - w)/((w - 3)*(z - w))")),  # coprime denominators
        (rf("(z - 1)/((z + 1)*(w + 2))"), rf("(w + i*z)/((w + 2)*(z - w))")),  # one shared factor
    ]
    degrees = []
    monkeypatch.setattr(cechchern.ratfunc, "cofactors",
                        lambda p, q: degrees.append((p.degree(), q.degree())) or cofactors(p, q))
    for x, y in cases:
        bound = max(f.degree() for g in (x, y) for f in (g.num, g.den))
        results = [x * y, x + y, x - y, x / y]
        assert degrees and max(max(pair) for pair in degrees) <= bound, degrees
        for result in results:
            assert result == RationalFunction(result.num, result.den)
        degrees.clear()


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
    # a negative power of a unit with no variables declared
    for text, c, n in (("i^-1", GaussianRational(0, 1), -1), ("1^-1", 1, -1), ("(-1)^-3", -1, -3),
                       ("(-i)^-3", GaussianRational(0, -1), -3)):
        assert parse_expr(text, []) == RationalFunction.const(c) ** n, text


def test_parse_errors_report_position():
    with pytest.raises(ExprError) as err:
        rf("z + ", ["z"])
    assert "position" in str(err.value)
    with pytest.raises(ExprError):
        rf("q + 1", ["z"])
    with pytest.raises(ExprError):
        rf("z ^ w", ["z", "w"])
    # an unexpected character is located at itself, not at the blanks before it
    for text in ("z  $", "z\t$", "$"):
        with pytest.raises(ExprError, match="unexpected character") as err:
            parse_expr(text, ["z"])
        assert err.value.position == text.index("$"), text


def test_parse_nesting_bound():
    from cechchern.exprparse import MAX_NESTING

    deep = "(" * MAX_NESTING + "z" + ")" * MAX_NESTING
    assert rf(deep, ["z"]) == rf("z", ["z"])
    for depth in (MAX_NESTING + 1, 3000):
        with pytest.raises(ExprError, match="nested deeper"):
            rf("(" * depth + "z" + ")" * depth, ["z"])


def test_parse_degree_bound():
    from cechchern.exprparse import MAX_DEGREE

    assert MAX_DEGREE == 256
    at_limit = rf("(1 + z)^256", ["z"])
    assert at_limit.num.degree() == 256 and len(at_limit.num.re) == 257
    assert rf("(z^2 + w)^-128") == rf("1/(z^2 + w)^128")
    assert rf("2^256", []) == RationalFunction.const(2 ** 256)
    for text in ("(1 + z)^257", "(z^2 + w)^-129", "z^(-257)", "2^257", "(1+z)^3000", "(1+z)^100000"):
        with pytest.raises(ExprError, match="exceeds 256") as err:
            rf(text)
        assert err.value.position == text.rindex("^")
    # sums, differences, products and quotients are bounded too, from the
    # degrees of their operands and before anything is multiplied out
    assert rf("z^200 + z^100").num.degree() == 200
    assert rf("(1+z)^128*(1+z)^128").num.degree() == 256
    four = "(1+z)^256*(1+z)^256*(1+z)^256*(1+z)^256"
    six = "*".join(["(1+z)^90", "(1+w)^90"] * 3)
    for text, star in ((four, 0), (six, 1), ("1/z^200 - 1/w^100", None), ("z^200/(1/w^100)", None)):
        with pytest.raises(ExprError, match="exceeds 256") as err:
            rf(text)
        if star is not None:
            assert err.value.position == [i for i, ch in enumerate(text) if ch == "*"][star]


def test_parse_term_bound():
    # a power's terms are bounded by the multisets of its base's terms and
    # by the monomials of its degree, a run's by its result before
    # cancellation, capped by the monomials of its degree bound
    from cechchern.exprparse import MAX_TERMS

    assert MAX_TERMS == 10000
    names = ["a", "b", "c", "d", "z"]
    assert rf("z^256", names).num.degree() == 256
    assert len(rf("(1+a+b+c+d)^19", names).num.re) == 8855
    assert len(rf("(1+z)^128*(1+z)^128", names).num.re) == 257
    for text, message in (("(1+a+b+c+d)^20", "power of up to 10626 terms"),
                          ("(1+a+b+c+d)^256", "power of up to 186043585 terms"),
                          ("z/(1+a+b+c+d)^20", "power of up to 10626 terms"),
                          ("(1+a+b+c+d)^-20", "power of up to 10626 terms")):
        with pytest.raises(ExprError, match=message) as err:
            rf(text, names)
        assert err.value.position == text.rindex("^")
    for text, message, position in (("(1+a)^99*(1+b)^99 + 1", "up to 10001 terms at '\\+'", 18),
                                    ("(1+a)^99/(1+b)^-100", "up to 10100 terms at '/'", 8),
                                    ("1/(1+a)^99 + 1/(1+b)^100", "up to 10100 terms at '\\+'", 11)):
        with pytest.raises(ExprError, match=message) as err:
            rf(text, names)
        assert err.value.position == position


def test_long_integers_print_exactly():
    # ints past the 4 300 digits str() prints are split, never refused
    rng = random.Random(43)
    values = [10 ** 600, -(10 ** 600), 10 ** 600 - 1, 10 ** 5000, -(10 ** 12345) * 3 + 1]
    values += [rng.randrange(-(10 ** 20000), 10 ** 20000) for _ in range(20)]
    values += [rng.randrange(10 ** 700) * 10 ** rng.randrange(600, 5000) for _ in range(20)]
    printed = [str(GaussianRational(Fraction(v, 7 ** 6000), v)) for v in values]
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        expected = [str(GaussianRational(Fraction(v, 7 ** 6000), v)) for v in values]
    finally:
        sys.set_int_max_str_digits(limit)
    assert printed == expected


def test_parse_power_coefficient_bound():
    from cechchern.exprparse import MAX_POWER_BITS

    assert MAX_POWER_BITS == 4096
    # 2^15 and the denominator of z/2^15 take 16 bits, so their 256th
    # powers sit at the limit; 2^16 takes 17, so its 241st is one bit over
    assert rf("(2^15)^256", []) == RationalFunction.const(2 ** 3840)
    tiny = RationalFunction.const(Fraction(1, 2 ** 3840))
    assert rf("(2^15)^-256", []) == tiny
    assert rf("(z/2^15)^256") == rf("z^256") * tiny
    for text, bits in (("(2^16)^241", 4097), ("(2^16)^-241", 4097), ("(z/2^16)^241", 4097),
                       ("(3^100)^129 + z^3", 20511), ("((2^256)^256)^256", 65792)):
        with pytest.raises(ExprError, match=f"coefficients of {bits} bits exceeds 4096") as err:
            rf(text)
        assert err.value.position == text.index(")^") + 1


def test_parse_product_coefficient_bound():
    # a run of '*' and '/' is bounded by the sum of its operands' bits,
    # before anything is multiplied out: 2^2047 takes 2048 bits, so its
    # square sits at the limit and its product with 2^2048 is one bit over
    half, over = str(2 ** 2047), str(2 ** 2048)
    assert rf(f"{half}*{half}", []) == RationalFunction.const(2 ** 4094)
    assert rf(f"{half}/{half}", []) == RationalFunction.one()
    assert rf("(2^15)^128*(2^15)^128", []) == RationalFunction.const(2 ** 3840)
    # the last operator of each run trips, except where a built product
    # of 4095 bits meets another
    for text, bits in ((f"{half}*{over}", 4097), (f"z/{half}/{over}", 4098), (f"{half}*{half}*z", 4097),
                       ("(2^15)^128*(2^15)^128*3", 4098), (f"({half}*{half})*({half}*{half})", 8190)):
        with pytest.raises(ExprError, match=f"coefficients of up to {bits} bits at '[*/]' exceed 4096") as err:
            rf(text)
        last = max(text.rfind("*"), text.rfind("/"))
        assert err.value.position == (text.index(")*(") + 1 if ")*(" in text else last)
    big = "7" * 1200
    with pytest.raises(ExprError, match="exceed 4096") as err:
        rf("*".join([big] * 4) + " + z^3", ["z"])
    assert err.value.position == 1200


def test_parse_sum_coefficient_bound(monkeypatch):
    # a run of '+' and '-' of polynomials with Gaussian-integer coefficients
    # is bounded by its largest operand's bits: 2^4095 takes 4096, so it
    # sits at the limit and 2^4096 is one bit over.  Any other run adds up
    # its operands' bits: z/2^2047 takes 2048, so two such operands sit at
    # the limit and any third operand is over
    top, over, half = str(2 ** 4095), str(2 ** 4096), str(2 ** 2047)
    assert rf(f"{top} - {half}*z - {half}*i*w", ["w", "z"]) == (
        RationalFunction.const(2 ** 4095) - rf("z + i*w", ["w", "z"]) * RationalFunction.const(2 ** 2047))
    assert rf(f"z/{half} + 1/{half}") == rf("z + 1") * RationalFunction.const(Fraction(1, 2 ** 2047))
    for text, bits in ((f"z - {over}", 4097), (f"{half}*z + {over}", 4097), (f"z/{half} + 1/{half} + z", 4097),
                       (f"1/({half} + z) - 1/({half} + z) + 1", 4097), (f"z/{half} - 2*{half}", 4097)):
        with pytest.raises(ExprError, match=f"coefficients of up to {bits} bits at '[+-]' exceed 4096") as err:
            rf(text)
        assert err.value.position == max(text.rfind(" + "), text.rfind(" - ")) + 1
    # four 1/(L + z) with 1 201-digit literals L: refused at the first '+'
    # between them, before their denominators are multiplied
    text = " + ".join(f"1/({str(k) * 1201} + z)" for k in range(1, 5))
    with pytest.raises(ExprError, match="exceed 4096") as err:
        rf(text)
    assert err.value.position == text.index(") + ") + 2
    # a dense polynomial of 5 000 small terms is far inside the bound, and
    # its terms are summed in one pass, with no sum of two operands
    rng = random.Random(3)
    dense = " + ".join(f"{rng.randint(1, 9)}*z^{a}*w^{b}" for a in range(100) for b in range(50))
    rf_adds, poly_adds = (_spy(monkeypatch, cls, "__add__") for cls in (RationalFunction, Polynomial))
    assert len(rf(dense).num.re) == 5000
    assert not rf_adds and not poly_adds


def test_parse_overlong_literal_is_located():
    if not sys.get_int_max_str_digits():
        pytest.skip("this interpreter converts integers of any length")
    digits = "7" * (sys.get_int_max_str_digits() + 1)
    for text in (digits, "z + " + digits, "z^" + digits, "z^(-" + digits + ")"):
        with pytest.raises(ExprError, match=f"literal of {len(digits)} digits") as err:
            rf(text)
        assert err.value.position == text.index("7")


def test_parse_run_bound_trips_before_any_power(monkeypatch):
    # a run's operands stay unexpanded powers until the bound of the whole
    # run has passed: a power's degrees are its base's times the exponent
    powers = []
    real_pow = RationalFunction.__pow__
    monkeypatch.setattr(RationalFunction, "__pow__", lambda f, n: powers.append(n) or real_pow(f, n))
    six = "*".join(["(1+z)^90", "(1+w)^90"] * 3)
    for text, message in ((six, "degree up to 270 at '\\*'"), ("*".join(["((1+z)^90)", "((1+w)^90)"] * 2), "degree up to 270"),
                          ("((1+z+w)^100)^3", "power of degree 300"), ("-(1+z+w)^-100/(w-1)^200", "degree up to 300"),
                          ("*".join(["(1+z+w)^100"] * 6), "up to 20301 terms at '\\*'")):
        with pytest.raises(ExprError, match=message):
            rf(text)
        assert not powers, text
    assert rf("-(1+z)^2*(-(1+z))^-2") == rf("-1") and powers[:2] == [2, -2]


def test_parse_parenthesized_run_is_checked_before_it_is_built(monkeypatch):
    # a parenthesized product of polynomials stays unbuilt with its degree,
    # the sum of its factors', until the run or power around it has passed
    spies = [_spy(monkeypatch, cls, name) for cls in (Polynomial, RationalFunction) for name in ("__mul__", "__pow__")]
    for text, message, at in (("((1+z)^90*(1+w)^90)*(1+z)^90", "degree up to 270 at '\\*'", 19),
                              ("((1+z)^90*(1+w)^90)^2", "power of degree 360", 19),
                              ("(z*(1+z)^90*(1+w)^90)/(1+w)^-80", "degree up to 261 at '/'", 21)):
        with pytest.raises(ExprError, match=message) as err:
            rf(text)
        assert err.value.position == at and not any(spies), text
    monkeypatch.undo()
    assert rf("((1+z)^2*(1+w))*(1-z)") == rf("(1+z)^2*(1+w)*(1-z)")


def test_parse_serialize_roundtrip_random():
    rng = random.Random(17)
    for _ in range(60):
        f = RationalFunction(rand_poly(rng, nterms=3), rand_poly(rng, nterms=2) + Polynomial.one())
        assert parse_expr(rf_str(f), ["z", "w"]) == f
    # Constants with mixed complex coefficients survive too.
    g = RationalFunction.const(GaussianRational(Fraction(-1, 2), Fraction(3, 7)))
    assert parse_expr(rf_str(g), []) == g


def _draw_laurent_run(rng):
    """A random run of Laurent monomials in w and z as text, with its value
    built from the same draw by Polynomial.make and RationalFunction
    arithmetic: signs, doubled signs, powers of i, a variable repeated in one
    term, zero terms, cancelling pairs, negative exponents and whitespace."""

    def pad(s):
        return " " * rng.randint(0, 2) + s + " " * rng.randint(0, 1)

    units = ((1, 0), (0, 1), (-1, 0), (0, -1))
    pieces, value = [], RationalFunction.zero()
    for t in range(rng.randint(1, 6)):
        sign = rng.choice(["+", "-", "--", "- -", "+-"] if t else ["", "-", "+", "--", "-+"])
        k, n = rng.choice([0, 1, 1, 2, 3, 12, 97]), rng.randint(-3, 5)
        factors = [pad(str(k))] if k != 1 or rng.random() < 0.3 else []
        if n or rng.random() < 0.2:
            factors.append(pad("i" if n == 1 else f"i^{n}" if n >= 0 else f"i^({n})"))
        exps = [0, 0]
        for _ in range(rng.randint(0, 3)):
            j, e = rng.randrange(2), rng.choice([1, 1, 2, 3, -1, -2, 0])
            exps[j] += e
            power = "" if e == 1 else f"^{e}" if rng.random() < 0.5 or e >= 0 else f"^({e})"
            factors.append(pad("wz"[j] + power))
        text = "*".join(factors) or pad("1")
        repeats = 2 if rng.random() < 0.15 else 1
        for r in range(repeats):
            # a repeated term comes back with the opposite sign: w - w
            s = sign if r == 0 else ("-" if sign.count("-") % 2 == 0 else "+")
            pieces.append(s + text)
            c = (-1) ** s.count("-") * k
            re, im = units[n % 4]
            num = Polynomial.make(("w", "z"), {tuple(max(e, 0) for e in exps): GaussianRational(c * re, c * im)})
            den = Polynomial.make(("w", "z"), {tuple(max(-e, 0) for e in exps): 1})
            value = value + RationalFunction(num, den)
    return "".join(pieces), value


def test_parse_laurent_runs_match_built_values_random():
    rng = random.Random(23)
    for _ in range(400):
        text, value = _draw_laurent_run(rng)
        assert parse_expr(text, ["w", "z"]) == value, text


def _evaluate(tree):
    """The value of a drawn expression tree by RationalFunction arithmetic."""
    kind, *args = tree
    if kind in ("int", "var"):
        return (RationalFunction.const if kind == "int" else RationalFunction.variable)(args[0])
    if kind == "i":
        return RationalFunction.const(GaussianRational(0, 1))
    if kind in ("neg", "^"):
        return -_evaluate(args[0]) if kind == "neg" else _evaluate(args[0]) ** args[1]
    a, b = map(_evaluate, args)
    return {"+": a.__add__, "-": a.__sub__, "*": a.__mul__, "/": a.__truediv__}[kind](b)


def test_parse_random_trees_match_built_values():
    # seeded trees of + - * / ^ over w and z (negative and parenthesized
    # exponents, i, Laurent monomials, nested parentheses), each parsed from
    # its printed text and built by RationalFunction arithmetic
    draw = _tool("compare_outputs").draw
    rng = random.Random(41)
    for _ in range(1000):
        text, _, tree = draw(rng, rng.randint(2, 6))
        try:
            value = _evaluate(tree)
        except ZeroDivisionError:
            with pytest.raises(ExprError, match="zero"):
                parse_expr(text, ["w", "z"])
            continue
        assert parse_expr(text, ["w", "z"]) == value, text


def test_parse_runs_multiply_no_polynomials(monkeypatch):
    # a run of monomials or Laurent monomials is one term dict: no product
    # or power of polynomials or rational functions is formed
    texts = ["-12*w^2*z - 27*w*z - 15*z^2 + 24*w + 27*z - 11", "z^2 + 2*z - 3 + 3*z^-2 - 2*z^-3 - z^-4",
             "2*i*w^-1*z^(-2) - w*w^2*z + i^3 - 0*w + w - w", "-(3 - 4*i)*w^-3"]
    rng = random.Random(29)
    draws = [_draw_laurent_run(rng) for _ in range(40)]
    spies = [_spy(monkeypatch, Polynomial, "__mul__"), _spy(monkeypatch, RationalFunction, "__mul__"),
             _spy(monkeypatch, RationalFunction, "__pow__")]
    values = [parse_expr(text, ["w", "z"]) for text in texts + [text for text, _ in draws]]
    assert not any(spies)
    monkeypatch.undo()
    assert values[len(texts):] == [value for _, value in draws]
    assert values[1] == rf("(z^6 + 2*z^5 - 3*z^4 + 3*z^2 - 2*z - 1)/z^4", ["z"])
    assert values[2].den == Polynomial.make(("w", "z"), {(1, 2): 1})
