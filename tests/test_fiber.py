"""Step positions, lifted tuples, the removal bijection, integration identities.

The inverse of lift_tuple, the list of a base's lifted tuples and the
fully random formal level cochain serve only these tests, so they are
defined here rather than in the library."""

import random
import sys
from math import comb

from cechchern.cech import CechCochain, Cover, FormalSection, ProductLevelCover
from cechchern.exprparse import parse_expr
from cechchern.forms import Chart, HoloForm
from cechchern.fiber import (
    formal_identity_cochain,
    integrate_fiber,
    level_forget,
    lift_tuple,
    step_positions,
    verify_bijection,
    verify_integration_identities,
)


def recover_steps(lifted):
    """Invert lift_tuple: the base positions where the level increments."""
    steps = []
    pos = 0
    for t in range(1, len(lifted)):
        prev_level, here_level = lifted[t - 1][0], lifted[t][0]
        if here_level == prev_level:
            pos += 1
        elif here_level == prev_level + 1:
            steps.append(pos)
        else:
            raise ValueError("not a lifted tuple: level jump")
    return tuple(steps)


def lifted_tuples(base, k):
    return [(s, lift_tuple(base, s)) for s in step_positions(k, len(base) - 1)]


def random_formal_level_cochain(base_cover, k, cech_degree, rng, form_degree=0):
    """Independent random generators on every declared tuple of the given
    Čech degree of the k-level cover; the strongest formal test data."""
    cover = ProductLevelCover(base_cover, k)
    comps = {}
    for t in cover.tuples_of_length(cech_degree + 1):
        coeff = rng.randint(1, 9)
        comps[t] = FormalSection(form_degree, {("mu", t): coeff})
    return CechCochain(cover, comps)


def test_step_positions_examples():
    assert step_positions(1, 1) == [(0,), (1,)]
    assert step_positions(2, 0) == [(0, 0)]
    assert len(step_positions(3, 4)) == 35
    # lexicographic order
    assert step_positions(2, 2)[:3] == [(0, 0), (0, 1), (0, 2)]


def test_lift_examples():
    i0, i1 = "a", "b"
    assert lift_tuple((i0, i1), (0,)) == ((0, i0), (1, i0), (1, i1))
    assert lift_tuple((i0, i1), (1,)) == ((0, i0), (0, i1), (1, i1))
    # the q=15, k=5 instance: entry (level 3, base 7) sits at position 10
    lifted = lift_tuple(tuple(range(16)), (3, 7, 7, 11, 12))
    assert lifted[10] == (3, 7)


def test_lift_recover_roundtrip():
    for q in range(0, 5):
        base = tuple(range(10, 11 + q))
        for k in range(0, 4):
            for s in step_positions(k, q):
                assert recover_steps(lift_tuple(base, s)) == s


def test_lifted_count():
    for q in range(0, 7):
        for k in range(0, 5):
            assert len(lifted_tuples(tuple(range(q + 1)), k)) == comb(q + k, k)


def test_integrate_fiber_small_cases():
    base = Cover.formal(3)
    # k = 0: identity relabeling
    cover0 = ProductLevelCover(base, 0)
    mu = CechCochain(
        cover0,
        {t: FormalSection(0, {("m", t): 1}) for t in cover0.tuples_of_length(2)},
    )
    out = integrate_fiber(mu, 0)
    for t in base.tuples_of_length(2):
        lifted = tuple((0, i) for i in t)
        assert out.component(t) == FormalSection(0, {("m", lifted): 1})
    # k = 1, q = 1: two terms with signs +, -
    cover1 = ProductLevelCover(base, 1)
    mu = CechCochain(
        cover1,
        {t: FormalSection(0, {("m", t): 1}) for t in cover1.tuples_of_length(3)},
    )
    out = integrate_fiber(mu, 1)
    t01 = (0, 1)
    plus = ((0, 0), (1, 0), (1, 1))
    minus = ((0, 0), (0, 1), (1, 1))
    assert out.component(t01) == FormalSection(0, {("m", plus): 1, ("m", minus): -1})
    # k = 1, q = 2: three terms, signs +, -, +
    out3 = integrate_fiber(mu, 1).component((0, 1, 2))
    assert out3 is None  # needs length-4 lifted components, not length-3
    mu4 = CechCochain(
        cover1,
        {t: FormalSection(0, {("m", t): 1}) for t in cover1.tuples_of_length(4)},
    )
    got = integrate_fiber(mu4, 1).component((0, 1, 2))
    signs = {lift_tuple((0, 1, 2), s): (-1) ** sum(s) for s in step_positions(1, 2)}
    assert got == FormalSection(0, {("m", t): c for t, c in signs.items()})


def test_level_forget_relabels():
    base = Cover.formal(2)
    cover = ProductLevelCover(base, 2)
    t = ((0, 0), (2, 1))
    mu = CechCochain(cover, {t: FormalSection(0, {"g": 1})})
    out = level_forget(mu, 1)
    assert out.component(((0, 0), (1, 1))) == FormalSection(0, {"g": 1})
    # tuples touching the forgotten level disappear
    t2 = ((1, 0), (2, 1))
    mu2 = CechCochain(cover, {t2: FormalSection(0, {"h": 1})})
    assert level_forget(mu2, 1).is_zero


def test_bijection_examples_and_exhaustive():
    # q=1, k=1: |J_1| * 3 = 6 targets accounted for
    report = verify_bijection((0, 1), 1)
    assert report.ok, report.to_text()
    sizes = [i for i in report.items if "sizes" in i.name][0]
    assert "domain 6" in sizes.witness
    # q=0, any k: one step, k+1 positions
    for k in range(0, 4):
        assert verify_bijection((5,), k).ok
    # exhaustive sweep
    for q in range(0, 6):
        for k in range(0, 4):
            assert verify_bijection(tuple(range(q + 1)), k).ok, (q, k)


def test_integration_identities_small_and_randomized():
    rng = random.Random(77)
    # k = 0: both identities are trivial but still exercised
    base = Cover.formal(3)
    mu = random_formal_level_cochain(base, 0, 1, rng)
    assert verify_integration_identities(mu, 0).ok
    # k = 1 on a 3-index cover
    for q in range(0, 2):
        mu = random_formal_level_cochain(base, 1, q + 1 + 1 - 1, rng)
        report = verify_integration_identities(mu, 1)
        assert report.ok, report.to_text()


def test_integration_identities_with_internal_differential():
    rng = random.Random(3)
    base = Cover.formal(4)

    def d_a(sym):
        kind, t = sym
        if kind == "mu":
            return FormalSection(1, {("dmu", t): 1})
        return FormalSection(2, {})

    for k in range(0, 3):
        for q in range(0, 3):
            mu = random_formal_level_cochain(base, k, q + k, rng)
            report = verify_integration_identities(mu, k, d_a)
            assert report.ok, (k, q, report.to_text())


def test_integration_identities_on_forms_restrict_faces():
    # on the CP^1 cover (w = 1/z) a face component lives in its own anchor
    # chart, so int(delta(mu)) must restrict it to the longer tuple as delta does
    u0, u1 = Chart("U0", ("z",)), Chart("U1", ("w",))
    change = {(1, 0): {"w": parse_expr("1/z", ["z"])}, (0, 1): {"z": parse_expr("1/w", ["w"])}}
    base = Cover([u0, u1], [(0, 1)], change)
    for k in (0, 1):
        cover = ProductLevelCover(base, k)
        comps = {}
        for n, t in enumerate(cover.tuples_of_length(k + 1)):
            chart = cover.anchor(t)
            x = chart.coordinates[0]
            value = HoloForm.function(chart, parse_expr(f"{x}^{n + 2} + {n}", [x]))
            comps[t] = value + HoloForm.d_coord(chart, x).scale(parse_expr(f"{n + 1}/{x}", [x]))
        mu = CechCochain(cover, comps)
        assert mu.components and any(t[0][1] == 1 for t in mu.components)
        report = verify_integration_identities(mu, k)
        assert report.ok, (k, report.to_text())


def test_integration_identities_support_restricted_instances():
    # the dedicated generator covers exactly the reachable tuples; the
    # exchange law must agree with the fully-materialized small cases
    rng = random.Random(99)
    for k in range(0, 4):
        for q in range(0, 4):
            base = Cover.formal(q + 2)
            mu = formal_identity_cochain(base, k, q, rng, form_degree=1)
            report = verify_integration_identities(mu, k)
            assert report.ok, (k, q, report.to_text())


def test_support_restricted_agrees_with_full_materialization():
    rng = random.Random(5)
    base = Cover.formal(3)
    k, q = 1, 1
    full = random_formal_level_cochain(base, k, q + k, rng)
    restricted = formal_identity_cochain(base, k, q, rng)
    # both satisfy the law; the restricted support is a subset of the full one
    assert verify_integration_identities(full, k).ok
    assert set(restricted.components) <= set(full.components)


def test_step_sum_adds_no_pair_of_sections(monkeypatch):
    # each base tuple's signed values are collected in one pass, not added
    # pairwise through FormalSection.__add__
    real_add = FormalSection.__add__
    callers = []

    def spy(self, other):
        callers.append(sys._getframe(1).f_code.co_name)
        return real_add(self, other)

    def d_a(sym):
        kind, t = sym
        return FormalSection(1, {("dmu", t): 1}) if kind == "mu" else FormalSection(2, {})

    monkeypatch.setattr(FormalSection, "__add__", spy)
    mu = formal_identity_cochain(Cover.formal(4), 2, 2, random.Random(5))
    assert verify_integration_identities(mu, 2, d_a).ok
    assert callers and "_step_sum" not in callers, sorted(set(callers))
