"""Čech complex mechanics: covers, restriction, δ and the chain-map check."""

import random
from itertools import combinations

import pytest

from cechchern import parse_expr
from cechchern.cech import (
    CechCochain,
    Cover,
    CoverError,
    FormalSection,
    MAX_DECLARED_TUPLES,
    validate_chain_map,
)
from cechchern.forms import Chart, HoloForm


def cp1_cover():
    u0 = Chart("U0", ("z",))
    u1 = Chart("U1", ("w",))
    change = {(1, 0): {"w": parse_expr("1/z", ["z"])}, (0, 1): {"z": parse_expr("1/w", ["w"])}}
    return Cover([u0, u1], [(0, 1)], change)


def formal_cochain(cover, degree, rng=None, form_degree=0):
    rng = rng or random.Random(0)
    comps = {}
    for t in cover.tuples_of_length(degree + 1):
        comps[t] = FormalSection(form_degree, {("x", t): rng.randint(1, 7)})
    return CechCochain(cover, comps)


def test_cover_declaration_and_closure():
    cover = Cover([Chart(f"U{i}", ()) for i in range(3)], [(0, 1, 2)])
    assert cover.is_declared((0, 2))
    assert cover.is_declared((1,))
    with pytest.raises(CoverError):
        Cover([Chart("A", ("z",))], [(1, 0)])


def test_cover_declares_a_bounded_closure():
    # 12 charts in one overlap declare 2^12 - 1 = 4095 tuples; one more
    # singleton reaches the limit and a second passes it
    assert MAX_DECLARED_TUPLES == 4096
    charts = [Chart(f"U{i}", ()) for i in range(14)]
    tuples = [tuple(range(12)), (12,)]
    assert len(Cover(charts, tuples).declared) == MAX_DECLARED_TUPLES
    with pytest.raises(CoverError, match="more than 4096 tuples"):
        Cover(charts, tuples + [(13,)])
    # one overlap of 13 charts is refused before its subsets are listed
    with pytest.raises(CoverError, match="more than 4096 tuples"):
        Cover(charts, [tuple(range(13))])


def test_cover_validation_change_maps():
    # the change maps are checked where the cover is built: each chart of
    # an overlap maps into its anchor, and the maps compose
    charts = [Chart("U0", ("z",)), Chart("U1", ("w",))]
    cp1_cover()
    with pytest.raises(CoverError, match=r"^missing pairs \[\(1, 0\)\]$"):
        Cover(charts, [(0, 1)])
    skew = {(1, 0): {"w": parse_expr("1/z", ["z"])}, (0, 1): {"z": parse_expr("2/w", ["w"])}}
    with pytest.raises(CoverError, match=r"^inconsistent triples \[\(0, 1, 0\), \(1, 0, 1\)\]$"):
        Cover(charts, [(0, 1)], skew)
    # a change map between charts outside 0..n-1 is rejected, never read from the end
    for key in ((-1, 0), (0, -1), (2, 0)):
        with pytest.raises(CoverError):
            Cover(charts, [(0, 1)], {key: {"w": parse_expr("1/z", ["z"]), "z": parse_expr("1/w", ["w"])}})


def test_restrict_identity_and_pullback():
    cover = cp1_cover()
    # same anchor: unchanged
    f = HoloForm.function(cover.charts[0], parse_expr("z^2", ["z"]))
    assert cover.restrict(f, (0,), (0, 1)) == f
    # anchor moves from chart 1 to chart 0: dw pulls back to -z^-2 dz
    dw = HoloForm.d_coord(cover.charts[1], "w")
    got = cover.restrict(dw, (1,), (0, 1))
    assert got == HoloForm(cover.charts[0], {(0,): parse_expr("-1/z^2", ["z"])})
    # formal values restrict by relabeling only
    s = FormalSection(1, {"a": 1})
    assert cover.restrict(s, (1,), (0, 1)) is s


def test_delta_examples():
    cover = Cover.formal(3)
    # constant presheaf value on vertices dies on pairs
    ones = CechCochain(
        cover, {(i,): FormalSection(0, {"c": 1}) for i in range(3)}
    )
    assert ones.delta().is_zero
    # a single generator on (0,): (delta x)_{(0,1)} = -x, zero where (0) is not a face
    x = FormalSection(0, {"x": 1})
    c = CechCochain(cover, {(0,): x})
    d = c.delta()
    assert d.component((0, 1)) == -x
    assert d.component((0, 2)) == -x
    assert d.component((1, 2)) is None


def test_delta_squared_zero_exhaustive():
    rng = random.Random(42)
    for n in range(2, 5):
        cover = Cover.formal(n)
        for degree in range(0, n - 1):
            for fdeg in range(4):
                c = formal_cochain(cover, degree, rng, form_degree=fdeg)
                assert c.delta().delta().is_zero


def test_restrict_functorial_on_towers():
    # consistent change maps: chart k carries the coordinate of chart 0
    # composed through w = 1/z, v = 1/w = z, y = 1/v
    cover = Cover(
        [Chart("U0", ("z",)), Chart("U1", ("w",)), Chart("U2", ("v",)), Chart("U3", ("y",))],
        [(0, 1, 2, 3)],
        {
            (1, 0): {"w": parse_expr("1/z", ["z"])},
            (2, 0): {"v": parse_expr("z", ["z"])},
            (3, 0): {"y": parse_expr("1/z", ["z"])},
            (2, 1): {"v": parse_expr("1/w", ["w"])},
            (3, 1): {"y": parse_expr("w", ["w"])},
            (3, 2): {"y": parse_expr("1/v", ["v"])},
        },
    )
    forms = {
        i: HoloForm.function(cover.charts[i], parse_expr(f"{c}^2 + {c}", [c])).d()
        for i, c in [(1, "w"), (2, "v"), (3, "y")]
    }
    # every tower T'' strictly between T' and T, all lengths up to 4
    for small in combinations(range(4), 1):
        if small == (0,):
            continue
        form = forms[small[0]]
        for big in combinations(range(4), 3):
            if not set(small) <= set(big):
                continue
            for midlen in (1, 2):
                for mid in combinations(big, midlen):
                    if not set(small) <= set(mid):
                        continue
                    direct = cover.restrict(form, small, big)
                    via = cover.restrict(cover.restrict(form, small, mid), mid, big)
                    assert direct == via, (small, mid, big)
    full = (0, 1, 2, 3)
    for small in [(1,), (2,), (3,)]:
        for mid in combinations(range(4), 2):
            if not set(small) <= set(mid):
                continue
            direct = cover.restrict(forms[small[0]], small, full)
            via = cover.restrict(cover.restrict(forms[small[0]], small, mid), mid, full)
            assert direct == via


def test_undeclared_tuple_is_refused():
    # the public constructor checks every tuple; the builders that make
    # tuples declared by construction skip the check
    cover = Cover.formal(3)
    narrow = Cover(cover.charts, [(0, 1), (1, 2)])
    x = FormalSection(0, {"x": 1})
    with pytest.raises(CoverError, match=r"undeclared tuple \(0, 2\)"):
        CechCochain(narrow, {(0, 2): x})
    with pytest.raises(CoverError, match="undeclared tuple"):
        CechCochain(narrow, {(0, 1, 2): x})
    assert CechCochain(narrow, {(1, 2): x}).component((1, 2)) == x


def test_selftest_checks_few_tuples(monkeypatch):
    # every remaining check is of a formal test cochain that
    # fiber.formal_identity_cochain builds through the public constructor
    from cechchern import cech, cli

    calls = []
    for cls in (cech.Cover, cech.ProductLevelCover):
        real = cls.is_declared
        monkeypatch.setattr(cls, "is_declared", lambda self, t, real=real: calls.append(t) or real(self, t))
    assert cli._selftest().ok
    assert len(calls) == 1214, len(calls)


def test_negation_takes_no_gcd(monkeypatch):
    # negating a cochain negates each reduced coefficient, which stays reduced
    import cechchern.ratfunc
    from cechchern.poly import cofactors

    chart = Chart("P", ("z", "w"))
    flat = Cover([chart], [(0,)])
    f = parse_expr("(z^2 + w)/(2*z - 3*w + 1)", ["z", "w"])
    c = CechCochain(flat, {(0,): HoloForm(chart, {(0,): f, (1,): f})})
    d = CechCochain(flat, {(0,): HoloForm(chart, {(0,): parse_expr("z/(w + 1)", ["z", "w"]), (1,): f})})
    calls = []
    monkeypatch.setattr(cechchern.ratfunc, "cofactors", lambda a, b: calls.append((a, b)) or cofactors(a, b))
    neg = -c
    assert not calls
    assert neg.component((0,)) == HoloForm(chart, {(0,): -f, (1,): -f})
    assert c - d == c + (-d)
    assert (c - c).is_zero


def test_validate_chain_map_constant_and_flipped():
    from cechchern.simplicial import Generator, nondegenerate_generators

    cover = Cover.formal(3)
    closed = CechCochain(cover, {(i,): FormalSection(0, {"r": 2}) for i in range(3)})
    zero = CechCochain(cover, {})
    table = {}
    for ell in range(0, 3):
        for g in nondegenerate_generators(2, ell):
            table[g] = closed if ell == 0 else zero
    report = validate_chain_map(table)
    assert report.ok, report.to_text()

    # flip one vertex value: the e[j0,j1] conditions must locate it
    bad = dict(table)
    flipped = CechCochain(cover, {(i,): FormalSection(0, {"r": -2 if i == 1 else 2}) for i in range(3)})
    bad[Generator((1,), 2)] = flipped
    report = validate_chain_map(bad)
    assert not report.ok
    # a cutoff at the flipped tuple's own degree still finds it
    assert not validate_chain_map(bad, 1).ok
    names = [item.name for item in report.items if not item.ok]
    assert any("e[0, 1]" in n or "e[0,1]" in n.replace(" ", "") for n in names)
    # the report holds only the e[...] conditions: a table that is not a
    # complete one over one simplex is refused instead
    assert [item.name for item in report.items] == ["chain_map.e[0]", "chain_map.e[1]", "chain_map.e[2]",
                                                    "chain_map.e[0, 1]", "chain_map.e[0, 2]",
                                                    "chain_map.e[1, 2]", "chain_map.e[0, 1, 2]"]
    partial = {g: v for g, v in table.items() if g.dim < 2}
    mixed = {**table, Generator((0,), 1): zero}
    for broken, message in (({}, r"one ambient simplex, not \[\]"), (mixed, r"not \[1, 2\]"),
                            (partial, r"misses generators \[\(0, 1, 2\)\]")):
        with pytest.raises(ValueError, match=message):
            validate_chain_map(broken)
