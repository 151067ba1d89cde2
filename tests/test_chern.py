"""Chern character machinery: bundle validation, trace words, tot-level maps."""

import random

import pytest

from cechchern import parse_expr
from cechchern.cech import Cover, validate_chain_map
from cechchern.chern import (
    BundleDataError,
    BundlePathData,
    BundleVertexData,
    NerveInstance,
    tot_ch_simplex,
    tot_ch_simplex_via_ez,
    tot_ch_table,
    tot_ch_vertex,
    verify_face_sum_vanishing,
)
from cechchern.forms import Chart, ConnectionMatrix, HoloForm, MatrixForm
from cechchern.simplicial import Generator, nondegenerate_generators


def cp1_cover():
    return Cover(
        [Chart("U0", ("z",)), Chart("U1", ("w",))],
        [(0, 1)],
        {(1, 0): {"w": parse_expr("1/z", ["z"])}, (0, 1): {"z": parse_expr("1/w", ["w"])}},
    )


def cstar_cover(n):
    """n copies of C^* with common coordinate z and identity change maps."""
    charts = [Chart(f"U{i}", ("z",)) for i in range(n)]
    ident = {"z": parse_expr("z", ["z"])}
    change = {(a, b): ident for a in range(n) for b in range(n) if a != b}
    return Cover(charts, [tuple(range(n))], change)


def mono(text, chart):
    """The 1 x 1 function matrix of text on the chart."""
    return MatrixForm.of_functions(chart, [[parse_expr(text, chart.coordinates)]])


def line_bundle(cover, *gtexts):
    trans = {}
    keys = [t for t in cover.all_tuples() if len(t) == 2]
    for pair, g in zip(keys, gtexts):
        trans[pair] = mono(g, cover.charts[pair[0]])
    return BundleVertexData(cover, 1, trans)


def test_validate_vertex_data_examples():
    # O(n) on CP1: two charts, no triple condition
    data = line_bundle(cp1_cover(), "z^3")
    assert data.validate().ok
    # broken cocycle on a 3-chart cover: z * z != z^3
    cover = cstar_cover(3)
    u0, u1, _ = cover.charts
    data = BundleVertexData(
        cover, 1, {(0, 1): mono("z", u0), (1, 2): mono("z", u1), (0, 2): mono("z^3", u0)}
    )
    report = data.validate()
    assert not report.ok
    assert any("(0, 1, 2)" in item.witness for item in report.failures())


def test_validate_path_data_identity():
    cover = cstar_cover(2)
    u0, u1 = cover.charts
    g = {(0, 1): mono("z^2", u0)}
    levels = [BundleVertexData(cover, 1, dict(g)) for _ in range(2)]
    inter = {(1, 0): mono("1", u0), (1, 1): mono("1", u1)}
    path = BundlePathData(levels, inter)
    assert path.validate().ok


def test_intertwining_exponent_bookkeeping():
    # g0 = z^k0, g1 = z^k1 forces f_0 / f_1 = z^(k1 - k0)
    cover = cstar_cover(2)
    k0, k1, m = 3, 1, 2
    levels = [
        BundleVertexData(cover, 1, {(0, 1): mono(f"z^{k0}", cover.charts[0])}),
        BundleVertexData(cover, 1, {(0, 1): mono(f"z^{k1}", cover.charts[0])}),
    ]
    good = BundlePathData(levels, {(1, 0): mono(f"z^{m + k0 - k1}", cover.charts[0]), (1, 1): mono(f"z^{m}", cover.charts[1])})
    assert good.validate().ok
    bad = BundlePathData(levels, {(1, 0): mono(f"z^{m}", cover.charts[0]), (1, 1): mono(f"z^{m + k0 - k1}", cover.charts[1])})
    assert not bad.validate().ok


def one_chart(name="U"):
    return Chart(name, ("z",))


def conn(chart, *entries):
    n = len(entries)
    rows = []
    for row in entries:
        rows.append([HoloForm.d_coord(chart, "z").scale(parse_expr(e, ["z"])) for e in row])
    return ConnectionMatrix(chart, MatrixForm(chart, rows))


def test_ch_nerve_examples():
    chart = one_chart()
    zero1 = ConnectionMatrix.zero(chart, 1)
    f = mono("z", chart)
    # rank 1, f = z, A = 0: tr(f^-1 df) u = dz/z u
    upow, form = NerveInstance([f], [zero1, zero1]).face_value((0, 1))
    assert upow == 1
    assert form == HoloForm(chart, {(0,): parse_expr("1/z", ["z"])})
    # l = 0 face: the constant rank
    upow, form = NerveInstance([f], [zero1, zero1]).face_value((0,))
    assert upow == 0 and form == HoloForm.constant(chart, 1)
    # l = 2 body on a one-variable chart: a 2-form, identically zero
    g = mono("z^2", chart)
    upow, form = NerveInstance([f, g], [zero1] * 3).face_value((0, 1, 2))
    assert upow == 2 and form.is_zero


def test_face_sum_hand_instance():
    # f = z, g = z^2 on C^*: (2 - 3 + 1) dz/z u = 0
    chart = one_chart()
    zero1 = ConnectionMatrix.zero(chart, 1)
    f = mono("z", chart)
    g = mono("z^2", chart)
    report = verify_face_sum_vanishing([f, g], [zero1] * 3, (0, 1, 2))
    assert report.ok
    # identity morphisms with equal connections: trivially zero
    chart2 = one_chart("V")
    a = conn(chart2, ("z",))
    ident = MatrixForm.identity(chart2, 1)
    assert verify_face_sum_vanishing([ident, ident], [a, a, a], (0, 1, 2)).ok


def diagonal(chart, values):
    zero = parse_expr("0", [])
    return MatrixForm.of_functions(
        chart, [[v if i == j else zero for j in range(len(values))] for i, v in enumerate(values)]
    )


def rand_unit_matrix(rng, chart):
    """A rank-2 matrix on the chart with monomial-unit determinant: L * diag * U."""
    z = "z"
    def rnd_poly():
        return parse_expr(
            f"{rng.randint(-3, 3)}*{z}^{rng.randint(0, 2)} + {rng.randint(-2, 2)}", [z]
        )
    one, zero = parse_expr("1", []), parse_expr("0", [])
    lower = MatrixForm.of_functions(chart, [[one, zero], [rnd_poly(), one]])
    upper = MatrixForm.of_functions(chart, [[one, rnd_poly()], [zero, one]])
    d1 = parse_expr(f"{rng.choice([1, -1])}*{z}^{rng.randint(-2, 2)}", [z])
    d2 = parse_expr(f"{rng.choice([1, -1, 1])}*{z}^{rng.randint(-2, 2)}", [z])
    return lower * diagonal(chart, [d1, d2]) * upper


def rand_connection2(rng, chart):
    rows = []
    for _ in range(2):
        row = []
        for _ in range(2):
            row.append(
                HoloForm.d_coord(chart, "z").scale(
                    parse_expr(f"{rng.randint(-2, 2)}*z^{rng.randint(-1, 1)}", ["z"])
                )
            )
        rows.append(row)
    return ConnectionMatrix(chart, MatrixForm(chart, rows))


def test_face_sum_randomized_rank2():
    rng = random.Random(20)
    chart = one_chart()
    for _ in range(50):
        k = rng.randint(2, 3)
        morphisms = [rand_unit_matrix(rng, chart) for _ in range(k)]
        connections = [rand_connection2(rng, chart) for _ in range(k + 1)]
        report = verify_face_sum_vanishing(morphisms, connections, tuple(range(k + 1)))
        assert report.ok, report.to_text()


def test_tot_ch_vertex_line_bundles():
    for n in range(-3, 4):
        data = line_bundle(cp1_cover(), f"z^{n}" if n else "1")
        coc = tot_ch_vertex(data)
        # vertices carry the rank
        for i in range(2):
            got = coc.component((i,), 0)
            assert got == HoloForm.constant(data.cover.charts[i], 1)
        c01 = coc.component((0, 1), 1)
        if n == 0:
            assert c01 is None
        else:
            assert c01 == HoloForm(
                data.cover.charts[0], {(0,): parse_expr(f"{n}/z", ["z"])}
            )
        assert coc.delta().is_zero


def test_tot_ch_vertex_identity_transitions():
    cover = cstar_cover(3)
    a = conn(cover.charts[0], ("z^2",))
    data = BundleVertexData(
        cover,
        1,
        {pair: mono("1", cover.charts[pair[0]]) for pair in [(0, 1), (0, 2), (1, 2)]},
        {i: conn(cover.charts[i], ("z^2",)) for i in range(3)},
    )
    coc = tot_ch_vertex(data)
    assert sorted(coc.slices) == [0]
    for i in range(3):
        assert coc.component((i,), 0) == HoloForm.constant(cover.charts[i], 1)
    assert coc.delta().is_zero


def test_tot_ch_vertex_closed_on_three_charts():
    rng = random.Random(31)
    cover = cstar_cover(3)
    for _ in range(10):
        g01 = rand_unit_matrix(rng, cover.charts[0])
        g12 = rand_unit_matrix(rng, cover.charts[1])
        data = BundleVertexData(
            cover,
            1 + 1,
            {(0, 1): g01, (1, 2): g12, (0, 2): cover.pull_to_chart(g12, 1, 0) * g01},
            {i: rand_connection2(rng, cover.charts[i]) for i in range(3)},
        )
        assert data.validate().ok
        coc = tot_ch_vertex(data)
        assert coc.delta().is_zero
        # the paper's Ch applied to the Čech nerve: on every tuple t, each
        # component is the face value of the composable sequence of
        # transitions along t, anchored at t[0]
        for t in cover.all_tuples():
            instance = NerveInstance(
                [data.transition_form(a, b, t[0]) for a, b in zip(t, t[1:])],
                [data.connection_in(i, t[0]) for i in t],
            )
            ell, form = instance.face_value(tuple(range(len(t))))
            assert ell == len(t) - 1
            assert (coc.component(t, ell) or HoloForm.zero(cover.charts[t[0]])) == form, t


def test_tot_ch_simplex_reduces_to_vertex():
    cover = cstar_cover(2)
    levels = [
        BundleVertexData(cover, 1, {(0, 1): mono("z^2", cover.charts[0])}),
        BundleVertexData(cover, 1, {(0, 1): mono("z^2", cover.charts[0])}),
    ]
    path = BundlePathData(levels, {(1, 0): mono("z", cover.charts[0]), (1, 1): mono("z", cover.charts[1])})
    g0 = Generator((0,), 1)
    assert tot_ch_simplex(path, g0) == tot_ch_vertex(levels[0])


def test_tot_ch_simplex_intertwiner_component():
    # the singleton-tuple component of e_{j', j''} is u tr(F^-1 nabla F)
    cover = cstar_cover(2)
    levels = [
        BundleVertexData(cover, 1, {(0, 1): mono("z^3", cover.charts[0])}),
        BundleVertexData(cover, 1, {(0, 1): mono("z", cover.charts[0])}),
    ]
    path = BundlePathData(levels, {(1, 0): mono("z^2", cover.charts[0]), (1, 1): mono("1", cover.charts[1])})
    assert path.validate().ok
    g01 = Generator((0, 1), 1)
    table_entry = tot_ch_simplex(path, g01)
    got = table_entry.component((0,), 1)
    # F = f^(1,0)_0 = z^2, A = 0: tr(F^-1 dF) = 2 dz/z
    assert got == HoloForm(cover.charts[0], {(0,): parse_expr("2/z", ["z"])})
    got1 = table_entry.component((1,), 1)
    assert got1 is None  # f at chart 1 is constant 1


def test_tot_ch_table_is_chain_map():
    cover = cstar_cover(2)
    levels = [
        BundleVertexData(cover, 1, {(0, 1): mono("z^3", cover.charts[0])}),
        BundleVertexData(cover, 1, {(0, 1): mono("z", cover.charts[0])}),
    ]
    path = BundlePathData(levels, {(1, 0): mono("z^2", cover.charts[0]), (1, 1): mono("1", cover.charts[1])})
    table = tot_ch_table(path)
    report = validate_chain_map(table)
    assert report.ok, report.to_text()
    # a table cut off at Čech degree 0 is a chain map up to the cutoff
    report = validate_chain_map(tot_ch_table(path, 0), 0)
    assert report.ok, report.to_text()


def make_random_gl1_path(rng, n_levels, n_charts=2):
    """Random GL(1) monomial path data; intertwining solved by exponents."""
    cover = cstar_cover(n_charts)
    levels = []
    exps = [[rng.randint(-2, 2) for _ in range(n_charts - 1)] for _ in range(n_levels + 1)]
    for p in range(n_levels + 1):
        trans = {}
        for a in range(n_charts - 1):
            trans[(a, a + 1)] = mono(f"z^{exps[p][a]}", cover.charts[a])
        # complete to all pairs multiplicatively so the cocycle holds
        full = {}
        for a in range(n_charts):
            for b in range(a + 1, n_charts):
                e = sum(exps[p][a:b])
                full[(a, b)] = mono(f"z^{e}", cover.charts[a])
        levels.append(BundleVertexData(cover, 1, full))
    inter = {}
    for p in range(1, n_levels + 1):
        base = rng.randint(-2, 2)
        # f_0 = z^base; f_{i+1} = f_i * z^(e_hi - e_lo) per the square law
        f_exp = base
        inter[(p, 0)] = mono(f"z^{f_exp}", cover.charts[0])
        for a in range(n_charts - 1):
            f_exp = f_exp + exps[p][a] - exps[p - 1][a]
            inter[(p, a + 1)] = mono(f"z^{f_exp}", cover.charts[a + 1])
    return BundlePathData(levels, inter)


def test_simplex_matches_ez_pipeline_gl1():
    rng = random.Random(40)
    for n_levels in (1, 2):
        for _ in range(6):
            path = make_random_gl1_path(rng, n_levels, n_charts=3)
            assert path.validate().ok
            for ell in range(n_levels + 1):
                for g in nondegenerate_generators(n_levels, ell):
                    assert tot_ch_simplex(path, g) == tot_ch_simplex_via_ez(path, g), g


def make_random_gl2_path(rng, n_levels):
    """Random GL(2) path data on two charts via a gauge trick: pick the
    intertwiners and level-0 transitions freely (invertible), then define
    g^(p) = f^(p)_b g^(p-1) (f^(p)_a)^{-1} so the square law holds."""
    cover = cstar_cover(2)
    u0, u1 = cover.charts
    g = rand_unit_matrix(rng, u0)
    levels = [BundleVertexData(cover, 2, {(0, 1): g})]
    inter = {}
    prev = g
    for p in range(1, n_levels + 1):
        f0 = rand_unit_matrix(rng, u0)
        f1 = rand_unit_matrix(rng, u1)
        inter[(p, 0)] = f0
        inter[(p, 1)] = f1
        nxt = cover.pull_to_chart(f1, 1, 0) * prev * f0.inverse()
        levels.append(BundleVertexData(cover, 2, {(0, 1): nxt}))
        prev = nxt
    return BundlePathData(levels, inter)


def test_simplex_matches_ez_pipeline_gl2():
    rng = random.Random(41)
    for n_levels in (1, 2):
        for _ in range(3):
            path = make_random_gl2_path(rng, n_levels)
            assert path.validate().ok
            for ell in range(n_levels + 1):
                for g in nondegenerate_generators(n_levels, ell):
                    assert tot_ch_simplex(path, g) == tot_ch_simplex_via_ez(path, g), g
            assert validate_chain_map(tot_ch_table(path)).ok


def test_tot_ch_table_cross_chart_intertwiners():
    # path data on CP^1: the intertwiner on chart 1 lives in w-coordinates,
    # intertwining must hold after pullback to the anchor chart
    cover = cp1_cover()
    a, b, m = 3, 1, 2
    levels = [
        BundleVertexData(cover, 1, {(0, 1): mono(f"z^{a}", cover.charts[0])}),
        BundleVertexData(cover, 1, {(0, 1): mono(f"z^{b}", cover.charts[0])}),
    ]
    f0 = mono(f"z^{m}", cover.charts[0])
    f1 = mono(f"w^{a - b - m}", cover.charts[1])
    path = BundlePathData(levels, {(1, 0): f0, (1, 1): f1})
    assert path.validate().ok, path.validate().to_text()
    table = tot_ch_table(path)
    report = validate_chain_map(table)
    assert report.ok, report.to_text()
    for g in table:
        assert tot_ch_simplex_via_ez(path, g) == table[g]


def test_relabelled_charts_permute_components_consistently():
    # swap the two CP^1 chart labels: the new (0,1) component, expressed in
    # the new anchor chart, is the old formula read along (1,0)
    for n in (1, 3, -2):
        old = line_bundle(cp1_cover(), f"z^{n}")
        old_coc = tot_ch_vertex(old)
        swapped_cover = Cover(
            [Chart("U1", ("w",)), Chart("U0", ("z",))],
            [(0, 1)],
            {(1, 0): {"z": parse_expr("1/w", ["w"])}, (0, 1): {"w": parse_expr("1/z", ["z"])}},
        )
        # old trans[(1,0)] = z^-n in old chart 0; re-anchored to chart w: w^n
        swapped = BundleVertexData(
            swapped_cover, 1, {(0, 1): mono(f"w^{n}", swapped_cover.charts[0])}
        )
        new_coc = tot_ch_vertex(swapped)
        got = new_coc.component((0, 1), 1)
        # the old formula evaluated along the reversed pair, anchored at chart 1
        word = [
            (
                old.transition_form(1, 0, 1),
                old.connection_in(1, 1),
                old.connection_in(0, 1),
            )
        ]
        from cechchern.chern import _word_trace

        expected = _word_trace(word)
        # identical expressions up to the chart object itself
        assert got.terms == expected.terms


def test_generator_ambient_mismatch():
    cover = cstar_cover(2)
    levels = [BundleVertexData(cover, 1, {(0, 1): mono("z", cover.charts[0])})]
    path = BundlePathData(levels, {})
    with pytest.raises(BundleDataError):
        tot_ch_simplex(path, Generator((0, 1), 1))
