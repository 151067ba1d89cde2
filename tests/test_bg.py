"""Universal Chern form, gamma/iota/beta, the commuting square, equivariance."""

import random

import pytest

from cechchern import parse_expr
from cechchern.bg import (
    EquivariantBundleData,
    FiniteGroup,
    beta,
    equivariant_check,
    gamma,
    iota,
    matrix_group_chart,
    universal_chern,
    verify_square,
)
from cechchern.cech import Cover, ProductLevelCover, validate_chain_map
from cechchern.chern import BundlePathData, BundleVertexData, tot_ch_table, tot_ch_vertex
from cechchern.forms import Chart, ConnectionMatrix, HoloForm, MatrixForm
from cechchern.simplicial import Generator


def cp1_cover():
    return Cover(
        [Chart("U0", ("z",)), Chart("U1", ("w",))],
        [(0, 1)],
        {(1, 0): {"w": parse_expr("1/z", ["z"])}, (0, 1): {"z": parse_expr("1/w", ["w"])}},
    )


def cstar_cover(n):
    charts = [Chart(f"U{i}", ("z",)) for i in range(n)]
    ident = {"z": parse_expr("z", ["z"])}
    change = {(a, b): ident for a in range(n) for b in range(n) if a != b}
    return Cover(charts, [tuple(range(n))], change)


def mono(text, chart):
    """The 1 x 1 function matrix of text on the chart."""
    return MatrixForm.of_functions(chart, [[parse_expr(text, chart.coordinates)]])


# -- universal Chern form --------------------------------------------------------------


def test_universal_chern_low_degrees():
    assert universal_chern(0, 2).coefficient(()) == parse_expr("2", [])
    # ell = 1, n = 1: g d(g^-1) = -dg/g
    chart, _ = matrix_group_chart(1, 1)
    got = universal_chern(1, 1)
    assert got == HoloForm(chart, {(0,): parse_expr("-1/g1_11", ["g1_11"])})


def test_universal_chern_inverse_identity():
    # tr(g d(g^-1)) + tr(g^-1 dg) = 0, from differentiating g g^-1 = 1
    for n in (1, 2):
        chart, (g,) = matrix_group_chart(1, n)
        lhs = universal_chern(1, n)
        rhs = (g.inverse() * g.d()).trace()
        assert (lhs + rhs).is_zero


def test_universal_chern_two_arguments_rank_one():
    # g1 g2 d(g2^-1) ^ d(g1^-1) = (g1 g2)^-1 dg2 ^ dg1 for 1x1 matrices,
    # which is -(g1 g2)^-1 dg1 ^ dg2 in the sorted wedge basis
    chart, _ = matrix_group_chart(2, 1)
    assert chart.coordinates == ("g1_11", "g2_11")
    got = universal_chern(2, 1)
    coeff = parse_expr("-1/(g1_11*g2_11)", ["g1_11", "g2_11"])
    assert got == HoloForm(chart, {(0, 1): coeff})


def test_universal_chern_two_argument_pullback_matches_gamma():
    # substituting a rank-one cocycle into the two-argument trace form
    # reproduces the length-three gamma component
    z_w = Chart("ZW", ("w", "z"))
    cover = Cover(
        [Chart(f"U{i}", ("w", "z")) for i in range(3)],
        [(0, 1, 2)],
        {
            (a, b): {"w": parse_expr("w", ["w"]), "z": parse_expr("z", ["z"])}
            for a in range(3)
            for b in range(3)
            if a != b
        },
    )
    t01 = mono("z^2*w", cover.charts[0])
    t12 = mono("z*w^-1", cover.charts[1])
    t02 = cover.pull_to_chart(t12, 1, 0) * t01
    h = BundlePathData([BundleVertexData(cover, 1, {(0, 1): t01, (1, 2): t12, (0, 2): t02})], {})
    c = gamma(h)
    target = c.component((((0, 0)), ((0, 1)), ((0, 2))))
    # the simplicial map sends a point to (g_{j0,j1}, g_{j1,j2}) with the
    # first index the target frame: these are the inverses of the stored
    # from-to transitions
    chart, _ = matrix_group_chart(2, 1)
    form = universal_chern(2, 1)
    mapping = {
        "g1_11": t01[0, 0].coefficient(()).inverse(),
        "g2_11": t12[0, 0].coefficient(()).inverse(),
    }
    pulled = form.pullback(cover.charts[0], mapping)
    assert pulled == target
    assert not target.is_zero


def test_universal_chern_pullback_matches_gamma_component():
    # substituting a concrete cocycle into tr(g d(g^-1)) gives
    # -tr(g01^-1 d g01), the negative of the gamma edge component
    chart, (g,) = matrix_group_chart(1, 2)
    form = universal_chern(1, 2)
    z = Chart("Z", ("z",))
    g01 = MatrixForm.of_functions(
        z,
        [
            [parse_expr("z^2", ["z"]), parse_expr("1", [])],
            [parse_expr("0", []), parse_expr("z^-1", ["z"])],
        ]
    )
    mapping = {
        f"g1_{r}{c}": g01[r - 1, c - 1].coefficient(()) for r in (1, 2) for c in (1, 2)
    }
    pulled = form.pullback(z, mapping)
    direct = (g01.inverse() * g01.d()).trace()
    assert (pulled + direct).is_zero


# -- gamma ------------------------------------------------------------------------------


def vertex_bg(cover, gtexts):
    trans = {}
    pairs = [t for t in cover.all_tuples() if len(t) == 2]
    for pair, g in zip(pairs, gtexts):
        trans[pair] = mono(g, cover.charts[pair[0]])
    return BundlePathData([BundleVertexData(cover, 1, trans)], {})


def test_gamma_components_gl1():
    h = vertex_bg(cp1_cover(), ["z^4"])
    c = gamma(h)
    t0 = ((0, 0),)
    assert c.component(t0) == HoloForm.constant(cp1_cover().charts[0], 1)
    edge = ((0, 0), (0, 1))
    # tr(g^-1 dg) = 4 dz/z
    assert c.component(edge) == HoloForm(h.cover.charts[0], {(0,): parse_expr("4/z", ["z"])})
    assert c.delta().is_zero


def rand_gl2_monomial(rng, chart):
    z = "z"
    a = parse_expr(f"{rng.choice([1, -1])}*z^{rng.randint(-2, 2)}", [z])
    d = parse_expr(f"{rng.choice([1, -1])}*z^{rng.randint(-2, 2)}", [z])
    b = parse_expr(f"{rng.randint(-2, 2)}*z^{rng.randint(0, 2)}", [z])
    return MatrixForm.of_functions(chart, [[a, b], [parse_expr("0", []), d]])


def test_gamma_closed_randomized_gl2():
    rng = random.Random(50)
    for n_charts in (2, 3, 4):
        cover = cstar_cover(n_charts)
        for _ in range(4):
            gens = {(a, a + 1): rand_gl2_monomial(rng, cover.charts[a]) for a in range(n_charts - 1)}
            full = {}
            for a in range(n_charts):
                acc = MatrixForm.identity(cover.charts[a], 2)
                for b in range(a + 1, n_charts):
                    acc = cover.pull_to_chart(gens[(b - 1, b)], b - 1, a) * acc
                    full[(a, b)] = acc
            h = BundlePathData([BundleVertexData(cover, 2, full)], {})
            assert h.validate().ok
            assert gamma(h).delta().is_zero


def test_gamma_on_levels_uses_intertwiners():
    cover = cstar_cover(2)
    h = BundlePathData(
        [
            BundleVertexData(cover, 1, {(0, 1): mono("z^3", cover.charts[0])}),
            BundleVertexData(cover, 1, {(0, 1): mono("z", cover.charts[0])}),
        ],
        {(1, 0): mono("z^2", cover.charts[0]), (1, 1): mono("1", cover.charts[1])},
    )
    assert h.validate().ok
    c = gamma(h)
    # vertical edge at chart 0 between levels: tr(F^-1 dF) with F = z^2
    vert = ((0, 0), (1, 0))
    assert c.component(vert) == HoloForm(cover.charts[0], {(0,): parse_expr("2/z", ["z"])})
    assert c.delta().is_zero


# -- iota --------------------------------------------------------------------------------


def test_iota_vertex_slice_and_chain_map():
    cover = cstar_cover(2)
    h = BundlePathData(
        [
            BundleVertexData(cover, 1, {(0, 1): mono("z^3", cover.charts[0])}),
            BundleVertexData(cover, 1, {(0, 1): mono("z", cover.charts[0])}),
        ],
        {(1, 0): mono("z^2", cover.charts[0]), (1, 1): mono("1", cover.charts[1])},
    )
    c = gamma(h)
    table = iota(c)
    # the ell = 0 generator picks out the level slice with matching u-powers
    g1 = Generator((1,), 1)
    entry = table[g1]
    assert entry.component((0, 1), 1) == HoloForm(
        cover.charts[0], {(0,): parse_expr("1/z", ["z"])}
    )
    report = validate_chain_map(table)
    assert report.ok, report.to_text()
    # gamma at a level builds the slot tuples iota at that level reads,
    # and never more than the lifts of the declared base tuples
    assert gamma(h, 5) == c
    assert max(len(t) for t in gamma(h, 0).components) == 2
    for level in (0, 1):
        assert iota(gamma(h, level), level) == iota(c, level)


def test_iota_detects_non_closed_input():
    cover = cstar_cover(2)
    plc = ProductLevelCover(cover, 1)
    from cechchern.cech import CechCochain

    # fabricate a non-closed even cochain: a lone vertex value
    comps = {((0, 0),): HoloForm.constant(cover.charts[0], 1)}
    c = CechCochain(plc, comps)
    table = iota(c)
    report = validate_chain_map(table)
    assert not report.ok


def test_iota_keeps_form_degrees_apart():
    # two lifts of one base pair carry forms of degree 0 and 2: they land
    # at different u-powers instead of being added together
    from cechchern.cech import CechCochain

    charts = [Chart(f"U{i}", ("w", "z")) for i in range(2)]
    ident = {"w": parse_expr("w", ["w"]), "z": parse_expr("z", ["z"])}
    cover = Cover(charts, [(0, 1)], {(0, 1): ident, (1, 0): ident})
    plc = ProductLevelCover(cover, 1)
    low = {((0, 0), (0, 1), (1, 1)): HoloForm.constant(charts[0], 1)}
    dwdz = HoloForm.d_coord(charts[0], "w").wedge(HoloForm.d_coord(charts[0], "z"))
    high = {((0, 0), (1, 0), (1, 1)): dwdz}
    both = iota(CechCochain(plc, {**low, **high}))
    edge = Generator((0, 1), 1)
    assert both[edge] == iota(CechCochain(plc, low))[edge] + iota(CechCochain(plc, high))[edge]
    assert both[edge].component((0, 1), 1) == HoloForm.constant(charts[0], -1)
    assert both[edge].component((0, 1), 2) == dwdz


def test_iota_rejects_odd_degree():
    cover = cstar_cover(2)
    plc = ProductLevelCover(cover, 0)
    from cechchern.cech import CechCochain

    odd = CechCochain(
        plc, {((0, 0),): HoloForm.d_coord(cover.charts[0], "z")}
    )
    with pytest.raises(ValueError):
        iota(odd)


# -- the commuting square ---------------------------------------------------------------


def test_square_on_line_bundles():
    # vertex instance: both routes give k dz/z u on (0,1)
    for k in (-2, 1, 3):
        h = vertex_bg(cp1_cover(), [f"z^{k}"])
        report = verify_square(h)
        assert report.ok, report.to_text()
        coc = tot_ch_vertex(beta(h).levels[0])
        assert coc.component((0, 1), 1) == HoloForm(
            h.cover.charts[0], {(0,): parse_expr(f"{k}/z", ["z"])}
        )


def test_square_on_cstar_one_simplex():
    # two-chart C^* cover, monomial levels and intertwiners
    cover = cstar_cover(2)
    for k0, k1, m in [(3, 1, 2), (2, -1, 0), (-2, 2, 1)]:
        h = BundlePathData(
            [
                BundleVertexData(cover, 1, {(0, 1): mono(f"z^{k0}", cover.charts[0])}),
                BundleVertexData(cover, 1, {(0, 1): mono(f"z^{k1}", cover.charts[0])}),
            ],
            {(1, 0): mono(f"z^{m + k0 - k1}", cover.charts[0]), (1, 1): mono(f"z^{m}", cover.charts[1])},
        )
        report = verify_square(h)
        assert report.ok, report.to_text()


def test_square_identity_data():
    cover = cstar_cover(2)
    h = BundlePathData(
        [
            BundleVertexData(cover, 2, {(0, 1): MatrixForm.identity(cover.charts[0], 2)}),
            BundleVertexData(cover, 2, {(0, 1): MatrixForm.identity(cover.charts[0], 2)}),
        ],
        {(1, 0): MatrixForm.identity(cover.charts[0], 2), (1, 1): MatrixForm.identity(cover.charts[1], 2)},
    )
    report = verify_square(h)
    assert report.ok
    table = tot_ch_table(beta(h))
    for g, entry in table.items():
        if g.dim == 0:
            assert sorted(entry.slices) == [0]
        else:
            assert entry.is_zero


def test_square_locates_perturbed_data():
    cover = cstar_cover(2)
    h = BundlePathData(
        [
            BundleVertexData(cover, 1, {(0, 1): mono("z^3", cover.charts[0])}),
            BundleVertexData(cover, 1, {(0, 1): mono("z", cover.charts[0])}),
        ],
        {(1, 0): mono("z^2", cover.charts[0]), (1, 1): mono("1", cover.charts[1])},
    )
    good = verify_square(h)
    assert good.ok
    # perturb one intertwiner so the intertwining law breaks
    bad = BundlePathData(
        [
            BundleVertexData(cover, 1, {(0, 1): mono("z^3", cover.charts[0])}),
            BundleVertexData(cover, 1, {(0, 1): mono("z", cover.charts[0])}),
        ],
        {(1, 0): mono("z^5", cover.charts[0]), (1, 1): mono("1", cover.charts[1])},
    )
    report = verify_square(bad)
    assert not report.ok


def test_square_cross_chart_intertwiners():
    # on CP^1 the chart-1 intertwiner lives in w-coordinates; every gamma
    # slot transition and every closed-formula word crosses charts
    cover = cp1_cover()
    for a, b, m in [(3, 1, 2), (2, 0, -1)]:
        h = BundlePathData(
            [
                BundleVertexData(cover, 1, {(0, 1): mono(f"z^{a}", cover.charts[0])}),
                BundleVertexData(cover, 1, {(0, 1): mono(f"z^{b}", cover.charts[0])}),
            ],
            {
                (1, 0): mono(f"z^{m}", cover.charts[0]),
                (1, 1): mono(f"w^{a - b - m}", cover.charts[1]),
            },
        )
        report = verify_square(h)
        assert report.ok, report.to_text()


def test_square_gl2_gauge_family():
    rng = random.Random(60)
    cover = cstar_cover(2)
    for _ in range(3):
        g = rand_gl2_monomial(rng, cover.charts[0])
        f0 = rand_gl2_monomial(rng, cover.charts[0])
        f1 = rand_gl2_monomial(rng, cover.charts[1])
        g1 = cover.pull_to_chart(f1, 1, 0) * g * f0.inverse()
        h = BundlePathData(
            [
                BundleVertexData(cover, 2, {(0, 1): g}),
                BundleVertexData(cover, 2, {(0, 1): g1}),
            ],
            {(1, 0): f0, (1, 1): f1},
        )
        report = verify_square(h)
        assert report.ok, report.to_text()


def connected_one_simplex():
    """The C^* one-simplex with a nonzero connection on every chart of both levels."""
    cover = cstar_cover(2)

    def conns(*texts):
        out = {}
        for i, text in enumerate(texts):
            chart = cover.charts[i]
            a = HoloForm.d_coord(chart, "z").scale(parse_expr(text, ["z"]))
            out[i] = ConnectionMatrix(chart, MatrixForm(chart, [[a]]))
        return out

    return BundlePathData(
        [
            BundleVertexData(cover, 1, {(0, 1): mono("z^3", cover.charts[0])}, conns("1/z", "z")),
            BundleVertexData(cover, 1, {(0, 1): mono("z", cover.charts[0])}, conns("z^2", "2")),
        ],
        {(1, 0): mono("z^2", cover.charts[0]), (1, 1): mono("1", cover.charts[1])},
    )


def test_beta_rebuilds_levels_without_connections():
    h = connected_one_simplex()
    flat = beta(h)
    assert all(new is not old for new in flat.levels for old in h.levels)
    assert all(
        c.matrix.is_zero for level in flat.levels for c in level.connections.values()
    )
    assert not h.levels[0].connections[0].matrix.is_zero
    assert [v.transitions for v in flat.levels] == [v.transitions for v in h.levels]
    assert flat.intertwiners == h.intertwiners


def test_square_ignores_connections_of_the_input():
    # gamma reads no connection and beta forgets them, so the square holds
    # although the closed formula on h itself sees the connections
    h = connected_one_simplex()
    report = verify_square(h)
    assert report.ok, report.to_text()
    assert tot_ch_table(h) != tot_ch_table(beta(h))


# -- equivariance ------------------------------------------------------------------------


def z2_group():
    return FiniteGroup(
        ["e", "s"],
        "e",
        {("e", "e"): "e", ("e", "s"): "s", ("s", "e"): "s", ("s", "s"): "e"},
    )


def cstar_chart_cover():
    return Cover([Chart("M", ("z",))], [(0,)])


def inversion_action():
    return {("s", 0): {"z": parse_expr("1/z", ["z"])}}


def conn_a(cover, text):
    chart = cover.charts[0]
    a = HoloForm.d_coord(chart, "z").scale(parse_expr(text, ["z"]))
    return {0: ConnectionMatrix(chart, MatrixForm(chart, [[a]]))}


def test_equivariant_invariant_instance():
    cover = cstar_chart_cover()
    data = EquivariantBundleData(
        cover,
        1,
        z2_group(),
        inversion_action(),
        {("s", 0): mono("1", cover.charts[0])},
        conn_a(cover, "z^-2 - 1"),
    )
    report = equivariant_check(data)
    assert report.ok, report.to_text()
    names = {item.name for item in report.items}
    assert "equivariant.connection_invariant" in names
    assert "equivariant.positive_components_zero" in names


def test_equivariant_control_instance():
    cover = cstar_chart_cover()
    data = EquivariantBundleData(
        cover,
        1,
        z2_group(),
        inversion_action(),
        {("s", 0): mono("1", cover.charts[0])},
        conn_a(cover, "1"),
    )
    # the defect is exactly (-z^-2 - 1) dz
    defect = data.nabla_phi("s", 0)
    chart = cover.charts[0]
    assert defect[0, 0] == HoloForm(chart, {(0,): parse_expr("(-1 - z^2)/z^2", ["z"])})
    report = equivariant_check(data)
    bad = [i for i in report.items if i.name == "equivariant.connection_invariant"][0]
    assert not bad.ok
    assert "z^2" in bad.witness


def test_equivariant_two_dimensional_swap_action():
    # Z/2 swapping the two coordinates: A = zw(dz + dw) is invariant and
    # the two-form word components vanish nontrivially
    chart = Chart("M2", ("w", "z"))
    cover = Cover([chart], [(0,)])
    group = z2_group()
    swap = {("s", 0): {"z": parse_expr("w", ["w"]), "w": parse_expr("z", ["z"])}}

    def conn2(az_text, aw_text):
        a = HoloForm.d_coord(chart, "z").scale(
            parse_expr(az_text, ["z", "w"])
        ) + HoloForm.d_coord(chart, "w").scale(parse_expr(aw_text, ["z", "w"]))
        return {0: ConnectionMatrix(chart, MatrixForm(chart, [[a]]))}

    lifts = {("s", 0): mono("1", chart)}
    invariant = EquivariantBundleData(cover, 1, group, swap, lifts, conn2("z*w", "z*w"))
    report = equivariant_check(invariant)
    assert report.ok, report.to_text()
    control = EquivariantBundleData(cover, 1, group, swap, lifts, conn2("z", "0"))
    bad = equivariant_check(control)
    item = [i for i in bad.items if i.name == "equivariant.connection_invariant"][0]
    assert not item.ok


@pytest.mark.parametrize("name", ["z2_equivariant", "z2_equivariant_control"])
def test_words_with_an_identity_letter_vanish(name):
    # such a word is a degenerate simplex of the action groupoid's nerve:
    # nabla of the identity lift is zero, so equivariant_check may skip it
    from itertools import product
    from pathlib import Path

    from cechchern import Manifest

    data = Manifest.load(str(Path(__file__).parent / "fixtures" / f"{name}.json")).equivariant_data()
    words = [w for n in range(1, 5) for w in product(["e", "s"], repeat=n) if "e" in w]
    assert len(words) == 26
    assert all(data.word_component(w, 0).is_zero for w in words)


def test_equivariant_data_checks_its_connections():
    cover = cstar_chart_cover()
    other = Chart("N", ("z",))
    a = HoloForm.d_coord(other, "z")
    wrong_chart = {0: ConnectionMatrix(other, MatrixForm(other, [[a]]))}
    wrong_rank = {0: ConnectionMatrix.zero(cover.charts[0], 2)}
    for conns, message in ((wrong_chart, "wrong chart"), (wrong_rank, "wrong rank")):
        with pytest.raises(ValueError, match=message):
            EquivariantBundleData(cover, 1, z2_group(), inversion_action(), {("s", 0): mono("1", cover.charts[0])}, conns)


def test_matrix_data_must_live_on_its_chart():
    # a lift sits on its own chart, a transition (a, b) on chart min(a, b)
    # and an intertwiner f^p_i on chart i
    cover = cstar_chart_cover()
    with pytest.raises(ValueError, match="wrong chart"):
        EquivariantBundleData(cover, 1, z2_group(), inversion_action(), {("s", 0): mono("1", Chart("N", ("z",)))})
    cover = cstar_cover(2)
    with pytest.raises(ValueError, match="wrong chart"):
        BundleVertexData(cover, 1, {(0, 1): mono("z", cover.charts[1])})
    level = BundleVertexData(cover, 1, {(0, 1): mono("z", cover.charts[0])})
    with pytest.raises(ValueError, match="wrong chart"):
        BundlePathData([level, level], {(1, 0): mono("1", cover.charts[0]), (1, 1): mono("1", cover.charts[0])})


def test_equivariant_trivial_group():
    cover = cstar_chart_cover()
    group = FiniteGroup(["e"], "e", {("e", "e"): "e"})
    data = EquivariantBundleData(cover, 1, group, {}, {}, conn_a(cover, "z^3"))
    report = equivariant_check(data)
    assert report.ok


def test_equivariant_bad_composition_detected():
    cover = cstar_chart_cover()
    data = EquivariantBundleData(
        cover,
        1,
        z2_group(),
        inversion_action(),
        {("s", 0): mono("1 + z", cover.charts[0])},  # (rho_s^* phi_s) phi_s = (1+z)^2/z != 1
        conn_a(cover, "0"),
    )
    report = equivariant_check(data)
    assert not report.ok
    assert any("lift_composition" in item.name for item in report.failures())
