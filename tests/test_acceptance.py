"""Acceptance suite: one test per criterion, exact equalities throughout.

Each test prints a single PASS/FAIL line (visible with pytest -s) and
enforces its runtime budget.  Everything here is exact arithmetic; there
are no tolerances to tune.
"""

import random
import time

from cechchern import parse_expr
from cechchern.bg import EquivariantBundleData, FiniteGroup, equivariant_check, gamma, verify_square
from cechchern.cech import Cover
from cechchern.chern import (
    BundlePathData,
    BundleVertexData,
    NerveInstance,
    tot_ch_simplex,
    tot_ch_simplex_via_ez,
    tot_ch_vertex,
)
from cechchern.cli import laurent_coefficient
from cechchern.fiber import formal_identity_cochain, verify_bijection, verify_integration_identities
from cechchern.forms import Chart, ConnectionMatrix, HoloForm, MatrixForm
from cechchern.scalars import GaussianRational
from cechchern.simplicial import (
    Chain,
    aw_chain,
    boundary,
    boundary_chain,
    brute_force_shuffle_sign,
    ez_map,
    nondegenerate_generators,
    shuffle_count,
    shuffles,
)


def _finish(number: int, ok: bool, start: float, budget: float, detail: str = ""):
    elapsed = time.perf_counter() - start
    status = "PASS" if ok and elapsed < budget else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"ACCEPTANCE {number}: {status} ({elapsed:.2f}s, budget {budget:.0f}s){suffix}")
    assert ok, f"criterion {number} failed{suffix}"
    assert elapsed < budget, f"criterion {number} exceeded {budget}s ({elapsed:.2f}s)"


def cp1_cover():
    return Cover(
        [Chart("U0", ("z",)), Chart("U1", ("w",))],
        [(0, 1)],
        {(1, 0): {"w": parse_expr("1/z", ["z"])}, (0, 1): {"z": parse_expr("1/w", ["w"])}},
    )


def cstar_cover(n, coords=("z",)):
    charts = [Chart(f"U{i}", tuple(coords)) for i in range(n)]
    ident = {c: parse_expr(c, list(coords)) for c in coords}
    change = {(a, b): ident for a in range(n) for b in range(n) if a != b}
    return Cover(charts, [tuple(range(n))], change)


def mono(text, chart):
    """The 1 x 1 function matrix of text on the chart."""
    return MatrixForm.of_functions(chart, [[parse_expr(text, chart.coordinates)]])


def diagonal(chart, values):
    zero = parse_expr("0", [])
    return MatrixForm.of_functions(
        chart, [[v if i == j else zero for j in range(len(values))] for i, v in enumerate(values)]
    )


def test_acceptance_1_line_bundles_on_cp1():
    start = time.perf_counter()
    ok = True
    detail = []
    for n in range(-3, 4):
        t0 = time.perf_counter()
        cover = cp1_cover()
        gtext = f"z^{n}" if n else "1"
        data = BundleVertexData(cover, 1, {(0, 1): mono(gtext, cover.charts[0])})
        cocycle = tot_ch_vertex(data)
        expected = (
            None
            if n == 0
            else HoloForm(cover.charts[0], {(0,): parse_expr(f"{n}/z", ["z"])})
        )
        got = cocycle.component((0, 1), 1)
        if got != expected:
            ok = False
            detail.append(f"n={n}: wrong pair component")
        coeff = got.coefficient((0,)) if got is not None else parse_expr("0", [])
        residue = laurent_coefficient(coeff, "z", -1)
        if residue != GaussianRational(n):
            ok = False
            detail.append(f"n={n}: residue {residue}")
        if not cocycle.delta().is_zero:
            ok = False
            detail.append(f"n={n}: not closed")
        if time.perf_counter() - t0 >= 1.0:
            ok = False
            detail.append(f"n={n}: over 1s")
    _finish(1, ok, start, 8.0, "; ".join(detail))


def _rand_unit_rank2(rng, chart):
    coords = chart.coordinates
    z = coords[0]
    def poly():
        return parse_expr(
            f"{rng.randint(-3, 3)}*{z}^{rng.randint(0, 2)} + {rng.randint(-2, 2)}", list(coords)
        )
    one, zero = parse_expr("1", []), parse_expr("0", [])
    lower = MatrixForm.of_functions(chart, [[one, zero], [poly(), one]])
    upper = MatrixForm.of_functions(chart, [[one, poly()], [zero, one]])
    d1 = parse_expr(f"{rng.choice([1, -1])}*{z}^{rng.randint(-2, 2)}", [z])
    d2 = parse_expr(f"{rng.choice([1, -1])}*{z}^{rng.randint(-2, 2)}", [z])
    return lower * diagonal(chart, [d1, d2]) * upper


def _rand_conn_rank2(rng, chart):
    rows = []
    for _ in range(2):
        row = []
        for _ in range(2):
            form = HoloForm.zero(chart)
            for j, c in enumerate(chart.coordinates):
                coeff = parse_expr(f"{rng.randint(-2, 2)}*{c}^{rng.randint(-1, 1)}", [c])
                form = form + HoloForm(chart, {(j,): coeff})
            row.append(form)
        rows.append(row)
    return ConnectionMatrix(chart, MatrixForm(chart, rows))


def test_acceptance_2_face_sums_randomized():
    start = time.perf_counter()
    rng = random.Random(2024)
    chart = Chart("CSTAR", ("z",))
    ok = True
    detail = []
    for trial in range(100):
        k = 2 + (trial % 2)  # simplicial degrees 2 and 3
        morphisms = [_rand_unit_rank2(rng, chart) for _ in range(k)]
        conns = [_rand_conn_rank2(rng, chart) for _ in range(k + 1)]
        instance = NerveInstance(morphisms, conns)
        for ell in range(2, k + 2):
            for face in _increasing_tuples(k, ell):
                if not instance.boundary_sum(face).is_zero:
                    ok = False
                    detail.append(f"trial {trial} face {face}")
    _finish(2, ok, start, 30.0, "; ".join(detail[:3]))


def _increasing_tuples(top, length):
    from itertools import combinations

    return list(combinations(range(top + 1), length))


def test_acceptance_3_bijection_lemma():
    start = time.perf_counter()
    ok = True
    for q in range(6):
        for k in range(4):
            report = verify_bijection(tuple(range(q + 1)), k)
            ok = ok and report.ok
    _finish(3, ok, start, 10.0)


def test_acceptance_4_integration_identities():
    start = time.perf_counter()
    rng = random.Random(4)

    def d_a(sym):
        kind, t = sym
        if kind == "mu":
            from cechchern.cech import FormalSection

            return FormalSection(1, {("dmu", t): 1})
        from cechchern.cech import FormalSection

        return FormalSection(2, {})

    ok = True
    detail = []
    for k in range(4):
        for q in range(5):
            base = Cover.formal(q + 2)
            mu = formal_identity_cochain(base, k, q, rng)
            report = verify_integration_identities(mu, k, d_a)
            if not report.ok:
                ok = False
                detail.append(f"k={k} q={q}")
    _finish(4, ok, start, 30.0, "; ".join(detail))


def test_acceptance_5_ez_aw_and_shuffles():
    start = time.perf_counter()
    ok = True
    for n in range(4):
        for m in range(4):
            for pl in range(n + 1):
                for pr in range(m + 1):
                    for gl in nondegenerate_generators(n, pl):
                        for gr in nondegenerate_generators(m, pr):
                            staircases = ez_map(gl, gr)
                            if aw_chain(staircases) != Chain.of((gl, gr)):
                                ok = False
                            lhs = boundary_chain(staircases)
                            rhs = Chain.zero()
                            for g, c in boundary(gl).coeffs.items():
                                rhs = rhs + ez_map(g, gr).scale(c)
                            sign = -1 if gl.dim % 2 else 1
                            for g, c in boundary(gr).coeffs.items():
                                rhs = rhs + ez_map(gl, g).scale(sign * c)
                            if lhs != rhs:
                                ok = False
    for p in range(7):
        for q in range(7 - p):
            entries = shuffles(p, q)
            if len(entries) != shuffle_count(p, q):
                ok = False
            for mu, nu, sign in entries:
                if sign != brute_force_shuffle_sign(mu, nu):
                    ok = False
    _finish(5, ok, start, 10.0)


def test_acceptance_6_commuting_square():
    start = time.perf_counter()
    ok = True
    detail = []
    # (a) the O(k) vertex instances on CP^1
    for k in (-2, 1, 3):
        cover = cp1_cover()
        h = BundlePathData([BundleVertexData(cover, 1, {(0, 1): mono(f"z^{k}", cover.charts[0])})], {})
        report = verify_square(h)
        if not report.ok:
            ok = False
            detail.append(f"O({k})")
    # (b) the C^* one-simplex instances with monomial intertwiners
    cover = cstar_cover(2)
    for k0, k1, m in [(3, 1, 2), (2, -1, 0), (-1, 2, 1)]:
        h = BundlePathData(
            [
                BundleVertexData(cover, 1, {(0, 1): mono(f"z^{k0}", cover.charts[0])}),
                BundleVertexData(cover, 1, {(0, 1): mono(f"z^{k1}", cover.charts[0])}),
            ],
            {(1, 0): mono(f"z^{m + k0 - k1}", cover.charts[0]), (1, 1): mono(f"z^{m}", cover.charts[1])},
        )
        report = verify_square(h)
        if not report.ok:
            ok = False
            detail.append(f"k0={k0},k1={k1}")
    _finish(6, ok, start, 5.0, "; ".join(detail))


def _rand_gl1_multi(rng, chart):
    parts = [f"{rng.choice([1, -1])}"]
    for c in chart.coordinates:
        parts.append(f"{c}^{rng.randint(-2, 2)}")
    return mono("*".join(parts), chart)


def _gl1_path(rng, cover, n_levels):
    n_charts = cover.n_charts
    gens = [
        {(a, a + 1): _rand_gl1_multi(rng, cover.charts[a]) for a in range(n_charts - 1)}
        for _ in range(n_levels + 1)
    ]
    levels = []
    for p in range(n_levels + 1):
        full = {}
        for a in range(n_charts):
            acc = MatrixForm.identity(cover.charts[a], 1)
            for b in range(a + 1, n_charts):
                acc = cover.pull_to_chart(gens[p][(b - 1, b)], b - 1, a) * acc
                full[(a, b)] = acc
        levels.append(BundleVertexData(cover, 1, full))
    inter = {}
    for p in range(1, n_levels + 1):
        f = _rand_gl1_multi(rng, cover.charts[0])
        inter[(p, 0)] = f
        for a in range(n_charts - 1):
            f = levels[p].transitions[(a, a + 1)] * f * levels[p - 1].transitions[(a, a + 1)].inverse()
            f = cover.pull_to_chart(f, a, a + 1)
            inter[(p, a + 1)] = f
    return BundlePathData(levels, inter)


def _sl2_poly(rng, chart):
    coords = chart.coordinates
    def poly():
        pieces = [str(rng.randint(-2, 2))]
        for c in coords:
            pieces.append(f"{rng.randint(-2, 2)}*{c}")
        return parse_expr(" + ".join(pieces), list(coords))
    one = parse_expr("1", [])
    zero = parse_expr("0", [])
    lower = MatrixForm.of_functions(chart, [[one, zero], [poly(), one]])
    upper = MatrixForm.of_functions(chart, [[one, poly()], [zero, one]])
    return lower * upper


def _gl2_chain_path(rng, cover, n_levels):
    """Random SL(2)-type path data on any number of charts: pick the level-0
    adjacent transitions and all intertwiners freely, then propagate the
    square-commutation and cocycle laws."""
    n_charts = cover.n_charts
    adjacent = [{a: _sl2_poly(rng, cover.charts[a]) for a in range(n_charts - 1)}]
    inter = {}
    for p in range(1, n_levels + 1):
        fs = [_sl2_poly(rng, cover.charts[i]) for i in range(n_charts)]
        for i, f in enumerate(fs):
            inter[(p, i)] = f
        adjacent.append(
            {
                a: cover.pull_to_chart(fs[a + 1], a + 1, a) * adjacent[p - 1][a] * fs[a].inverse()
                for a in range(n_charts - 1)
            }
        )
    levels = []
    for p in range(n_levels + 1):
        full = {}
        for a in range(n_charts):
            acc = MatrixForm.identity(cover.charts[a], 2)
            for b in range(a + 1, n_charts):
                acc = cover.pull_to_chart(adjacent[p][b - 1], b - 1, a) * acc
                full[(a, b)] = acc
        levels.append(BundleVertexData(cover, 2, full))
    return BundlePathData(levels, inter)


def test_acceptance_7_closed_formula_vs_ez_pipeline():
    start = time.perf_counter()
    rng = random.Random(7)
    ok = True
    detail = []
    # GL(1) monomial data on three-dimensional charts, four charts deep:
    # mixed-degree forms up to the chart dimension stay nonzero.
    coords3 = ("v", "w", "z")
    cover4 = cstar_cover(4, coords3)
    for n_levels in (1, 2):
        for _ in range(2):
            path = _gl1_path(rng, cover4, n_levels)
            for ell in range(n_levels + 1):
                for g in nondegenerate_generators(n_levels, ell):
                    if tot_ch_simplex(path, g) != tot_ch_simplex_via_ez(path, g):
                        ok = False
                        detail.append(f"GL1 n={n_levels} gen={g.indices}")
    # GL(2) unit-determinant data on two-dimensional charts, three charts
    # deep so the tables reach Čech degree 2 at rank 2.
    coords2 = ("w", "z")
    cover2 = cstar_cover(3, coords2)
    for n_levels in (1, 2):
        path = _gl2_chain_path(rng, cover2, n_levels)
        for ell in range(n_levels + 1):
            for g in nondegenerate_generators(n_levels, ell):
                if tot_ch_simplex(path, g) != tot_ch_simplex_via_ez(path, g):
                    ok = False
                    detail.append(f"GL2 n={n_levels} gen={g.indices}")
    _finish(7, ok, start, 60.0, "; ".join(detail[:3]))


def test_acceptance_8_equivariant_vanishing():
    start = time.perf_counter()
    cover = Cover([Chart("M", ("z",))], [(0,)])
    chart = cover.charts[0]
    group = FiniteGroup(
        ["e", "s"], "e", {("e", "e"): "e", ("e", "s"): "s", ("s", "e"): "s", ("s", "s"): "e"}
    )
    action = {("s", 0): {"z": parse_expr("1/z", ["z"])}}

    def conn(text):
        a = HoloForm.d_coord(chart, "z").scale(parse_expr(text, ["z"]))
        return {0: ConnectionMatrix(chart, MatrixForm(chart, [[a]]))}

    invariant = EquivariantBundleData(
        cover, 1, group, action, {("s", 0): mono("1", chart)}, conn("z^-2 - 1")
    )
    report = equivariant_check(invariant)
    ok = report.ok
    control = EquivariantBundleData(
        cover, 1, group, action, {("s", 0): mono("1", chart)}, conn("1")
    )
    defect = control.nabla_phi("s", 0)
    expected = HoloForm(chart, {(0,): parse_expr("(-1 - z^2)/z^2", ["z"])})
    ok = ok and defect[0, 0] == expected
    control_report = equivariant_check(control)
    bad = [i for i in control_report.items if i.name == "equivariant.connection_invariant"]
    ok = ok and bad and not bad[0].ok
    _finish(8, ok, start, 1.0)


def _rand_gl2_monomial(rng, chart):
    a = parse_expr(f"{rng.choice([1, -1])}*z^{rng.randint(-2, 2)}", ["z"])
    d = parse_expr(f"{rng.choice([1, -1])}*z^{rng.randint(-2, 2)}", ["z"])
    b = parse_expr(f"{rng.randint(-2, 2)}*z^{rng.randint(0, 2)}", ["z"])
    return MatrixForm.of_functions(chart, [[a, b], [parse_expr("0", []), d]])


def test_acceptance_9_gamma_closedness():
    start = time.perf_counter()
    rng = random.Random(9)
    ok = True
    detail = []
    for trial in range(50):
        n_charts = 2 + trial % 3  # covers with 2, 3 and 4 charts
        cover = cstar_cover(n_charts)
        gens = {(a, a + 1): _rand_gl2_monomial(rng, cover.charts[a]) for a in range(n_charts - 1)}
        full = {}
        for a in range(n_charts):
            acc = MatrixForm.identity(cover.charts[a], 2)
            for b in range(a + 1, n_charts):
                acc = cover.pull_to_chart(gens[(b - 1, b)], b - 1, a) * acc
                full[(a, b)] = acc
        h = BundlePathData([BundleVertexData(cover, 2, full)], {})
        if not gamma(h).delta().is_zero:
            ok = False
            detail.append(f"trial {trial}")
    _finish(9, ok, start, 30.0, "; ".join(detail[:3]))
