"""Forms layer: exterior derivative, wedge, pullback, Hom connection, traces."""

import random

import pytest

from cechchern import linalg, parse_expr
from cechchern.forms import (
    ChangeMap,
    Chart,
    ChartMismatchError,
    ConnectionMatrix,
    HoloForm,
    MatrixForm,
    apply_connection,
)
from cechchern.ratfunc import RationalFunction

Z = Chart("U", ("z",))
ZW = Chart("V", ("z", "w"))


def fn(text, chart):
    return HoloForm.function(chart, parse_expr(text, chart.coordinates))


def test_partial_d_examples():
    # z^2 -> 2z dz
    f = fn("z^2", Z)
    assert f.d() == HoloForm(Z, {(0,): parse_expr("2*z", ["z"])})
    # dz -> 0
    assert HoloForm.d_coord(Z, "z").d().is_zero
    # 1/z -> -z^-2 dz
    assert fn("1/z", Z).d() == HoloForm(Z, {(0,): parse_expr("-1/z^2", ["z"])})


def test_partial_d_squares_to_zero():
    rng = random.Random(2)
    for _ in range(25):
        coeff = parse_expr(
            f"({rng.randint(-3, 3)}*z^{rng.randint(0, 3)}*w + {rng.randint(1, 4)})/(z^{rng.randint(1, 2)})",
            ["z", "w"],
        )
        form = HoloForm.function(ZW, coeff)
        assert form.d().d().is_zero
        assert (form + HoloForm.d_coord(ZW, "w").scale(coeff)).d().d().is_zero


def test_wedge_antisymmetry_and_associativity():
    dz = HoloForm.d_coord(ZW, "z")
    dw = HoloForm.d_coord(ZW, "w")
    assert dz.wedge(dz).is_zero
    assert (dz.wedge(dw) + dw.wedge(dz)).is_zero
    f = fn("z*w", ZW)
    g = fn("1/z", ZW)
    # (f dz) ^ (g dw) = (fg) dz^dw
    lhs = dz.scale(f.terms[()]).wedge(dw.scale(g.terms[()]))
    assert lhs == HoloForm(ZW, {(0, 1): parse_expr("w", ["z", "w"])})
    a, b, c = dz.scale(f.terms[()]), dw, fn("z", ZW)
    assert a.wedge(b.wedge(c)) == (a.wedge(b)).wedge(c)


def test_wedge_graded_commutativity():
    rng = random.Random(9)
    for _ in range(20):
        fa = parse_expr(f"{rng.randint(-3, 3)}*z + {rng.randint(-2, 2)}*w^2", ["z", "w"])
        fb = parse_expr(f"{rng.randint(-3, 3)}*w + {rng.randint(1, 2)}", ["z", "w"])
        alpha = HoloForm(ZW, {(0,): fa})  # degree 1
        beta = HoloForm(ZW, {(1,): fb})  # degree 1
        assert alpha.wedge(beta) == -(beta.wedge(alpha))
        f = HoloForm.function(ZW, fa)  # degree 0
        assert f.wedge(beta) == beta.wedge(f)


def test_wedge_chart_mismatch():
    with pytest.raises(ChartMismatchError):
        HoloForm.d_coord(Z, "z").wedge(HoloForm.d_coord(ZW, "z"))


def test_pullback_examples():
    W = Chart("W", ("w",))
    # dw under w = 1/z becomes -z^-2 dz
    dw = HoloForm.d_coord(W, "w")
    phi = ChangeMap({"w": parse_expr("1/z", ["z"])}, W, Z)
    assert dw.pullback(phi) == HoloForm(Z, {(0,): parse_expr("-1/z^2", ["z"])})
    # w dw pulls back to -z^-3 dz
    wdw = dw.scale(RationalFunction.variable("w"))
    assert wdw.pullback(phi) == HoloForm(Z, {(0,): parse_expr("-1/z^3", ["z"])})
    # identity map leaves forms alone
    f = fn("z^2 + 1", Z) + HoloForm.d_coord(Z, "z").scale(parse_expr("1/z", ["z"]))
    assert f.pullback(ChangeMap.identity(Z)) == f
    # a form pulls back only along a map from its own chart
    with pytest.raises(ChartMismatchError):
        f.pullback(phi)


def test_pullback_commutes_with_d_and_composes():
    rng = random.Random(21)
    W = Chart("W", ("w",))
    for _ in range(15):
        a, b = rng.randint(1, 3), rng.randint(-3, -1)
        form = HoloForm.function(W, parse_expr(f"w^{a} + {a}/w", ["w"]))
        phi = ChangeMap({"w": parse_expr(f"z^{b} + {a}", ["z"])}, W, Z)
        lhs = form.d().pullback(phi)
        rhs = form.pullback(phi).d()
        assert lhs == rhs
    # functoriality: pullback along a composition equals iterated pullback
    X = Chart("X", ("x",))
    phi = ChangeMap({"w": parse_expr("1/z", ["z"])}, W, Z)      # W <- Z
    psi = ChangeMap({"z": parse_expr("x^2", ["x"])}, Z, X)      # Z <- X
    comp = ChangeMap({"w": parse_expr("1/x^2", ["x"])}, W, X)   # W <- X
    form = HoloForm.function(W, parse_expr("w^3 + w", ["w"])).d()
    assert form.pullback(phi).pullback(psi) == form.pullback(comp)


def test_matrix_pullback_takes_the_jacobian_once(monkeypatch):
    # the forms d(image) of the map are built once, with the map, and no
    # pullback along it takes a derivative
    calls = []
    derivative = RationalFunction.derivative
    monkeypatch.setattr(RationalFunction, "derivative", lambda f, v: calls.append(v) or derivative(f, v))
    X = Chart("X", ("x", "y"))
    phi = {"z": parse_expr("x*y", ["x", "y"]), "w": parse_expr("1/y + x", ["x", "y"])}
    dz, dw = HoloForm.d_coord(ZW, "z"), HoloForm.d_coord(ZW, "w")
    a = ConnectionMatrix(ZW, MatrixForm(ZW, [[dz, dw.scale(parse_expr("z*w", ["z", "w"]))], [dw, dz + dw]]))
    change = ChangeMap(phi, ZW, X)
    pulled = a.pullback(change)
    # one 2 x 2 Jacobian: entry by entry it took 16 derivatives
    assert len(calls) == 4
    assert pulled.matrix.entries == tuple(tuple(e.pullback(change) for e in row) for row in a.matrix.entries)
    assert len(calls) == 4


def rand_matrix_form(rng, chart, n=2):
    grid = []
    for _ in range(n):
        row = []
        for _ in range(n):
            c = parse_expr(
                f"{rng.randint(-3, 3)}*z^{rng.randint(0, 2)} + {rng.randint(-2, 2)}",
                chart.coordinates,
            )
            row.append(HoloForm.function(chart, c))
        grid.append(row)
    return MatrixForm(chart, grid)


def rand_connection(rng, chart, n=2):
    grid = []
    for _ in range(n):
        row = []
        for _ in range(n):
            c = parse_expr(f"{rng.randint(-2, 2)}*z + {rng.randint(-1, 1)}", chart.coordinates)
            row.append(HoloForm.d_coord(chart, "z").scale(c))
        grid.append(row)
    return ConnectionMatrix(chart, MatrixForm(chart, grid))


def test_apply_connection_examples():
    rng = random.Random(4)
    f = rand_matrix_form(rng, Z)
    zero = ConnectionMatrix.zero(Z, 2)
    assert apply_connection(f, zero, zero) == f.d()
    a = rand_connection(rng, Z)
    ident = MatrixForm.identity(Z, 2)
    assert apply_connection(ident, a, a).is_zero


def test_apply_connection_leibniz():
    # nabla(g f) = nabla(g) f + g nabla(f), middle connection matching
    rng = random.Random(6)
    for _ in range(100):
        f = rand_matrix_form(rng, Z)
        g = rand_matrix_form(rng, Z)
        a0, a1, a2 = (rand_connection(rng, Z) for _ in range(3))
        lhs = apply_connection(g * f, a0, a2)
        rhs = apply_connection(g, a1, a2) * f + g * apply_connection(f, a0, a1)
        assert (lhs - rhs).is_zero


def test_trace_examples_and_graded_cyclicity():
    assert MatrixForm.identity(Z, 3).trace() == HoloForm.constant(Z, 3)
    rng = random.Random(8)
    for _ in range(20):
        a = rand_matrix_form(rng, Z)
        b = rand_matrix_form(rng, Z)
        assert (a * b).trace() == (b * a).trace() == a.trace(b)
    # 1-form valued matrices anticommute inside the trace
    dz = HoloForm.d_coord(ZW, "z")
    dw = HoloForm.d_coord(ZW, "w")
    for _ in range(20):
        alpha = MatrixForm(
            ZW,
            [[dz.scale(parse_expr(str(rng.randint(-3, 3)), [])) for _ in range(2)] for _ in range(2)],
        )
        beta = MatrixForm(
            ZW,
            [[dw.scale(parse_expr(f"{rng.randint(-2, 2)}*z", ["z"])) for _ in range(2)] for _ in range(2)],
        )
        assert ((alpha * beta).trace() + (beta * alpha).trace()).is_zero
        assert alpha.trace(beta) == (alpha * beta).trace()
    # tr(a b) of a 2 x 3 by a 3 x 2 matrix; a product that is not square has none
    wide = MatrixForm(ZW, [[dz.scale(parse_expr(str(i + j), [])) for j in range(3)] for i in range(2)])
    tall = MatrixForm(ZW, [[dw.scale(parse_expr(f"{i - j}*z", ["z"])) for j in range(2)] for i in range(3)])
    assert wide.trace(tall) == (wide * tall).trace()
    with pytest.raises(ValueError):
        wide.trace(wide)


def test_pullback_vanishing_denominator_rejected():
    # a map that would pull 1/w back to a pole is refused when it is built
    with pytest.raises(ValueError, match="is degenerate"):
        ChangeMap({"w": parse_expr("z - z", ["z"])}, Chart("W", ("w",)), Z)


def test_apply_connection_shape_and_chart_mismatch():
    rng = random.Random(1)
    f = rand_matrix_form(rng, Z)
    a3 = ConnectionMatrix.zero(Z, 3)
    a2 = ConnectionMatrix.zero(Z, 2)
    with pytest.raises(ValueError):
        apply_connection(f, a3, a2)
    other = ConnectionMatrix.zero(Chart("Other", ("z",)), 2)
    with pytest.raises(ChartMismatchError):
        apply_connection(f, other, a2)
    with pytest.raises(ValueError):
        apply_connection(MatrixForm(Z, [[HoloForm.d_coord(Z, "z")]]), a2, a2)


def test_connection_matrix_must_be_square():
    # a 2 x 3 matrix is refused where the connection is built, not at its
    # first use as a shape mismatch in apply_connection
    dz = HoloForm.d_coord(Z, "z")
    for matrix in (MatrixForm(Z, [[dz, dz, dz], [dz, dz, dz]]), MatrixForm.zero(Z, 2, 3)):
        with pytest.raises(ValueError, match="must be square, found 2x3"):
            ConnectionMatrix(Z, matrix)


def test_matrix_form_of_functions_roundtrip():
    grid = [[parse_expr("z", ["z"]), parse_expr("1", [])], [parse_expr("0", []), parse_expr("1/z", ["z"])]]
    mf = MatrixForm.of_functions(Z, grid)
    assert [[e.terms.get((), RationalFunction.zero()) for e in row] for row in mf.entries] == grid
    assert mf.degrees() <= {0}
    # det, inverse and is_identity read a matrix of functions: a 1-form
    # entry is an error, and a matrix with one is never the identity
    dz = MatrixForm(Z, [[HoloForm.d_coord(Z, "z")]])
    with pytest.raises(ValueError):
        dz.det()
    with pytest.raises(ValueError):
        dz.inverse()
    assert not (MatrixForm.identity(Z, 1) + dz).is_identity


def _laurent_text(rng, names, terms):
    """A random Laurent polynomial with Gaussian-rational coefficients."""
    out = []
    for _ in range(terms):
        coeff = f"({rng.randint(-3, 3) or 1} + {rng.randint(-2, 2)}*i)/{rng.randint(1, 3)}"
        out.append("*".join([coeff] + [f"{v}^{rng.randint(-3, 3)}" for v in names]))
    return " + ".join(out)


def _monomial_map(rng, source, target):
    """Images c*x^K of source's coordinates in target's, with K an integer
    matrix of nonzero determinant and c a Gaussian rational, 1 half the time."""
    n = len(source.coordinates)
    while True:
        k = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        if not linalg.det([[RationalFunction.const(x) for x in row] for row in k]).is_zero:
            break
    images = {}
    for u, row in zip(source.coordinates, k):
        coeff = "1" if rng.random() < 0.5 else f"({rng.randint(1, 3)} - {rng.randint(0, 2)}*i)/{rng.randint(1, 3)}"
        images[u] = parse_expr("*".join([coeff] + [f"{y}^{e}" for y, e in zip(target.coordinates, row)]),
                               target.coordinates)
    return images


def test_change_map_routes_agree_with_substitution(monkeypatch):
    # ChangeMap.pull equals RationalFunction.substitute on every route; the
    # monomial route substitutes nothing, the other maps and functions whose
    # denominator is not a monomial take the general route, and the identity
    # returns its argument
    rng = random.Random(26)
    substitute = RationalFunction.substitute
    calls = []
    monkeypatch.setattr(RationalFunction, "substitute", lambda f, m: calls.append(f) or substitute(f, m))
    for n in (1, 2, 3):
        source = Chart("S", ("a", "b", "c")[:n])
        # a renaming: the target's coordinates sort in another order
        target = Chart("T", ("z", "y", "x")[:n])
        for _ in range(12):
            change = ChangeMap(_monomial_map(rng, source, target), source, target)
            for text in (_laurent_text(rng, source.coordinates, rng.randint(1, 5)), "0", "1", "(2 + i)/3"):
                f = parse_expr(text, source.coordinates)
                calls.clear()
                assert str(change.pull(f)) == str(substitute(f, change.images)), (text, change.images)
                assert change.pull(f) == substitute(f, change.images)
                assert not calls, text
            # a denominator that is not a monomial takes the general route
            f = parse_expr(f"1/(1 + {source.coordinates[0]})", source.coordinates)
            calls.clear()
            assert change.pull(f) == substitute(f, change.images) and len(calls) == 1
        # so does every function under a map with an image that is not a monomial
        images = {u: parse_expr(f"{y} + 1", target.coordinates) for u, y in zip(source.coordinates, target.coordinates)}
        change = ChangeMap(images, source, target)
        f = parse_expr(_laurent_text(rng, source.coordinates, 3), source.coordinates)
        calls.clear()
        assert change.pull(f) == substitute(f, images) and len(calls) == 1
        # the identity map returns its argument, whatever its denominator
        identity = ChangeMap.identity(source)
        for text in ("a^-2 + 3", "1/(a + 1)"):
            f = parse_expr(text, source.coordinates)
            assert identity.pull(f) is f
    # the examples: (2+i)/(3*z^2) under z -> 1/w, and the map z -> z^2,
    # which no inverse monomial map undoes
    W = Chart("W", ("w",))
    for image, text in (("1/w", "(2 + i)/(3*z^2)"), ("w^2", "z^-1 + (2 + i)/(3*z^2) + i*z^3"), ("i*w^-2", "z - 1/z")):
        change = ChangeMap({"z": parse_expr(image, ["w"])}, Z, W)
        f = parse_expr(text, ["z"])
        assert change.pull(f) == substitute(f, change.images)
