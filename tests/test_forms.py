"""Forms layer: exterior derivative, wedge, pullback, Hom connection, traces."""

import random

import pytest

from cechchern import parse_expr
from cechchern.forms import (
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
    lhs = dz.scale(f.coefficient(())).wedge(dw.scale(g.coefficient(())))
    assert lhs == HoloForm(ZW, {(0, 1): parse_expr("w", ["z", "w"])})
    a, b, c = dz.scale(f.coefficient(())), dw, fn("z", ZW)
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
    phi = {"w": parse_expr("1/z", ["z"])}
    assert dw.pullback(Z, phi) == HoloForm(Z, {(0,): parse_expr("-1/z^2", ["z"])})
    # w dw pulls back to -z^-3 dz
    wdw = dw.scale(RationalFunction.variable("w"))
    assert wdw.pullback(Z, phi) == HoloForm(Z, {(0,): parse_expr("-1/z^3", ["z"])})
    # identity map leaves forms alone
    ident = {"z": parse_expr("z", ["z"])}
    f = fn("z^2 + 1", Z) + HoloForm.d_coord(Z, "z").scale(parse_expr("1/z", ["z"]))
    assert f.pullback(Z, ident) == f


def test_pullback_commutes_with_d_and_composes():
    rng = random.Random(21)
    W = Chart("W", ("w",))
    for _ in range(15):
        a, b = rng.randint(1, 3), rng.randint(-3, -1)
        form = HoloForm.function(W, parse_expr(f"w^{a} + {a}/w", ["w"]))
        phi = {"w": parse_expr(f"z^{b} + {a}", ["z"])}
        lhs = form.d().pullback(Z, phi)
        rhs = form.pullback(Z, phi).d()
        assert lhs == rhs
    # functoriality: pullback along a composition equals iterated pullback
    X = Chart("X", ("x",))
    phi = {"w": parse_expr("1/z", ["z"])}      # W <- Z
    psi = {"z": parse_expr("x^2", ["x"])}      # Z <- X
    comp = {"w": parse_expr("1/x^2", ["x"])}   # W <- X
    form = HoloForm.function(W, parse_expr("w^3 + w", ["w"])).d()
    assert form.pullback(Z, phi).pullback(X, psi) == form.pullback(X, comp)


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
        assert (a * b).trace() == (b * a).trace()
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


def test_pullback_vanishing_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        fn("1/w", Chart("W", ("w",))).pullback(Z, {"w": parse_expr("z - z", ["z"])})


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


def test_matrix_form_of_functions_roundtrip():
    grid = [[parse_expr("z", ["z"]), parse_expr("1", [])], [parse_expr("0", []), parse_expr("1/z", ["z"])]]
    mf = MatrixForm.of_functions(Z, grid)
    assert [[e.coefficient(()) for e in row] for row in mf.entries] == grid
    assert mf.degrees() <= {0}
    # det, inverse and is_identity read a matrix of functions: a 1-form
    # entry is an error, and a matrix with one is never the identity
    dz = MatrixForm(Z, [[HoloForm.d_coord(Z, "z")]])
    with pytest.raises(ValueError):
        dz.det()
    with pytest.raises(ValueError):
        dz.inverse()
    assert not (MatrixForm.identity(Z, 1) + dz).is_identity
