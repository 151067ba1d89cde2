"""Matrix field arithmetic: determinants, adjugate inverses, involution."""

import random

import pytest

from cechchern import MatrixForm, RationalFunction, SingularMatrixError, linalg, parse_expr
from cechchern.forms import Chart

Z = Chart("Z", ("z",))


def rf(text, variables=("z",)):
    return parse_expr(text, variables)


def matrix(rows):
    return MatrixForm.of_functions(Z, rows)


def diagonal(values):
    zero = rf("0", [])
    return matrix([[v if i == j else zero for j in range(len(values))] for i, v in enumerate(values)])


def test_inverse_examples():
    ident = MatrixForm.identity(Z, 3)
    assert ident.is_identity
    assert ident.inverse() == ident
    d = diagonal([rf("z"), rf("1/z")])
    assert d.inverse() == diagonal([rf("1/z"), rf("z")])
    singular = matrix([[rf("z"), rf("z")], [rf("1"), rf("1")]])
    assert singular.det().is_zero
    with pytest.raises(SingularMatrixError):
        singular.inverse()
    with pytest.raises(ValueError):
        matrix([[rf("z"), rf("1")]]).det()
    with pytest.raises(ValueError):
        linalg.det([])


def test_inverse_is_exact():
    m = matrix([[rf("z"), rf("1")], [rf("1/z"), rf("z + 1")]])
    inv = m.inverse()
    assert (m * inv) == MatrixForm.identity(Z, 2)
    assert (inv * m) == MatrixForm.identity(Z, 2)
    assert (m * inv).is_identity and not m.is_identity


def rand_unit_matrix(rng, n=2):
    """L * D * U with unit-triangular factors and monomial-unit diagonal."""
    one, zero = rf("1", []), rf("0", [])

    def poly():
        return rf(f"{rng.randint(-3, 3)}*z^{rng.randint(0, 2)} + {rng.randint(-2, 2)}")

    lower = [[one if i == j else (poly() if i > j else zero) for j in range(n)] for i in range(n)]
    upper = [[one if i == j else (poly() if i < j else zero) for j in range(n)] for i in range(n)]
    diag = diagonal(
        [rf(f"{rng.choice([1, -1])}*z^{rng.randint(-3, 3)}") for _ in range(n)]
    )
    return matrix(lower) * diag * matrix(upper)


def test_double_inverse_is_identity_on_200_random_matrices():
    rng = random.Random(12)
    for trial in range(200):
        n = 2 if trial % 3 else 3
        m = rand_unit_matrix(rng, n)
        det = m.det()
        assert det.num.is_monomial and det.den.is_monomial  # monomial unit
        assert m.inverse().inverse() == m


def test_det_multiplicative_and_adjugate_identity():
    rng = random.Random(15)
    for _ in range(20):
        a = rand_unit_matrix(rng)
        b = rand_unit_matrix(rng)
        assert (a * b).det() == a.det() * b.det()
        grid = [[e.terms.get((), RationalFunction.zero()) for e in row] for row in a.entries]
        adj = matrix(linalg.adjugate(grid))
        prod = a * adj
        d = a.det()
        assert prod == diagonal([d, d])
