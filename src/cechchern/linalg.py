"""Field linear algebra on square grids of rational functions.

A grid is a sequence of equal-length rows of RationalFunctions.  Inverses
go through adjugate/determinant so entries stay inside the field;
determinants are computed by cofactor expansion, which is fine at the
small ranks this library works with.  MatrixForm.det/inverse and the
Jacobian check of the forms.ChangeMap constructor call these functions.
"""

from __future__ import annotations

from .ratfunc import RationalFunction


class SingularMatrixError(ValueError):
    pass


def det(grid) -> RationalFunction:
    n = _size(grid)
    if n == 1:
        return grid[0][0]
    if n == 2:
        return grid[0][0] * grid[1][1] - grid[0][1] * grid[1][0]
    terms = ((i, grid[i][0] * det(_minor(grid, i, 0))) for i in range(n) if not grid[i][0].is_zero)
    return sum((-t if i % 2 else t for i, t in terms), RationalFunction.zero())


def adjugate(grid):
    """The transposed cofactor grid: grid * adjugate(grid) = det(grid) * 1."""
    n = _size(grid)
    if n == 1:
        return ((RationalFunction.one(),),)
    cofactors = [[det(_minor(grid, i, j)) for j in range(n)] for i in range(n)]
    return tuple(
        tuple(-cofactors[i][j] if (i + j) % 2 else cofactors[i][j] for i in range(n)) for j in range(n)
    )


def inverse(grid):
    """Exact inverse via adjugate/determinant."""
    d = det(grid)
    if d.is_zero:
        raise SingularMatrixError("matrix has identically zero determinant")
    inv = d.inverse()
    return tuple(tuple(e * inv for e in row) for row in adjugate(grid))


def _size(grid) -> int:
    n = len(grid)
    if n == 0 or any(len(row) != n for row in grid):
        raise ValueError("expected a nonempty square matrix")
    return n


def _minor(grid, i: int, j: int):
    return [[x for c, x in enumerate(row) if c != j] for r, row in enumerate(grid) if r != i]
