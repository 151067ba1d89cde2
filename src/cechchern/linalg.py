"""Matrices over the rational-function field.

Inverses go through adjugate/determinant so entries stay inside the field;
determinants are computed by cofactor expansion, which is fine at the
small ranks this library works with.
"""

from __future__ import annotations

from typing import List, Sequence

from .ratfunc import RationalFunction


class SingularMatrixError(ValueError):
    pass


class RFMatrix:
    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Sequence[Sequence[RationalFunction]]):
        rows = len(entries)
        if rows == 0:
            raise ValueError("empty matrix")
        cols = len(entries[0])
        if any(len(r) != cols for r in entries):
            raise ValueError("ragged matrix")
        grid = tuple(tuple(row) for row in entries)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", grid)

    def __setattr__(self, name, value):
        raise AttributeError("RFMatrix is immutable")

    @staticmethod
    def identity(n: int) -> "RFMatrix":
        one = RationalFunction.one()
        zero = RationalFunction.zero()
        return RFMatrix([[one if i == j else zero for j in range(n)] for i in range(n)])

    @staticmethod
    def diagonal(values: Sequence[RationalFunction]) -> "RFMatrix":
        zero = RationalFunction.zero()
        n = len(values)
        return RFMatrix([[values[i] if i == j else zero for j in range(n)] for i in range(n)])

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def __getitem__(self, key):
        i, j = key
        return self.entries[i][j]

    def __mul__(self, other: "RFMatrix") -> "RFMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} * {other.rows}x{other.cols}")
        return RFMatrix(
            [
                [
                    RationalFunction.sum(self.entries[i][k] * other.entries[k][j] for k in range(self.cols))
                    for j in range(other.cols)
                ]
                for i in range(self.rows)
            ]
        )

    def transpose(self) -> "RFMatrix":
        return RFMatrix([[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)])

    def det(self) -> RationalFunction:
        if not self.is_square:
            raise ValueError("determinant of a non-square matrix")
        return _det(self.entries)

    def adjugate(self) -> "RFMatrix":
        if not self.is_square:
            raise ValueError("adjugate of a non-square matrix")
        n = self.rows
        if n == 1:
            return RFMatrix([[RationalFunction.one()]])
        cof: List[List[RationalFunction]] = []
        for i in range(n):
            row = []
            for j in range(n):
                minor = [
                    [self.entries[r][c] for c in range(n) if c != j]
                    for r in range(n)
                    if r != i
                ]
                d = _det(tuple(tuple(r) for r in minor))
                row.append(-d if (i + j) % 2 else d)
            cof.append(row)
        return RFMatrix(cof).transpose()

    def inverse(self) -> "RFMatrix":
        """Exact inverse via adjugate/determinant."""
        d = self.det()
        if d.is_zero:
            raise SingularMatrixError("matrix has identically zero determinant")
        inv = d.inverse()
        return RFMatrix([[e * inv for e in row] for row in self.adjugate().entries])

    @property
    def is_identity(self) -> bool:
        if not self.is_square:
            return False
        for i in range(self.rows):
            for j in range(self.cols):
                e = self.entries[i][j]
                if (i == j and not e.is_one) or (i != j and not e.is_zero):
                    return False
        return True

    def __eq__(self, other) -> bool:
        if not isinstance(other, RFMatrix):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        rows = "; ".join(", ".join(str(e) for e in row) for row in self.entries)
        return f"RFMatrix[{rows}]"


def _det(grid) -> RationalFunction:
    n = len(grid)
    if n == 1:
        return grid[0][0]
    if n == 2:
        return grid[0][0] * grid[1][1] - grid[0][1] * grid[1][0]
    rest = [row[1:] for row in grid]
    terms = (
        (i, grid[i][0] * _det(tuple(tuple(rest[r]) for r in range(n) if r != i)))
        for i in range(n)
        if not grid[i][0].is_zero
    )
    return RationalFunction.sum(-t if i % 2 else t for i, t in terms)
