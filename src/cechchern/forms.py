"""Holomorphic differential forms with rational-function coefficients.

A HoloForm lives on a named chart and stores coefficients keyed by the
strictly increasing tuple of coordinate indices spanning each wedge
monomial dz_{i1} ^ ... ^ dz_{ik}.  The holomorphic de Rham operator, the
wedge product, pullback and the induced connection on Hom-bundles all act
on this representation.

Forms pull back along ChangeMap values, each built once when its data
loads, with its Jacobian forms.  `ChangeMap.pull` returns a function f
unchanged when f is constant or the map is the identity of one coordinate
tuple; re-keys f's exponents (`ratfunc._pull_laurent`, no product and no
gcd) when every image is a Laurent monomial c x^K, as on CP^n, products
and toric charts, and f's denominator is a monomial; and otherwise calls
`RationalFunction.substitute`.

MatrixForm is the one matrix type: transitions, intertwiners, action
lifts and symbolic group elements are degree-0 MatrixForms on their chart,
whose det() and inverse() call linalg.

Sign conventions: wedge merging counts transpositions of the index
tuples; the induced connection on a degree-0 morphism f is
nabla(f) = d(f) + A_dst * f - f * A_src.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple

from . import linalg
from .poly import collect
from .ratfunc import RationalFunction, _laurent_monomial, _pull_laurent, _unit_keys
from .value import Value

IndexTuple = Tuple[int, ...]


class Chart(Value):
    """A coordinate chart: a name plus an ordered tuple of coordinates."""

    __slots__ = ("name", "coordinates")

    def __init__(self, name: str, coordinates: Tuple[str, ...]):
        if len(set(coordinates)) != len(coordinates):
            raise ValueError(f"duplicate coordinates in chart {name}")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "coordinates", coordinates)

    def index_of(self, coordinate: str) -> int:
        return self.coordinates.index(coordinate)


class ChartMismatchError(ValueError):
    pass


def _merge_wedge(a: IndexTuple, b: IndexTuple):
    """Merge two strictly increasing index tuples; None when they collide.

    Returns (merged tuple, Koszul sign from sorting the concatenation).
    """
    if set(a) & set(b):
        return None, 0
    merged = []
    sign = 1
    i = j = 0
    while i < len(a) and j < len(b):
        if a[i] < b[j]:
            merged.append(a[i])
            i += 1
        else:
            # b[j] jumps over the remaining len(a) - i entries of a
            if (len(a) - i) % 2:
                sign = -sign
            merged.append(b[j])
            j += 1
    merged.extend(a[i:])
    merged.extend(b[j:])
    return tuple(merged), sign


class HoloForm(Value):
    """A holomorphic form on a chart; mixed degrees are allowed."""

    __slots__ = ("chart", "terms")

    def __init__(self, chart: Chart, terms: Mapping[IndexTuple, RationalFunction]):
        clean: Dict[IndexTuple, RationalFunction] = {}
        n = len(chart.coordinates)
        for idx, coeff in terms.items():
            idx = tuple(idx)
            if any(i < 0 or i >= n for i in idx) or list(idx) != sorted(set(idx)):
                raise ValueError(f"bad wedge index tuple {idx} on chart {chart.name}")
            if not coeff.is_zero:
                clean[idx] = coeff
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "terms", clean)

    # -- construction -----------------------------------------------------------

    @staticmethod
    def zero(chart: Chart) -> "HoloForm":
        return HoloForm(chart, {})

    @staticmethod
    def function(chart: Chart, f: RationalFunction) -> "HoloForm":
        return HoloForm(chart, {(): f})

    @staticmethod
    def constant(chart: Chart, c) -> "HoloForm":
        return HoloForm.function(chart, RationalFunction.const(c))

    @staticmethod
    def d_coord(chart: Chart, coordinate: str) -> "HoloForm":
        return HoloForm(chart, {(chart.index_of(coordinate),): RationalFunction.one()})

    @staticmethod
    def sum(chart: Chart, terms: Iterable[Tuple[IndexTuple, RationalFunction]]) -> "HoloForm":
        """The form of a stream of (index tuple, coefficient) terms, collected once."""
        return HoloForm(chart, collect(terms))

    # -- queries ------------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degrees(self) -> set:
        return {len(i) for i in self.terms}

    def degree(self) -> int:
        """The degree of a pure-degree form (zero counts as degree 0)."""
        ds = self.degrees()
        if not ds:
            return 0
        if len(ds) > 1:
            raise ValueError(f"mixed-degree form: degrees {sorted(ds)}")
        return ds.pop()

    # -- linear structure --------------------------------------------------------

    def _check_chart(self, other: "HoloForm"):
        if self.chart != other.chart:
            raise ChartMismatchError(
                f"forms live on different charts: {self.chart.name} vs {other.chart.name}"
            )

    @staticmethod
    def total(signed: Sequence[Tuple[int, "HoloForm"]]) -> "HoloForm":
        """The sum of s*f over a nonempty list of (s, f) pairs, s = +-1 and
        every f on one chart, collected once."""
        sign, first = signed[0]
        if len(signed) == 1 and sign == 1:
            return first
        for _, f in signed[1:]:
            first._check_chart(f)
        return HoloForm.sum(first.chart, ((i, c if s == 1 else -c) for s, f in signed for i, c in f.terms.items()))

    def __add__(self, other: "HoloForm") -> "HoloForm":
        self._check_chart(other)
        return HoloForm.sum(self.chart, chain(self.terms.items(), other.terms.items()))

    def __sub__(self, other: "HoloForm") -> "HoloForm":
        return self + (-other)

    def __neg__(self) -> "HoloForm":
        return HoloForm(self.chart, {i: -c for i, c in self.terms.items()})

    def scale(self, c: RationalFunction) -> "HoloForm":
        return HoloForm(self.chart, {i: x * c for i, x in self.terms.items()})

    # -- multiplicative structure ---------------------------------------------------

    def wedge(self, other: "HoloForm") -> "HoloForm":
        self._check_chart(other)
        return HoloForm.sum(self.chart, _wedge_terms(self, other))

    def d(self) -> "HoloForm":
        """The holomorphic exterior derivative (coefficient-wise d)."""
        terms = []
        for idx, c in self.terms.items():
            for j, coord in enumerate(self.chart.coordinates):
                if j in idx:
                    continue
                dc = c.derivative(coord)
                if not dc.is_zero:
                    merged, sign = _merge_wedge((j,), idx)
                    terms.append((merged, dc if sign > 0 else -dc))
        return HoloForm.sum(self.chart, terms)

    def pullback(self, change_map: "ChangeMap") -> "HoloForm":
        """Pull back along a change map from its target chart to this form's."""
        if self.chart != change_map.source:
            raise ChartMismatchError(f"form on {self.chart.name} pulled back from {change_map.source.name}")
        target = change_map.target
        if change_map._identity:
            return HoloForm(target, self.terms)
        terms = []
        for idx, c in self.terms.items():
            term = HoloForm.function(target, change_map.pull(c))
            for i in idx:
                term = term.wedge(change_map.d_images[i])
            terms.extend(term.terms.items())
        return HoloForm.sum(target, terms)

    # -- equality / display -----------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, HoloForm):
            return NotImplemented
        return self.chart == other.chart and self.terms == other.terms

    def __hash__(self):
        return hash((self.chart, frozenset(self.terms.items())))

    def __bool__(self):
        return not self.is_zero

    def __str__(self):
        return form_str(self)

    def __repr__(self):
        return f"HoloForm<{form_str(self)} on {self.chart.name}>"


class ChangeMap(Value):
    """A coordinate change from a target chart to a source chart: the image
    of each source coordinate in the target's coordinates and, in the
    source's order, the form d(image) of each.  The constructor refuses,
    naming the defect, a map that misses a coordinate of source or names
    another, joins charts of two dimensions or has a Jacobian determinant
    that vanishes identically, so no nonzero function pulls back to 0 or to
    a pole."""

    __slots__ = ("source", "target", "images", "d_images", "_identity", "_laurent")
    # unhashable, as its images dict is
    __hash__ = None

    def __init__(self, images: Mapping[str, RationalFunction], source: Chart, target: Chart):
        src, dst = source.coordinates, target.coordinates
        if len(src) != len(dst):
            raise ValueError(f"joins charts of dimensions {len(src)} and {len(dst)}")
        if set(src) - set(images):
            raise ValueError(f"missing coordinates {sorted(set(src) - set(images))}")
        if set(images) - set(src):
            raise ValueError(f"names coordinates {sorted(set(images) - set(src))} that chart {source.name} lacks")
        images = {u: images[u] for u in src}
        jacobian = [[f.derivative(v) for v in dst] for f in images.values()]
        if src and linalg.det(jacobian).is_zero:
            raise ValueError("is degenerate: its Jacobian determinant vanishes")
        names = tuple(sorted(dst))
        keys = _unit_keys(names)
        laurent = {u: _laurent_monomial(f, keys) for u, f in images.items()}
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "images", images)
        object.__setattr__(self, "d_images", tuple(
            HoloForm(target, {(j,): d for j, d in enumerate(row)}) for row in jacobian
        ))
        object.__setattr__(self, "_identity", src == dst and all(
            f == RationalFunction.variable(u) for u, f in images.items()
        ))
        object.__setattr__(self, "_laurent", None if None in laurent.values() else (laurent, names))

    @staticmethod
    def identity(chart: Chart) -> "ChangeMap":
        return ChangeMap({c: RationalFunction.variable(c) for c in chart.coordinates}, chart, chart)

    def pull(self, f: RationalFunction) -> RationalFunction:
        """f, a function of the source coordinates, in the target's, by the
        identity, the monomial or the general route (see the module)."""
        if self._identity or not (f.num.variables or f.den.variables):
            return f
        if self._laurent is not None and f.den.term_count() == 1:
            pulled = _pull_laurent(f, *self._laurent)
            if pulled is not None:
                return pulled
        return f.substitute(self.images)


def form_str(form: HoloForm) -> str:
    """Canonical rendering: terms sorted by wedge index tuple."""
    if form.is_zero:
        return "0"
    pieces = []
    for idx in sorted(form.terms, key=lambda t: (len(t), t)):
        c = form.terms[idx]
        body = f"({c})"
        if idx:
            wedge = "^".join("d" + form.chart.coordinates[i] for i in idx)
            body = f"{body}*{wedge}"
        pieces.append(body)
    return " + ".join(pieces)


def _wedge_terms(a: HoloForm, b: HoloForm):
    """The (index tuple, coefficient) terms of a ^ b, before collection."""
    for ia, ca in a.terms.items():
        for ib, cb in b.terms.items():
            merged, sign = _merge_wedge(ia, ib)
            if merged is not None:
                c = ca * cb
                yield merged, c if sign > 0 else -c


class MatrixForm(Value):
    """A rectangular matrix of HoloForms on a common chart."""

    __slots__ = ("chart", "rows", "cols", "entries")

    def __init__(self, chart: Chart, entries: Sequence[Sequence[HoloForm]]):
        rows = len(entries)
        cols = len(entries[0]) if rows else 0
        if any(len(r) != cols for r in entries):
            raise ValueError("ragged matrix")
        for row in entries:
            for e in row:
                if e.chart != chart:
                    raise ChartMismatchError("matrix entry on a different chart")
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", tuple(tuple(row) for row in entries))

    @staticmethod
    def zero(chart: Chart, rows: int, cols: int) -> "MatrixForm":
        z = HoloForm.zero(chart)
        return MatrixForm(chart, [[z] * cols for _ in range(rows)])

    @staticmethod
    def identity(chart: Chart, n: int) -> "MatrixForm":
        one = HoloForm.constant(chart, 1)
        z = HoloForm.zero(chart)
        return MatrixForm(chart, [[one if i == j else z for j in range(n)] for i in range(n)])

    @staticmethod
    def of_functions(chart: Chart, rows: Sequence[Sequence[RationalFunction]]) -> "MatrixForm":
        """The degree-0 matrix of a grid of functions on the chart."""
        return MatrixForm(chart, [[HoloForm.function(chart, f) for f in row] for row in rows])

    def _functions(self):
        """The grid of functions of a degree-0 matrix."""
        if any(any(e.terms) for row in self.entries for e in row):
            raise ValueError("matrix has positive-degree entries")
        zero = RationalFunction.zero()
        return [[e.terms.get((), zero) for e in row] for row in self.entries]

    def det(self) -> RationalFunction:
        """The determinant of a square degree-0 matrix."""
        return linalg.det(self._functions())

    def inverse(self) -> "MatrixForm":
        """The exact inverse of a square degree-0 matrix."""
        return MatrixForm.of_functions(self.chart, linalg.inverse(self._functions()))

    @property
    def is_identity(self) -> bool:
        return self.rows == self.cols and all(
            (list(e.terms) == [()] and e.terms[()].is_one) if i == j else not e.terms
            for i, row in enumerate(self.entries)
            for j, e in enumerate(row)
        )

    def __getitem__(self, key):
        i, j = key
        return self.entries[i][j]

    def __add__(self, other: "MatrixForm") -> "MatrixForm":
        self._shape_match(other)
        return MatrixForm(
            self.chart,
            [
                [self.entries[i][j] + other.entries[i][j] for j in range(self.cols)]
                for i in range(self.rows)
            ],
        )

    def __sub__(self, other: "MatrixForm") -> "MatrixForm":
        return self + (-other)

    def __neg__(self) -> "MatrixForm":
        return MatrixForm(self.chart, [[-e for e in row] for row in self.entries])

    def __mul__(self, other: "MatrixForm") -> "MatrixForm":
        if not isinstance(other, MatrixForm):
            return NotImplemented
        if self.chart != other.chart:
            raise ChartMismatchError("matrix product across charts")
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} * {other.rows}x{other.cols}")
        out = [
            [
                HoloForm.sum(self.chart, chain.from_iterable(
                    _wedge_terms(self.entries[i][k], other.entries[k][j]) for k in range(self.cols)
                ))
                for j in range(other.cols)
            ]
            for i in range(self.rows)
        ]
        return MatrixForm(self.chart, out)

    def d(self) -> "MatrixForm":
        return MatrixForm(self.chart, [[e.d() for e in row] for row in self.entries])

    def pullback(self, change_map: ChangeMap) -> "MatrixForm":
        return MatrixForm(change_map.target, [[e.pullback(change_map) for e in row] for row in self.entries])

    def trace(self, other: Optional["MatrixForm"] = None) -> HoloForm:
        """tr(self), or tr(self * other) = sum_ij self_ij ^ other_ji, which
        forms only the wedge products that land on the diagonal."""
        if other is None:
            if self.rows != self.cols:
                raise ValueError("trace of a non-square matrix of forms")
            diagonal = (self.entries[i][i].terms.items() for i in range(self.rows))
            return HoloForm.sum(self.chart, chain.from_iterable(diagonal))
        if self.chart != other.chart:
            raise ChartMismatchError("matrix product across charts")
        if self.rows != other.cols or self.cols != other.rows:
            raise ValueError(f"trace of a non-square product {self.rows}x{self.cols} * {other.rows}x{other.cols}")
        return HoloForm.sum(self.chart, chain.from_iterable(
            _wedge_terms(self.entries[i][k], other.entries[k][i])
            for i in range(self.rows) for k in range(self.cols)
        ))

    @property
    def is_zero(self) -> bool:
        return all(e.is_zero for row in self.entries for e in row)

    def degrees(self) -> set:
        out = set()
        for row in self.entries:
            for e in row:
                out |= e.degrees()
        return out

    def _shape_match(self, other: "MatrixForm"):
        if self.rows != other.rows or self.cols != other.cols or self.chart != other.chart:
            raise ValueError("matrix shape or chart mismatch")

    def __eq__(self, other) -> bool:
        if not isinstance(other, MatrixForm):
            return NotImplemented
        return self.chart == other.chart and self.entries == other.entries

    def __repr__(self):
        return f"MatrixForm({self.rows}x{self.cols} on {self.chart.name})"


class ConnectionMatrix(Value):
    """Local connection nabla = d + A; A is an r x r matrix of 1-forms."""

    __slots__ = ("chart", "matrix")
    # unhashable, as its matrix is
    __hash__ = None

    def __init__(self, chart: Chart, matrix: MatrixForm):
        if matrix.chart != chart:
            raise ChartMismatchError("connection matrix on the wrong chart")
        if matrix.rows != matrix.cols:
            raise ValueError(f"connection matrix must be square, found {matrix.rows}x{matrix.cols}")
        degs = matrix.degrees()
        if degs - {1}:
            raise ValueError(f"connection matrix must be pure degree 1, found degrees {sorted(degs)}")
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "matrix", matrix)

    @staticmethod
    def zero(chart: Chart, rank: int) -> "ConnectionMatrix":
        return ConnectionMatrix(chart, MatrixForm.zero(chart, rank, rank))

    @property
    def rank(self) -> int:
        return self.matrix.rows

    def pullback(self, change_map: ChangeMap) -> "ConnectionMatrix":
        return ConnectionMatrix(change_map.target, self.matrix.pullback(change_map))


def apply_connection(f: MatrixForm, a_src: ConnectionMatrix, a_dst: ConnectionMatrix) -> MatrixForm:
    """Induced connection on Hom: nabla(f) = d(f) + A_dst f - f A_src.

    f must be a degree-0 matrix (a morphism in local frames); the result is
    the degree-1 matrix of its covariant derivative.  A zero connection
    matrix forms no product.
    """
    if f.degrees() - {0}:
        raise ValueError("apply_connection expects a degree-0 matrix")
    if a_dst.rank != f.rows or a_src.rank != f.cols:
        raise ValueError("connection rank does not match morphism shape")
    if a_src.chart != f.chart or a_dst.chart != f.chart:
        raise ChartMismatchError("connections and morphism must share a chart")
    out = f.d()
    if not a_dst.matrix.is_zero:
        out = out + a_dst.matrix * f
    if not a_src.matrix.is_zero:
        out = out - f * a_src.matrix
    return out
