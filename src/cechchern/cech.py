"""Covers, Čech cochains, the Čech and total differentials, u-truncation.

Only strictly increasing index tuples with distinct indices are stored;
repeated-index components are never materialized.  Every component on a
tuple T is expressed in the anchor chart, the chart of min(T), and
restriction pulls back along the declared coordinate-change maps exactly
when the minimum changes.

Two presheaves are supported: holomorphic forms (HoloForm values,
geometric restriction) and a formal free presheaf (FormalSection values,
restriction relabels the tuple and leaves the expression alone).  The
formal presheaf exists to test the purely combinatorial identities at
full strength, independent of geometry.
"""

from __future__ import annotations

from itertools import chain, combinations
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple

from . import linalg
from .forms import Chart, HoloForm
from .poly import collect
from .ratfunc import RationalFunction
from .report import Report
from .simplicial import Generator, boundary, nondegenerate_generators


class CoverError(ValueError):
    pass


class FormalSection:
    """An integer combination of abstract generators with one form degree."""

    __slots__ = ("form_degree", "terms")

    def __init__(self, form_degree: int, terms: Mapping = ()):
        object.__setattr__(self, "form_degree", form_degree)
        object.__setattr__(self, "terms", {sym: c for sym, c in dict(terms).items() if c})

    def __setattr__(self, name, value):
        raise AttributeError("FormalSection is immutable")

    @staticmethod
    def generator(sym, form_degree: int = 0) -> "FormalSection":
        return FormalSection(form_degree, {sym: 1})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        return self.form_degree

    def __add__(self, other: "FormalSection") -> "FormalSection":
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        if self.form_degree != other.form_degree:
            raise ValueError("adding formal sections of different form degrees")
        return FormalSection(self.form_degree, collect(chain(self.terms.items(), other.terms.items())))

    def __neg__(self) -> "FormalSection":
        return FormalSection(self.form_degree, {s: -c for s, c in self.terms.items()})

    def scale(self, c: int) -> "FormalSection":
        return FormalSection(self.form_degree, {s: x * c for s, x in self.terms.items()})

    def map_generators(self, fn: Callable[[object], "FormalSection"]) -> "FormalSection":
        """Apply a linear map given on generators (e.g. a formal d_A)."""
        out = None
        for sym, c in self.terms.items():
            image = fn(sym).scale(c)
            out = image if out is None else out + image
        return out if out is not None else FormalSection(self.form_degree, {})

    def __eq__(self, other) -> bool:
        if not isinstance(other, FormalSection):
            return NotImplemented
        if self.is_zero and other.is_zero:
            return True
        return self.form_degree == other.form_degree and self.terms == other.terms

    def __hash__(self):
        return hash((self.form_degree if self.terms else None, frozenset(self.terms.items())))

    def __repr__(self):
        if self.is_zero:
            return "0"
        return " + ".join(f"{c}*{s}" for s, c in sorted(self.terms.items(), key=lambda kv: repr(kv[0])))


class _CoverBase:
    """Anchors and restriction shared by both kinds of cover; a subclass
    supplies chart_of_index and pull_to_chart."""

    def anchor(self, t) -> Chart:
        return self.chart_of_index(t[0])

    def restrict(self, value, small: Tuple, big: Tuple):
        """Restrict a component from tuple small to a supertuple big."""
        if isinstance(value, FormalSection):
            return value
        if not set(small) <= set(big):
            raise CoverError(f"{small} is not a sub-tuple of {big}")
        return self.pull_to_chart(value, small[0], big[0])


class Cover(_CoverBase):
    """A finite chart cover with declared nonempty overlaps.

    change_maps[(a, b)] expresses the coordinates of chart a in the
    coordinates of chart b, and is used to pull components back to anchor
    charts when restriction lowers the minimal index.  Each map must join
    charts of one dimension with a Jacobian determinant that is not
    identically zero, so that pulling back never sends a nonzero function
    to zero.
    """

    def __init__(
        self,
        charts: List[Chart],
        tuples: Iterable[Tuple[int, ...]],
        change_maps: Optional[Mapping[Tuple[int, int], Mapping[str, RationalFunction]]] = None,
    ):
        self.charts = list(charts)
        declared = set()
        for t in tuples:
            t = tuple(t)
            if list(t) != sorted(set(t)):
                raise CoverError(f"overlap tuple must be strictly increasing: {t}")
            if t and (t[0] < 0 or t[-1] >= len(self.charts)):
                raise CoverError(f"overlap tuple {t} out of chart range")
            # store with downward closure
            for r in range(1, len(t) + 1):
                declared.update(combinations(t, r))
        self.declared = declared
        self.change_maps = {tuple(k): dict(v) for k, v in (change_maps or {}).items()}
        for (a, b), m in self.change_maps.items():
            if not (0 <= a < len(self.charts) and 0 <= b < len(self.charts)):
                raise CoverError(f"change map {a}->{b} names a chart outside 0..{len(self.charts) - 1}")
            src, dst = self.charts[a].coordinates, self.charts[b].coordinates
            if len(src) != len(dst):
                raise CoverError(f"change map {a}->{b} joins charts of dimensions {len(src)} and {len(dst)}")
            if set(src) - set(m):
                raise CoverError(f"change map {a}->{b} missing coordinates {sorted(set(src) - set(m))}")
            jacobian = [[m[u].derivative(v) for v in dst] for u in src]
            if src and linalg.det(jacobian).is_zero:
                raise CoverError(f"change map {a}->{b} is degenerate: its Jacobian determinant vanishes")

    @staticmethod
    def formal(n_indices: int) -> "Cover":
        """A chartless cover for the formal presheaf: all tuples declared."""
        charts = [Chart(f"F{i}", ()) for i in range(n_indices)]
        return Cover(charts, [tuple(range(n_indices))])

    # -- structure -------------------------------------------------------------

    @property
    def n_charts(self) -> int:
        return len(self.charts)

    def is_declared(self, t: Tuple[int, ...]) -> bool:
        return tuple(t) in self.declared

    def tuples_of_length(self, r: int) -> List[Tuple[int, ...]]:
        return sorted(t for t in self.declared if len(t) == r)

    def all_tuples(self, max_len: Optional[int] = None) -> List[Tuple[int, ...]]:
        out = [t for t in self.declared if max_len is None or len(t) <= max_len]
        return sorted(out, key=lambda t: (len(t), t))

    def max_tuple_len(self) -> int:
        return max((len(t) for t in self.declared), default=0)

    def chart_of_index(self, i) -> Chart:
        return self.charts[i]

    def change_map(self, a, b) -> Mapping[str, RationalFunction]:
        if a == b:
            chart = self.chart_of_index(a)
            return {c: RationalFunction.variable(c) for c in chart.coordinates}
        key = (a, b)
        if key not in self.change_maps:
            raise CoverError(f"missing change map from chart {a} to chart {b}")
        return self.change_maps[key]

    def pull_to_chart(self, value, src, dst):
        """Re-express a form, a matrix of forms or a connection on chart
        index src in the chart of index dst."""
        if src == dst:
            return value
        return value.pullback(self.chart_of_index(dst), self.change_map(src, dst))

    def validate(self) -> Report:
        report = Report()
        # downward closure is enforced at construction; check change maps.
        missing = []
        for t in sorted(self.declared):
            if len(t) < 2 or not self.charts[t[0]].coordinates:
                continue
            for a in t[1:]:
                try:
                    self.change_map(a, t[0])
                except CoverError:
                    missing.append((a, t[0]))
        report.check("cover.change_maps_present", sorted(set(missing)), "missing pairs {}")
        # a -> b -> c must agree with a -> c, and a -> b -> a with the identity
        bad = []
        for (a, b), m in sorted(self.change_maps.items()):
            for (b2, c), m2 in sorted(self.change_maps.items()):
                if b2 != b or (a != c and (a, c) not in self.change_maps):
                    continue
                direct = self.change_map(a, c)
                try:
                    if any(direct[v] != m[v].substitute(m2) for v in self.charts[a].coordinates):
                        bad.append((a, b, c))
                except ZeroDivisionError:
                    bad.append((a, b, c))
        report.check("cover.change_maps_compose", bad, "inconsistent triples {}")
        return report


class ProductLevelCover(_CoverBase):
    """The cover with k+1 labelled copies of a base cover.

    Indices are pairs (level, base) ordered lexicographically; a tuple is
    declared when its set of distinct base indices is declared downstairs.
    Restriction and anchors delegate to the base charts.
    """

    def __init__(self, base: Cover, k: int):
        if k < 0:
            raise ValueError("negative level count")
        self.base = base
        self.k = k

    @property
    def indices(self) -> List[Tuple[int, int]]:
        return [(lvl, i) for lvl in range(self.k + 1) for i in range(self.base.n_charts)]

    def is_declared(self, t) -> bool:
        if list(t) != sorted(set(t)):
            return False
        for lvl, i in t:
            if lvl < 0 or lvl > self.k or i < 0 or i >= self.base.n_charts:
                return False
        bases = tuple(sorted(set(i for _, i in t)))
        return self.base.is_declared(bases)

    def tuples_of_length(self, r: int) -> List[Tuple]:
        idx = sorted(self.indices)
        return [t for t in combinations(idx, r) if self.is_declared(t)]

    def all_tuples(self, max_len: int) -> List[Tuple]:
        out = []
        for r in range(1, max_len + 1):
            out.extend(self.tuples_of_length(r))
        return out

    def chart_of_index(self, i) -> Chart:
        return self.base.chart_of_index(i[1])

    def pull_to_chart(self, value: HoloForm, src, dst) -> HoloForm:
        return self.base.pull_to_chart(value, src[1], dst[1])


class CechCochain:
    """An assignment of presheaf values to declared increasing tuples."""

    def __init__(self, cover, components: Mapping[Tuple, object]):
        comps = {}
        for t, v in components.items():
            t = tuple(t)
            if not cover.is_declared(t):
                raise CoverError(f"component on undeclared tuple {t}")
            if not v.is_zero:
                comps[t] = v
        self.cover = cover
        self.components = comps

    @property
    def is_zero(self) -> bool:
        return not self.components

    def component(self, t: Tuple):
        return self.components.get(tuple(t))

    def cech_degrees(self) -> set:
        return {len(t) - 1 for t in self.components}

    @staticmethod
    def sum(cover, terms: Iterable[Tuple[Tuple, object]]) -> "CechCochain":
        """The cochain of a stream of (tuple, value) terms, collected once."""
        return CechCochain(cover, collect(terms))

    def __add__(self, other: "CechCochain") -> "CechCochain":
        return CechCochain.sum(self.cover, chain(self.components.items(), other.components.items()))

    def __neg__(self) -> "CechCochain":
        return CechCochain(self.cover, {t: -v for t, v in self.components.items()})

    def __sub__(self, other: "CechCochain") -> "CechCochain":
        return self + (-other)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CechCochain):
            return NotImplemented
        return self.components == other.components

    def delta_at(self, t: Tuple):
        """The component of the Čech differential on t: the alternating sum
        of the face components restricted to t; None when no face has one."""
        acc = None
        for j in range(len(t)):
            face = t[:j] + t[j + 1:]
            comp = self.components.get(face)
            if comp is not None:
                val = self.cover.restrict(comp, face, t)
                val = -val if j % 2 else val
                acc = val if acc is None else acc + val
        return acc

    def delta(self) -> "CechCochain":
        """Čech differential: the face sum on every tuple one longer."""
        lengths = {len(t) + 1 for t in self.components}
        tuples = [t for r in lengths for t in self.cover.tuples_of_length(r)]
        return CechCochain(self.cover, {t: v for t in tuples if (v := self.delta_at(t)) is not None})

    def map_values(self, fn) -> "CechCochain":
        return CechCochain(self.cover, {t: fn(t, v) for t, v in self.components.items()})

    def __repr__(self):
        return f"CechCochain({len(self.components)} components)"


def _total_degree(t: Tuple, v) -> int:
    return len(t) - 1 + v.degree()


def apply_d_a(c: CechCochain, d_a: Optional[Callable]) -> CechCochain:
    """The internal differential on every component: d_A given on
    generators for formal sections, on values for forms; None is d_A = 0."""
    if d_a is None:
        return CechCochain(c.cover, {})
    return c.map_values(lambda t, v: v.map_generators(d_a) if isinstance(v, FormalSection) else d_a(v))


def _negate_even(c: CechCochain) -> CechCochain:
    """-(-1)^{|v|} v on every component v of total degree |v|."""
    return c.map_values(lambda t, v: v if _total_degree(t, v) % 2 else -v)


def total_differential(c: CechCochain, d_a: Optional[Callable] = None) -> CechCochain:
    """D(c) = delta(c) - (-1)^{|c|} d_A(c); for the forms presheaf d_A = 0."""
    return c.delta() + apply_d_a(_negate_even(c), d_a)


def tot_to_cech(c: CechCochain) -> CechCochain:
    """Total-complex to Čech-complex identification.

    Each bidegree piece of total degree d picks up (-1)^(d(d+1)/2); this
    conjugates the total differential into the Čech-side differential D.
    """

    def flip(t, v):
        d = _total_degree(t, v)
        return -v if (d * (d + 1) // 2) % 2 else v

    return c.map_values(flip)


def tot_differential(c: CechCochain, d_a: Optional[Callable] = None) -> CechCochain:
    """The differential on the total complex: d(c) = d_A(c) - (-1)^{|c|} delta(c)."""
    return apply_d_a(c, d_a) + _negate_even(c).delta()


class UPolyCochain:
    """A u-graded truncated cochain: slices indexed by the u-power m.

    A slice of form degree k at power m sits in degree k - 2m; anything in
    positive degree (k > 2m) is discarded at construction, implementing the
    quotient semantics of the truncation.
    """

    def __init__(self, cover, slices: Mapping[int, CechCochain]):
        self.cover = cover
        clean: Dict[int, CechCochain] = {}
        for m, sl in slices.items():
            if m < 0:
                raise ValueError("negative u-power")
            comps = {
                t: v
                for t, v in sl.components.items()
                if v.degree() <= 2 * m
            }
            if comps:
                clean[m] = CechCochain(cover, comps)
        self.slices = clean

    @staticmethod
    def zero(cover) -> "UPolyCochain":
        return UPolyCochain(cover, {})

    @staticmethod
    def from_forms(cover, entries: Iterable[Tuple[int, Tuple, object]]) -> "UPolyCochain":
        """Collect (u-power, tuple, value) entries into slices; zero values
        are skipped."""
        slices: Dict[int, Dict[Tuple, object]] = {}
        for m, t, v in entries:
            if not v.is_zero:
                slices.setdefault(m, {})[t] = v
        return UPolyCochain(cover, {m: CechCochain(cover, comps) for m, comps in slices.items()})

    @staticmethod
    def from_even(cochain: CechCochain, shift: int = 0) -> "UPolyCochain":
        """Embed an even cochain into the u-graded complex: a component of
        total degree 2d (Čech degree + form degree + shift) lands at u^d."""
        entries = []
        for t, v in cochain.components.items():
            total = _total_degree(t, v) + shift
            if total % 2:
                raise ValueError(f"component on {t} has odd total degree")
            entries.append((total // 2, t, v))
        return UPolyCochain.from_forms(cochain.cover, entries)

    @property
    def is_zero(self) -> bool:
        return not self.slices

    def u_powers(self) -> List[int]:
        return sorted(self.slices)

    def component(self, t: Tuple, m: int):
        sl = self.slices.get(m)
        return sl.component(t) if sl else None

    def items(self):
        """Iterate (tuple, m, value) sorted for deterministic output."""
        out = []
        for m, sl in self.slices.items():
            for t, v in sl.components.items():
                out.append((t, m, v))
        out.sort(key=lambda x: ((len(x[0]),) + tuple(map(_flatkey, x[0])), x[1]))
        return out

    def __add__(self, other: "UPolyCochain") -> "UPolyCochain":
        return UPolyCochain(self.cover, collect(chain(self.slices.items(), other.slices.items())))

    def __neg__(self) -> "UPolyCochain":
        return UPolyCochain(self.cover, {m: -sl for m, sl in self.slices.items()})

    def __sub__(self, other: "UPolyCochain") -> "UPolyCochain":
        return self + (-other)

    def delta(self) -> "UPolyCochain":
        return UPolyCochain(self.cover, {m: sl.delta() for m, sl in self.slices.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, UPolyCochain):
            return NotImplemented
        return self.slices == other.slices

    def __repr__(self):
        n = sum(len(sl.components) for sl in self.slices.values())
        return f"UPolyCochain({n} components over u-powers {self.u_powers()})"


def _flatkey(x):
    return x if isinstance(x, tuple) else (x,)


ChainMapTable = Dict[Generator, UPolyCochain]


def validate_chain_map(table: ChainMapTable, max_level: Optional[int] = None) -> Report:
    """Check T(d e) = D(T e) for every generator in the table.

    With the forms presheaf (internal differential zero) D is the Čech
    differential applied slice-wise.  Reports the first violating tuple
    per generator.  A table cut off at Čech degree max_level is compared
    only up to it: above the cutoff D(T e) has no table to match.
    """
    report = Report()
    if not table:
        report.add("chain_map.nonempty", False, "empty table")
        return report
    ambient = {g.ambient for g in table}
    if len(ambient) != 1:
        report.add("chain_map.ambient", False, f"mixed ambients {sorted(ambient)}")
        return report
    n = ambient.pop()
    expected = {g for ell in range(n + 1) for g in nondegenerate_generators(n, ell)}
    missing = expected - set(table)
    report.check("chain_map.complete_table", sorted(g.indices for g in missing), "missing generators {}")
    if missing:
        return report
    for g in sorted(expected, key=lambda g: (g.dim, g.indices)):
        if g.dim == 0:
            continue
        lhs = UPolyCochain.zero(table[g].cover)
        for face, c in boundary(g).coeffs.items():
            lhs = lhs + table[face] if c > 0 else lhs - table[face]
        diff = lhs - table[g].delta()
        wrong = [(t, m, v) for t, m, v in diff.items() if max_level is None or len(t) <= max_level + 1]
        witness = "tuple {}, u^{}: {}".format(*wrong[0]) if wrong else ""
        report.add(f"chain_map.e{list(g.indices)}", not wrong, witness)
    return report
