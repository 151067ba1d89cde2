"""Covers, Čech cochains and the Čech differential.

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

Holomorphic forms have d_A = 0, so the total differential of a cochain of
forms is δ, and δ is the only differential here: the one caller of an
internal d_A, the integration identities, applies it in `fiber`.

A holomorphic Chern component is a trace word of L letters of degree 1,
an L-form at u^L, so the u-power of every component is its form degree:
a cochain stores the forms alone and prints u^{v.degree()}.
"""

from __future__ import annotations

from itertools import chain, combinations
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .forms import Chart, HoloForm, chart_map_defect
from .poly import collect
from .ratfunc import RationalFunction
from .report import Report
from .simplicial import Generator, boundary, nondegenerate_generators
from .value import Value


# The most index tuples a cover may declare, its overlaps' subsets included
# (the formal 6-index cover declares 63, CP^4's cover 31); k charts in one
# overlap declare 2^k - 1.
MAX_DECLARED_TUPLES = 4096


class CoverError(ValueError):
    pass


class FormalSection(Value):
    """An integer combination of abstract generators with one form degree."""

    __slots__ = ("form_degree", "terms")

    def __init__(self, form_degree: int, terms: Mapping):
        object.__setattr__(self, "form_degree", form_degree)
        object.__setattr__(self, "terms", {sym: c for sym, c in terms.items() if c})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        return self.form_degree

    @staticmethod
    def total(sections: Sequence["FormalSection"]) -> "FormalSection":
        """The sum of a nonempty list of sections, collected once: zero
        sections add nothing, and the others must share one form degree."""
        nonzero = [s for s in sections if s.terms]
        if len(nonzero) <= 1:
            return nonzero[0] if nonzero else sections[-1]
        degree = nonzero[0].form_degree
        if any(s.form_degree != degree for s in nonzero):
            raise ValueError("adding formal sections of different form degrees")
        return FormalSection(degree, collect(chain.from_iterable(s.terms.items() for s in nonzero)))

    def __add__(self, other: "FormalSection") -> "FormalSection":
        return FormalSection.total((self, other))

    def __neg__(self) -> "FormalSection":
        return FormalSection(self.form_degree, {s: -c for s, c in self.terms.items()})

    def scale(self, c: int) -> "FormalSection":
        return FormalSection(self.form_degree, {s: x * c for s, x in self.terms.items()})

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
    charts when restriction lowers the minimal index.  CoverError is raised
    unless each map passes forms.chart_map_defect (so every pullback along
    it and every composite of two is defined), every chart of an overlap
    maps into its anchor, and the maps compose.
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
            if (1 << len(t)) - 1 > MAX_DECLARED_TUPLES:
                raise CoverError(f"overlap tuple {t} declares more than {MAX_DECLARED_TUPLES} tuples")
            for r in range(1, len(t) + 1):
                declared.update(combinations(t, r))
            if len(declared) > MAX_DECLARED_TUPLES:
                raise CoverError(f"the overlaps declare more than {MAX_DECLARED_TUPLES} tuples")
        self.declared = declared
        self.change_maps = {tuple(k): dict(v) for k, v in (change_maps or {}).items()}
        for (a, b), m in self.change_maps.items():
            if not (0 <= a < len(self.charts) and 0 <= b < len(self.charts)):
                raise CoverError(f"change map {a}->{b} names a chart outside 0..{len(self.charts) - 1}")
            defect = chart_map_defect(m, self.charts[a], self.charts[b])
            if defect:
                raise CoverError(f"change map {a}->{b} {defect}")
        # every overlap with coordinates re-expresses each chart in its anchor
        missing = sorted({(a, t[0]) for t in self.declared if len(t) > 1 and self.charts[t[0]].coordinates
                          for a in t[1:] if (a, t[0]) not in self.change_maps})
        if missing:
            raise CoverError(f"missing pairs {missing}")
        # a -> b -> c must agree with a -> c, and a -> b -> a with the identity
        maps = sorted(self.change_maps.items())
        bad = [(a, b, c) for (a, b), m in maps for (b2, c), m2 in maps
               if b2 == b and (a == c or (a, c) in self.change_maps)
               and any(self.change_map(a, c)[v] != m[v].substitute(m2) for v in self.charts[a].coordinates)]
        if bad:
            raise CoverError(f"inconsistent triples {bad}")

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
        # strictly increasing pairs have nondecreasing levels, so the ends
        # bound them; a declared base tuple has its indices in range
        if not t or any(a >= b for a, b in zip(t, t[1:])) or t[0][0] < 0 or t[-1][0] > self.k:
            return False
        return tuple(sorted({i for _, i in t})) in self.base.declared

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
    """An assignment of presheaf values to declared increasing tuples;
    CoverError is raised for a component on an undeclared tuple."""

    def __init__(self, cover, components: Mapping[Tuple, object]):
        components = {tuple(t): v for t, v in components.items()}
        for t in components:
            if not cover.is_declared(t):
                raise CoverError(f"component on undeclared tuple {t}")
        self._fill(cover, components)

    @staticmethod
    def _declared(cover, components: Mapping[Tuple, object]) -> "CechCochain":
        """The constructor for tuples declared by construction: no check."""
        c = CechCochain.__new__(CechCochain)
        c._fill(cover, components)
        return c

    def _fill(self, cover, components: Mapping[Tuple, object]):
        self.cover = cover
        self.components = {t: v for t, v in components.items() if not v.is_zero}

    @property
    def is_zero(self) -> bool:
        return not self.components

    def component(self, t: Tuple):
        return self.components.get(tuple(t))

    def items(self) -> List[Tuple[Tuple, object]]:
        """The (tuple, value) components, shortest tuples first, for output."""
        return sorted(self.components.items(), key=lambda tv: (len(tv[0]), tv[0]))

    def cech_degrees(self) -> set:
        return {len(t) - 1 for t in self.components}

    @staticmethod
    def sum(cover, terms: Iterable[Tuple[Tuple, object]]) -> "CechCochain":
        """The cochain of a stream of (tuple, value) terms, collected once."""
        return CechCochain._declared(cover, collect(terms))

    def __add__(self, other: "CechCochain") -> "CechCochain":
        return CechCochain.sum(self.cover, chain(self.components.items(), other.components.items()))

    def __neg__(self) -> "CechCochain":
        return CechCochain._declared(self.cover, {t: -v for t, v in self.components.items()})

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
        return CechCochain._declared(self.cover, {t: v for t in tuples if (v := self.delta_at(t)) is not None})

    def __repr__(self):
        return f"CechCochain({len(self.components)} components)"


ChainMapTable = Dict[Generator, CechCochain]


def validate_chain_map(table: ChainMapTable, max_level: Optional[int] = None) -> Report:
    """Check T(d e) = D(T e) for every generator in the table.

    With the forms presheaf (internal differential zero) D is the Čech
    differential; a vertex has d e = 0, so its cochain must be δ-closed.
    Reports the first violating tuple per generator.  A table cut off at
    Čech degree max_level is compared only up to it: above the cutoff
    D(T e) has no table to match.  A table that is not complete over one
    simplex, as tot_ch_table and iota build it, raises ValueError.
    """
    ambient = {g.ambient for g in table}
    if len(ambient) != 1:
        raise ValueError(f"a chain-map table needs one ambient simplex, not {sorted(ambient)}")
    n = ambient.pop()
    expected = {g for ell in range(n + 1) for g in nondegenerate_generators(n, ell)}
    missing = expected - set(table)
    if missing:
        raise ValueError(f"chain-map table misses generators {sorted(g.indices for g in missing)}")
    report = Report()
    for g in sorted(expected, key=lambda g: (g.dim, g.indices)):
        lhs = CechCochain._declared(table[g].cover, {})
        for face, c in boundary(g).coeffs.items():
            lhs = lhs + table[face] if c > 0 else lhs - table[face]
        diff = lhs - table[g].delta()
        wrong = [(t, v) for t, v in diff.items() if max_level is None or len(t) <= max_level + 1]
        report.add(f"chain_map.e{list(g.indices)}", not wrong, component_witness(wrong))
    return report


def component_witness(components) -> str:
    """The first of a list of (tuple, form) components as a failure's
    witness, or "" when the list is empty."""
    if not components:
        return ""
    t, v = components[0]
    return f"tuple {t}, u^{v.degree()}: {v}"
