"""Classifying-space data, the universal Chern form, and the maps
gamma / iota / beta, plus the finite-group equivariant checks.

A multi-level transition datum (n+1 cocycle families g^(p) plus
intertwiners f^p, held in a BundlePathData) determines transitions
between any two slots (level, chart) of the (n+1)-fold cover: horizontal
moves use the active level's cocycle, vertical moves compose
intertwiners, and the square-commutation law makes the result
path-independent.  gamma applies the bare trace word with the operator d
(no connection) to those slot transitions; iota forgets levels and
integrates over the fiber; beta forgets the connections, rebuilding the
levels as product bundles with the flat local connections that feed the
closed-formula cocycles.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .cech import CechCochain, Cover, ProductLevelCover, component_witness
from .chern import (
    BundlePathData,
    BundleVertexData,
    _nabla,
    _word_trace,
    chart_connections,
    tot_ch_table,
)
from .fiber import integrate_fiber, level_forget
from .forms import ChangeMap, Chart, ConnectionMatrix, HoloForm, MatrixForm
from .ratfunc import RationalFunction
from .report import Report
from .simplicial import Generator, nondegenerate_generators


def beta(h: BundlePathData) -> BundlePathData:
    """Product bundles with the flat connection on every level: the
    transitions and intertwiners of h on fresh levels with no connections."""
    levels = [BundleVertexData(h.cover, h.rank, v.transitions) for v in h.levels]
    return BundlePathData(levels, h.intertwiners)


def slot_transition_form(h: BundlePathData, x, y, anchor: int) -> MatrixForm:
    """The frame change from slot x = (level a, chart i) to slot
    y = (level b, chart j), a <= b, in the given anchor chart."""
    (a, i), (b, j) = x, y
    if b < a:
        raise ValueError("slot transitions go to weakly higher levels")
    horizontal = h.levels[a].transition_form(i, j, anchor) if i != j else None
    vertical = h.intertwiner_form(b, a, j, anchor) if b > a else None
    if horizontal is None and vertical is None:
        return MatrixForm.identity(h.cover.charts[anchor], h.rank)
    if horizontal is None:
        return vertical
    if vertical is None:
        return horizontal
    return vertical * horizontal


def gamma(h: BundlePathData, max_level: Optional[int] = None) -> CechCochain:
    """The closed even cochain on the multi-level cover; reads only the
    transitions and intertwiners of h, never its connections.

    Component on a slot tuple T: tr(H(T_0,T_r)^{-1} dH(T_{r-1},T_r) ^ ... ^
    dH(T_0,T_1)), Čech degree r, form degree r.  Only the tuples that
    iota(., max_level) can read are built: at most max_level + n + 1 slots,
    and no more than a lift of the longest declared base tuple has.  Each
    slot transition H(x, y) and its dH is formed once per call.
    """
    cover = ProductLevelCover(h.cover, h.n)
    top = h.cover.max_tuple_len() - 1
    max_level = top if max_level is None else min(max_level, top)
    comps: Dict[Tuple, HoloForm] = {}
    slots: Dict[Tuple, MatrixForm] = {}
    memo: Dict[Tuple, MatrixForm] = {}
    for t in cover.all_tuples(max_level + h.n + 1):
        anchor = t[0][1]
        chart = h.cover.charts[anchor]
        if len(t) == 1:
            comps[t] = HoloForm.constant(chart, h.rank)
            continue
        zero = ConnectionMatrix.zero(chart, h.rank)
        word = []
        for x, y in zip(t, t[1:]):
            key = (x, y, anchor)
            if key not in slots:
                slots[key] = slot_transition_form(h, x, y, anchor)
            word.append((key, slots[key], zero, zero))
        form = _word_trace(word, memo)
        if not form.is_zero:
            comps[t] = form
    return CechCochain(cover, comps)


def iota(c: CechCochain, max_level: Optional[int] = None) -> Dict[Generator, CechCochain]:
    """Integrate a gamma-shaped cochain on the multi-level cover down to a
    chain-map table over the normalized chains of the level simplex.

    Every component on r + 1 slots must be an r-form, so each base tuple
    gathers forms of one degree, which is its u-power; ValueError otherwise.
    The entry of e_{j_0..j_p} forgets every level outside j_0..j_p and
    integrates over the p-step fiber, with sign (-1)^(p(p-1)/2).
    """
    if not isinstance(c.cover, ProductLevelCover):
        raise ValueError("iota expects a cochain on a product-level cover")
    for t, v in c.components.items():
        if v.degree() != len(t) - 1:
            raise ValueError(f"component on {t} is a {v.degree()}-form, not a {len(t) - 1}-form")
    n = c.cover.k
    if max_level is None:
        max_level = c.cover.base.max_tuple_len() - 1
    table: Dict[Generator, CechCochain] = {}
    for ell in range(n + 1):
        for g in nondegenerate_generators(n, ell):
            longest = max_level + ell + 1
            mu = CechCochain._declared(c.cover, {t: v for t, v in c.components.items() if len(t) <= longest})
            for j in reversed(range(n + 1)):
                if j not in g.indices:
                    mu = level_forget(mu, j)
            entry = integrate_fiber(mu, ell)
            table[g] = -entry if (ell * (ell - 1) // 2) % 2 else entry
    return table


def verify_square(h: BundlePathData, max_level: Optional[int] = None) -> Report:
    """Exact equality of the two routes: integrate-the-closed-cochain versus
    the closed-formula cocycles of beta(h), which share no memo with h.
    h must have passed h.validate(), whose report the caller keeps."""
    report = Report()
    left = iota(gamma(h, max_level), max_level)
    right = tot_ch_table(beta(h), max_level)
    for g in sorted(right, key=lambda g: (g.dim, g.indices)):
        diff = left[g] - right[g]
        report.add(f"square.e{list(g.indices)}", diff.is_zero, component_witness(diff.items()))
    return report


# -- the universal Chern form ------------------------------------------------------


def matrix_group_chart(ell: int, n: int) -> Tuple[Chart, List[MatrixForm]]:
    """The chart of an ell-fold product of symbolic invertible n x n
    matrices, with the matrices themselves on it."""
    names = [f"g{m}_{r}{c}" for m in range(1, ell + 1) for r in range(1, n + 1) for c in range(1, n + 1)]
    chart = Chart(f"G{ell}", tuple(sorted(names)))
    return chart, [
        MatrixForm.of_functions(chart, [
            [RationalFunction.variable(f"g{m}_{r}{c}") for c in range(1, n + 1)]
            for r in range(1, n + 1)
        ])
        for m in range(1, ell + 1)
    ]


def universal_chern(ell: int, n: int) -> HoloForm:
    """The ell-form tr(g_1 .. g_ell d(g_ell^-1) ^ .. ^ d(g_1^-1)) on the
    chart of ell symbolic group elements; ell = 0 gives the constant n."""
    if ell < 0 or n < 1:
        raise ValueError("need ell >= 0 and n >= 1")
    chart, mats = matrix_group_chart(ell, n)
    if ell == 0:
        return HoloForm.constant(chart, n)
    out = mats[0]
    for g in mats[1:]:
        out = out * g
    for g in reversed(mats):
        out = out * g.inverse().d()
    return out.trace()


# -- finite-group actions ------------------------------------------------------------


class FiniteGroup:
    """A finite group given by its multiplication table."""

    def __init__(self, elements: Sequence[str], identity: str, table: Mapping[Tuple[str, str], str]):
        self.elements = list(elements)
        self.identity = identity
        self.table = {tuple(k): v for k, v in table.items()}
        if identity not in self.elements:
            raise ValueError("identity not among elements")
        for a in self.elements:
            if self.elements.count(a) > 1:
                raise ValueError(f"group element {a} is listed more than once")
            for b in self.elements:
                if self.table.get((a, b)) not in self.elements:
                    raise ValueError(f"multiplication table entry ({a},{b}) is missing or not an element")

    def mul(self, a: str, b: str) -> str:
        return self.table[(a, b)]

    def validate(self) -> Report:
        report = Report()
        ident = all(
            self.mul(self.identity, a) == a and self.mul(a, self.identity) == a
            for a in self.elements
        )
        report.add("group.identity", ident)
        assoc = all(
            self.mul(self.mul(a, b), c) == self.mul(a, self.mul(b, c))
            for a in self.elements
            for b in self.elements
            for c in self.elements
        )
        report.add("group.associativity", assoc)
        inverses = all(
            any(self.mul(a, b) == self.identity for b in self.elements)
            for a in self.elements
        )
        report.add("group.inverses", inverses)
        return report


CoordMap = Mapping[str, RationalFunction]


class EquivariantBundleData:
    """A finite-group action lifted to a trivialized bundle with connection.

    action[(g, chart)] gives the coordinates of x.g in the chart's own
    coordinates (charts are assumed action-stable), built once into a
    ChangeMap from the chart to itself, checked like a change map;
    lifts[(g, chart)] is the frame matrix of the action on fibers over
    that chart, a degree-0 MatrixForm on it.  The identity element may go
    without either: it then acts by ChangeMap.identity and lifts to the
    identity matrix.  Each pullback along the action is taken once:
    pulled_lifts[(h, g, i)] is the lift of g pulled back by h,
    pulled_connections[(g, i)] the connection pulled back by g.  The nabla of
    each word letter (h, g, i) is taken once too, in the data's own memo.
    """

    def __init__(
        self,
        cover: Cover,
        rank: int,
        group: FiniteGroup,
        action: Mapping[Tuple[str, int], CoordMap],
        lifts: Mapping[Tuple[str, int], MatrixForm],
        connections: Optional[Mapping[int, ConnectionMatrix]] = None,
    ):
        self.cover = cover
        self.rank = rank
        self.group = group
        for what, given in (("action", action), ("lift", lifts)):
            for g, i in given:
                if g not in group.elements:
                    raise ValueError(f"{what} of {g} on chart {i}: {g} is not a group element")
        self.action = {}
        self.lifts = {}
        for g in group.elements:
            for i, chart in enumerate(cover.charts):
                if g == group.identity:
                    images = action.get((g, i))
                    self.lifts[(g, i)] = lifts.get((g, i), MatrixForm.identity(chart, rank))
                else:
                    images = action[(g, i)]
                    self.lifts[(g, i)] = lifts[(g, i)]
                try:
                    self.action[(g, i)] = (ChangeMap.identity(chart) if images is None
                                           else ChangeMap(images, chart, chart))
                except ValueError as err:
                    raise ValueError(f"action of {g} on chart {i} {err}") from err
                lift = self.lifts[(g, i)]
                if lift.rows != rank or lift.cols != rank:
                    raise ValueError(f"lift of {g} on chart {i} is not {rank} x {rank}")
                if lift.chart != chart:
                    raise ValueError(f"lift of {g} on chart {i} lives on the wrong chart")
        self.connections = chart_connections(cover, rank, connections)
        self.pulled_lifts = {
            (h, g, i): self.lifts[(g, i)].pullback(f) for (h, i), f in self.action.items() for g in group.elements
        }
        self.pulled_connections = {
            (g, i): self.connections[i].pullback(f) for (g, i), f in self.action.items()
        }
        self._nablas: Dict[Tuple[str, str, int], MatrixForm] = {}

    def validate(self) -> Report:
        report = Report()
        report.extend(self.group.validate())
        bad_action = []
        bad_lifts = []
        for h in self.group.elements:
            for g in self.group.elements:
                hg = self.group.mul(h, g)
                for i in range(self.cover.n_charts):
                    # first h then g is the action of h*g
                    fh, fg, direct = (self.action[(x, i)] for x in (h, g, hg))
                    if any(direct.images[v] != fh.pull(f) for v, f in fg.images.items()):
                        bad_action.append((h, g, i))
                    if not (self.pulled_lifts[(h, g, i)] * self.lifts[(h, i)] - self.lifts[(hg, i)]).is_zero:
                        bad_lifts.append((h, g, i))
        report.check("equivariant.action_composition", bad_action, "violated at {}")
        report.check("equivariant.lift_composition", bad_lifts, "violated at {}")
        invertible = all(not m.det().is_zero for m in self.lifts.values())
        report.add("equivariant.lifts_invertible", invertible)
        return report

    def nabla_phi(self, g: str, i: int) -> MatrixForm:
        """The invariance defect d(phi_g) + (rho_g^* A) phi_g - phi_g A: the
        nabla of the word letter (identity, g, i) of validated data, on which
        the identity acts as the identity map."""
        e = self.group.identity
        return _nabla(self._nablas, (e, g, i), self.pulled_lifts[(e, g, i)],
                      self.pulled_connections[(e, i)], self.pulled_connections[(g, i)])

    def word_component(self, word: Sequence[str], i: int) -> HoloForm:
        """The trace word of the action lifts along a group word, over one
        chart: the group-direction Chern component of u-power len(word)."""
        entries = []
        prefix = self.group.identity
        for g in word:
            after = self.group.mul(prefix, g)
            conns = self.pulled_connections[(prefix, i)], self.pulled_connections[(after, i)]
            entries.append(((prefix, g, i), self.pulled_lifts[(prefix, g, i)], *conns))
            prefix = after
        return _word_trace(entries, self._nablas)


def equivariant_check(data: EquivariantBundleData, word_bound: Optional[int] = None) -> Report:
    """Report the invariance defects and, only when there are none, the
    vanishing of all positive-u-degree components; no component is computed
    for a connection that is not invariant.  data must have passed
    data.validate(), whose report the caller keeps."""
    report = Report()
    nontrivial = [g for g in data.group.elements if g != data.group.identity]
    defects = []
    for g in nontrivial:
        for i in range(data.cover.n_charts):
            defect = data.nabla_phi(g, i)
            if not defect.is_zero:
                witness = "; ".join(
                    str(defect[r, c]) for r in range(data.rank) for c in range(data.rank)
                    if not defect[r, c].is_zero
                )
                defects.append((g, i, witness))
    report.check(
        "equivariant.connection_invariant",
        "; ".join(f"nabla(phi_{g}) on chart {i}: {w}" for g, i, w in defects),
        "{}",
    )
    if defects:
        return report
    if word_bound is None:
        word_bound = len(data.group.elements)
    # a word with an identity letter is a degenerate simplex: its component
    # is zero, so only words in the other elements are evaluated (the
    # trivial group has none, whatever the bound)
    words: List[Tuple[str, ...]] = [()]
    nonzero = []
    for _ in range(word_bound if nontrivial else 0):
        words = [w + (g,) for w in words for g in nontrivial]
        for w in words:
            for i in range(data.cover.n_charts):
                form = data.word_component(w, i)
                if not form.is_zero:
                    nonzero.append((w, i, str(form)))
    report.check(
        "equivariant.positive_components_zero", nonzero, "first: word {0[0][0]} chart {0[0][1]}: {0[0][2]}"
    )
    return report
