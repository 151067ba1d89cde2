"""Chern character cocycles from transition-function data.

Storage convention: trans[(a, b)] is the frame change FROM chart a TO
chart b over the overlap, a degree-0 MatrixForm on the anchor chart
min(a, b); with this orientation the rank-one cocycle with
trans[(0, 1)] = z^n produces the component n * dz/z * u on the pair (0, 1).  Cocycle law:
trans[(b, c)] * trans[(a, b)] = trans[(a, c)].  Intertwiners f^p_i are
degree-0 MatrixForms on chart i and satisfy the square-commutation law
f^p_b * trans^{(p-1)}[(a, b)] = trans^{(p)}[(a, b)] * f^p_a.

The trace words follow the master pattern

    tr( (w_L ... w_1)^{-1} nabla(w_L) ^ ... ^ nabla(w_1) ) * u^L

with nabla the induced Hom-connection of each factor's endpoints.
_word_trace evaluates every such word.  Each nabla(w) is a matrix of
1-forms, so a word longer than the chart's dimension is 0 and is not
evaluated.  Otherwise the letters are multiplied first, P = nabla(w_L) ...
nabla(w_1), and tr(M^{-1} P) is taken as sum_ij (M^{-1})_ij ^ P_ji, without
the off-diagonal entries of M^{-1} P.  Each route keeps its own memo of the
nabla(w) it has taken: one tot_ch_table call, one gamma call, one
EquivariantBundleData, one NerveInstance.  The EZ route
tot_ch_simplex_via_ez keeps none, so it shares only _word_trace with the
closed formula.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

from .cech import CechCochain, Cover
from .forms import ConnectionMatrix, HoloForm, MatrixForm, apply_connection
from .fiber import step_positions
from .linalg import SingularMatrixError
from .report import Report
from .simplicial import Generator, boundary, nondegenerate_generators, shuffles


class BundleDataError(ValueError):
    pass


def chart_connections(
    cover: Cover, rank: int, connections: Optional[Mapping[int, ConnectionMatrix]] = None
) -> Dict[int, ConnectionMatrix]:
    """One connection per chart, the trivial one where none is given; each
    must have the bundle's rank and live on its own chart."""
    conns = {}
    for i, chart in enumerate(cover.charts):
        c = (connections or {}).get(i) or ConnectionMatrix.zero(chart, rank)
        if c.rank != rank:
            raise BundleDataError(f"connection on chart {i} has wrong rank")
        if c.chart != chart:
            raise BundleDataError(f"connection on chart {i} lives on the wrong chart")
        conns[i] = c
    return conns


class BundleVertexData:
    """Rank-r transition data with per-chart holomorphic connections."""

    def __init__(
        self,
        cover: Cover,
        rank: int,
        transitions: Mapping[Tuple[int, int], MatrixForm],
        connections: Optional[Mapping[int, ConnectionMatrix]] = None,
    ):
        self.cover = cover
        self.rank = rank
        trans: Dict[Tuple[int, int], MatrixForm] = {}
        for (a, b), m in transitions.items():
            if a == b:
                raise BundleDataError("transitions are stored for distinct chart pairs")
            if not cover.is_declared(tuple(sorted((a, b)))):
                raise BundleDataError(f"transition on undeclared overlap ({a},{b})")
            if m.rows != rank or m.cols != rank:
                raise BundleDataError(f"transition ({a},{b}) has wrong shape")
            if m.chart != cover.charts[min(a, b)]:
                raise BundleDataError(f"transition ({a},{b}) lives on the wrong chart")
            trans[(a, b)] = m
        # complete the reverse directions (g_{ii} = identity is implicit)
        for (a, b), m in list(trans.items()):
            if (b, a) not in trans:
                try:
                    trans[(b, a)] = m.inverse()
                except SingularMatrixError as err:
                    raise BundleDataError(f"transition ({a},{b}) is singular") from err
        for pair in cover.tuples_of_length(2):
            if pair not in trans:
                raise BundleDataError(f"no transition for declared overlap {pair}")
        self.transitions = trans
        self.connections = chart_connections(cover, rank, connections)
        # anchored transitions and connections are pure lookups; memoize
        self._tform_cache: Dict[Tuple[int, int, int], MatrixForm] = {}
        self._conn_cache: Dict[Tuple[int, int], ConnectionMatrix] = {}

    def transition_form(self, a: int, b: int, anchor: int) -> MatrixForm:
        """The frame change from chart a to chart b, in a given anchor chart."""
        key = (a, b, anchor)
        if key not in self._tform_cache:
            if (a, b) not in self.transitions:
                raise BundleDataError(f"no transition for pair ({a},{b})")
            self._tform_cache[key] = self.cover.pull_to_chart(self.transitions[(a, b)], min(a, b), anchor)
        return self._tform_cache[key]

    def connection_in(self, i: int, anchor: int) -> ConnectionMatrix:
        key = (i, anchor)
        if key not in self._conn_cache:
            self._conn_cache[key] = self.cover.pull_to_chart(self.connections[i], i, anchor)
        return self._conn_cache[key]

    def validate(self) -> Report:
        # a transition given one way was inverted at construction, and
        # g_ba * g_ab = 1 fails for a singular side of a pair given both ways
        report = Report()
        bad_pairs = []
        for (a, b) in sorted(self.transitions):
            if a < b:
                prod = self.transitions[(b, a)] * self.transitions[(a, b)]
                if not prod.is_identity:
                    bad_pairs.append((a, b))
        report.check("bundle.inverse_pairs", bad_pairs, "g_ba * g_ab != 1 at {}")
        bad_triples = []
        for a, b, c in self.cover.tuples_of_length(3):
            # anchored at chart a
            gab = self.transition_form(a, b, a)
            gbc = self.transition_form(b, c, a)
            gac = self.transition_form(a, c, a)
            if not (gbc * gab - gac).is_zero:
                bad_triples.append((a, b, c))
        report.check("bundle.cocycle", bad_triples, "violated at {}")
        return report


class BundlePathData:
    """n+1 transition families on one cover plus intertwiners f^p_i.

    Level p data describes the bundle E^(p); f^p_i : E^(p-1)_i -> E^(p)_i
    over chart i, subject to the square-commutation law with both levels.
    """

    def __init__(
        self,
        levels: Sequence[BundleVertexData],
        intertwiners: Mapping[Tuple[int, int], MatrixForm],
    ):
        if not levels:
            raise BundleDataError("at least one level required")
        covers = {id(v.cover) for v in levels}
        if len(covers) != 1:
            raise BundleDataError("levels must share one cover")
        ranks = {v.rank for v in levels}
        if len(ranks) != 1:
            raise BundleDataError("levels must share one rank")
        self.levels = list(levels)
        self.cover = levels[0].cover
        self.rank = levels[0].rank
        self.intertwiners = {}
        for p in range(1, len(levels)):
            for i in range(self.cover.n_charts):
                try:
                    f = intertwiners[(p, i)]
                except KeyError:
                    raise BundleDataError(f"missing intertwiner f^{p} on chart {i}") from None
                if f.rows != self.rank or f.cols != self.rank:
                    raise BundleDataError(f"intertwiner f^{p}_{i} has wrong shape")
                if f.chart != self.cover.charts[i]:
                    raise BundleDataError(f"intertwiner f^{p}_{i} lives on the wrong chart")
                self.intertwiners[(p, i)] = f
        self._iform_cache: Dict[Tuple[int, int, int, int], MatrixForm] = {}

    @property
    def n(self) -> int:
        return len(self.levels) - 1

    def intertwiner_range(self, p_hi: int, p_lo: int, i: int) -> MatrixForm:
        """f^(p_hi, p_lo)_i = f^{p_hi} ... f^{p_lo + 1} on chart i."""
        out = MatrixForm.identity(self.cover.charts[i], self.rank)
        for p in range(p_lo + 1, p_hi + 1):
            out = self.intertwiners[(p, i)] * out
        return out

    def intertwiner_form(self, p_hi: int, p_lo: int, i: int, anchor: int) -> MatrixForm:
        key = (p_hi, p_lo, i, anchor)
        if key not in self._iform_cache:
            self._iform_cache[key] = self.cover.pull_to_chart(self.intertwiner_range(p_hi, p_lo, i), i, anchor)
        return self._iform_cache[key]

    def validate(self) -> Report:
        report = Report()
        for p, vertex in enumerate(self.levels):
            sub = vertex.validate()
            for item in sub.items:
                report.add(f"level{p}.{item.name}", item.ok, item.witness)
        bad_f = []
        for (p, i), f in sorted(self.intertwiners.items()):
            if f.det().is_zero:
                bad_f.append((p, i))
        report.check("path.intertwiners_invertible", bad_f, "singular at {}")
        bad_squares = []
        for p in range(1, self.n + 1):
            for a, b in self.cover.tuples_of_length(2):
                # anchored at chart a
                f_a = self.intertwiner_form(p, p - 1, a, a)
                f_b = self.intertwiner_form(p, p - 1, b, a)
                g_lo = self.levels[p - 1].transition_form(a, b, a)
                g_hi = self.levels[p].transition_form(a, b, a)
                if not (f_b * g_lo - g_hi * f_a).is_zero:
                    bad_squares.append((p, a, b))
        report.check("path.intertwining", bad_squares, "violated at (level, a, b) = {}")
        return report


# -- the presheaf-level Chern character (composable morphisms on one chart) ------------


class NerveInstance:
    """A composable sequence of degree-0 morphisms on one chart, with
    memoized segment composites and face values.

    morphisms[t] maps object t to object t+1; connections[t] belongs to
    object t.
    """

    def __init__(self, morphisms: Sequence[MatrixForm], connections: Sequence[ConnectionMatrix]):
        if len(connections) != len(morphisms) + 1:
            raise ValueError("need one connection per object")
        self.morphisms = list(morphisms)
        self.connections = list(connections)
        self.chart = connections[0].chart
        self.rank = connections[0].rank
        self.k = len(morphisms)
        self._segments: Dict[Tuple[int, int], MatrixForm] = {}
        self._faces: Dict[Tuple[int, ...], HoloForm] = {}
        self._nablas: Dict[Tuple[int, int], MatrixForm] = {}

    def segment(self, lo: int, hi: int) -> MatrixForm:
        """The composite morphism from object lo to object hi."""
        if hi == lo + 1:
            return self.morphisms[lo]
        key = (lo, hi)
        if key not in self._segments:
            self._segments[key] = self.morphisms[hi - 1] * self.segment(lo, hi - 1)
        return self._segments[key]

    def face_value(self, face: Tuple[int, ...]) -> HoloForm:
        """The form assigned to the face e_{i_0..i_l}, an l-form at u^l: the
        constant rank on vertices, the trace word of the face's segments in
        general."""
        face = tuple(face)
        if list(face) != sorted(set(face)) or face[0] < 0 or face[-1] > self.k:
            raise ValueError(f"bad face tuple {face}")
        if len(face) == 1:
            return HoloForm.constant(self.chart, self.rank)
        if face not in self._faces:
            self._faces[face] = _word_trace([
                ((lo, hi), self.segment(lo, hi), self.connections[lo], self.connections[hi])
                for lo, hi in zip(face, face[1:])
            ], self._nablas)
        return self._faces[face]

    def boundary_sum(self, face: Tuple[int, ...]) -> HoloForm:
        """The image of the alternating face sum of e_face."""
        acc = HoloForm.zero(self.chart)
        for g, c in boundary(Generator(tuple(face), self.k)).coeffs.items():
            form = self.face_value(g.indices)
            acc = acc + form if c > 0 else acc - form
        return acc


# -- Tot(Ch) on vertices and higher simplices ----------------------------------------


Letter = Tuple[Hashable, MatrixForm, ConnectionMatrix, ConnectionMatrix]


def _word_trace(word: Sequence[Letter], memo: Optional[Dict[Hashable, MatrixForm]] = None) -> HoloForm:
    """tr((w_L..w_1)^{-1} nabla(w_L) ^ ... ^ nabla(w_1)) for a composable word.

    Each letter is (key, degree-0 matrix, source connection, target
    connection), all on one chart, listed first-applied first.  With a memo,
    the nabla of each key is taken once and kept there; the key names the
    letter within its route.

    Every nabla(w) is pure degree 1, so a word longer than the chart's
    dimension is 0: it is returned before its composite, the composite's
    inverse or any nabla is formed, and a singular composite of such a word
    raises nothing.  Every caller's data validates invertibility first.
    """
    chart = word[0][1].chart
    if len(word) > len(chart.coordinates):
        return HoloForm.zero(chart)
    composite = word[0][1]
    for _, m, _, _ in word[1:]:
        composite = m * composite
    letters = reversed(word)
    prod = _nabla(memo, *next(letters))
    for letter in letters:
        prod = prod * _nabla(memo, *letter)
    return composite.inverse().trace(prod)


def _nabla(memo, key, m, a_src, a_dst) -> MatrixForm:
    if memo is None:
        return apply_connection(m, a_src, a_dst)
    if key not in memo:
        memo[key] = apply_connection(m, a_src, a_dst)
    return memo[key]


def tot_ch_vertex(data: BundleVertexData, max_level: Optional[int] = None) -> CechCochain:
    """The degree-0 cocycle: Tot(Ch) of the one-level path at the vertex e_0."""
    return tot_ch_simplex(BundlePathData([data], {}), Generator((0,), 0), max_level)


def tot_ch_simplex(
    data: BundlePathData,
    generator: Generator,
    max_level: Optional[int] = None,
    memo: Optional[Dict[Hashable, MatrixForm]] = None,
) -> CechCochain:
    """The cochain assigned to a generator e_{j_0..j_p} of the n-simplex.

    Sums over step positions s_1 <= ... <= s_p the signed trace word with
    vertical factors f^(j_m, j_{m-1}) inserted at the step indices and
    horizontal factors from the level active between consecutive steps;
    the global sign is (-1)^(p(p-1)/2) and each term carries
    (-1)^(s_1+...+s_p); a word of l+p letters is an (l+p)-form, at u^(l+p).
    Each nabla is taken once in `memo`, a fresh one when it is None.
    """
    if memo is None:
        memo = {}
    cover = data.cover
    if generator.ambient != data.n:
        raise BundleDataError(
            f"generator ambient {generator.ambient} does not match path length {data.n}"
        )
    if max_level is None:
        max_level = cover.max_tuple_len() - 1
    js = generator.indices
    p = generator.dim
    global_sign = -1 if (p * (p - 1) // 2) % 2 else 1
    comps = {}
    for t in cover.all_tuples(max_level + 1):
        ell = len(t) - 1
        anchor = t[0]
        chart = cover.charts[anchor]
        if p == 0 and ell == 0:
            comps[t] = HoloForm.constant(chart, data.rank)
        else:
            acc = HoloForm.zero(chart)
            for steps in step_positions(p, ell):
                term = _word_trace(_simplex_word(data, js, t, steps, anchor), memo)
                acc = acc - term if sum(steps) % 2 else acc + term
            comps[t] = acc if global_sign > 0 else -acc
    return CechCochain(cover, comps)


def _simplex_word(
    data: BundlePathData,
    js: Tuple[int, ...],
    t: Tuple[int, ...],
    steps: Tuple[int, ...],
    anchor: int,
) -> List[Letter]:
    """The staircase word for tuple t, levels js, vertical steps at `steps`;
    a letter's key names its factor, levels and chart in the anchor chart."""
    p = len(js) - 1
    ell = len(t) - 1
    word = []
    level = 0
    for pos in range(ell + 1):
        # all vertical factors stepping at this position, in level order
        while level < p and steps[level] == pos:
            lo, hi = js[level], js[level + 1]
            word.append(
                (
                    ("f", hi, lo, t[pos], anchor),
                    data.intertwiner_form(hi, lo, t[pos], anchor),
                    data.levels[lo].connection_in(t[pos], anchor),
                    data.levels[hi].connection_in(t[pos], anchor),
                )
            )
            level += 1
        if pos < ell:
            a, b = t[pos], t[pos + 1]
            j = js[level]
            word.append(
                (
                    ("g", j, a, b, anchor),
                    data.levels[j].transition_form(a, b, anchor),
                    data.levels[j].connection_in(a, anchor),
                    data.levels[j].connection_in(b, anchor),
                )
            )
    if len(word) != ell + p:
        raise AssertionError("staircase word has the wrong length")
    return word


def tot_ch_table(data: BundlePathData, max_level: Optional[int] = None) -> Dict[Generator, CechCochain]:
    """The full chain-map table over N(Z Delta^n); its generators share
    one memo of the nabla of each letter."""
    table = {}
    memo: Dict[Hashable, MatrixForm] = {}
    for ell in range(data.n + 1):
        for g in nondegenerate_generators(data.n, ell):
            table[g] = tot_ch_simplex(data, g, max_level, memo)
    return table


def tot_ch_simplex_via_ez(
    data: BundlePathData, generator: Generator, max_level: Optional[int] = None
) -> CechCochain:
    """Independent route to the same cochain: apply the presheaf-level Chern
    map to every shuffle staircase of the prism and add the
    totalization-to-Čech sign.

    Shares only the composable-word evaluator with the closed formula, and
    keeps no memo of nabla; the enumeration and signs come from the
    shuffle description.
    """
    cover = data.cover
    if max_level is None:
        max_level = cover.max_tuple_len() - 1
    js = generator.indices
    p = generator.dim
    tot_sign = -1 if (p * (p - 1) // 2) % 2 else 1
    comps = {}
    for t in cover.all_tuples(max_level + 1):
        ell = len(t) - 1
        anchor = t[0]
        chart = cover.charts[anchor]
        if p == 0 and ell == 0:
            comps[t] = HoloForm.constant(chart, data.rank)
        else:
            acc = HoloForm.zero(chart)
            for mu, nu, sign in shuffles(p, ell):
                word = []
                li = ti = 0
                for step in range(p + ell):
                    src = data.levels[js[li]].connection_in(t[ti], anchor)
                    if step in mu:
                        lo, hi = js[li], js[li + 1]
                        m = data.intertwiner_form(hi, lo, t[ti], anchor)
                        li += 1
                    else:
                        m = data.levels[js[li]].transition_form(t[ti], t[ti + 1], anchor)
                        ti += 1
                    word.append((None, m, src, data.levels[js[li]].connection_in(t[ti], anchor)))
                term = _word_trace(word)
                acc = acc + (term if sign > 0 else -term)
            comps[t] = acc if tot_sign > 0 else -acc
    return CechCochain(cover, comps)
