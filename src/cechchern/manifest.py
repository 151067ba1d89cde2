"""Manifest ingestion: JSON-shaped run descriptions into domain objects.

All mathematical content enters as expression strings and is parsed with
the chart-appropriate variable scope; transitions for a pair (a, b) are
read in the coordinates of chart min(a, b), connections, intertwiners,
action maps and lifts in the coordinates of their own chart.
"""

from __future__ import annotations

import functools
import json
from typing import Dict, Optional, Tuple

from .bg import EquivariantBundleData, FiniteGroup
from .cech import Cover
from .chern import BundlePathData, BundleVertexData
from .exprparse import ExprError, parse_expr
from .forms import Chart, ConnectionMatrix, HoloForm, MatrixForm


# The most group words an equivariant run may evaluate: a word bound B on a
# group G spans sum_{l<=B} (|G|-1)^l words (Z/3 with B = 10 is 2046 words
# and takes a few seconds).
MAX_GROUP_WORDS = 4096


class ManifestError(ValueError):
    pass


def _located(build):
    """Turn malformed input met while building, a ManifestError included,
    into a ManifestError that names the manifest."""

    @functools.wraps(build)
    def located(self, *args, **kwargs):
        try:
            return build(self, *args, **kwargs)
        except (AttributeError, KeyError, TypeError, ValueError, IndexError) as err:
            detail = f"missing key {err}" if isinstance(err, KeyError) else err
            raise ManifestError(f"{self.source}: {detail}") from err

    return located


def read_integer(value, what: str, low: int, high: Optional[int] = None) -> int:
    """An integer from outside the program: an int or its decimal string in
    low..high (unbounded above when high is None); a bool or a float is
    never truncated to one."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ManifestError(f"{what} {value!r} is not an integer")
    try:
        i = int(value)
    except ValueError:
        raise ManifestError(f"{what} {value!r} is not an integer") from None
    if high is None and i < low:
        raise ManifestError(f"{what} {value!r} is below {low}")
    if high is not None and not low <= i <= high:
        raise ManifestError(f"{what} {value!r} outside {low}..{high}")
    return i


class Manifest:
    def __init__(self, raw: dict, source: str = "<memory>"):
        self.raw = raw
        self.source = source
        self.cover = self._build_cover()
        self.run = self._run_section()

    @staticmethod
    def load(path: str) -> "Manifest":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except OSError as err:
            raise ManifestError(f"cannot read manifest: {err}") from err
        except json.JSONDecodeError as err:
            raise ManifestError(f"manifest is not valid JSON: {err}") from err
        return Manifest(raw, source=path)

    @_located
    def _run_section(self) -> dict:
        run = self.raw.get("run", {})
        if not isinstance(run, dict):
            raise ManifestError("'run' must be an object")
        return run

    # -- cover ------------------------------------------------------------------

    @_located
    def _build_cover(self) -> Cover:
        raw = self.raw
        if "charts" not in raw:
            raise ManifestError("missing 'charts'")
        charts = []
        for entry in raw["charts"]:
            coords = entry.get("coordinates", [])
            if not isinstance(coords, list) or not all(isinstance(c, str) for c in coords):
                raise ManifestError(f"coordinates of chart {entry['name']!r} must be a list of strings")
            charts.append(Chart(entry["name"], tuple(coords)))
        overlaps = raw.get("overlaps", [])
        if not isinstance(overlaps, list) or not all(isinstance(t, list) for t in overlaps):
            raise ManifestError("overlaps must be a list of chart-index lists")
        overlaps = [tuple(read_integer(i, "overlap chart index", 0, len(charts) - 1) for i in t)
                    for t in overlaps]
        if not overlaps:
            overlaps = [tuple(range(len(charts)))]
        change = {}
        for cm in raw.get("change_maps", []):
            src = read_integer(cm["chart"], "chart index", 0, len(charts) - 1)
            dst = read_integer(cm["in_chart"], "chart index", 0, len(charts) - 1)
            exprs = {}
            for coord, text in cm["exprs"].items():
                exprs[coord] = self._parse(text, charts[dst].coordinates)
            change[(src, dst)] = exprs
        return Cover(charts, overlaps, change)

    def _parse(self, text: str, variables):
        try:
            return parse_expr(str(text), list(variables))
        except ExprError as err:
            raise ManifestError(f"bad expression {text!r}: {err}") from err

    # -- bundle sections ----------------------------------------------------------

    def _parse_matrix(self, entries, chart: Chart, what: str) -> MatrixForm:
        """A degree-0 matrix on the chart whose coordinates its entries use."""
        if not isinstance(entries, list) or not entries:
            raise ManifestError(f"{what} must be a nonempty matrix")
        return MatrixForm.of_functions(
            chart, [[self._parse(e, chart.coordinates) for e in row] for row in entries]
        )

    def _parse_transitions(self, mapping) -> Dict[Tuple[int, int], MatrixForm]:
        out = {}
        for key, entries in mapping.items():
            parts = [p.strip() for p in str(key).split(",")]
            if len(parts) != 2:
                raise ManifestError(f"bad transition key {key!r}")
            a, b = (read_integer(p, "chart index", 0, self.cover.n_charts - 1) for p in parts)
            anchor = self.cover.charts[min(a, b)]
            out[(a, b)] = self._parse_matrix(entries, anchor, f"transition {key}")
        return out

    def _parse_connections(self, mapping, rank) -> Dict[int, ConnectionMatrix]:
        out = {}
        for key, entries in (mapping or {}).items():
            i = read_integer(key, "chart index", 0, self.cover.n_charts - 1)
            chart = self.cover.charts[i]
            rows = [
                [
                    HoloForm.sum(chart, (
                        ((chart.index_of(coord),), self._parse(text, chart.coordinates))
                        for coord, text in cell.items()
                    ))
                    for cell in row
                ]
                for row in entries
            ]
            matrix = MatrixForm(chart, rows)
            if matrix.rows != rank or matrix.cols != rank:
                raise ManifestError(f"connection on chart {i} has wrong shape")
            out[i] = ConnectionMatrix(chart, matrix)
        return out

    def _bundle_rank(self) -> int:
        bundle = self.raw.get("bundle")
        if not bundle:
            raise ManifestError("missing 'bundle' section")
        return read_integer(bundle["rank"], "bundle rank", 1)

    def _level_entries(self) -> list:
        """The raw levels of the bundle; a single-level bundle is its own
        level 0, with its connections on `bundle`."""
        bundle = self.raw["bundle"]
        levels = bundle.get("levels")
        if not levels:
            return [bundle]
        if "connections" in bundle:
            raise ManifestError("a bundle with 'levels' keeps its connections on each level")
        return levels

    def _level(self, entry, rank: int) -> BundleVertexData:
        trans = self._parse_transitions(entry.get("transitions", {}))
        conns = self._parse_connections(entry.get("connections"), rank)
        return BundleVertexData(self.cover, rank, trans, conns)

    @_located
    def vertex_data(self) -> BundleVertexData:
        return self._level(self._level_entries()[0], self._bundle_rank())

    @_located
    def path_data(self) -> BundlePathData:
        rank = self._bundle_rank()
        levels = [self._level(entry, rank) for entry in self._level_entries()]
        intertwiners = {}
        for level_key, per_chart in self.raw["bundle"].get("intertwiners", {}).items():
            p = read_integer(level_key, "intertwiner level", 1, len(levels) - 1)
            for chart_key, entries in per_chart.items():
                i = read_integer(chart_key, "chart index", 0, self.cover.n_charts - 1)
                intertwiners[(p, i)] = self._parse_matrix(
                    entries, self.cover.charts[i], f"intertwiner level {p} chart {i}"
                )
        return BundlePathData(levels, intertwiners)

    @_located
    def equivariant_data(self) -> EquivariantBundleData:
        group_raw = self.raw.get("group")
        if not group_raw:
            raise ManifestError("missing 'group' section")
        rank = self._bundle_rank()
        table = {}
        for key, val in group_raw["table"].items():
            a, b = [p.strip() for p in str(key).split(",")]
            table[(a, b)] = val
        group = FiniteGroup(group_raw["elements"], group_raw["identity"], table)
        action = {}
        for g, per_chart in group_raw.get("action", {}).items():
            for chart_key, exprs in per_chart.items():
                i = read_integer(chart_key, "chart index", 0, self.cover.n_charts - 1)
                chart = self.cover.charts[i]
                action[(g, i)] = {
                    coord: self._parse(text, chart.coordinates) for coord, text in exprs.items()
                }
        lifts = {}
        for g, per_chart in group_raw.get("lifts", {}).items():
            for chart_key, entries in per_chart.items():
                i = read_integer(chart_key, "chart index", 0, self.cover.n_charts - 1)
                lifts[(g, i)] = self._parse_matrix(
                    entries, self.cover.charts[i], f"lift of {g} on chart {i}"
                )
        conns = self._parse_connections(self._level_entries()[0].get("connections"), rank)
        return EquivariantBundleData(self.cover, rank, group, action, lifts, conns)

    @_located
    def max_level(self, override: Optional[int] = None) -> Optional[int]:
        if override is not None:
            return read_integer(override, "--max-level", 0)
        value = self.run.get("max_level")
        return None if value is None else read_integer(value, "max_level", 0)

    @_located
    def word_bound(self) -> Optional[int]:
        """The equivariant word-length bound; absent or 0 means the group
        order.  The words it spans may not pass MAX_GROUP_WORDS."""
        value = self.run.get("word_bound")
        bound = None if value is None else read_integer(value, "word_bound", 0) or None
        order = len(self.raw["group"]["elements"])
        count, words = 0, 1
        # each length adds a word unless the group is trivial, so a bound
        # past the limit passes it
        for _ in range(min(bound or order, MAX_GROUP_WORDS + 1)):
            words *= order - 1
            count += words
            if count > MAX_GROUP_WORDS:
                raise ManifestError(
                    f"a group of order {order} with word bound {bound or order} "
                    f"spans more than {MAX_GROUP_WORDS} words"
                )
        return bound
