"""Layer tracing from outside the program.

Wraps the public functions and methods of every cechchern module (plus the
few private helpers that the per-layer metrics name) in a span recorder.
Each span knows its parent, so a function's self time is its duration
minus the time of the wrapped calls it made; a layer's self time is the sum
over the functions its module defines.  Work in unwrapped code (for
example `fractions`) counts toward the wrapped caller, so `scalars.self_s`
includes the Fraction arithmetic that GaussianRational does.

Every function is wrapped under each name it is bound to in any cechchern
module (`bg` imports `tot_ch_table`, `ratfunc` imports `poly_gcd`, ...);
methods are wrapped on the class, which every importer shares.

Installed only in the traced child process; nothing here runs in the
untraced timing runs.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from typing import Callable, Dict, List, Optional

MODULES = (
    "scalars", "poly", "ratfunc", "linalg", "exprparse", "simplicial", "forms",
    "cech", "fiber", "chern", "bg", "manifest", "serde", "report", "cli",
)

# private helpers that the metrics name, plus `_normalize`, which every
# RationalFunction constructor calls from whichever module builds one (its
# gcd work belongs to ratfunc); other private helpers are timed as part of
# their same-module caller
PRIVATE = {"_word_trace", "_normalize", "_selftest"}

# dunders that are cheap bookkeeping, or that would only measure the wrapper
SKIP_DUNDERS = {
    "__init__", "__setattr__", "__post_init__", "__hash__", "__repr__",
    "__getitem__", "__bool__", "__init_subclass__", "__subclasshook__",
}

ARITH = {
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__pow__", "__neg__", "inverse",
    "conjugate", "derivative", "scale", "monic",
}

# CLI stages: the innermost active stage owns the time (stages nest, e.g.
# verify_square validates and computes inside its own comparisons)
STAGES = {
    "manifest.Manifest.load": "load",
    "manifest.Manifest.vertex_data": "load",
    "manifest.Manifest.path_data": "load",
    "manifest.Manifest.bg_data": "load",
    "manifest.Manifest.equivariant_data": "load",
    "cech.Cover.validate": "validate",
    "chern.BundleVertexData.validate": "validate",
    "chern.BundlePathData.validate": "validate",
    "bg.BGMapData.validate": "validate",
    "bg.FiniteGroup.validate": "validate",
    "bg.EquivariantBundleData.validate": "validate",
    "chern.tot_ch_table": "compute",
    "chern.tot_ch_vertex": "compute",
    "bg.gamma": "compute",
    "bg.iota": "compute",
    "bg.equivariant_check": "compute",
    "cech.validate_chain_map": "verify",
    "cech.CechCochain.delta": "verify",
    "cech.UPolyCochain.delta": "verify",
    "bg.verify_square": "verify",
    "cli._selftest": "verify",
    "serde.cochain_to_text": "serialize",
    "serde.table_to_text": "serialize",
    "report.Report.to_text": "serialize",
    "report.Report.to_dict": "serialize",
}
STAGE_NAMES = ("load", "validate", "compute", "verify", "serialize")

# inclusive time of the outermost call, for metrics named `*_s` without self
INCLUSIVE = {
    "forms.HoloForm.pullback": "forms.pullback_s",
    "bg.gamma": "bg.gamma_s",
    "bg.iota": "bg.iota_s",
}

MEMO = {
    "chern.BundleVertexData.transition_form",
    "chern.BundleVertexData.connection_in",
    "chern.BundlePathData.intertwiner_form",
}


class Record:
    __slots__ = ("calls", "self_s")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0


class Tracer:
    """Span recorder: a stack of child-time accumulators, one per open span."""

    def __init__(self):
        self.records: Dict[str, Record] = {}
        self.layer_of: Dict[str, str] = {}
        self.stack: List[float] = [0.0]
        # the tracer's own bookkeeping time so far, kept out of every span;
        # a one-element list so that the wrappers read it without a lookup
        self.inspected: List[float] = [0.0]
        self.stage_stack: List[list] = []
        self.stage_s = dict.fromkeys(STAGE_NAMES, 0.0)
        self.inclusive_s: Dict[str, float] = {v: 0.0 for v in INCLUSIVE.values()}
        self.depth: Dict[str, int] = {}
        self.counts: Dict[str, int] = {}
        self.max_terms = 0
        self.max_coeff_bits = 0
        self.gcd_depth = 0
        self.gcd_prs_s = 0.0
        self.memo_seen: set = set()
        self.run_spans: List[float] = []
        self._originals: list = []

    # -- wrapping ------------------------------------------------------------

    def _record(self, qual: str, layer: str) -> Record:
        rec = self.records.get(qual)
        if rec is None:
            rec = self.records[qual] = Record()
            self.layer_of[qual] = layer
        return rec

    def _plain(self, fn: Callable, rec: Record) -> Callable:
        stack = self.stack
        inspected = self.inspected
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            i0 = inspected[0]
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0 - (inspected[0] - i0)
                rec.calls += 1
                rec.self_s += dur - stack.pop()
                stack[-1] += dur

        return wrapper

    def _special(self, fn: Callable, rec: Record, qual: str) -> Callable:
        """A wrapper with per-function bookkeeping, whose time is added to
        `inspected` and so kept out of every span."""
        stack = self.stack
        inspected = self.inspected
        clock = time.perf_counter
        stage = STAGES.get(qual)
        inclusive = INCLUSIVE.get(qual)
        post = self._post_hook(qual)
        pre = self._pre_hook(qual)
        is_gcd = qual == "poly.poly_gcd"
        is_run = qual == "cli.run"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t_in = clock()
            if pre is not None:
                pre(args)
            if stage is not None:
                self.stage_stack.append([stage, 0.0])
            if inclusive is not None:
                self.depth[inclusive] = self.depth.get(inclusive, 0) + 1
            gcd_kind = None
            if is_gcd:
                gcd_kind = _gcd_kind(args[0], args[1])
                self.gcd_depth += 1
            if is_run:
                self.memo_seen.clear()
            stack.append(0.0)
            i0 = inspected[0]
            t0 = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                # the span without the bookkeeping of the wrapped calls in it
                dur = t1 - t0 - (inspected[0] - i0)
                rec.calls += 1
                rec.self_s += dur - stack.pop()
                if stage is not None:
                    name, nested = self.stage_stack.pop()
                    self.stage_s[name] += dur - nested
                    if self.stage_stack:
                        self.stage_stack[-1][1] += dur
                if inclusive is not None:
                    self.depth[inclusive] -= 1
                    if not self.depth[inclusive]:
                        self.inclusive_s[inclusive] += dur
                if is_gcd:
                    self.gcd_depth -= 1
                    self._count(f"gcd_{gcd_kind}")
                    if result is not None and not result.is_one:
                        self._count("gcd_nontrivial")
                    if gcd_kind == "prs" and not self.gcd_depth:
                        self.gcd_prs_s += dur
                if is_run:
                    self.run_spans.append(dur)
                if post is not None and result is not None:
                    post(args, result)
                if not is_run:  # the root span: nothing outside it is measured
                    inspected[0] += (clock() - t_in) - (t1 - t0)
                stack[-1] += dur

        return wrapper

    def _count(self, key: str, n: int = 1):
        self.counts[key] = self.counts.get(key, 0) + n

    def _pre_hook(self, qual: str) -> Optional[Callable]:
        if qual in MEMO:
            def memo(args):
                key = (qual, id(args[0])) + tuple(args[1:])
                if key in self.memo_seen:
                    self._count("memo_hits")
                else:
                    self.memo_seen.add(key)
                self._count("memo_calls")
            return memo
        if qual == "chern._word_trace":
            return lambda args: self._count("word_letters", len(args[0]))
        return None

    def _post_hook(self, qual: str) -> Optional[Callable]:
        if qual == "poly.Polynomial.__mul__":
            def product(args, result):
                terms = result.terms
                if len(terms) > self.max_terms:
                    self.max_terms = len(terms)
                bits = self.max_coeff_bits
                for c in terms.values():
                    for q in (c.re, c.im):
                        b = max(q.numerator.bit_length(), q.denominator.bit_length())
                        if b > bits:
                            bits = b
                self.max_coeff_bits = bits
            return product
        if qual in ("serde.table_to_text", "serde.cochain_to_text"):
            def artifact(args, result):
                if not self.stage_stack:  # the outermost serializer call
                    self._count("artifact_bytes", len(result.encode("utf-8")))
            return artifact
        return None

    def _wrap(self, fn: Callable, qual: str, layer: str) -> Callable:
        rec = self._record(qual, layer)
        special = (
            qual in STAGES or qual in INCLUSIVE or qual in MEMO
            or qual in ("poly.poly_gcd", "cli.run", "chern._word_trace",
                        "poly.Polynomial.__mul__")
        )
        return self._special(fn, rec, qual) if special else self._plain(fn, rec)

    def install(self, package: str = "cechchern"):
        mods = {name: importlib.import_module(f"{package}.{name}") for name in MODULES}
        wrapped: Dict[int, Callable] = {}
        for name, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    if attr.startswith("_") and attr not in PRIVATE:
                        continue
                    wrapped[id(obj)] = self._wrap(obj, f"{name}.{attr}", name)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(obj, f"{name}.{attr}", name)
        # rebind every module-level name that refers to a wrapped function
        originals = {}
        for name, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in wrapped:
                    originals[(mod, attr)] = obj
                    setattr(mod, attr, wrapped[id(obj)])
        self._originals.extend(originals.items())

    def _wrap_class(self, cls, qual_cls: str, layer: str):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("__") and attr.endswith("__"):
                if attr in SKIP_DUNDERS:
                    continue
            elif attr.startswith("_"):
                continue
            qual = f"{qual_cls}.{attr}"
            if isinstance(raw, staticmethod):
                new = staticmethod(self._wrap(raw.__func__, qual, layer))
            elif isinstance(raw, classmethod):
                new = classmethod(self._wrap(raw.__func__, qual, layer))
            elif inspect.isfunction(raw):
                new = self._wrap(raw, qual, layer)
            else:
                continue  # properties and data stay as they are
            self._originals.append(((cls, attr), raw))
            setattr(cls, attr, new)

    def uninstall(self):
        for (owner, attr), raw in reversed(self._originals):
            setattr(owner, attr, raw)
        self._originals.clear()

    # -- results -------------------------------------------------------------

    def layer_self(self) -> Dict[str, float]:
        out = dict.fromkeys(MODULES, 0.0)
        for qual, rec in self.records.items():
            out[self.layer_of[qual]] += rec.self_s
        return out

    def calls(self, *quals: str) -> int:
        return sum(self.records[q].calls for q in quals if q in self.records)

    def calls_where(self, pred) -> int:
        return sum(r.calls for q, r in self.records.items() if pred(q))

    def self_of(self, *quals: str) -> float:
        return sum(self.records[q].self_s for q in quals if q in self.records)

    def metrics(self) -> Dict[str, float]:
        """Per-layer metrics: counts (exact) and times (seconds)."""
        layer = self.layer_self()
        c = self.counts
        gcd_calls = self.calls("poly.poly_gcd")
        memo_calls = c.get("memo_calls", 0)
        out = {
            **{f"stage.{s}_s": self.stage_s[s] for s in STAGE_NAMES},
            "scalars.ops": self.calls_where(lambda q: q.startswith("scalars.GaussianRational.")
                                            and q.rsplit(".", 1)[1] in ARITH),
            "scalars.self_s": layer["scalars"],
            "poly.mul_calls": self.calls("poly.Polynomial.__mul__", "poly.Polynomial.__rmul__"),
            "poly.mul_self_s": self.self_of("poly.Polynomial.__mul__", "poly.Polynomial.__rmul__"),
            "poly.max_terms": self.max_terms,
            "poly.max_coeff_bits": self.max_coeff_bits,
            "poly.gcd_calls": gcd_calls,
            "poly.gcd_fast_calls": c.get("gcd_fast", 0),
            "poly.gcd_euclid_calls": c.get("gcd_euclid", 0),
            "poly.gcd_prs_calls": c.get("gcd_prs", 0),
            "poly.gcd_prs_s": self.gcd_prs_s,
            "poly.gcd_nontrivial_ratio": c.get("gcd_nontrivial", 0) / gcd_calls if gcd_calls else 0.0,
            "poly.divexact_calls": self.calls("poly.divexact"),
            "poly.divexact_self_s": self.self_of("poly.divexact"),
            "poly.self_s": layer["poly"],
            "ratfunc.ops": self.calls_where(lambda q: q.startswith("ratfunc.RationalFunction.")
                                            and q.rsplit(".", 1)[1] in ARITH),
            "ratfunc.substitute_calls": self.calls("ratfunc.RationalFunction.substitute"),
            "ratfunc.self_s": layer["ratfunc"],
            "linalg.inverse_calls": self.calls("linalg.RFMatrix.inverse", "linalg.matrix_inverse"),
            "linalg.det_calls": self.calls("linalg.RFMatrix.det"),
            "linalg.self_s": layer["linalg"],
            "exprparse.parse_calls": self.calls("exprparse.parse_expr"),
            "exprparse.self_s": layer["exprparse"],
            "forms.wedge_calls": self.calls("forms.HoloForm.wedge", "forms.wedge"),
            "forms.d_calls": self.calls("forms.HoloForm.d", "forms.MatrixForm.d", "forms.partial_d"),
            "forms.pullback_calls": self.calls("forms.HoloForm.pullback"),
            "forms.pullback_s": self.inclusive_s["forms.pullback_s"],
            "forms.apply_connection_calls": self.calls("forms.apply_connection"),
            "forms.self_s": layer["forms"],
            "cech.delta_calls": self.calls("cech.CechCochain.delta", "cech.UPolyCochain.delta",
                                           "cech.cech_delta"),
            "cech.self_s": layer["cech"],
            "fiber.self_s": layer["fiber"],
            "simplicial.ez_map_calls": self.calls("simplicial.ez_map"),
            "simplicial.self_s": layer["simplicial"],
            "chern.word_trace_calls": self.calls("chern._word_trace"),
            "chern.word_letters": c.get("word_letters", 0),
            "chern.memo_hit_ratio": c.get("memo_hits", 0) / memo_calls if memo_calls else 0.0,
            "chern.self_s": layer["chern"],
            "bg.gamma_s": self.inclusive_s["bg.gamma_s"],
            "bg.iota_s": self.inclusive_s["bg.iota_s"],
            "bg.word_component_calls": self.calls("bg.EquivariantBundleData.word_component"),
            "bg.self_s": layer["bg"],
            "serde.artifact_bytes": c.get("artifact_bytes", 0),
            "serde.self_s": layer["serde"],
            "manifest.self_s": layer["manifest"],
            "report.self_s": layer["report"],
            "cli.self_s": layer["cli"],
        }
        return out


def _gcd_kind(a, b) -> str:
    """The path poly_gcd takes on (a, b): the zero/constant/monomial fast
    path, Euclid on one variable, or the pseudo-remainder sequence."""
    if (
        a.is_zero or b.is_zero or a.is_constant or b.is_constant
        or a.is_monomial or b.is_monomial
    ):
        return "fast"
    if len(set(a.variables) | set(b.variables)) == 1:
        return "euclid"
    return "prs"
