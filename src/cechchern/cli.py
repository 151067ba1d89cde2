"""Command-line driver: manifest ingestion, mode dispatch, reporting.

Exit codes: 0 when every check passes, 1 on a failed verification, 2 on
manifest or expression errors.  The residue oracle lives here, as pure
Laurent-coefficient extraction on a one-variable chart; it cross-checks
the line-bundle cocycles independently of the cochain machinery.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from typing import Optional

from .bg import equivariant_check, gamma, iota, verify_square
from .cech import CoverError, Cover, FormalSection, UPolyCochain, validate_chain_map
from .chern import tot_ch_table, tot_ch_vertex
from .exprparse import ExprError
from .fiber import (
    formal_identity_cochain,
    verify_bijection,
    verify_integration_identities,
)
from .manifest import Manifest, ManifestError, read_integer
from .ratfunc import RationalFunction
from .report import Report
from .scalars import GaussianRational
from .serde import cochain_to_text, table_to_text
from .simplicial import (
    aw_chain,
    boundary,
    boundary_chain,
    brute_force_shuffle_sign,
    Chain,
    ez_map,
    nondegenerate_generators,
    shuffle_count,
    shuffles,
    tensor_boundary,
)

MODES = ("vertex", "simplex", "gamma", "iota", "square", "equivariant", "selftest")


def laurent_coefficient(f: RationalFunction, var: str, power: int = -1) -> GaussianRational:
    """The coefficient of var^power in the Laurent expansion at 0.

    Requires f to depend on at most the single variable var.
    """
    num = f.num.coefficients_in(var)
    den = f.den.coefficients_in(var)
    if not num:
        return GaussianRational(0)
    pole = min(den)
    shifted = {k - pole: c for k, c in den.items()}
    target = power + pole
    # series division: s_j = (n_j - sum_{i<j} s_i d_{j-i}) / d_0
    series = {}
    d0 = shifted[0]
    lead = min(num)
    if target < lead:
        return GaussianRational(0)
    for j in range(lead, target + 1):
        acc = num.get(j, GaussianRational(0))
        for i in range(lead, j):
            dcoef = shifted.get(j - i)
            if dcoef is not None and i in series:
                acc = acc - series[i] * dcoef
        series[j] = acc / d0
    return series[target]


def _selftest() -> Report:
    report = Report()
    rng = random.Random(1729)
    # boundary squares to zero
    ok = all(
        boundary_chain(boundary(g)).is_zero
        for n in range(6)
        for ell in range(1, n + 1)
        for g in nondegenerate_generators(n, ell)
    )
    report.add("selftest.boundary_squared", ok)
    # shuffle signs against brute-force parity
    ok = True
    for p in range(7):
        for q in range(7 - p):
            entries = shuffles(p, q)
            ok = ok and len(entries) == shuffle_count(p, q)
            ok = ok and all(s == brute_force_shuffle_sign(mu, nu) for mu, nu, s in entries)
    report.add("selftest.shuffle_signs", ok)
    # EZ/AW: chain maps and aw o ez = id, exhaustive n, m <= 3
    ok = True
    for n in range(4):
        for m in range(4):
            for pl in range(n + 1):
                for pr in range(m + 1):
                    for gl in nondegenerate_generators(n, pl):
                        for gr in nondegenerate_generators(m, pr):
                            if aw_chain(ez_map(gl, gr)) != Chain.of((gl, gr)):
                                ok = False
                            rhs = tensor_boundary((gl, gr)).linear(lambda pair: ez_map(*pair))
                            if boundary_chain(ez_map(gl, gr)) != rhs:
                                ok = False
    report.add("selftest.ez_aw", ok)
    # the removal bijection, exhaustive q <= 5, k <= 3
    ok = all(
        verify_bijection(tuple(range(q + 1)), k).ok for q in range(6) for k in range(4)
    )
    report.add("selftest.bijection", ok)
    # integration identities on the formal presheaf, q <= 4, k <= 3
    def d_a(sym):
        kind, t = sym
        if kind == "mu":
            return FormalSection(1, {("dmu", t): 1})
        return FormalSection(2, {})

    ok = True
    for k in range(4):
        for q in range(5):
            base = Cover.formal(q + 2)
            mu = formal_identity_cochain(base, k, q, rng)
            if not verify_integration_identities(mu, k, d_a).ok:
                ok = False
    report.add("selftest.integration_identities", ok)
    return report


def run(
    mode: str,
    manifest_path: Optional[str],
    max_level: Optional[int] = None,
    output: Optional[str] = None,
    json_report: bool = False,
    out=sys.stdout,
):
    start = time.monotonic()
    report = Report()
    artifact_text = None
    if mode == "selftest":
        if max_level is not None:
            read_integer(max_level, "--max-level", 0)
        report = _selftest()
    else:
        if not manifest_path:
            raise ManifestError("this mode requires --manifest")
        manifest = Manifest.load(manifest_path)
        level = manifest.max_level(max_level)
        cover_report = manifest.cover.validate()
        if not cover_report.ok:
            # an unusable cover is a manifest defect, not a failed theorem
            raise ManifestError(f"{manifest.source}: {cover_report.failures()[0].witness}")
        report.extend(cover_report)
        if mode == "vertex":
            data = manifest.vertex_data()
            report.extend(data.validate())
            if report.ok:
                cocycle = tot_ch_vertex(data, level)
                closed = cocycle.delta().is_zero
                report.add("vertex.delta_closed", closed)
                _residue_check(manifest, data, cocycle, report)
                artifact_text = cochain_to_text(cocycle)
        elif mode in ("simplex", "gamma", "iota"):
            data = manifest.path_data()
            report.extend(data.validate())
            if report.ok and mode == "gamma":
                closed = gamma(data)
                report.add("gamma.delta_closed", closed.delta().is_zero)
                even = all(
                    (len(t) - 1 + v.degree()) % 2 == 0 for t, v in closed.components.items()
                )
                report.add("gamma.even_degree", even)
                if even:
                    artifact_text = cochain_to_text(UPolyCochain.from_even(closed))
            elif report.ok:
                table = tot_ch_table(data, level) if mode == "simplex" else iota(gamma(data, level), level)
                report.extend(validate_chain_map(table, level))
                artifact_text = table_to_text(table)
        elif mode == "square":
            data = manifest.path_data()
            report.extend(verify_square(data, level))
        elif mode == "equivariant":
            data = manifest.equivariant_data()
            report.extend(equivariant_check(data, manifest.word_bound()))
        else:
            raise ManifestError(f"unknown mode {mode!r}")
    elapsed = time.monotonic() - start
    if output and artifact_text is not None:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(artifact_text)
    if json_report:
        payload = report.to_dict()
        payload["mode"] = mode
        payload["elapsed_s"] = round(elapsed, 6)
        out.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    else:
        out.write(report.to_text() + "\n")
        out.write(f"elapsed: {elapsed:.3f}s\n")
    return 0 if report.ok else 1


def _residue_check(manifest, data, cocycle, report):
    """Independent Laurent-coefficient oracle for rank-1 pair components."""
    cover = data.cover
    if data.rank != 1:
        return
    for t in cover.tuples_of_length(2):
        chart = cover.charts[t[0]]
        if len(chart.coordinates) != 1:
            continue
        comp = cocycle.component(t, 1)
        var = chart.coordinates[0]
        if comp is None:
            residue = GaussianRational(0)
        else:
            coeff = comp.coefficient((0,))
            residue = laurent_coefficient(coeff, var, -1)
        report.add(f"vertex.residue{t}", True, f"residue at {var}=0: {residue}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cechchern",
        description="Exact Chern character cocycles from transition-function manifests.",
    )
    parser.add_argument("--manifest", help="path to the JSON manifest")
    parser.add_argument("--mode", required=True, choices=MODES)
    parser.add_argument("--max-level", type=int, default=None, help="Čech degree cutoff")
    parser.add_argument("--output", help="write the cochain/table artifact here")
    parser.add_argument(
        "--json-report", action="store_true", help="emit the report as JSON"
    )
    args = parser.parse_args(argv)
    try:
        return run(
            args.mode,
            args.manifest,
            max_level=args.max_level,
            output=args.output,
            json_report=args.json_report,
        )
    except (ManifestError, ExprError, CoverError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
