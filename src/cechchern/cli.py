"""Command-line driver: manifest ingestion, mode dispatch, reporting.

Exit codes: 0 when every check passes, 1 on a failed verification, 2 on
manifest or expression errors.  `run` reads the whole manifest, reports
its mode's data.validate() and computes only when that passes.  Each line
a mode adds then compares what it computed with something, so none can
only pass: vertex and gamma mode report δ-closedness, simplex and iota
the chain-map law, square the two routes' agreement and equivariant the
invariance of the connection and, when it holds, the vanishing of every
positive-degree component."""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from typing import Optional

from .bg import equivariant_check, gamma, iota, verify_square
from .cech import CoverError, Cover, FormalSection, component_witness, validate_chain_map
from .chern import tot_ch_table, tot_ch_vertex
from .exprparse import ExprError
from .fiber import (
    formal_identity_cochain,
    verify_bijection,
    verify_integration_identities,
)
from .manifest import Manifest, ManifestError, read_integer
from .report import Report
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
    # EZ/AW: chain maps and aw o ez = id, exhaustive n, m <= 3; each cell
    # pair's EZ image is taken once, for both checks and for the faces
    # of the pairs above it, which share its n and m
    ez = {}

    def ez_of(pair):
        if pair not in ez:
            ez[pair] = ez_map(*pair)
        return ez[pair]

    ok = True
    for n in range(4):
        for m in range(4):
            ez.clear()
            for pl in range(n + 1):
                for pr in range(m + 1):
                    for gl in nondegenerate_generators(n, pl):
                        for gr in nondegenerate_generators(m, pr):
                            image = ez_of((gl, gr))
                            if aw_chain(image) != Chain.of((gl, gr)):
                                ok = False
                            if boundary_chain(image) != tensor_boundary((gl, gr)).linear(ez_of):
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
    # (serializer, artifact): the artifact's text is built only for --output
    artifact = None
    if mode == "selftest":
        if max_level is not None:
            read_integer(max_level, "--max-level", 0)
        report = _selftest()
    else:
        if not manifest_path:
            raise ManifestError("this mode requires --manifest")
        manifest = Manifest.load(manifest_path)
        level = manifest.max_level(max_level)
        word_bound = None
        if mode == "vertex":
            data = manifest.vertex_data()
        elif mode in ("simplex", "gamma", "iota", "square"):
            data = manifest.path_data()
        elif mode == "equivariant":
            data = manifest.equivariant_data()
            word_bound = manifest.word_bound()
        else:
            raise ManifestError(f"unknown mode {mode!r}")
        report = data.validate()
        if report.ok and mode == "vertex":
            cocycle = tot_ch_vertex(data, level)
            _delta_check(report, "vertex.delta_closed", cocycle)
            artifact = cochain_to_text, cocycle
        elif report.ok and mode == "gamma":
            closed = gamma(data)
            _delta_check(report, "gamma.delta_closed", closed)
            artifact = cochain_to_text, closed
        elif report.ok and mode == "square":
            report.extend(verify_square(data, level))
        elif report.ok and mode == "equivariant":
            report.extend(equivariant_check(data, word_bound))
        elif report.ok:
            table = tot_ch_table(data, level) if mode == "simplex" else iota(gamma(data, level), level)
            report.extend(validate_chain_map(table, level))
            artifact = table_to_text, table
    artifact_text = artifact[0](artifact[1]) if output and artifact else None
    elapsed = time.monotonic() - start
    if artifact_text is not None:
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


def _delta_check(report, name, cochain):
    """Report whether the cochain is δ-closed, with δ's first component as
    the witness of a failure."""
    delta = cochain.delta().items()
    report.add(name, not delta, component_witness(delta))


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
