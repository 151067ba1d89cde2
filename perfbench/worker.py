"""Child process of the benchmark: runs one role on one workload's manifests.

    python3 perfbench/worker.py <role> <config.json>

Roles:
  oracle  - known answers: every corrupted twin must exit 1; for simplex
            manifests also the artifact of the independent EZ/shuffle route
            (`tot_ch_simplex_via_ez`), computed here, outside any timing.
  timed   - closed loop for the configured seconds: one `cli.run` verdict
            and one run of the reference loop per sample, alternating which
            goes first, cycling through the manifests.
  once    - one untraced verdict per manifest: the baseline a traced run
            is compared with.
  traced  - the same verdicts with every layer wrapped (see spans.py).

Prints one JSON object on the last line of stdout.  Imports cechchern
from `src/` of the current directory and refuses any other copy.
"""

from __future__ import annotations

import gc
import hashlib
import io
import json
import os
import resource
import sys
import time
from fractions import Fraction

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")


def reference_loop(n: int = 8000) -> Fraction:
    """Fixed stdlib work (Fraction arithmetic, as in the scalar layer), used
    as the yardstick that host-speed drift moves as much as a verdict."""
    acc = Fraction(0)
    x = Fraction(1, 3)
    for k in range(1, n):
        acc += Fraction(k, k + 1) * x
        x = x * Fraction(k + 2, k + 1) / 2 if k % 8 else Fraction(1, 3)
    return acc


def import_cli():
    sys.path.insert(0, SRC)
    import cechchern.cli as cli

    if not os.path.abspath(cli.__file__).startswith(os.path.join(SRC, "cechchern")):
        raise SystemExit(f"cechchern imported from {cli.__file__}, not from {SRC}")
    return cli


def verdict(cli, mode: str, manifest, artifact_path):
    """Exit code, report and artifact bytes of one CLI call, and its time."""
    out = io.StringIO()
    if artifact_path and os.path.exists(artifact_path):
        os.remove(artifact_path)
    t0 = time.perf_counter()
    try:
        code = cli.run(mode, manifest, output=artifact_path, json_report=True, out=out)
    except (cli.ManifestError, cli.ExprError, cli.CoverError):
        code = 2
    elapsed = time.perf_counter() - t0
    report = json.loads(out.getvalue()) if code != 2 else {}
    report.pop("elapsed_s", None)
    artifact = None
    if artifact_path and os.path.exists(artifact_path):
        with open(artifact_path, "rb") as fh:
            artifact = fh.read()
    return code, json.dumps(report, sort_keys=True), artifact, elapsed


def digest(data) -> str:
    if data is None:
        return ""
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def role_oracle(cfg):
    cli = import_cli()
    twin_codes = []
    for twin in cfg["twins"]:
        code, _, _, _ = verdict(cli, cfg["mode"], twin, None)
        twin_codes.append(code)
    expected = []
    if cfg["mode"] == "simplex":
        from cechchern.chern import tot_ch_simplex_via_ez
        from cechchern.manifest import Manifest
        from cechchern.serde import table_to_text
        from cechchern.simplicial import nondegenerate_generators

        for path in cfg["manifests"]:
            manifest = Manifest.load(path)
            data = manifest.path_data()
            level = manifest.max_level(None)
            table = {
                g: tot_ch_simplex_via_ez(data, g, level)
                for ell in range(data.n + 1)
                for g in nondegenerate_generators(data.n, ell)
            }
            expected.append(digest(table_to_text(table)))
    return {"twin_codes": twin_codes, "expected_artifacts": expected}


class Checker:
    """Compares every verdict with the known answer and with the first
    repetition of the same manifest (report and artifact bytes)."""

    def __init__(self, expected_artifacts):
        self.expected = expected_artifacts
        self.first = {}
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def check(self, idx, code, report, artifact):
        self.attempted += 1
        seen = self.first.setdefault(idx, (report, artifact))
        if code != 0:
            problem = f"exit {code}, expected 0"
        elif self.expected and digest(artifact) != self.expected[idx]:
            problem = "artifact differs from the EZ-route table"
        elif seen != (report, artifact):
            problem = "report or artifact differs from the first repetition"
        else:
            return
        self.failed += 1
        if len(self.problems) < 5:
            self.problems.append(f"manifest {idx}: {problem}")


def role_timed(cfg):
    cli = import_cli()
    mode, manifests = cfg["mode"], cfg["manifests"]
    artifact_path = cfg["artifact"]
    checker = Checker(cfg["expected_artifacts"])
    reference_value = reference_loop()
    samples = []
    budget = cfg["seconds"]
    start = time.perf_counter()
    i = 0
    while time.perf_counter() - start < budget:
        idx = i % len(manifests)
        gc.collect()
        if i % 2:
            code, report, artifact, v = verdict(cli, mode, manifests[idx], artifact_path)
            gc.collect()
            t0 = time.perf_counter()
            value = reference_loop()
            r = time.perf_counter() - t0
        else:
            t0 = time.perf_counter()
            value = reference_loop()
            r = time.perf_counter() - t0
            gc.collect()
            code, report, artifact, v = verdict(cli, mode, manifests[idx], artifact_path)
        if value != reference_value:
            raise SystemExit("reference loop gave a different value")
        checker.check(idx, code, report, artifact)
        samples.append([idx, v, r])
        i += 1
    return {
        "samples": samples,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "problems": checker.problems,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }


def _single_pass(cli, cfg):
    checker = Checker(cfg["expected_artifacts"])
    out = []
    for idx, path in enumerate(cfg["manifests"]):
        gc.collect()
        code, report, artifact, v = verdict(cli, cfg["mode"], path, cfg["artifact"])
        checker.check(idx, code, report, artifact)
        out.append({"code": code, "report": digest(report), "artifact": digest(artifact), "s": v})
    return out, checker


def role_once(cfg):
    cli = import_cli()
    runs, checker = _single_pass(cli, cfg)
    return {"runs": runs, "attempted": checker.attempted, "failed": checker.failed,
            "problems": checker.problems}


def role_traced(cfg):
    cli = import_cli()
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        runs, checker = _single_pass(cli, cfg)
    finally:
        tracer.uninstall()
    return {
        "runs": runs,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "problems": checker.problems,
        "metrics": tracer.metrics(),
        "layer_self_s": tracer.layer_self(),
        "run_spans_s": tracer.run_spans,
    }


ROLES = {"oracle": role_oracle, "timed": role_timed, "once": role_once, "traced": role_traced}


def main(argv):
    role, config = argv[1], argv[2]
    with open(config, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    result = ROLES[role](cfg)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
