"""Benchmark of the cechchern CLI: seeded manifests, timed verdicts, known answers.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  Each run generates its manifests from the
seed (perfbench/gen.py, which does not import cechchern), checks the known
answers, then measures in one child process per role:

  --trace 0  end-to-end metrics: verdict time of `cechchern.cli.run` over a
             reference loop timed next to it (verdict_rel, verdict_rel_hi),
             import time of `cechchern.cli` in fresh interpreters (setup_s),
             and peak RSS of the child that ran the verdicts (peak_rss_mb).
  --trace 1  per-layer metrics from two traced child processes (spans.py),
             checked against each other and against an untraced pass.

The last line of stdout is the JSON result; the line before it holds the
diagnostics that are not gated (raw seconds, sample counts, fail_ratio).
Exit status 1 when a verdict or artifact differs from its known answer,
2 when the program under test is missing or a child process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gen  # noqa: E402

WORKLOADS = ("simplex-gl2", "square-rat", "equivariant-z2", "selftest")
SETUP_REPEATS = 7
CHILD_TIMEOUT_S = 150
WORK_DIR = ".perfbench_work"

# the reference loop's time on a quiet host of the baseline machine (2 cores,
# Python 3.11): setup_s is the import time in units of the reference loop,
# converted back to seconds of that host, so host-speed drift cancels
REF_NOMINAL_S = 0.076

# a fresh interpreter: time the import first, before anything else loads
# modules that cechchern.cli would import, then the reference loop
SETUP_CODE = (
    "import sys, time; sys.path.insert(0, 'src'); t0 = time.perf_counter(); "
    "import cechchern.cli; t1 = time.perf_counter(); "
    "sys.path.insert(0, 'perfbench'); from worker import reference_loop; "
    "t2 = time.perf_counter(); reference_loop(); print(t1 - t0, time.perf_counter() - t2)"
)


class BenchError(RuntimeError):
    pass


def child(role: str, cfg: dict, work: str) -> dict:
    path = os.path.join(work, f"{role}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh)
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), role, path],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"{role} child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_samples() -> list:
    """(import seconds, reference seconds) of fresh interpreters importing
    cechchern.cli; the first (which may compile bytecode) is discarded."""
    runs = []
    for _ in range(SETUP_REPEATS + 1):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise BenchError(f"import of cechchern.cli failed: {proc.stderr.strip()[-2000:]}")
        runs.append(tuple(float(x) for x in proc.stdout.split()))
    return runs[1:]


def write_pool(workload: str, seed: int, work: str) -> dict:
    """Manifest files for one run, and the base config of every child."""
    if workload == "selftest":
        return {"mode": "selftest", "manifests": [None], "twins": [],
                "artifact": None, "expected_artifacts": []}
    def write(name: str, data: bytes) -> str:
        path = os.path.join(work, name)
        with open(path, "wb") as fh:
            fh.write(data)
        return path

    mode, _ = gen.GENERATORS[workload]
    manifests, twins = [], []
    for k, (valid, twin) in enumerate(gen.generate(workload, seed)):
        manifests.append(write(f"m{k}.json", valid))
        twins.append(write(f"t{k}.json", twin))
    return {"mode": mode, "manifests": manifests, "twins": twins,
            "artifact": os.path.join(work, "artifact.txt"), "expected_artifacts": []}


class Tally:
    """Verdicts checked against known answers."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, attempted: int, failed: int, problems=()):
        self.attempted += attempted
        self.failed += failed
        self.problems.extend(problems)

    def expect(self, ok: bool, problem: str):
        self.add(1, 0 if ok else 1, () if ok else (problem,))


def inputs_unchanged(workload: str) -> bool:
    """The default-seed manifests still hash to the recorded digests."""
    if workload == "selftest":
        return True
    with open(os.path.join(HERE, "inputs.json"), "r", encoding="utf-8") as fh:
        recorded = json.load(fh)
    return gen.digests(workload) == recorded[workload]


def known_answers(cfg: dict, work: str, tally: Tally) -> dict:
    oracle = child("oracle", cfg, work)
    for k, code in enumerate(oracle["twin_codes"]):
        tally.expect(code == 1, f"corrupted twin {k} exited {code}, expected 1")
    return dict(cfg, expected_artifacts=oracle["expected_artifacts"])


def quartile_hi(values: list) -> float:
    # p75: at the sample counts of a run (>= 40 per run at the seed commit)
    # the highest percentile with at least ten samples beyond it
    return statistics.quantiles(values, n=4, method="inclusive")[2]


def timed_run(workload: str, seed: int, seconds: float, work: str, tally: Tally):
    setup = setup_samples()
    cfg = known_answers(write_pool(workload, seed, work), work, tally)
    timed = child("timed", dict(cfg, seconds=seconds), work)
    tally.add(timed["attempted"], timed["failed"], timed["problems"])
    samples = timed["samples"]
    rel = [v / r for _, v, r in samples]
    metrics = {
        "verdict_rel": {"value": statistics.median(rel), "unit": "ratio"},
        "verdict_rel_hi": {"value": quartile_hi(rel), "unit": "ratio"},
        "setup_s": {"value": statistics.median(i / r for i, r in setup) * REF_NOMINAL_S,
                    "unit": "s"},
        "peak_rss_mb": {"value": timed["peak_rss_kb"] / 1024.0, "unit": "MB"},
    }
    # raw times, not gated: they show the host drift that verdict_rel removes
    first_ref = [v / r for i, (_, v, r) in enumerate(samples) if i % 2 == 0]
    first_verdict = [v / r for i, (_, v, r) in enumerate(samples) if i % 2 == 1]
    diagnostics = {
        "samples": len(samples),
        "manifests": len(cfg["manifests"]),
        "verdict_s": statistics.median(v for _, v, _ in samples),
        "verdict_s_hi": quartile_hi([v for _, v, _ in samples]),
        "ref_s": statistics.median(r for _, _, r in samples),
        "verdict_rel_ref_first": statistics.median(first_ref),
        "verdict_rel_verdict_first": statistics.median(first_verdict) if first_verdict else None,
        "setup_import_s": statistics.median(i for i, _ in setup),
        "setup_ref_s": statistics.median(r for _, r in setup),
    }
    return metrics, diagnostics


def _is_count(name: str) -> bool:
    return not name.endswith("_s")


def traced_run(workload: str, seed: int, work: str, tally: Tally):
    cfg = known_answers(write_pool(workload, seed, work), work, tally)
    plain = child("once", cfg, work)
    tally.add(plain["attempted"], plain["failed"], plain["problems"])
    traced = [child("traced", cfg, work) for _ in range(2)]
    for t in traced:
        tally.add(t["attempted"], t["failed"], t["problems"])
        same = all(
            (a["code"], a["report"], a["artifact"]) == (b["code"], b["report"], b["artifact"])
            for a, b in zip(t["runs"], plain["runs"])
        )
        tally.expect(same, "a traced verdict or artifact differs from the untraced one")
        span = sum(t["run_spans_s"])
        accounted = sum(t["layer_self_s"].values())
        tally.expect(abs(span - accounted) <= 1e-6 * span,
                     f"layer self times add up to {accounted}, the cli.run spans to {span}")
    first, second = (t["metrics"] for t in traced)
    counts_equal = all(first[k] == second[k] for k in first if _is_count(k))
    tally.expect(counts_equal, "the two traced runs report different counts")
    metrics = {}
    for name in first:
        value = first[name] if _is_count(name) else (first[name] + second[name]) / 2
        metrics[name] = {"value": value, "unit": _unit(name)}
    untraced_s = sum(r["s"] for r in plain["runs"])
    traced_s = [sum(r["s"] for r in t["runs"]) for t in traced]
    verdict_s = [sum(t["run_spans_s"]) for t in traced]
    metrics["trace.verdict_s"] = {"value": sum(verdict_s) / 2, "unit": "s"}
    metrics["trace.overhead_ratio"] = {"value": sum(traced_s) / 2 / untraced_s, "unit": "ratio"}
    diagnostics = {
        "manifests": len(cfg["manifests"]),
        "untraced_verdict_s": untraced_s,
        "traced_verdict_s": traced_s,
        "counts_repeat": counts_equal,
    }
    return metrics, diagnostics


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bits"):
        return "bits"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def run_one(workload: str, seed: int, seconds: float, trace: bool, root: str) -> dict:
    work = os.path.join(root, WORK_DIR, f"{workload}-{seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    tally = Tally()
    tally.expect(inputs_unchanged(workload),
                 f"default-seed {workload} manifests differ from perfbench/inputs.json")
    try:
        if trace:
            metrics, diagnostics = traced_run(workload, seed, work, tally)
        else:
            metrics, diagnostics = timed_run(workload, seed, seconds, work, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.join(root, WORK_DIR))
        except OSError:
            pass  # another run still uses it, or it is already gone
    diagnostics.update(
        workload=workload,
        seed=seed,
        fail_ratio=tally.failed / tally.attempted,
        problems=tally.problems[:10],
    )
    return {
        "diagnostics": diagnostics,
        "result": {
            "correct": tally.failed == 0,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": metrics,
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "cechchern", "cli.py")):
        print("error: run from a checkout root that holds src/cechchern", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    correct = True
    for workload in workloads:
        try:
            out = run_one(workload, args.seed, args.seconds, bool(args.trace), root)
        except (BenchError, subprocess.TimeoutExpired) as err:
            print(f"error: {workload}: {err}", file=sys.stderr)
            return 2
        correct = correct and out["result"]["correct"]
        if args.workload == "all":
            for name, m in out["result"]["metrics"].items():
                print(f"{workload:16s} {name:28s} {m['value']:.6g} {m['unit']}")
            print(f"{workload:16s} {'fail_ratio':28s} {out['diagnostics']['fail_ratio']:.6g} ratio")
        else:
            print(json.dumps(out["diagnostics"], sort_keys=True))
            print(json.dumps(out["result"], sort_keys=True))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
