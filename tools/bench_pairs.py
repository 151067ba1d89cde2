"""Run the benchmark on two source trees in alternating pairs and summarize.

    python3 tools/bench_pairs.py <parent-tree> <change-tree> --workload W \
        --pairs N --out FILE [--seed S] [--seconds T] [--trace 0|1]

Each tree is the root of a clean checkout (for example a `git archive` of a
commit unpacked into an empty directory) holding `perfbench/run.py`.  Pair k
runs `python3 perfbench/run.py --workload W --seed S --seconds T --trace X`
once in each tree, the parent first when k is even and the change first when
k is odd, so that a drift of the host over time does not favour one side.
Runs use PYTHONDONTWRITEBYTECODE=1, so the trees stay as clean as they came;
a tree that already holds a __pycache__ directory under src/ or perfbench/
is refused (exit 2), as stale bytecode would cut its setup_s.

FILE receives JSON: every run's metrics, and per workload and metric each
side's median and quartiles and how many pairs each side won.  For the
end-to-end metrics of the parent's BENCHMARK.json it also records the
relative change of the median, whether it stays within the bound, and
whether the change's gain would count (it wins at least nine pairs in ten
and the medians differ by more than the parent's interquartile range).
Uses the standard library only; writes nothing but FILE.
"""

from __future__ import annotations

import argparse
import glob
import json
import math
import os
import statistics
import subprocess
import sys

SIDES = ("parent", "change")


def run_bench(tree: str, args) -> dict:
    """One benchmark run in tree: {workload: {metric: value}} plus its exit code."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    metrics: dict = {}
    lines = proc.stdout.strip().splitlines()
    if args.workload == "all":
        # one "<workload> <metric> <value> <unit>" line per metric
        for line in lines:
            workload, name, value, _ = line.split()
            metrics.setdefault(workload, {})[name] = float(value)
    elif len(lines) >= 2:
        diagnostics, result = json.loads(lines[-2]), json.loads(lines[-1])
        metrics[args.workload] = {name: m["value"] for name, m in result["metrics"].items()}
        metrics[args.workload]["fail_ratio"] = diagnostics["fail_ratio"]
    return {"exit": proc.returncode, "metrics": metrics, "stderr": proc.stderr.strip()[-2000:]}


def quartiles(values: list) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: list, bench: dict) -> dict:
    """Per workload and metric: each side's values, median and quartiles,
    and the pairs won, from the runs in pair order."""
    better = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}
    end_to_end = {m["name"]: m for m in bench["end_to_end"]}
    out: dict = {}
    pairs = sorted({r["pair"] for r in runs})
    by = {(r["pair"], r["side"]): r["metrics"] for r in runs}
    workloads = sorted({w for r in runs for w in r["metrics"]})
    for workload in workloads:
        names = sorted({n for r in runs for n in r["metrics"].get(workload, {})})
        for name in names:
            values = {side: [by[(k, side)].get(workload, {}).get(name) for k in pairs] for side in SIDES}
            if any(v is None for side in SIDES for v in values[side]):
                continue
            lower = better.get(name, "lower") == "lower"
            wins = {"change": 0, "parent": 0, "tie": 0}
            for p, c in zip(values["parent"], values["change"]):
                if p == c:
                    wins["tie"] += 1
                else:
                    wins["change" if (c < p) == lower else "parent"] += 1
            entry = {side: dict(quartiles(values[side]), values=values[side]) for side in SIDES}
            entry["wins"] = wins
            if name in end_to_end:
                base, new = entry["parent"]["median"], entry["change"]["median"]
                worse = (new - base) if lower else (base - new)
                rel = worse / abs(base) if base else 0.0
                spread = entry["parent"]["q3"] - entry["parent"]["q1"]
                entry["worsening_rel"] = rel
                entry["within_bound"] = rel <= end_to_end[name]["bound"]
                entry["gain_counts"] = (wins["change"] >= math.ceil(0.9 * len(pairs))
                                        and -worse > spread)
            out.setdefault(workload, {})[name] = entry
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    trees = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    for tree in trees.values():
        if not os.path.isfile(os.path.join(tree, "perfbench", "run.py")):
            parser.error(f"{tree} holds no perfbench/run.py")
        stale = [path for top in ("src", "perfbench")
                 for path in glob.glob(os.path.join(tree, top, "**", "__pycache__"), recursive=True)]
        if stale:
            parser.error(f"{stale[0]} holds bytecode, which would cut setup_s: benchmark clean trees")
    with open(os.path.join(trees["parent"], "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        bench = json.load(fh)
    runs = []
    for k in range(args.pairs):
        for side in (SIDES if k % 2 == 0 else SIDES[::-1]):
            result = run_bench(trees[side], args)
            runs.append(dict(result, pair=k, side=side))
            print(f"pair {k} {side}: exit {result['exit']}", file=sys.stderr)
    record = {
        "settings": {"workload": args.workload, "pairs": args.pairs, "seed": args.seed,
                     "seconds": args.seconds, "trace": args.trace},
        "runs": runs,
        "summary": summarize(runs, bench),
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0 if all(r["exit"] == 0 for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
