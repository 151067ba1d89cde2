"""Compare what the CLIs of two source trees print and write, run by run.

    python3 tools/compare_outputs.py <tree-a> <tree-b>

Each tree is the root of a checkout (a `src/cechchern` package inside).  The
runs are `selftest` plus every mode except selftest on every manifest, each
with `--max-level` left out, -1 (an unusable cutoff), 0 and 1.  The
manifests are the shipped ones (`manifests/`), the test fixtures
(`tests/fixtures/`) of tree a except those that copy a generated manifest
byte for byte, and the first three (valid, twin) pairs of seeds 1 and 2 of
each workload of `perfbench/gen.py`, all written to a temporary directory.

Every run goes through `cechchern.cli.main` of its tree, one child process
per tree.  Compared: the exit code, the report without its `elapsed` line,
the error message with the temporary directory replaced by `<dir>`, and the
bytes of the artifact written by `--output`.  An exception that escapes
`main` is recorded as its type and message.  The first 20 differences are
printed in full; then the report differences are grouped by the lines
found only in a and only in b, each group with its count.  Exit status 1
on any difference, 0 otherwise.  Uses the standard library only; reads
`perfbench/` and writes only to the temporary directory.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
MODES = ("vertex", "simplex", "gamma", "iota", "square", "equivariant")
MAX_LEVELS = (None, -1, 0, 1)
SEEDS = (1, 2)
PAIRS = 3

# Runs in the child: `cli.run` binds sys.stdout as a default argument at
# import time, so both streams are swapped for forwarding sinks before the
# package is imported.
CHILD = r"""
import io, json, sys, traceback

class Sink:
    def __init__(self):
        self.buf = io.StringIO()
    def write(self, text):
        return self.buf.write(text)
    def flush(self):
        pass
    def take(self):
        text, self.buf = self.buf.getvalue(), io.StringIO()
        return text

real = sys.stdout
sys.stdout, sys.stderr = Sink(), Sink()
from cechchern.cli import main

results = []
for argv, artifact in json.load(sys.stdin):
    try:
        code = main(argv + ["--output", artifact])
    except Exception as err:
        code = "exception: " + "".join(traceback.format_exception_only(type(err), err)).strip()
    try:
        with open(artifact, "rb") as fh:
            data = fh.read().decode("latin-1")
    except OSError:
        data = None
    results.append([code, sys.stdout.take(), sys.stderr.take(), data])
real.write(json.dumps(results))
"""


def manifests(tree_a: Path, work: Path) -> list:
    """Write the manifests to `work` and return their paths."""
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(REPO / "perfbench"))
    import gen

    generated = []
    for workload in gen.GENERATORS:
        for seed in SEEDS:
            for k, (valid, twin) in enumerate(gen.generate(workload, seed, PAIRS)):
                generated.append((f"{workload}-s{seed}-{k}.json", valid))
                generated.append((f"{workload}-s{seed}-{k}-twin.json", twin))
    copies = {data for _, data in generated}
    sources = [(f"shipped-{p.name}", p.read_bytes()) for p in sorted((tree_a / "manifests").glob("*.json"))]
    sources += [(f"fixture-{p.name}", p.read_bytes())
                for p in sorted((tree_a / "tests" / "fixtures").glob("*.json"))
                if p.read_bytes() not in copies]
    paths = []
    for name, data in sources + generated:
        paths.append(work / name)
        paths[-1].write_bytes(data)
    return paths


def run_tree(tree: Path, argvs: list, out_dir: Path) -> list:
    out_dir.mkdir()
    jobs = [[argv, str(out_dir / f"{n}.txt")] for n, argv in enumerate(argvs)]
    env = {"PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, "-c", CHILD], input=json.dumps(jobs), capture_output=True,
        text=True, env=env, cwd=out_dir,
    )
    if proc.returncode:
        raise SystemExit(f"{tree}: the child process failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def normalized(result: list, work: Path) -> tuple:
    code, out, err, artifact = result
    report = "".join(line for line in out.splitlines(keepends=True) if not line.startswith("elapsed:"))
    return code, report, err.replace(str(work), "<dir>"), artifact


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    tree_a, tree_b = (Path(a).resolve() for a in args)
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        paths = manifests(tree_a, work)
        argvs = [["--mode", "selftest"]]
        for path in paths:
            for mode in MODES:
                for level in MAX_LEVELS:
                    extra = [] if level is None else ["--max-level", str(level)]
                    argvs.append(["--mode", mode, "--manifest", str(path)] + extra)
        with ThreadPoolExecutor(2) as pool:
            a, b = pool.map(lambda t: run_tree(t[0], argvs, work / t[1]), ((tree_a, "a"), (tree_b, "b")))
        diffs = []
        for argv, ra, rb in zip(argvs, a, b):
            na, nb = normalized(ra, work), normalized(rb, work)
            for field, x, y in zip(("exit code", "report", "error", "artifact"), na, nb):
                if x != y:
                    diffs.append((" ".join(argv).replace(str(work), "<dir>"), field, x, y))
        artifacts = sum(1 for r in a if r[3] is not None)
    print(f"{len(argvs)} runs over {len(paths)} manifests, {artifacts} artifacts, {len(diffs)} differences")
    for run, field, x, y in diffs[:20]:
        print(f"{run}: {field}\n  a: {x!r:.300}\n  b: {y!r:.300}")
    groups = Counter()
    for _, field, x, y in diffs:
        if field == "report":
            a_lines, b_lines = Counter(x.splitlines()), Counter(y.splitlines())
            groups[tuple((a_lines - b_lines).elements()), tuple((b_lines - a_lines).elements())] += 1
    for (only_a, only_b), count in groups.most_common():
        print(f"{count} report differences with these lines only in a (-) and only in b (+):")
        print("".join(f"  - {line}\n" for line in only_a) + "".join(f"  + {line}\n" for line in only_b), end="")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
