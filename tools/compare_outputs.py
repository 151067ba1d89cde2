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
`main` is recorded as its type and message.

The same child also parses a seeded corpus of 1 200 expressions over a, b,
c, w and z (`corpus`) and records `rf_str` of each value, or the
`ExprError` text with its position: random trees of + - * / ^, runs of
Laurent monomials as the manifests write them, and runs of powers near the
degree, term and bit bounds, each followed by a corrupted twin with a token
dropped, an exponent past MAX_DEGREE or a literal past MAX_POWER_BITS, so
that the parser's error paths, which the manifests barely reach, are
compared too.

The first 20 differences are printed in full; then the report differences
are grouped by the lines found only in a and only in b, each group with its
count.  Exit status 1 on any difference, 0 otherwise.  Uses the standard
library only; reads `perfbench/` and writes only to the temporary directory.
"""

from __future__ import annotations

import json
import random
import re
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
VARIABLES = ["a", "b", "c", "w", "z"]
EXPRESSIONS = 600

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
from cechchern.exprparse import ExprError, parse_expr
from cechchern.ratfunc import rf_str

jobs = json.load(sys.stdin)
results = []
for argv, artifact in jobs["runs"]:
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
parsed = []
for text in jobs["exprs"]:
    try:
        parsed.append(rf_str(parse_expr(text, jobs["variables"])))
    except ExprError as err:
        parsed.append(f"ExprError: {err}")
    except Exception as err:
        parsed.append("exception: " + "".join(traceback.format_exception_only(type(err), err)).strip())
real.write(json.dumps([results, parsed]))
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


# -- the parse corpus --------------------------------------------------------------


def draw(rng: random.Random, depth: int, big: bool = False) -> tuple:
    """A random expression over w and z as (text, level, tree): level 1 for
    a sum, 2 a product, 3 a unary, 4 a power and 5 an atom; a tree is
    ("int", n), ("i",), ("var", v), ("neg", t), ("^", t, n) or (op, a, b)
    for op in + - * /.  The text puts the parentheses its precedence needs,
    and now and then another pair, with blanks here and there.  With big,
    some literals run to thousands of bits and some exponents to 200."""

    def operand(level: int) -> tuple:
        text, at, tree = draw(rng, depth - 1, big)
        return (f"({text})" if at < level or rng.random() < 0.08 else text), tree

    blank = " " if rng.random() < 0.2 else ""
    r = rng.random()
    if depth <= 0 or r < 0.3:
        if rng.random() < 0.35:
            n = rng.randrange(2 ** rng.choice([64, 600, 2100, 4000])) if big and rng.random() < 0.2 else \
                rng.choice([0, 1, 1, 2, 3, 5, 12, 97, 1024])
            return str(n), 5, ("int", n)
        v = rng.choice("iwzwz")
        return v, 5, ("i",) if v == "i" else ("var", v)
    if r < 0.45:
        text, tree = operand(5)
        n = rng.choice([20, 60, 129, 200, -90]) if big and rng.random() < 0.15 else rng.choice([0, 1, 2, 3, -1, -2, -3])
        exponent = rng.choice([f"{n}", f"({n})", f"(+{n})" if n >= 0 else f"({n})", f"+{n}" if n >= 0 else f"{n}"])
        return f"{text}{blank}^{blank}{exponent}", 4, ("^", tree, n)
    if r < 0.55:
        signs = rng.choice(["-", "+", "--", "-+"])
        text, tree = operand(3)
        return signs + blank + text, 3, ("neg", tree) if signs.count("-") % 2 else tree
    op = rng.choice("+-*/+*-")
    level = 1 if op in "+-" else 2
    (left, a), (right, b) = operand(level), operand(level + 1)
    return f"{left}{blank}{op}{blank}{right}", level, (op, a, b)


def laurent_run(rng: random.Random) -> str:
    """A run of signed Laurent monomials in w and z, as the manifests write them."""
    terms = []
    for t in range(rng.randint(1, 8)):
        factors = [str(rng.randint(0, 40))] if rng.random() < 0.7 else []
        factors += [rng.choice(["i", "i^3", "i^-1"])] if rng.random() < 0.2 else []
        for _ in range(rng.randint(0, 3)):
            v, e = rng.choice("wz"), rng.choice([1, 1, 2, 3, -1, -2, 0])
            factors.append(v if e == 1 else f"{v}^{e}" if e >= 0 or rng.random() < 0.5 else f"{v}^({e})")
        terms.append((rng.choice(["+ ", "- "]) if t else rng.choice(["", "-"])) + ("*".join(factors) or "1"))
    return " ".join(terms)


def bound_run(rng: random.Random) -> str:
    """A run of powers of small sums over a, b, c, w and z, near the bounds."""

    def operand(depth: int) -> str:
        if depth and rng.random() < 0.25:
            return f"({run(depth - 1)})"
        if rng.random() < 0.3:
            return rng.choice(VARIABLES + ["i", "7"]) + rng.choice(["", "^3", "^-2", "^0"])
        terms = rng.sample(VARIABLES + ["1", "2", "3*i"], rng.randint(2, 4))
        terms += [str(2 ** rng.choice([15, 16, 1000, 2047, 2048]))] if rng.random() < 0.2 else []
        n = rng.choice([0, 1, 2, 3, 20, 40, 90, 129, -20, -90])
        return f"({rng.choice([' + ', ' - ']).join(terms)})^{n if n >= 0 else f'({n})'}"

    def run(depth: int) -> str:
        ops = rng.choice(["+-", "*", "*/", "+"])
        return "".join([operand(depth)] + [rng.choice(ops) + operand(depth) for _ in range(rng.randint(1, 4))])

    return run(2)


def twin(rng: random.Random, text: str, kind: int) -> str:
    """text corrupted one way: kind 0 drops a token, 1 puts an exponent past
    MAX_DEGREE, 2 a literal past MAX_POWER_BITS."""
    tokens = [(m.start(), m.group()) for m in re.finditer(r"\d+|[A-Za-z_]\w*|\S", text)]
    if kind == 0:
        at, token = rng.choice(tokens)
        return text[:at] + text[at + len(token):]
    if kind == 1:
        at, token = rng.choice([t for t in tokens if t[1][0].isalnum()])
        if token.isdigit() and "^" in text[max(0, at - 3):at]:
            return text[:at] + str(rng.randint(257, 400)) + text[at + len(token):]
        return text[:at + len(token)] + f"^{rng.randint(257, 400)}" + text[at + len(token):]
    digits = [t for t in tokens if t[1].isdigit()]
    big = str(rng.randrange(2 ** 4096, 2 ** 4200))
    if not digits:
        return f"{big}*{text}"
    at, token = rng.choice(digits)
    return text[:at] + big + text[at + len(token):]


def corpus(seed: int = 1) -> list:
    """The seeded expressions every tree parses, each followed by its twin."""
    rng = random.Random(seed)
    texts = []
    for n in range(EXPRESSIONS):
        if n % 8 == 0:
            text = laurent_run(rng)
        elif n % 8 == 1:
            text = bound_run(rng)
        else:
            text = draw(rng, rng.randint(1, 5), big=n % 8 == 2)[0]
        texts += [text, twin(rng, text, n % 3)]
    return texts


def run_tree(tree: Path, argvs: list, exprs: list, out_dir: Path) -> tuple:
    out_dir.mkdir()
    runs = [[argv, str(out_dir / f"{n}.txt")] for n, argv in enumerate(argvs)]
    jobs = {"runs": runs, "exprs": exprs, "variables": VARIABLES}
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
        exprs = corpus()
        with ThreadPoolExecutor(2) as pool:
            (a, pa), (b, pb) = pool.map(lambda t: run_tree(t[0], argvs, exprs, work / t[1]),
                                        ((tree_a, "a"), (tree_b, "b")))
        diffs = [(f"parse_expr {text!r:.200}", "value", x, y) for text, x, y in zip(exprs, pa, pb) if x != y]
        for argv, ra, rb in zip(argvs, a, b):
            na, nb = normalized(ra, work), normalized(rb, work)
            for field, x, y in zip(("exit code", "report", "error", "artifact"), na, nb):
                if x != y:
                    diffs.append((" ".join(argv).replace(str(work), "<dir>"), field, x, y))
        artifacts = sum(1 for r in a if r[3] is not None)
    print(f"{len(argvs)} runs over {len(paths)} manifests, {artifacts} artifacts, "
          f"{len(exprs)} parsed expressions, {len(diffs)} differences")
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
