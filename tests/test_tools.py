"""Benchmark tooling: tools/bench_pairs.py refuses trees it cannot time
fairly, and tools/compare_outputs.py runs every mode of the CLI."""

import importlib.util
from pathlib import Path

import pytest

from cechchern import cli

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("folder", ["src/cechchern", "perfbench"])
def test_bench_pairs_refuses_stale_bytecode(tmp_path, capsys, folder):
    tree = tmp_path / "tree"
    (tree / "perfbench").mkdir(parents=True)
    (tree / "perfbench" / "run.py").write_text("", encoding="utf-8")
    (tree / folder / "__pycache__").mkdir(parents=True)
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit) as exit_:
        _tool("bench_pairs").main([str(tree), str(tree), "--workload", "all", "--pairs", "1", "--out", str(out)])
    assert exit_.value.code == 2
    assert f"{tree / folder / '__pycache__'} holds bytecode" in capsys.readouterr().err
    assert not out.exists()


def test_compare_outputs_runs_every_mode():
    # selftest reads no manifest and runs once; every other mode runs on
    # every manifest, so a new mode cannot go uncompared
    assert _tool("compare_outputs").MODES == tuple(m for m in cli.MODES if m != "selftest")
