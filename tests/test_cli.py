"""Manifest ingestion, CLI modes, exit codes, output round-trips."""

import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from cechchern import Manifest, ManifestError, parse_expr
from cechchern.cli import laurent_coefficient, main, run
from cechchern.scalars import GaussianRational
from cechchern.serde import cochain_to_text, text_to_cochain
from cechchern.chern import tot_ch_vertex

FIXTURES = Path(__file__).parent / "fixtures"


def test_laurent_coefficient_oracle():
    f = parse_expr("3/z", ["z"])
    assert laurent_coefficient(f, "z", -1) == GaussianRational(3)
    g = parse_expr("(z^2 + 2)/(z^3 + z^4)", ["z"])
    # (2 + z^2) / (z^3 (1 + z)) = 2 z^-3 - 2 z^-2 + 3 z^-1 - ...
    assert laurent_coefficient(g, "z", -3) == GaussianRational(2)
    assert laurent_coefficient(g, "z", -2) == GaussianRational(-2)
    assert laurent_coefficient(g, "z", -1) == GaussianRational(3)
    assert laurent_coefficient(parse_expr("z^2", ["z"]), "z", -1) == GaussianRational(0)
    for text in ("w/z", "z/(z + w)"):
        with pytest.raises(ValueError, match="extra variables"):
            laurent_coefficient(parse_expr(text, ["z", "w"]), "z", -1)


def test_manifest_loads_and_builds():
    man = Manifest.load(str(FIXTURES / "o3_cp1.json"))
    data = man.vertex_data()
    assert data.rank == 1
    assert data.validate().ok
    cocycle = tot_ch_vertex(data)
    assert cocycle.component((0, 1), 1) is not None


def test_manifest_errors():
    with pytest.raises(ManifestError):
        Manifest.load(str(FIXTURES / "missing.json"))
    with pytest.raises(ManifestError):
        Manifest({"charts": [{"name": "U", "coordinates": ["z"]}]}).vertex_data()
    bad = {
        "charts": [{"name": "U", "coordinates": ["z"]}],
        "overlaps": [[0]],
        "bundle": {"rank": 1, "transitions": {"0,0": [["q + 1"]]}},
    }
    with pytest.raises(ManifestError):
        Manifest(bad).vertex_data()


def test_run_vertex_mode_and_artifact(tmp_path):
    out = io.StringIO()
    artifact = tmp_path / "cocycle.txt"
    code = run("vertex", str(FIXTURES / "o3_cp1.json"), output=str(artifact), out=out)
    assert code == 0
    text = out.getvalue()
    assert "vertex.delta_closed: PASS" in text
    assert "residue at z=0: 3" in text
    # artifact round-trips bit-exactly
    man = Manifest.load(str(FIXTURES / "o3_cp1.json"))
    cocycle = tot_ch_vertex(man.vertex_data())
    written = artifact.read_text()
    assert written == cochain_to_text(cocycle)
    assert text_to_cochain(written, man.cover) == cocycle


def test_run_vertex_broken_cocycle_exits_1():
    out = io.StringIO()
    code = run("vertex", str(FIXTURES / "broken_cocycle.json"), out=out)
    assert code == 1
    assert "(0, 1, 2)" in out.getvalue()


def test_run_simplex_square_iota_modes():
    for mode in ("simplex", "gamma", "iota", "square"):
        out = io.StringIO()
        code = run(mode, str(FIXTURES / "cstar_one_simplex.json"), out=out)
        assert code == 0, (mode, out.getvalue())


def test_gamma_artifact_roundtrips(tmp_path):
    from cechchern.bg import gamma
    from cechchern.cech import ProductLevelCover, UPolyCochain

    out = io.StringIO()
    artifact = tmp_path / "gamma.txt"
    code = run("gamma", str(FIXTURES / "cstar_one_simplex.json"), output=str(artifact), out=out)
    assert code == 0
    man = Manifest.load(str(FIXTURES / "cstar_one_simplex.json"))
    closed = UPolyCochain.from_even(gamma(man.path_data()))
    cover = ProductLevelCover(man.cover, 1)
    text = artifact.read_text()
    assert "((0,0),(0,1))" in text
    assert text_to_cochain(text, cover) == closed


def test_run_equivariant_modes():
    out = io.StringIO()
    code = run("equivariant", str(FIXTURES / "z2_equivariant.json"), out=out)
    assert code == 0
    assert "equivariant.positive_components_zero: PASS" in out.getvalue()
    out = io.StringIO()
    code = run("equivariant", str(FIXTURES / "z2_equivariant_control.json"), out=out)
    assert code == 1
    assert "nabla(phi_s)" in out.getvalue()
    assert "z^2" in out.getvalue()


def test_word_bound_zero_means_group_order():
    raw = json.loads((FIXTURES / "z2_equivariant.json").read_text())
    assert Manifest(raw).word_bound() is None
    raw["run"] = {"word_bound": 0}
    assert Manifest(raw).word_bound() is None
    raw["run"] = {"word_bound": "3"}
    assert Manifest(raw).word_bound() == 3


def test_run_selftest_mode():
    out = io.StringIO()
    code = run("selftest", None, out=out)
    assert code == 0
    text = out.getvalue()
    for name in (
        "selftest.boundary_squared",
        "selftest.shuffle_signs",
        "selftest.ez_aw",
        "selftest.bijection",
        "selftest.integration_identities",
    ):
        assert f"{name}: PASS" in text


def test_json_report_deterministic():
    first = io.StringIO()
    second = io.StringIO()
    run("vertex", str(FIXTURES / "o3_cp1.json"), json_report=True, out=first)
    run("vertex", str(FIXTURES / "o3_cp1.json"), json_report=True, out=second)
    a = json.loads(first.getvalue())
    b = json.loads(second.getvalue())
    a.pop("elapsed_s")
    b.pop("elapsed_s")
    assert a == b
    assert a["ok"] is True


def test_main_exit_codes(tmp_path, capsys):
    assert main(["--mode", "vertex", "--manifest", str(FIXTURES / "o3_cp1.json")]) == 0
    assert main(["--mode", "vertex", "--manifest", str(FIXTURES / "broken_cocycle.json")]) == 1
    assert main(["--mode", "vertex", "--manifest", str(tmp_path / "nope.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["--mode", "vertex", "--manifest", str(bad)]) == 2
    # missing change maps are a manifest defect: exit 2
    incomplete = json.loads((FIXTURES / "o3_cp1.json").read_text())
    incomplete.pop("change_maps")
    target = tmp_path / "incomplete.json"
    target.write_text(json.dumps(incomplete))
    assert main(["--mode", "vertex", "--manifest", str(target)]) == 2
    # malformed bundle sections exit 2 with a message naming the manifest
    deep = "(" * 3000 + "z" + ")" * 3000
    for section, value in (
        ("bundle", {"rank": 1, "transitions": {"a,b": [["z"]]}}),
        ("bundle", {"rank": "x", "transitions": {"0,1": [["z^3"]]}}),
        ("bundle", {"rank": 1, "transitions": {"0,7": [["z^3"]]}}),
        ("bundle", {"rank": 1, "transitions": {"0,1": [[deep]]}}),
        ("bundle", {"rank": 1, "transitions": {"0,1": [["(1+z)^3000"]]}}),
        ("bundle", {"rank": 1, "transitions": {"0,1": [["*".join(["(1+z)^256"] * 4)]]}}),
        ("run", {"max_level": "x"}),
        ("bundle", {"rank": 1, "transitions": [["z^3"]]}),
        ("run", 5),
    ):
        malformed = json.loads((FIXTURES / "o3_cp1.json").read_text())
        malformed[section] = value
        target = tmp_path / "malformed.json"
        target.write_text(json.dumps(malformed))
        capsys.readouterr()
        assert main(["--mode", "vertex", "--manifest", str(target)]) == 2, value
        assert str(target) in capsys.readouterr().err
    # a product whose degree would pass the parser's bound: six factors of
    # (1+z+w)^100 on a two-dimensional chart
    ident = {"w": "w", "z": "z"}
    plane = {
        "charts": [{"name": f"U{i}", "coordinates": ["w", "z"]} for i in range(2)],
        "overlaps": [[0, 1]],
        "change_maps": [{"chart": 0, "in_chart": 1, "exprs": ident}, {"chart": 1, "in_chart": 0, "exprs": ident}],
        "bundle": {"rank": 1, "transitions": {"0,1": [["*".join(["(1+z+w)^100"] * 6)]]}},
    }
    target = tmp_path / "plane.json"
    target.write_text(json.dumps(plane))
    capsys.readouterr()
    assert main(["--mode", "vertex", "--manifest", str(target)]) == 2
    err = capsys.readouterr().err
    assert str(target) in err and "exceeds 256" in err
    # connections sit on each level once 'levels' is given, never on both
    both = json.loads((FIXTURES / "cstar_one_simplex.json").read_text())
    both["bundle"]["connections"] = {"0": [[{"z": "1/z"}]]}
    target = tmp_path / "both.json"
    target.write_text(json.dumps(both))
    for mode in ("vertex", "simplex", "square"):
        capsys.readouterr()
        assert main(["--mode", mode, "--manifest", str(target)]) == 2, mode
        assert "connections on each level" in capsys.readouterr().err
    bound = json.loads((FIXTURES / "z2_equivariant.json").read_text())
    bound["run"] = {"word_bound": "x"}
    target = tmp_path / "bound.json"
    target.write_text(json.dumps(bound))
    assert main(["--mode", "equivariant", "--manifest", str(target)]) == 2
    # change maps that are degenerate or fail to invert each other are a
    # manifest defect: exit 2, never a failed theorem or a traceback
    for name, modes, edit in (
        ("o3_cp1", ["vertex"], lambda raw: raw["change_maps"][0]["exprs"].update(w="0")),
        ("o3_cp1", ["vertex"], lambda raw: raw["change_maps"][1]["exprs"].update(z="0")),
        ("cstar_one_simplex", ["vertex", "simplex", "square", "gamma", "iota"],
         lambda raw: raw["change_maps"][0]["exprs"].update(z="0")),
        ("cstar_one_simplex", ["vertex", "simplex", "square", "gamma", "iota"],
         lambda raw: raw["change_maps"][1]["exprs"].update(z="0")),
        ("o3_cp1", ["vertex"], lambda raw: raw["change_maps"][1]["exprs"].update(z="2/w")),
        ("o3_cp1", ["vertex"], lambda raw: raw.update(
            change_maps=[{"chart": 1, "in_chart": 0, "exprs": {"w": "0"}}])),
        ("o3_cp1", ["vertex"], lambda raw: (
            raw.update(change_maps=[{"chart": 1, "in_chart": 0, "exprs": {"w": "0"}}]),
            raw["bundle"].update(connections={"1": [[{"w": "1/w"}]]}))),
    ):
        degenerate = json.loads((FIXTURES / f"{name}.json").read_text())
        edit(degenerate)
        target = tmp_path / "degenerate.json"
        target.write_text(json.dumps(degenerate))
        for mode in modes:
            capsys.readouterr()
            assert main(["--mode", mode, "--manifest", str(target)]) == 2, (degenerate, mode)
            assert str(target) in capsys.readouterr().err
    # a chart index outside 0..n_charts-1 is rejected, never read from the end,
    # and one that is not an integer is never truncated to one
    for name, mode, edit in (
        ("o3_cp1", "vertex", lambda raw: raw["bundle"].update(connections={"-1": [[{"w": "1/w"}]]})),
        ("o3_cp1", "vertex", lambda raw: raw["change_maps"].append(
            {"chart": -1, "in_chart": 0, "exprs": {"w": "5/z"}})),
        ("cstar_one_simplex", "square", lambda raw: raw["bundle"]["intertwiners"]["1"].update({"-1": [["z"]]})),
        ("z2_equivariant", "equivariant", lambda raw: raw["group"]["lifts"]["s"].update({"-1": [["1"]]})),
        ("z2_equivariant", "equivariant", lambda raw: raw["group"]["action"]["s"].update({"-1": {"z": "z"}})),
        ("o3_cp1", "vertex", lambda raw: raw["change_maps"][0].update(chart=1.9)),
        ("o3_cp1", "vertex", lambda raw: raw["change_maps"][0].update(chart=True)),
        # the other integers of a manifest are read the same way
        ("o3_cp1", "vertex", lambda raw: raw["bundle"].update(rank=1.9)),
        ("o3_cp1", "vertex", lambda raw: raw["bundle"].update(rank=0)),
        ("o3_cp1", "vertex", lambda raw: raw.update(run={"max_level": 0.5})),
        ("o3_cp1", "vertex", lambda raw: raw.update(run={"max_level": -1})),
        ("z2_equivariant", "equivariant", lambda raw: raw.update(run={"word_bound": 1.5})),
        ("z2_equivariant", "equivariant", lambda raw: raw.update(run={"word_bound": -1})),
        ("cstar_one_simplex", "square", lambda raw: raw["bundle"]["intertwiners"].update({"-1": {"0": [["z^4"]], "1": [["z^2"]]}})),
        ("cstar_one_simplex", "square", lambda raw: raw["bundle"]["intertwiners"].update({"0": {"0": [["z^4"]], "1": [["z^2"]]}})),
        ("cstar_one_simplex", "square", lambda raw: raw["bundle"]["intertwiners"].update({"5": {"0": [["z^4"]], "1": [["z^2"]]}})),
    ):
        negative = json.loads((FIXTURES / f"{name}.json").read_text())
        edit(negative)
        target = tmp_path / "negative.json"
        target.write_text(json.dumps(negative))
        capsys.readouterr()
        assert main(["--mode", mode, "--manifest", str(target)]) == 2, (negative, mode)
        assert str(target) in capsys.readouterr().err
    # a negative cutoff on the command line is read like one in the manifest,
    # also by the mode that reads no manifest
    for name, mode in (("o3_cp1", "vertex"), ("cstar_one_simplex", "simplex"),
                       ("cstar_one_simplex", "iota"), ("cstar_one_simplex", "square"),
                       ("cstar_one_simplex", "gamma"), (None, "selftest")):
        capsys.readouterr()
        argv = ["--mode", mode, "--max-level", "-1"]
        if name:
            argv += ["--manifest", str(FIXTURES / f"{name}.json")]
        assert main(argv) == 2, mode
        assert "--max-level -1 is below 0" in capsys.readouterr().err, mode


def _structure_mutations():
    """Every non-root object/array node of three fixtures, each replaced by
    one of five malformed values."""

    def nodes(value, path=()):
        if isinstance(value, (dict, list)):
            if path:
                yield path
            items = value.items() if isinstance(value, dict) else enumerate(value)
            for key, child in items:
                yield from nodes(child, path + (key,))

    cases = []
    for name, mode in (("o3_cp1", "vertex"), ("cstar_one_simplex", "square"),
                       ("z2_equivariant", "equivariant")):
        raw = json.loads((FIXTURES / f"{name}.json").read_text())
        for path in nodes(raw):
            for value in ([], {}, 0, "x", None):
                label = "/".join(map(str, path)) + "=" + json.dumps(value)
                cases.append(pytest.param(name, mode, path, value, id=f"{name}:{label}"))
    return cases


STRUCTURE_MUTATIONS = _structure_mutations()


def test_structure_mutation_count():
    assert len(STRUCTURE_MUTATIONS) == 325


@pytest.mark.parametrize("name, mode, path, value", STRUCTURE_MUTATIONS)
def test_structure_mutations_exit_0_or_2(tmp_path, capsys, name, mode, path, value):
    # a malformed structure is a manifest defect (exit 2), never a traceback
    # and never a failed theorem (exit 1)
    raw = json.loads((FIXTURES / f"{name}.json").read_text())
    parent = raw
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    target = tmp_path / "mutated.json"
    target.write_text(json.dumps(raw))
    code = main(["--mode", mode, "--manifest", str(target)])
    assert code in (0, 2), capsys.readouterr().out
    if code == 2:
        assert str(target) in capsys.readouterr().err


GOLDEN = FIXTURES / "golden"


def _golden_id(mode, name, level):
    return "-".join([mode] + ([name] if name else []) + ([f"max{level}"] if level is not None else []))


@pytest.mark.parametrize(
    "mode, name, level, code",
    [pytest.param(mode, name, level, code, id=_golden_id(mode, name, level))
     for mode, name, level, code in (
         ("vertex", "o3_cp1", None, 0), ("simplex", "cstar_one_simplex", None, 0),
         ("gamma", "cstar_one_simplex", None, 0), ("iota", "cstar_one_simplex", None, 0),
         ("square", "cstar_one_simplex", None, 0), ("equivariant", "z2_equivariant", None, 0),
         ("equivariant", "z2_equivariant_control", None, 1), ("selftest", None, None, 0),
         # a cutoff below the top Čech degree checks the table only up to it
         ("simplex", "cstar_one_simplex", 0, 0), ("iota", "cstar_one_simplex", 0, 0),
         # the first (valid, twin) pair of seed 1 of each benchmark workload
         ("simplex", "simplex_gl2", None, 0), ("simplex", "simplex_gl2_twin", None, 1),
         ("square", "square_rat", None, 0), ("square", "square_rat_twin", None, 1),
         ("equivariant", "equivariant_z2", None, 0), ("equivariant", "equivariant_z2_twin", None, 1))],
)
def test_golden_artifacts(tmp_path, mode, name, level, code):
    # square, equivariant and selftest write no artifact: only the report is pinned
    out = io.StringIO()
    artifact = tmp_path / "artifact.txt"
    manifest = str(FIXTURES / f"{name}.json") if name else None
    assert run(mode, manifest, max_level=level, output=str(artifact), out=out) == code
    report = "".join(
        line for line in out.getvalue().splitlines(keepends=True)
        if not line.startswith("elapsed:")
    )
    stem = _golden_id(mode, name, level).replace("-", "_")
    assert report == (GOLDEN / f"{stem}.report.txt").read_text()
    golden_artifact = GOLDEN / f"{stem}.artifact.txt"
    if golden_artifact.exists():
        assert artifact.read_bytes() == golden_artifact.read_bytes()
    else:
        assert not artifact.exists()


def test_serde_multicoordinate_roundtrip():
    from cechchern.cech import CechCochain, Cover, UPolyCochain
    from cechchern.forms import Chart, HoloForm

    chart = Chart("P", ("z", "w"))
    cover = Cover([chart], [(0,)])
    mixed = HoloForm(
        chart,
        {
            (): parse_expr("1/2", []),
            (0,): parse_expr("(z + w)/(z*w)", ["z", "w"]),
            (0, 1): parse_expr("3*i*z^2", ["z"]),
        },
    )
    coc = UPolyCochain(
        cover,
        {2: CechCochain(cover, {(0,): HoloForm(chart, {(0, 1): mixed.coefficient((0, 1))})}),
         1: CechCochain(cover, {(0,): HoloForm(chart, {(0,): mixed.coefficient((0,))})}),
         0: CechCochain(cover, {(0,): HoloForm(chart, {(): mixed.coefficient(())})})},
    )
    text = cochain_to_text(coc)
    assert "dz^dw" in text
    assert text_to_cochain(text, cover) == coc


def test_max_level_override():
    out = io.StringIO()
    # with max level 0 only the rank components exist; still closed
    code = run("vertex", str(FIXTURES / "o3_cp1.json"), max_level=0, out=out)
    assert code == 0
    man = Manifest.load(str(FIXTURES / "o3_cp1.json"))
    cocycle = tot_ch_vertex(man.vertex_data(), 0)
    assert sorted(cocycle.slices) == [0]
    assert all(len(t) == 1 for t in cocycle.slices[0].components)


def test_console_entrypoint():
    proc = subprocess.run(
        [sys.executable, "-m", "cechchern.cli", "--mode", "vertex",
         "--manifest", str(FIXTURES / "o3_cp1.json")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "overall: PASS" in proc.stdout
