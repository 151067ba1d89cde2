"""Manifest ingestion, CLI modes, exit codes, output round-trips."""

import io
import json
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from cechchern import Manifest, ManifestError, cli, fiber, parse_expr, simplicial
from cechchern.cli import main, run
from cechchern.manifest import MAX_GROUP_WORDS, MAX_RANK
from cechchern.serde import cochain_to_text, text_to_cochain
from cechchern.bg import EquivariantBundleData
from cechchern.cech import CechCochain, CoverError
from cechchern.chern import tot_ch_vertex
from cechchern.forms import HoloForm

FIXTURES = Path(__file__).parent / "fixtures"


def test_manifest_loads_and_builds():
    man = Manifest.load(str(FIXTURES / "o3_cp1.json"))
    data = man.vertex_data()
    assert data.rank == 1
    assert data.validate().ok
    cocycle = tot_ch_vertex(data)
    assert cocycle.component((0, 1)) is not None


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


def test_vertex_and_path_builders_name_the_same_defect():
    chart = {"name": "U", "coordinates": ["z"]}
    for raw in (
        {"charts": [chart]},
        {"charts": [chart], "overlaps": [[0]], "bundle": {"rank": 0, "transitions": {}}},
        {"charts": [chart], "overlaps": [[0]],
         "bundle": {"rank": "two", "connections": {}, "levels": [{"transitions": {}}]}},
    ):
        messages = []
        for build in ("vertex_data", "path_data"):
            with pytest.raises(ManifestError) as err:
                getattr(Manifest(raw, source="m.json"), build)()
            messages.append(str(err.value))
        assert messages[0] == messages[1], messages
    assert messages[0].startswith("m.json: ") and "bundle rank" in messages[0]


def test_run_vertex_mode_and_artifact(tmp_path):
    out = io.StringIO()
    artifact = tmp_path / "cocycle.txt"
    code = run("vertex", str(FIXTURES / "o3_cp1.json"), output=str(artifact), out=out)
    assert code == 0
    text = out.getvalue()
    assert "vertex.delta_closed: PASS" in text
    # the pair component of O(3) is 3 dz/z: its residue is the 3
    written = artifact.read_text()
    assert "(0,1) | u^1 | ((3)/(z))*dz" in written.splitlines()
    # artifact round-trips bit-exactly
    man = Manifest.load(str(FIXTURES / "o3_cp1.json"))
    cocycle = tot_ch_vertex(man.vertex_data())
    assert written == cochain_to_text(cocycle)
    assert text_to_cochain(written, man.cover) == cocycle


def test_delta_closed_failure_names_a_tuple(monkeypatch):
    def doubled(data, level):
        # the cocycle with its first component doubled is no longer closed
        cocycle = tot_ch_vertex(data, level)
        t, v = cocycle.items()[0]
        return CechCochain(cocycle.cover, {**cocycle.components, t: v + v})

    monkeypatch.setattr(cli, "tot_ch_vertex", doubled)
    out = io.StringIO()
    assert run("vertex", str(FIXTURES / "o3_cp1.json"), out=out) == 1
    assert re.search(r"^vertex\.delta_closed: FAIL -- tuple \(0, 1\), u\^0: \(-1\)$", out.getvalue(), re.M), out.getvalue()


def test_chain_map_checks_vertex_cocycles(monkeypatch):
    real = cli.tot_ch_table

    def bumped(data, level):
        # the same 0-form on (0,) added to every vertex entry: e[0, 1] sees
        # only the difference of two vertices, which the bump leaves unchanged
        table = real(data, level)
        bump = CechCochain(data.cover, {(0,): HoloForm.constant(data.cover.charts[0], 1)})
        return {g: c + bump if g.dim == 0 else c for g, c in table.items()}

    monkeypatch.setattr(cli, "tot_ch_table", bumped)
    out = io.StringIO()
    assert run("simplex", str(FIXTURES / "cstar_one_simplex.json"), out=out) == 1
    assert re.search(r"^chain_map\.e\[0\]: FAIL -- tuple \(0, 1\), ", out.getvalue(), re.M), out.getvalue()
    assert "chain_map.e[0, 1]: PASS" in out.getvalue()


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
    from cechchern.cech import ProductLevelCover

    out = io.StringIO()
    artifact = tmp_path / "gamma.txt"
    code = run("gamma", str(FIXTURES / "cstar_one_simplex.json"), output=str(artifact), out=out)
    assert code == 0
    man = Manifest.load(str(FIXTURES / "cstar_one_simplex.json"))
    closed = gamma(man.path_data())
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


def test_non_invariant_connection_computes_no_component(monkeypatch):
    # the run has failed at equivariant.connection_invariant, so no group
    # word is evaluated; the invariant fixture shows the spy sees them
    calls = []
    component = EquivariantBundleData.word_component

    def spy(self, word, i):
        calls.append((word, i))
        return component(self, word, i)

    monkeypatch.setattr(EquivariantBundleData, "word_component", spy)
    assert run("equivariant", str(FIXTURES / "z2_equivariant_control.json"), out=io.StringIO()) == 1
    assert calls == []
    assert run("equivariant", str(FIXTURES / "z2_equivariant.json"), out=io.StringIO()) == 0
    assert calls


def test_word_bound_zero_means_group_order():
    raw = json.loads((FIXTURES / "z2_equivariant.json").read_text())
    assert Manifest(raw).word_bound() is None
    raw["run"] = {"word_bound": 0}
    assert Manifest(raw).word_bound() is None
    raw["run"] = {"word_bound": "3"}
    assert Manifest(raw).word_bound() == 3
    # Z/2 spans one word per length: 4096 words fit the limit, 4097 do not
    raw["run"] = {"word_bound": MAX_GROUP_WORDS}
    assert Manifest(raw).word_bound() == 4096
    raw["run"] = {"word_bound": MAX_GROUP_WORDS + 1}
    with pytest.raises(ManifestError, match="order 2 with word bound 4097 spans more than 4096 words"):
        Manifest(raw).word_bound()


def cyclic_group_manifest(n):
    """Z/n acting trivially on one chart, with trivial lifts."""
    els = [f"g{k}" for k in range(n)]
    table = {f"{a},{b}": els[(i + j) % n] for i, a in enumerate(els) for j, b in enumerate(els)}
    return {
        "charts": [{"name": "M", "coordinates": ["z"]}],
        "overlaps": [[0]],
        "bundle": {"rank": 1, "connections": {"0": [[{"z": "z^-2 - 1"}]]}},
        "group": {"elements": els, "identity": "g0", "table": table,
                  "action": {g: {"0": {"z": "z"}} for g in els},
                  "lifts": {g: {"0": [["1"]]} for g in els}},
    }


def test_unbounded_enumerations_exit_2_at_once(tmp_path, capsys):
    # 30 charts in the one default overlap would declare 2^30 - 1 tuples
    charts = {"charts": [{"name": f"U{k}", "coordinates": []} for k in range(30)], "bundle": {"rank": 1}}
    # Z/3 up to length 30 spans 2^31 - 2 words; Z/12 up to its order, 11^12 + ...
    z3 = dict(cyclic_group_manifest(3), run={"word_bound": 30})
    for raw, mode, message in (
        (charts, "vertex", "declares more than 4096 tuples"),
        (z3, "equivariant", "order 3 with word bound 30 spans more than 4096 words"),
        (cyclic_group_manifest(12), "equivariant", "order 12 with word bound 12 spans more than 4096 words"),
    ):
        target = tmp_path / "unbounded.json"
        target.write_text(json.dumps(raw))
        capsys.readouterr()
        start = time.monotonic()
        assert main(["--mode", mode, "--manifest", str(target)]) == 2
        assert time.monotonic() - start < 1
        err = capsys.readouterr().err
        assert str(target) in err and message in err, err
    # a bound the limit allows still runs, and the trivial group spans no
    # words, so no bound makes it loop
    for n, bound in ((3, 3), (1, 10 ** 15)):
        target.write_text(json.dumps(dict(cyclic_group_manifest(n), run={"word_bound": bound})))
        start = time.monotonic()
        assert main(["--mode", "equivariant", "--manifest", str(target)]) == 0
        assert time.monotonic() - start < 1


def test_bundle_rank_is_bounded(tmp_path, capsys):
    # cofactor determinants cost factorially in the rank and a connection
    # quadratically: a dense rank-7 transition given one way, inverted at
    # load, and a bare rank of 40 000 on one chart are refused before
    # either is built
    def dense(rank):
        raw = json.loads((FIXTURES / "o3_cp1.json").read_text())
        grid = [["2" if r == c else "1" for c in range(rank)] for r in range(rank)]
        return dict(raw, bundle={"rank": rank, "transitions": {"0,1": grid}})

    bare = {"charts": [{"name": "U", "coordinates": ["z"]}], "bundle": {"rank": 40000}}
    target = tmp_path / "rank.json"
    for raw in (dense(7), bare):
        target.write_text(json.dumps(raw))
        capsys.readouterr()
        start = time.monotonic()
        assert main(["--mode", "vertex", "--manifest", str(target)]) == 2
        assert time.monotonic() - start < 1
        err = capsys.readouterr().err
        rank = raw["bundle"]["rank"]
        assert str(target) in err and f"bundle rank {rank} outside 1..{MAX_RANK}" in err, err
    # the same dense transition at rank 4 runs
    target.write_text(json.dumps(dense(4)))
    assert main(["--mode", "vertex", "--manifest", str(target)]) == 0


def test_oversized_constant_power_exits_2_located(tmp_path, capsys):
    # (3^100)^129 passes the degree bound, but its 6 155 digits are more
    # than Python prints: refused at its '^' before anything is computed
    raw = json.loads((FIXTURES / "o3_cp1.json").read_text())
    target = tmp_path / "big_power.json"
    for expr, code in (("(3^100)^129 + z^3", 2), ("(2^15)^256 + z^3", 0)):
        raw["bundle"]["transitions"] = {"0,1": [[expr]]}
        target.write_text(json.dumps(raw))
        capsys.readouterr()
        assert main(["--mode", "vertex", "--manifest", str(target), "--output", str(tmp_path / "f.txt")]) == code
        err = capsys.readouterr().err
        if code:
            assert str(target) in err and "exceeds 4096 (at position 7)" in err, err


def test_oversized_sum_of_fractions_exits_2_located(tmp_path, capsys):
    # each 1/(L + z) with a 1 201-digit literal L passes alone, but a sum
    # of four multiplies their denominators to more digits than Python
    # prints: refused at the first '+' between them
    raw = json.loads((FIXTURES / "o3_cp1.json").read_text())
    target = tmp_path / "big_sum.json"
    big = str(2 ** 4094)
    over = " + ".join(f"1/({str(k) * 1201} + z)" for k in range(1, 5))
    for expr, code in ((over, 2), (f"{big} + {big}*z^3", 0)):
        raw["bundle"]["transitions"] = {"0,1": [[expr]]}
        target.write_text(json.dumps(raw))
        for output in ([], ["--output", str(tmp_path / "f.txt")]):
            capsys.readouterr()
            assert main(["--mode", "vertex", "--manifest", str(target), *output]) == code
            err = capsys.readouterr().err
            if code:
                position = expr.index(") + ") + 2
                assert str(target) in err and f"at '+' exceed 4096 (at position {position})" in err, err


def test_oversized_constant_product_exits_2_located(tmp_path, capsys):
    # each 1 200-digit literal passes alone, but a product of two has more
    # digits than Python prints: refused at its '*' before anything is
    # multiplied out
    raw = json.loads((FIXTURES / "o3_cp1.json").read_text())
    target = tmp_path / "big_product.json"
    big, half = "7" * 1200, str(2 ** 2047)
    for expr, code in (("*".join([big] * 4) + " + z^3", 2), (f"{half}*{half} + z^3", 0)):
        raw["bundle"]["transitions"] = {"0,1": [[expr]]}
        target.write_text(json.dumps(raw))
        capsys.readouterr()
        assert main(["--mode", "vertex", "--manifest", str(target), "--output", str(tmp_path / "f.txt")]) == code
        err = capsys.readouterr().err
        if code:
            assert str(target) in err and "exceed 4096 (at position 1200)" in err, err


def test_long_coefficients_print_exactly(tmp_path, capsys):
    # a rank-4 transition of random 1 200-digit literals passes every
    # parser bound; its cocycle holds integers of more than the 4 300
    # digits str() prints, and the artifact must hold each one exactly
    rng = random.Random(4300)

    def literal():
        return str(rng.randrange(10 ** 1199, 10 ** 1200))

    raw = json.loads((FIXTURES / "o3_cp1.json").read_text())
    rows = [[f"{literal()}*z + {literal()}" if r == c else literal() for c in range(4)] for r in range(4)]
    raw["bundle"] = {"rank": 4, "transitions": {"0,1": rows}}
    target, artifact = tmp_path / "rank4.json", tmp_path / "rank4.txt"
    target.write_text(json.dumps(raw))
    for output in ([], ["--output", str(artifact)]):
        capsys.readouterr()
        assert main(["--mode", "vertex", "--manifest", str(target), *output]) == 0, capsys.readouterr().err
    text = artifact.read_text()
    cocycle = tot_ch_vertex(Manifest.load(str(target)).vertex_data())
    expected = set()
    for _, form in cocycle.items():
        for f in form.terms.values():
            for c in (*f.num.terms.values(), *f.den.terms.values()):
                expected.update((abs(c.re.numerator), c.re.denominator, abs(c.im.numerator), c.im.denominator))
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        digits = {str(n) for n in expected if n >= 10 ** 10}
        longest = max(map(len, digits))
    finally:
        sys.set_int_max_str_digits(limit)
    assert longest > 4300
    assert {found for found in re.findall(r"\d+", text) if len(found) > 10} == digits


def test_term_bound_exits_2_located(tmp_path, capsys):
    # (1+z)^99*(1+w)^99 has 100*100 terms, at the limit; one more term
    # passes it and is refused at the '+' before the sum is built
    from cechchern.exprparse import MAX_TERMS

    assert MAX_TERMS == 10000
    ident = {"w": "w", "z": "z"}
    plane = {
        "charts": [{"name": f"U{i}", "coordinates": ["w", "z"]} for i in range(2)],
        "overlaps": [[0, 1]],
        "change_maps": [{"chart": 0, "in_chart": 1, "exprs": ident}, {"chart": 1, "in_chart": 0, "exprs": ident}],
    }
    target = tmp_path / "terms.json"
    for expr, code in (("(1+z)^99*(1+w)^99 + 1", 2), ("(1+z)^99*(1+w)^99", 0)):
        plane["bundle"] = {"rank": 1, "transitions": {"0,1": [[expr]]}}
        target.write_text(json.dumps(plane))
        capsys.readouterr()
        assert main(["--mode", "vertex", "--manifest", str(target)]) == code
        err = capsys.readouterr().err
        if code:
            assert str(target) in err and "up to 10001 terms at '+' exceed 10000 (at position 18)" in err, err


def test_artifact_is_serialized_only_for_output(monkeypatch, tmp_path):
    # a run without --output builds no artifact text; with it, the bytes
    # are those of the serializer
    calls = []
    for name in ("cochain_to_text", "table_to_text"):
        real = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda x, real=real, name=name: calls.append(name) or real(x))
    for mode, fixture, serializer in (("vertex", "o3_cp1.json", "cochain_to_text"),
                                      ("gamma", "cstar_one_simplex.json", "cochain_to_text"),
                                      ("simplex", "cstar_one_simplex.json", "table_to_text"),
                                      ("iota", "cstar_one_simplex.json", "table_to_text")):
        calls.clear()
        assert run(mode, str(FIXTURES / fixture), out=io.StringIO()) == 0
        assert calls == [], mode
        artifact = tmp_path / f"{mode}.txt"
        assert run(mode, str(FIXTURES / fixture), output=str(artifact), out=io.StringIO()) == 0
        assert calls == [serializer] and artifact.stat().st_size > 0, (mode, calls)


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


def _selftest_failures():
    out = io.StringIO()
    code = run("selftest", None, json_report=True, out=out)
    return code, [c["name"] for c in json.loads(out.getvalue())["checks"] if not c["ok"]]


def test_selftest_checks_have_power(monkeypatch):
    # each check fails when the piece it checks is broken, so no memo or
    # fast path can have made it vacuous
    real_shuffles, real_ez, real_sign = simplicial.shuffles, cli.ez_map, fiber.step_sign

    def flipped_shuffles(p, q):
        out = real_shuffles(p, q)
        if (p, q) == (2, 1):
            mu, nu, sign = out[1]
            out[1] = (mu, nu, -sign)
        return out

    e01 = simplicial.Generator((0, 1), 1)

    def ez_missing_a_term(left, right):
        image = real_ez(left, right)
        if (left, right) == (e01, e01):
            first = next(iter(image))[0]
            image = simplicial.Chain({g: c for g, c in image.coeffs.items() if g != first})
        return image

    def ez_with_a_flipped_sign(left, right):
        image = real_ez(left, right)
        if (left, right) == (e01, e01):
            first = next(iter(image))[0]
            image = simplicial.Chain({g: -c if g == first else c for g, c in image.coeffs.items()})
        return image

    mutations = (
        ("selftest.shuffle_signs", [(simplicial, "shuffles", flipped_shuffles), (cli, "shuffles", flipped_shuffles)]),
        ("selftest.ez_aw", [(cli, "ez_map", ez_missing_a_term)]),
        ("selftest.ez_aw", [(cli, "ez_map", ez_with_a_flipped_sign)]),
        ("selftest.integration_identities", [(fiber, "step_sign", lambda steps: 1)]),
        ("selftest.integration_identities",
         [(fiber, "step_sign", lambda steps: -real_sign(steps) if steps == (1,) else real_sign(steps))]),
    )
    for check, patches in mutations:
        with monkeypatch.context() as m:
            for module, name, value in patches:
                m.setattr(module, name, value)
            code, failed = _selftest_failures()
        assert code == 1 and check in failed, (check, failed)
    assert _selftest_failures() == (0, [])


def test_selftest_takes_each_ez_image_once(monkeypatch):
    # 26 x 26 cell pairs of the simplices of dimension 0..3: one EZ map each
    calls = []
    real_ez = cli.ez_map
    monkeypatch.setattr(cli, "ez_map", lambda left, right: calls.append((left, right)) or real_ez(left, right))
    assert run("selftest", None, out=io.StringIO()) == 0
    assert len(calls) == len(set(calls)) <= 676, len(calls)


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
    # a singular transition cannot be inverted into the reverse direction:
    # exit 2 naming the manifest and the pair
    singular = json.loads((FIXTURES / "o3_cp1.json").read_text())
    singular["bundle"] = {"rank": 2, "transitions": {"0,1": [["z", "z"], ["1", "1"]]}}
    target = tmp_path / "singular.json"
    target.write_text(json.dumps(singular))
    capsys.readouterr()
    assert main(["--mode", "vertex", "--manifest", str(target)]) == 2
    err = capsys.readouterr().err
    assert str(target) in err and "transition (0,1) is singular" in err
    # a product whose degree would pass the parser's bound: six factors of
    # (1+z)^90 and (1+w)^90 on a two-dimensional chart, whose first product
    # stays within the term bound
    ident = {"w": "w", "z": "z"}
    plane = {
        "charts": [{"name": f"U{i}", "coordinates": ["w", "z"]} for i in range(2)],
        "overlaps": [[0, 1]],
        "change_maps": [{"chart": 0, "in_chart": 1, "exprs": ident}, {"chart": 1, "in_chart": 0, "exprs": ident}],
        "bundle": {"rank": 1, "transitions": {"0,1": [["*".join(["(1+z)^90", "(1+w)^90"] * 3)]]}},
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
        # a map that names a coordinate its chart lacks
        ("o3_cp1", ["vertex"], lambda raw: raw["change_maps"][0]["exprs"].update(q="5")),
        ("z2_equivariant", ["equivariant"], lambda raw: raw["group"]["action"]["s"]["0"].update(q="5")),
        ("o3_cp1", ["vertex"], lambda raw: raw.update(
            change_maps=[{"chart": 1, "in_chart": 0, "exprs": {"w": "0"}}])),
        ("o3_cp1", ["vertex"], lambda raw: (
            raw.update(change_maps=[{"chart": 1, "in_chart": 0, "exprs": {"w": "0"}}]),
            raw["bundle"].update(connections={"1": [[{"w": "1/w"}]]}))),
        # a group action is checked like a change map (a constant one pulls
        # the lift 1/(z-1) back to a pole), and each action or lift belongs
        # to an element of the group, which lists each element once
        ("z2_equivariant", ["equivariant"], lambda raw: (
            raw["group"]["action"]["s"]["0"].update(z="1"), raw["group"]["lifts"]["s"].update({"0": [["1/(z-1)"]]}))),
        ("z2_equivariant", ["equivariant"], lambda raw: raw["group"]["action"]["s"]["0"].update(z="0")),
        ("z2_equivariant", ["equivariant"], lambda raw: raw["group"].update(elements=["e", "s", "s"])),
        ("z2_equivariant", ["equivariant"], lambda raw: raw["group"]["action"].update(t={"0": {"z": "z"}})),
        ("z2_equivariant", ["equivariant"], lambda raw: raw["group"]["lifts"].update(t={"0": [["5"]]})),
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


GOLDEN_RUNS = [
    pytest.param(mode, name, level, code, id=_golden_id(mode, name, level))
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
        ("equivariant", "equivariant_z2", None, 0), ("equivariant", "equivariant_z2_twin", None, 1),
        # CP^2 on its three standard charts: monomial change maps, with
        # connections that send pullbacks down the monomial and the general
        # route of ChangeMap.pull
        ("vertex", "cp2_monomial", None, 0))
]


@pytest.mark.parametrize("mode, name, level, code", GOLDEN_RUNS)
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


@pytest.mark.parametrize("mode, name, level, code", GOLDEN_RUNS)
def test_report_has_one_line_per_check(mode, name, level, code):
    # every check is one `name: PASS|FAIL[ -- witness]` line, no witness
    # holds a report of its own, and one `overall:` line ends the report
    manifest = str(FIXTURES / f"{name}.json") if name else None
    text, payload = io.StringIO(), io.StringIO()
    assert run(mode, manifest, max_level=level, out=text) == code
    run(mode, manifest, max_level=level, json_report=True, out=payload)
    checks = json.loads(payload.getvalue())["checks"]
    lines = text.getvalue().splitlines()
    assert lines[-1].startswith("elapsed: ")
    assert lines[-2] == f"overall: {'PASS' if code == 0 else 'FAIL'}"
    assert len(lines) == len(checks) + 2
    for line, check in zip(lines, checks):
        assert "\n" not in check["witness"] and not check["name"].startswith("overall")
        witness = f" -- {check['witness']}" if check["witness"] else ""
        assert line == f"{check['name']}: {'PASS' if check['ok'] else 'FAIL'}{witness}"


def test_inverse_pairs_can_fail(tmp_path):
    # a pair given both ways is checked as g_ba * g_ab = 1, which also fails
    # when one side is singular: no separate invertibility line is needed
    raw = json.loads((FIXTURES / "o3_cp1.json").read_text())
    for bundle in ({"rank": 1, "transitions": {"0,1": [["z^3"]], "1,0": [["2/z^3"]]}},
                   {"rank": 2, "transitions": {"0,1": [["z", "z"], ["1", "1"]], "1,0": [["1", "0"], ["0", "1"]]}}):
        raw["bundle"] = bundle
        target = tmp_path / "pairs.json"
        target.write_text(json.dumps(raw))
        out = io.StringIO()
        assert run("vertex", str(target), json_report=True, out=out) == 1
        failures = [(c["name"], c["witness"]) for c in json.loads(out.getvalue())["checks"] if not c["ok"]]
        assert failures == [("bundle.inverse_pairs", "g_ba * g_ab != 1 at [(0, 1)]")], bundle


def test_overlaps_and_coordinates_are_read_strictly(tmp_path, capsys):
    # an overlap entry is a chart index like any other, and a decimal string
    # reads as its int; a chart's coordinates are a list of strings, never a
    # string split into letters
    def exit_code(edit, mode="vertex"):
        raw = json.loads((FIXTURES / "o3_cp1.json").read_text())
        edit(raw)
        target = tmp_path / "strict.json"
        target.write_text(json.dumps(raw))
        capsys.readouterr()
        code = main(["--mode", mode, "--manifest", str(target)])
        out, err = capsys.readouterr()
        return code, out.split("elapsed")[0], err.replace(str(target), "<manifest>")

    passing = exit_code(lambda raw: None)
    assert passing[0] == 0
    assert exit_code(lambda raw: raw.update(overlaps=[["0", "1"]])) == passing
    for overlaps, message in (([[False, True]], "overlap chart index False is not an integer"),
                              ([[0.0, 1.0]], "overlap chart index 0.0 is not an integer"),
                              ([["0", "x"]], "overlap chart index 'x' is not an integer"),
                              ([[0, 1.5]], "overlap chart index 1.5 is not an integer"),
                              ([[0, 2]], "overlap chart index 2 outside 0..1")):
        code, _, err = exit_code(lambda raw: raw.update(overlaps=overlaps))
        assert (code, err) == (2, f"error: <manifest>: {message}\n"), overlaps
    for overlaps in (5, [5], [[0, 1], "01"], {"0": [0, 1]}):
        code, _, err = exit_code(lambda raw: raw.update(overlaps=overlaps))
        assert (code, err) == (2, "error: <manifest>: overlaps must be a list of chart-index lists\n"), overlaps
    for coordinates in ("z", "zw", ["z", 1], {"z": 0}, None):
        code, _, err = exit_code(lambda raw: raw["charts"][0].update(coordinates=coordinates))
        assert (code, err) == (2, "error: <manifest>: coordinates of chart 'U0' must be a list of strings\n")


def test_misspelt_keys_exit_2_located(tmp_path, capsys):
    # each manifest object has a closed key set: a misspelt key is refused
    # by name and place, never ignored in favour of its default
    for name, mode, edit, message in (
        ("o3_cp1", "vertex", lambda raw: raw["bundle"].update(conections={}), "'conections' in bundle"),
        ("o3_cp1", "vertex", lambda raw: raw.update(run={"max_levl": 0}), "'max_levl' in run"),
        ("o3_cp1", "vertex", lambda raw: raw.update(overlap=[[0, 1]]), "'overlap' in the top level"),
        ("o3_cp1", "vertex", lambda raw: raw["charts"][1].update(coords=["w"]), "'coords' in charts[1]"),
        ("o3_cp1", "vertex", lambda raw: raw["change_maps"][0].update(expr={}), "'expr' in change_maps[0]"),
        ("cstar_one_simplex", "square", lambda raw: raw["bundle"]["levels"][1].update(intertwiners={}),
         "'intertwiners' in bundle.levels[1]"),
        ("z2_equivariant", "equivariant", lambda raw: raw["group"].update(lift={}), "'lift' in group"),
    ):
        raw = json.loads((FIXTURES / f"{name}.json").read_text())
        edit(raw)
        target = tmp_path / "misspelt.json"
        target.write_text(json.dumps(raw))
        capsys.readouterr()
        assert main(["--mode", mode, "--manifest", str(target)]) == 2, message
        assert capsys.readouterr().err == f"error: {target}: unknown key {message}\n"


def test_composition_checks_have_power(tmp_path, capsys):
    # the composition checks go through ChangeMap.pull: on CP^2 a monomial
    # map off by a constant breaks the cover (exit 2), and an action of
    # order 4 breaks the group law s*s = e (exit 1)
    raw = json.loads((FIXTURES / "cp2_monomial.json").read_text())
    raw["change_maps"][2]["exprs"]["v0"] = "2/u1"
    with pytest.raises(ManifestError) as err:
        Manifest(raw, source="m.json")
    assert isinstance(err.value.__cause__, CoverError)
    triples = "[(0, 1, 0), (1, 0, 1), (1, 0, 2), (1, 2, 0), (2, 1, 0)]"
    assert str(err.value) == f"m.json: inconsistent triples {triples}"
    target = tmp_path / "cp2.json"
    target.write_text(json.dumps(raw))
    capsys.readouterr()
    assert main(["--mode", "vertex", "--manifest", str(target)]) == 2
    assert capsys.readouterr().err == f"error: {target}: inconsistent triples {triples}\n"
    raw = json.loads((FIXTURES / "z2_equivariant.json").read_text())
    raw["group"]["action"]["s"]["0"]["z"] = "i*z"
    target.write_text(json.dumps(raw))
    out = io.StringIO()
    assert run("equivariant", str(target), json_report=True, out=out) == 1
    checks = {c["name"]: c for c in json.loads(out.getvalue())["checks"]}
    assert not checks["equivariant.action_composition"]["ok"]
    assert checks["equivariant.action_composition"]["witness"] == "violated at [('s', 's', 0)]"


def test_serde_multicoordinate_roundtrip():
    from cechchern.cech import CechCochain, Cover, CoverError
    from cechchern.forms import Chart, HoloForm

    chart = Chart("P", ("z", "w"))
    ident = {"z": parse_expr("z", ["z"]), "w": parse_expr("w", ["w"])}
    maps = {(a, b): ident for a in range(3) for b in range(3) if a != b}
    cover = Cover([chart] * 3, [(0, 1, 2)], maps)
    coc = CechCochain(cover, {
        (0,): HoloForm(chart, {(): parse_expr("1/2", [])}),
        (0, 1): HoloForm(chart, {(0,): parse_expr("(z + w)/(z*w)", ["z", "w"])}),
        (0, 1, 2): HoloForm(chart, {(0, 1): parse_expr("3*i*z^2", ["z"])}),
    })
    text = cochain_to_text(coc)
    assert "| u^2 | " in text and "dz^dw" in text
    assert text_to_cochain(text, cover) == coc
    # a line's u-power is its form's degree, and a tuple is given once
    with pytest.raises(ValueError, match=r"tuple \(0, 1\): u\^2 carries a 1-form"):
        text_to_cochain(text.replace("| u^1 |", "| u^2 |"), cover)
    with pytest.raises(ValueError, match=r"tuple \(0,\) is given twice"):
        text_to_cochain(text + text.splitlines()[0], cover)
    # a tuple the cover does not declare is refused as by the constructor
    with pytest.raises(CoverError, match=r"undeclared tuple \(0, 1, 2\)"):
        text_to_cochain(text, Cover([chart] * 3, [(0, 1), (1, 2)], maps))


def test_max_level_override():
    out = io.StringIO()
    # with max level 0 only the rank components exist; still closed
    code = run("vertex", str(FIXTURES / "o3_cp1.json"), max_level=0, out=out)
    assert code == 0
    man = Manifest.load(str(FIXTURES / "o3_cp1.json"))
    cocycle = tot_ch_vertex(man.vertex_data(), 0)
    assert {len(t) for t in cocycle.components} == {1}


def test_console_entrypoint():
    proc = subprocess.run(
        [sys.executable, "-m", "cechchern.cli", "--mode", "vertex",
         "--manifest", str(FIXTURES / "o3_cp1.json")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "overall: PASS" in proc.stdout
