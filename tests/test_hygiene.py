"""Package hygiene: no library assert statements, a loadable package root,
the names the benchmark imports, a CLI import without dataclasses, and no
public name that nothing uses."""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import cechchern

SRC = Path(cechchern.__file__).parent


def test_no_assert_statements_in_library():
    # python -O strips assert, so library invariants must raise explicitly
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert not found, found


def test_no_report_line_that_can_only_pass():
    # a line whose ok is the constant True compares nothing: every
    # Report.add of the library passes a computed verdict
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "add"
        and any(isinstance(arg, ast.Constant) and arg.value is True
                for arg in node.args[1:2] + [k.value for k in node.keywords if k.arg == "ok"])
    ]
    assert not found, found


def test_package_root_exports_resolve():
    for name in cechchern.__all__:
        assert getattr(cechchern, name) is not None, name


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_benchmark_imports_resolve():
    # the benchmark is run from outside the package: every name it takes
    # from cechchern must survive a refactor of the library
    missing = []
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        aliases = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("cechchern"):
                module = importlib.import_module(node.module)
                missing += [f"{path.name}: {node.module}.{a.name}"
                            for a in node.names if not hasattr(module, a.name)]
            elif isinstance(node, ast.Import):
                for a in node.names:
                    if a.name.startswith("cechchern"):
                        aliases[a.asname or a.name] = importlib.import_module(a.name)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in aliases
                    and not hasattr(aliases[node.value.id], node.attr)):
                missing.append(f"{path.name}: {node.value.id}.{node.attr}")
    assert not missing, missing


def test_cli_import_loads_no_dataclasses():
    # every CLI run is a fresh interpreter that pays for its imports: none
    # may pull in dataclasses or what it loads (inspect, dis, tokenize, ast)
    code = f"import sys; sys.path.insert(0, {str(SRC.parent)!r}); import cechchern.cli; print(*sys.modules)"
    loaded = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                            check=True).stdout.split()
    assert "cechchern.cli" in loaded
    assert not {"dataclasses", "inspect", "dis", "tokenize", "ast"} & set(loaded)


def test_cli_import_leaves_the_heuristic_gcd_unloaded():
    # only gcds of real numerators that no earlier shape settles load it,
    # so a run that takes none does not compile it
    code = f"import sys; sys.path.insert(0, {str(SRC.parent)!r}); import cechchern.cli; print(*sys.modules)"
    loaded = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                            check=True).stdout.split()
    assert "cechchern.poly" in loaded and "cechchern.heugcd" not in loaded


def test_one_immutability_guard():
    # value types subclass value.Value for their immutability instead of
    # each writing its own guard
    found = [
        f"{path.stem}.{cls.name}"
        for path in sorted(SRC.glob("*.py"))
        for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if (isinstance(node, ast.FunctionDef) and node.name == "__setattr__")
        or (isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__setattr__" for t in node.targets))
    ]
    assert found == ["value.Value"], found


def test_manifest_keeps_benchmark_methods():
    for name in ("load", "path_data", "max_level"):
        assert callable(getattr(cechchern.Manifest, name, None)), name



def test_one_collector():
    # every keyed sum of the arithmetic, form and Čech layers adds its terms
    # through the one collector in poly
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    defined = [name for name, tree in trees.items() for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef) and node.name == "collect"]
    assert defined == ["poly"], defined
    for name in ("poly", "forms", "cech"):
        nodes = list(ast.walk(trees[name]))
        assert any(isinstance(n, ast.Call) and getattr(n.func, "id", None) == "collect" for n in nodes), name
        if name != "poly":
            assert any(isinstance(n, ast.ImportFrom) and n.module == "poly"
                       and "collect" in [a.name for a in n.names] for n in nodes), name


def test_arithmetic_takes_operands_of_its_own_type():
    # constants enter at the edges (const, from_poly, variable, the parser);
    # no arithmetic operator coerces or reflects a mixed-type operand
    banned = {"_coerce", "__radd__", "__rsub__", "__rmul__", "__rtruediv__"}
    for name in ("poly", "ratfunc", "linalg"):
        defined = set()
        for node in ast.walk(ast.parse((SRC / f"{name}.py").read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef):
                defined.add(node.name)
            elif isinstance(node, ast.Assign):
                defined.update(t.id for t in node.targets if isinstance(t, ast.Name))
        assert not defined & banned, (name, sorted(defined & banned))


def test_one_word_evaluator():
    # every trace word is evaluated by chern._word_trace; the universal Chern
    # form is the only other trace, of the symbolic group matrices
    callers = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef):
                for node in ast.walk(fn):
                    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                            and node.func.attr == "trace"):
                        callers.append(f"{path.stem}.{fn.name}")
    assert sorted(callers) == ["bg.universal_chern", "chern._word_trace"], callers


def test_ez_route_reads_no_nabla_memo():
    # the EZ route cross-checks the closed formula: it passes no memo to the
    # word evaluator they share and names nothing of the closed route, whose
    # memo is a local of each call, never state on the data both routes read
    tree = ast.parse((SRC / "chern.py").read_text(encoding="utf-8"))
    fns = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    ez = list(ast.walk(fns["tot_ch_simplex_via_ez"]))
    calls = [n for n in ez if isinstance(n, ast.Call) and getattr(n.func, "id", None) == "_word_trace"]
    assert calls and all(len(c.args) == 1 and not c.keywords for c in calls)
    names = {n.id for n in ez if isinstance(n, ast.Name)} | {n.attr for n in ez if isinstance(n, ast.Attribute)}
    closed = {"_nabla", "tot_ch_simplex", "tot_ch_table", "_simplex_word"}
    assert not names & closed and not [n for n in names if "memo" in n or "nablas" in n], sorted(names)
    for name in ("tot_ch_table", "tot_ch_simplex", "_simplex_word"):
        stores = [n.attr for n in ast.walk(fns[name]) if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)]
        assert not stores, (name, stores)


def test_one_matrix_type():
    # matrices of functions are degree-0 MatrixForms on their chart; no
    # second matrix type or conversion to one is left, not even in a comment
    found = [
        f"{path.name}: {name}"
        for path in sorted(SRC.glob("*.py"))
        for name in ("RFMatrix", "from_rfmatrix", "to_rfmatrix")
        if name in path.read_text(encoding="utf-8")
    ]
    assert not found, found


ROOT = Path(__file__).resolve().parent.parent


# Public names that no run of the program reaches but that stay, each with
# its reason; the first four only tests reach, the others tools or perfbench
KEPT_NAMES = {
    "NerveInstance": "acceptance 2's identity: the nerve of a cover, checked against boundary_sum",
    "boundary_sum": "acceptance 2's identity: the alternating face sum of a nerve instance",
    "text_to_cochain": "the README's promise that an artifact reads back to the cochain it prints",
    "d_coord": "the dz of a chart's coordinate, the form constructor that tests build forms with",
    "universal_chern": "tools/gcd_bench.py's workload; ROADMAP item 3 may call it, else item 10 moves it there",
    "matrix_group_chart": "tools/gcd_bench.py's workload; ROADMAP item 3 may call it, else item 10 moves it there",
    "tot_ch_simplex_via_ez": "the independent EZ/shuffle route that perfbench and acceptance 7 compare with",
}


def test_public_names_are_referenced():
    # a public class, function or method of the library that nothing names
    # outside its own definition in src, perfbench or tools is dead code, or
    # a test helper that belongs under tests; a method counts as named only
    # as an attribute, so a local variable of the same name does not keep it
    paths = sorted(SRC.glob("*.py"))
    for folder in ("perfbench", "tools"):
        paths += sorted((ROOT / folder).glob("*.py"))
    defs, refs = [], []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        methods = {id(node) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef) for node in cls.body}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if path.parent == SRC and not node.name.startswith("_"):
                    defs.append((path, node.name, id(node) in methods, node.lineno, node.end_lineno))
            elif isinstance(node, ast.Name):
                refs.append((path, node.lineno, node.id, False))
            elif isinstance(node, ast.Attribute):
                refs.append((path, node.lineno, node.attr, True))
            elif isinstance(node, ast.ImportFrom):
                refs += [(path, node.lineno, a.name, False) for a in node.names]
    unused = {
        name: f"{path.name}:{first} {name}"
        for path, name, method, first, last in defs
        if not any(ref == name and (attr or not method) and not (p == path and first <= line <= last)
                   for p, line, ref, attr in refs)
    }
    assert not unused.keys() - KEPT_NAMES.keys(), sorted(v for k, v in unused.items() if k not in KEPT_NAMES)
    # a kept name that is gone from the library leaves the list
    defined = {name for _, name, _, _, _ in defs}
    assert KEPT_NAMES.keys() <= defined, sorted(KEPT_NAMES.keys() - defined)


def test_scalars_is_an_edge_type():
    # GaussianRational is parsed and printed but does no arithmetic, and only
    # poly (make, const, terms) and the package root import it
    arithmetic = {f"__{op}__" for base in ("add", "sub", "mul", "truediv", "floordiv", "mod", "pow",
                                           "matmul", "divmod")
                  for op in (base, "r" + base, "i" + base)}
    arithmetic |= {"__neg__", "__pos__", "__abs__", "__invert__", "__bool__", "inverse"}
    tree = ast.parse((SRC / "scalars.py").read_text(encoding="utf-8"))
    defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    defined |= {t.id for node in ast.walk(tree) if isinstance(node, ast.Assign)
                for t in node.targets if isinstance(t, ast.Name)}
    assert not defined & arithmetic, sorted(defined & arithmetic)
    importers = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [getattr(node, "module", None) or ""] + [a.name for a in node.names]
                if "scalars" in [name.split(".")[-1] for name in names]:
                    importers.add(path.stem)
    assert importers == {"__init__", "poly"}, sorted(importers)


def test_only_the_cli_calls_validate():
    # each input check runs where its data is built or in one validate();
    # cli.run is the only caller of a validate(), apart from the two that
    # gather their parts' reports
    callers = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        scopes = [(f"{path.stem}.{node.name}", node) for node in tree.body if isinstance(node, ast.FunctionDef)]
        scopes += [(f"{path.stem}.{cls.name}.{node.name}", node) for cls in tree.body if isinstance(cls, ast.ClassDef)
                   for node in cls.body if isinstance(node, ast.FunctionDef)]
        for name, fn in scopes:
            callers += [name for node in ast.walk(fn) if isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute) and node.func.attr == "validate"]
    assert sorted(callers) == ["bg.EquivariantBundleData.validate", "chern.BundlePathData.validate", "cli.run"], callers


def test_one_cochain_type():
    # a component's u-power is its form degree, so a cochain stores forms
    # alone: no u-graded container or slice of one is left, not even in a
    # comment
    found = [
        f"{path.name}: {name}"
        for path in sorted(SRC.glob("*.py"))
        for name in ("UPolyCochain", ".slices", "_flatkey")
        if name in path.read_text(encoding="utf-8")
    ]
    assert not found, found


def test_ez_and_step_routes_cache_nothing():
    # the EZ route and the step-position route cross-check each other, so
    # neither memoizes across calls: no functools cache in their modules
    cached = {"lru_cache", "cache", "cached_property"}
    for name in ("simplicial", "fiber"):
        tree = ast.parse((SRC / f"{name}.py").read_text(encoding="utf-8"))
        found = [f"line {n.lineno}" for n in ast.walk(tree)
                 if isinstance(n, ast.Import) and any(a.name == "functools" for a in n.names)
                 or isinstance(n, ast.ImportFrom) and n.module == "functools"
                 or isinstance(n, ast.Name) and n.id in cached
                 or isinstance(n, ast.Attribute) and n.attr in cached]
        assert not found, (name, found)
