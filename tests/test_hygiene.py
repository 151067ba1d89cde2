"""Package hygiene: no library assert statements, a loadable package root,
the names the benchmark imports, and no public name that nothing uses."""

import ast
import importlib
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


def test_public_names_are_referenced():
    # a public function or method of the library that nothing names outside
    # its own definition (in src, tests, perfbench or tools) is dead code
    paths = sorted(SRC.glob("*.py"))
    for folder in ("tests", "perfbench", "tools"):
        paths += sorted((ROOT / folder).glob("*.py"))
    defs, refs = [], []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef):
                if path.parent == SRC and not node.name.startswith("_"):
                    defs.append((path, node.name, node.lineno, node.end_lineno))
            elif isinstance(node, ast.Name):
                refs.append((path, node.lineno, node.id))
            elif isinstance(node, ast.Attribute):
                refs.append((path, node.lineno, node.attr))
            elif isinstance(node, ast.ImportFrom):
                refs += [(path, node.lineno, a.name) for a in node.names]
    unused = [
        f"{path.name}:{first} {name}"
        for path, name, first, last in defs
        if not any(ref == name and not (p == path and first <= line <= last) for p, line, ref in refs)
    ]
    assert not unused, unused
