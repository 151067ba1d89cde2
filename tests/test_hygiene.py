"""Package hygiene: no library assert statements, and a loadable package root."""

import ast
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
