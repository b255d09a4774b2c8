"""The package's imports, checked with ast in place of a linter."""

from __future__ import annotations

import ast
from pathlib import Path

import cubisect

SRC = Path(cubisect.__file__).parent


def _imported(tree: ast.Module) -> list[str]:
    """The names a module's imports bind, those of __future__ aside."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names += [alias.asname or alias.name.split(".")[0] for alias in node.names]
    return names


def test_every_import_is_exported_or_read():
    init = ast.parse((SRC / "__init__.py").read_text())
    assert sorted(cubisect.__all__) == sorted(_imported(init))
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        if path.name == "__init__.py":
            read |= set(cubisect.__all__)
        unused = set(_imported(tree)) - read
        assert not unused, (path.name, sorted(unused))
