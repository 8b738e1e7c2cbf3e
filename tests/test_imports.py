"""Checks on the library's import lists."""

import ast
from pathlib import Path

import pytest

LIBRARY = Path(__file__).resolve().parent.parent / "src" / "cfgame"


def unused_imports(source):
    """Names a module binds by import and never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


@pytest.mark.parametrize("module", sorted(p.name for p in LIBRARY.glob("*.py")))
def test_library_module_reads_every_name_it_imports(module):
    assert unused_imports((LIBRARY / module).read_text()) == []


def test_unused_imports_finds_a_name_never_read():
    source = "import os, sys\nfrom json import dumps as d, loads\nprint(sys.argv, d)\n"
    assert unused_imports(source) == [(1, "os"), (2, "loads")]
