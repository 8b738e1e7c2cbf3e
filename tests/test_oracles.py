"""Checks on the oracle module itself."""

import ast
from pathlib import Path

# the only library names the oracles may use: plain data containers, the
# hat spelling of called symbols, and exception classes callers expect
ALLOWED_IMPORTS = {
    ("cfgame.automata", "Dfa"),
    ("cfgame.games", "hat"),
    ("cfgame.generators", "CnfFormula"),
    ("cfgame.analysis", "BudgetExceeded"),
    ("cfgame.online", "OnlineFormatError"),
}


def test_oracles_import_no_library_algorithms():
    source = Path(__file__).with_name("oracles.py").read_text()
    imported = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                assert alias.name.split(".")[0] != "cfgame", alias.name
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "relative import in oracles.py"
            if node.module.split(".")[0] == "cfgame":
                imported.update((node.module, alias.name) for alias in node.names)
    assert imported <= ALLOWED_IMPORTS, sorted(imported - ALLOWED_IMPORTS)
