"""The traced benchmark run wraps library functions by module and name.

perfbench/tracing.py lists them; a rename in the library would make
`perfbench/run.py --trace 1` fail, so every listed name is resolved here,
and the Relations fields it counts are read.
The tracing module imports only the standard library and is loaded by
path.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from cfgame.analysis import compute_relations
from cfgame.fixtures import fixture

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)


@pytest.mark.parametrize(
    "module, attr", [(m, a) for m, a, _, _ in tracing.FUNCTIONS]
)
def test_traced_function_resolves(module, attr):
    assert callable(getattr(importlib.import_module("cfgame." + module), attr))


@pytest.mark.parametrize(
    "module, attr", [(m, a) for m, a, _, _ in tracing.CONSTRUCTORS]
)
def test_traced_constructor_resolves(module, attr):
    assert isinstance(getattr(importlib.import_module("cfgame." + module), attr), type)


def test_relations_counts_read_the_relations_fields():
    # the traced run counts pairs and facts off the Relations fields
    # pairs, move, next_rel and inf; a rename would break it
    fx = fixture("g2-regular-not-sreg")
    rel = compute_relations(fx.game, fx.strategies["read-all"])
    counts = tracing._relations_counts((rel,), None)
    assert counts["analysis.relations.pairs"] == len(rel.pairs) > 0
    assert counts["analysis.relations.facts"] > 0
