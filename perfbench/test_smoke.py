"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that BENCHMARK.json names what the harness prints, that both modes
of every workload run and print their metrics, and that the correctness
checks catch wrong answers.
"""

import json
import os
import subprocess
import sys
from types import SimpleNamespace

import pytest

import run
import tracing
import workloads

BENCHMARK = os.path.join(run.ROOT, "BENCHMARK.json")


def spec():
    with open(BENCHMARK) as handle:
        return json.load(handle)


def test_benchmark_json_matches_harness():
    data = spec()
    assert [w["name"] for w in data["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in data["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in data["per_layer"]] == tracing.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_modes_run_and_print_every_metric(name, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", name,
         "--seed", "3", "--seconds", "0.2", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = spec()["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }


class Sabotage:
    """Stands in for the tracer: patches one library call to answer wrongly."""

    def __init__(self, module, attr, wrong):
        self.module, self.attr, self.wrong = module, attr, wrong

    def install(self, cf):
        original = getattr(getattr(cf, self.module), self.attr)
        setattr(getattr(cf, self.module), self.attr, lambda *a: self.wrong(original(*a)))


def _complemented(strategy):
    d = strategy.pruned
    strategy.pruned = type(d)(
        d.n_states, d.alphabet, d.transitions, d.initial,
        set(range(d.n_states)) - d.accepting,
    )
    return strategy


@pytest.mark.parametrize("name, sabotage", [
    ("sreg-3sat", Sabotage("analysis", "exists_winning_sreg", lambda r: None)),
    ("synth-pf", Sabotage("synthesis", "synthesize_weakly_dominant", _complemented)),
    ("decide-mix", Sabotage("analysis", "is_winning", lambda r: not r)),
    ("decide-mix", Sabotage("analysis", "is_dominated", lambda r: (not r[0], r[1]))),
])
def test_checks_count_wrong_answers(name, sabotage):
    args = SimpleNamespace(seed=3, size="tiny")
    workload, queries, _ = run.setup(workloads.WORKLOADS[name], args, sabotage)
    checked = run.Run(workload, queries)
    checked.one_pass()
    checked.check()
    assert checked.failed > 0


def test_cli_checks_read_exit_codes():
    args = SimpleNamespace(seed=3, size="tiny")
    workload, queries, _ = run.setup(workloads.CliCold, args)
    try:
        for query in queries:
            code, text = query.summarize(workload.run(query))
            assert query.check((code, text))
            if query.label != "classify":
                assert not query.check((1 - code, text))
    finally:
        workload.close()
