"""Record the synth-pf expected languages from the current library.

    python3 perfbench/record_synth_expected.py

Writes synth_expected.json: for each game seed, the minimal DFA of the
pruned weakly dominant choice that synthesize_weakly_dominant returns.
Run it only when a change to the synthesized languages is intended.
"""

import json
import os
import sys

import workloads

sys.path.insert(0, os.path.join(os.path.dirname(workloads.HERE), "src"))

from cfgame.automata import minimize  # noqa: E402
from cfgame.generators import random_game  # noqa: E402
from cfgame.synthesis import synthesize_weakly_dominant  # noqa: E402


def dfa_to_json(dfa):
    return {
        "alphabet": list(dfa.alphabet),
        "initial": dfa.initial,
        "accepting": sorted(dfa.accepting),
        "transitions": [[q, a, t] for (q, a), t in sorted(dfa.transitions.items())],
    }


def main():
    expected = {}
    for seed in workloads.synth_seeds("full"):
        strategy = synthesize_weakly_dominant(random_game(workloads.SYNTH_PARAMS, seed))
        expected[str(seed)] = dfa_to_json(minimize(strategy.pruned))
    lines = ['"%s": %s' % (seed, json.dumps(dfa, sort_keys=True)) for seed, dfa in expected.items()]
    with open(workloads.SYNTH_EXPECTED, "w") as handle:
        handle.write("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    main()
