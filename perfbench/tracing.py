"""Span recorder for the traced run.

The recorder wraps public functions of each cfgame layer from outside the
library.  A function is patched at every module attribute it is bound to,
because modules import each other's functions by name: determinize, for
one, is looked up in analysis and online as well as in automata.  Class
constructors are patched on the class.  Each call records a span (name,
start, end, parent) and adds counts read off its arguments or result.
A span's self time is its duration minus that of its child spans.
"""

import sys
import time
from collections import Counter, defaultdict

DECISIONS = (
    "analysis.is_winning",
    "analysis.losing_nfa",
    "analysis.is_dominated",
    "analysis.exists_winning_sreg",
)


def _relations_counts(args, result):
    rel = args[0]
    facts = (
        sum(map(len, rel.move.values()))
        + sum(map(len, rel.next_rel.values()))
        + len(rel.inf)
    )
    return {"analysis.relations.pairs": len(rel.pairs), "analysis.relations.facts": facts}


def _instance_states(inst):
    return getattr(inst, "nfa", inst).n_states


# (module, attribute, span name, counts read off (args, result))
FUNCTIONS = [
    ("automata", "determinize", "automata.determinize",
     lambda a, r: {"automata.determinize.states_out": r.n_states}),
    ("automata", "minimize", "automata.minimize", None),
    ("automata", "subset_witness", "automata.subset_witness", None),
    ("automata", "compare_shortlex", "automata.compare_shortlex", None),
    ("analysis", "is_winning", "analysis.is_winning", None),
    ("analysis", "losing_nfa", "analysis.losing_nfa", None),
    ("analysis", "is_dominated", "analysis.is_dominated", None),
    ("analysis", "exists_winning_sreg", "analysis.exists_winning_sreg", None),
    ("analysis", "compute_relations", "analysis.compute_relations", None),
    ("play", "strongly_regular_automaton", "play.strongly_regular_automaton", None),
    ("synthesis", "effect_fixpoint", "synthesis.effect_fixpoint",
     lambda a, r: {"synthesis.effect_fixpoint.triples": len(r.triples())}),
    ("synthesis", "build_ne", "synthesis.build_ne",
     lambda a, r: {"synthesis.build_ne.subsets": len(r.subsets)}),
    ("online", "prune_weakly_dominant", "online.prune_weakly_dominant",
     lambda a, r: {"online.prune_weakly_dominant.states_in": _instance_states(a[0])}),
    ("synthesis", "build_top_automaton", "synthesis.build_top_automaton",
     lambda a, r: {"synthesis.build_top_automaton.states": r.dfa.n_states}),
    ("synthesis", "build_inducing_automaton", "synthesis.build_inducing_automaton", None),
    ("generators", "from_3sat", "generators.from_3sat", None),
    ("generators", "random_game", "generators.random_game", None),
    ("generators", "from_nfa_universality", "generators.from_nfa_universality", None),
]

CONSTRUCTORS = [
    ("analysis", "Relations", "analysis.relations", _relations_counts),
    ("games", "Game", "games.Game", None),
]


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.stack = []
        self.open = Counter()
        self.counts = defaultdict(float)

    def _wrap(self, name, fn, count):
        spans, stack, open_, counts = self.spans, self.stack, self.open, self.counts
        clock = time.perf_counter
        decision = name in DECISIONS

        def wrapper(*args, **kwargs):
            if decision and not any(open_[d] for d in DECISIONS):
                counts["analysis.decision_calls"] += 1
            if name == "analysis.compute_relations" and open_["analysis.exists_winning_sreg"]:
                counts["analysis.sreg.nodes"] += 1
            record = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            open_[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
                open_[name] -= 1
            counts[name + ".calls"] += 1
            if count is not None:
                for key, value in count(args, result).items():
                    counts[key] += value
            return result

        return wrapper

    def install(self, cf):
        """Patch the freshly imported cfgame modules held by cf."""
        loaded = [m for n, m in sys.modules.items() if n.split(".")[0] == "cfgame"]
        for module, attr, name, count in FUNCTIONS:
            original = getattr(getattr(cf, module), attr)
            wrapper = self._wrap(name, original, count)
            for mod in loaded:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
        for module, attr, name, count in CONSTRUCTORS:
            cls = getattr(getattr(cf, module), attr)
            cls.__init__ = self._wrap(name, cls.__init__, count)

    def self_times(self):
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name] += end - start - child[i]
        return out

    def root_time(self, first_span):
        """Time covered by top-level spans recorded from first_span on."""
        return sum(
            end - start
            for _, start, end, parent in self.spans[first_span:]
            if parent < 0
        )


# name, unit; the order is the order of BENCHMARK.json's per_layer list
PER_LAYER = [
    ("analysis.relations.builds", "count"),
    ("analysis.relations.self_s", "s"),
    ("analysis.relations.pairs", "count"),
    ("analysis.relations.facts", "count"),
    ("analysis.relations.reuse_ratio", "ratio"),
    ("analysis.is_winning.calls", "count"),
    ("analysis.is_winning.self_s", "s"),
    ("analysis.losing_nfa.calls", "count"),
    ("analysis.losing_nfa.self_s", "s"),
    ("analysis.is_dominated.calls", "count"),
    ("analysis.is_dominated.self_s", "s"),
    ("analysis.exists_winning_sreg.calls", "count"),
    ("analysis.exists_winning_sreg.self_s", "s"),
    ("analysis.sreg.nodes", "count"),
    ("play.strongly_regular_automaton.calls", "count"),
    ("play.strongly_regular_automaton.self_s", "s"),
    ("automata.determinize.calls", "count"),
    ("automata.determinize.self_s", "s"),
    ("automata.determinize.states_out", "count"),
    ("automata.minimize.calls", "count"),
    ("automata.minimize.self_s", "s"),
    ("automata.subset_witness.calls", "count"),
    ("automata.subset_witness.self_s", "s"),
    ("automata.compare_shortlex.calls", "count"),
    ("automata.compare_shortlex.self_s", "s"),
    ("synthesis.effect_fixpoint.self_s", "s"),
    ("synthesis.effect_fixpoint.triples", "count"),
    ("synthesis.build_ne.self_s", "s"),
    ("synthesis.build_ne.subsets", "count"),
    ("online.prune_weakly_dominant.calls", "count"),
    ("online.prune_weakly_dominant.self_s", "s"),
    ("online.prune_weakly_dominant.states_in", "count"),
    ("synthesis.build_top_automaton.self_s", "s"),
    ("synthesis.build_top_automaton.states", "count"),
    ("synthesis.build_inducing_automaton.calls", "count"),
    ("synthesis.build_inducing_automaton.self_s", "s"),
    ("generators.from_3sat.self_s", "s"),
    ("generators.random_game.self_s", "s"),
    ("generators.from_nfa_universality.self_s", "s"),
    ("games.Game.self_s", "s"),
    ("cli.import_s", "s"),
    ("cli.main_s", "s"),
    ("cli.process_s", "s"),
    ("trace.untraced_pass_s", "s"),
    ("trace.traced_pass_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.covered_frac", "ratio"),
]


def layer_metrics(tracer, extra):
    """Every PER_LAYER value: span self times, counts, then extra."""
    values = dict(tracer.counts)
    for name, seconds in tracer.self_times().items():
        values[name + ".self_s"] = seconds
    values["analysis.relations.builds"] = values.get("analysis.relations.calls", 0)
    builds = values["analysis.relations.builds"]
    values["analysis.relations.reuse_ratio"] = (
        values.get("analysis.decision_calls", 0) / builds if builds else 0.0
    )
    values.update(extra)
    out = {}
    for name, unit in PER_LAYER:
        value = values.get(name, 0)
        out[name] = {"value": int(value) if unit == "count" else value, "unit": unit}
    return out
