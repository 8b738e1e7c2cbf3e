"""Synthesis of weakly dominant strategies for prefix-free games.

The bookkeeping object is the effect triple (p, a, states): with the
target automaton at p, calling a can be played out so that however the
opponent writes the reply, the target ends up inside the state set.
Trivial triples (delta(p, a) already inside) are realized by reading.
Non-trivial triples are admitted stratum by stratum; a triple admitted
at stratum k may call nested symbols using triples from strata below k
only, which bounds the call depth and keeps every play finite.

Admission is a safety analysis over pairs (set of possible target
states, state of the reply automaton on the raw symbols scanned so
far).  Reading advances both components by the scanned symbol; calling
advances the reply component by the called symbol while the target
component jumps into the called triple's state set.  Tracking the raw
symbol on calls is the point: the reply's membership in the replacement
language is a fact about what the opponent wrote, not about what it was
rewritten into.
"""

from collections import deque, namedtuple
from itertools import product as iter_product

from .automata import Dfa, Nfa, coaccessible_states
from .games import classify, hat
from .online import OnlineInstance, prune_weakly_dominant
from .play import GeneralStrategy


class SynthesisError(ValueError):
    """Synthesis preconditions are not met."""


EffectTriple = namedtuple("EffectTriple", ["p", "a", "states"])


def is_trivial(game, triple):
    return game.target.transitions[(triple.p, triple.a)] in triple.states


def _bitmask(states):
    return sum(1 << q for q in states)


class EffectSet:
    """Admitted effect triples of a game, with their strata.

    Trivial triples are implicit: for every state and symbol the read
    move realizes (p, a, {delta(p, a)}), so option lists always include
    it and the subset automaton below is total.
    """

    def __init__(self, game):
        self.game = game
        self.stored = {}    # (p, a) -> [frozenset, ...] in admission order
        self.stratum = {}   # (p, a, frozenset) -> int
        self.choice = {}    # (p, a, frozenset) -> scan choice map

    def triples(self):
        out = []
        for (p, a), sets in sorted(self.stored.items()):
            for s in sets:
                out.append(EffectTriple(p, a, s))
        return out

    def read_target(self, p, c):
        return self.game.target.transitions[(p, c)]

    def options(self, p, c, below=None):
        """Effect sets usable on symbol c at target state p: the read
        move plus stored triples, optionally only those admitted in
        strata below the given one."""
        opts = [frozenset([self.read_target(p, c)])]
        for s in self.stored.get((p, c), ()):
            if below is not None and self.stratum[(p, c, s)] >= below:
                continue
            opts.append(s)
        return opts

    def implied(self, p, a, s):
        if self.read_target(p, a) in s:
            return True
        return any(t <= s for t in self.stored.get((p, a), ()))

    def fitting(self, p, c, inside, below=None):
        """Smallest-bitmask usable effect set contained in the given
        state set, or None."""
        best = None
        for opt in self.options(p, c, below=below):
            if opt <= inside and (best is None or _bitmask(opt) < _bitmask(best)):
                best = opt
        return best


def _winning_scan(game, effects, p, a, target_states, below):
    """Choice map guaranteeing that scanning any reply to a drives the
    target from p into target_states, or None when no scan does.

    The map sends (possible target states, reply state, symbol) to the
    chosen next set of possible target states.
    """
    rdfa = game.replacement_dfa(a)
    live = coaccessible_states(rdfa)
    if rdfa.initial not in live:
        return None
    start = (frozenset([p]), rdfa.initial)
    states = {start}
    queue = deque([start])
    edges = {}
    while queue:
        members, y = queue.popleft()
        if y in rdfa.accepting:
            # a complete reply; prefix-freeness means nothing live follows
            assert all(
                rdfa.transitions[(y, c)] not in live for c in game.alphabet
            )
            continue
        for c in game.alphabet:
            y2 = rdfa.transitions[(y, c)]
            if y2 not in live:
                continue
            for u in _pointwise_successors(effects, members, c, below):
                edges.setdefault((members, y), {}).setdefault(c, set()).add(u)
                nxt = (u, y2)
                if nxt not in states:
                    states.add(nxt)
                    queue.append(nxt)

    # least fixpoint of "the opponent forces a failure from here"
    bad = set()
    changed = True
    while changed:
        changed = False
        for st in states:
            if st in bad:
                continue
            members, y = st
            if y in rdfa.accepting:
                if not members <= target_states:
                    bad.add(st)
                    changed = True
                continue
            for c, opts in edges.get(st, {}).items():
                y2 = rdfa.transitions[(y, c)]
                if all((u, y2) in bad for u in opts):
                    bad.add(st)
                    changed = True
                    break
    if start in bad:
        return None
    choice = {}
    for st in states:
        if st in bad:
            continue
        members, y = st
        for c, opts in edges.get(st, {}).items():
            y2 = rdfa.transitions[(y, c)]
            good = [u for u in opts if (u, y2) not in bad]
            if good:
                choice[(members, y, c)] = min(good, key=_bitmask)
    return choice


def effect_fixpoint(game, cap=10):
    """Least fixpoint of the effect-triple admission operator.

    Each round tests every candidate (p, a, states) against the triples
    admitted in earlier rounds; candidates implied by reading or by an
    already stored subset are skipped, so the stored sets per (p, a)
    stay inclusion-minimal within their round.
    """
    report = classify(game)
    if not report.prefix_free:
        raise SynthesisError(
            "game is not prefix-free; run the prefix-free transform first"
        )
    n = game.target.n_states
    if n > cap:
        raise SynthesisError(
            "target has %d states, above the synthesis cap of %d" % (n, cap)
        )
    effects = EffectSet(game)
    stratum = 0
    while True:
        stratum += 1
        added = []
        for a in game.function_symbols:
            for p in range(n):
                for mask in range(1, 1 << n):
                    s = frozenset(q for q in range(n) if mask >> q & 1)
                    if effects.implied(p, a, s):
                        continue
                    if any(k == (p, a) and t <= s for k, t, _ in added):
                        continue
                    choice = _winning_scan(game, effects, p, a, s, below=stratum)
                    if choice is not None:
                        added.append(((p, a), s, choice))
        if not added:
            break
        for (p, a), s, choice in added:
            effects.stored.setdefault((p, a), []).append(s)
            effects.stratum[(p, a, s)] = stratum
            effects.choice[(p, a, s)] = choice
    return effects


class NeAutomaton:
    """Subset automaton of the achievable effect sets.

    A transition (S, c, S') exists when every member of S has a read or
    stored effect landing inside S'.  Only pointwise unions of options
    are materialized: any other legal successor contains one of them
    and so accepts no more.
    """

    def __init__(self, game, effects):
        self.game = game
        self.effects = effects
        target = game.target
        start = frozenset([target.initial])
        subsets = [start]
        index = {start: 0}
        transitions = {}
        queue = deque([start])
        while queue:
            members = queue.popleft()
            i = index[members]
            for c in game.alphabet:
                for u in sorted(_pointwise_successors(effects, members, c), key=_bitmask):
                    if u not in index:
                        index[u] = len(subsets)
                        subsets.append(u)
                        queue.append(u)
                    transitions.setdefault((i, c), set()).add(index[u])
        accepting = {
            i for i, members in enumerate(subsets) if members <= target.accepting
        }
        self.subsets = subsets
        self.index = index
        self.nfa = Nfa(len(subsets), game.alphabet, transitions, {0}, accepting)


def _pointwise_successors(effects, members, c, below=None):
    """The unions of one option per member on symbol c, optionally using
    only triples admitted below the given stratum."""
    seen = set()
    opts = [effects.options(q, c, below=below) for q in sorted(members)]
    for combo in iter_product(*opts):
        seen.add(frozenset().union(*combo))
    return seen


def build_ne(game, effects):
    return NeAutomaton(game, effects)


def _scan_graph(game, effects, p, a, s):
    """Concrete scan plan of an admitted triple.

    Nodes carry the actual target state next to the scanner bookkeeping;
    every node either reads or names the nested triple to call, and
    completed nodes record where the target landed.
    """
    rdfa = game.replacement_dfa(a)
    level = effects.stratum[(p, a, s)]
    choice = effects.choice[(p, a, s)]
    target = game.target
    start = (p, frozenset([p]), rdfa.initial)
    nodes = {}
    queue = deque([start])
    seen = {start}
    while queue:
        node = queue.popleft()
        q, members, y = node
        if y in rdfa.accepting:
            nodes[node] = ("done", q)
            continue
        plan = {}
        for c in game.alphabet:
            key = (members, y, c)
            if key not in choice:
                continue  # no reply continues with c here
            nxt_members = choice[key]
            y2 = rdfa.transitions[(y, c)]
            read_to = target.transitions[(q, c)]
            if read_to in nxt_members:
                follow = [(read_to, nxt_members, y2)]
                plan[c] = ("read", follow[0])
            else:
                sub = effects.fitting(q, c, nxt_members, below=level)
                assert sub is not None, "admitted scan lost its nested triple"
                plan[c] = ("call", q, sub, nxt_members, y2)
                follow = [(r, nxt_members, y2) for r in sub]
            for f in follow:
                if f not in seen:
                    seen.add(f)
                    queue.append(f)
        nodes[node] = ("scan", plan)
    return start, nodes


class _AutomatonBuilder:
    """Shared assembly of strategy automata over the history alphabet.

    States are created by label; one accepting marker state signals
    calls (reaching it on a plain symbol is what makes the strategy
    call), and one dead state absorbs the transitions no play following
    the plan can take.
    """

    def __init__(self, game, effects):
        self.game = game
        self.effects = effects
        self.names = {}
        self.labels = []
        self.transitions = {}
        self.graphs = {}
        self.embedded = {}

    def state(self, label):
        if label not in self.names:
            self.names[label] = len(self.labels)
            self.labels.append(label)
        return self.names[label]

    def graph(self, key):
        if key not in self.graphs:
            self.graphs[key] = _scan_graph(self.game, self.effects, *key)
        return self.graphs[key]

    def embed(self, key, cont):
        """Instantiate the scan plan of the triple (p, a, s) = key,
        wiring completed nodes to the continuation labels.  Returns the
        entry label."""
        cont_key = tuple(sorted(cont.items()))
        memo = (key, cont_key)
        if memo in self.embedded:
            return self.embedded[memo]
        start, nodes = self.graph(key)

        def label_of(node):
            kind = nodes[node]
            if kind[0] == "done":
                return cont[kind[1]]
            return ("ind", key, node[0], node[1], node[2], cont_key)

        entry = label_of(start)
        self.embedded[memo] = entry
        pending = [start]
        walked = set()
        while pending:
            node = pending.pop()
            if node in walked:
                continue
            walked.add(node)
            kind = nodes[node]
            if kind[0] == "done":
                continue
            sid = self.state(label_of(node))
            for c, action in sorted(kind[1].items()):
                if action[0] == "read":
                    nxt = action[1]
                    self.transitions[(sid, c)] = self.state(label_of(nxt))
                    pending.append(nxt)
                else:
                    _, q, sub, nxt_members, y2 = action
                    self.transitions[(sid, c)] = self.state(("call",))
                    inner = {}
                    for r in sorted(sub):
                        follow = (r, nxt_members, y2)
                        inner[r] = label_of(follow)
                        pending.append(follow)
                    sub_entry = self.embed((q, c, sub), inner)
                    self.transitions[(sid, hat(c))] = self.state(sub_entry)
        return entry

    def finish(self, start_label):
        dead = self.state(("dead",))
        n = len(self.labels)
        for q in range(n):
            for c in self.game.hist_alphabet:
                self.transitions.setdefault((q, c), dead)
        accepting = frozenset(
            [self.names[("call",)]] if ("call",) in self.names else []
        )
        return Dfa(
            n,
            self.game.hist_alphabet,
            self.transitions,
            self.names[start_label],
            accepting,
        )


class InducingAutomaton:
    """Strategy automaton realizing one effect triple.

    partitions maps each landing target state to the automaton states
    that mark a completed reply ending there.
    """

    def __init__(self, strategy, partitions, triple, labels):
        self.strategy = strategy
        self.partitions = partitions
        self.triple = triple
        self.labels = labels


def build_inducing_automaton(game, triple, effects):
    p, a, s = triple.p, triple.a, frozenset(triple.states)
    if s not in effects.stored.get((p, a), ()):
        raise SynthesisError(
            "triple (%r, %r, %r) was never admitted" % (p, a, sorted(s))
        )
    builder = _AutomatonBuilder(game, effects)
    cont = {q: ("landed", q) for q in sorted(s)}
    entry = builder.embed((p, a, s), cont)
    probe = ("probe",)
    sid = builder.state(probe)
    builder.transitions[(sid, a)] = builder.state(("call",))
    builder.transitions[(sid, hat(a))] = builder.state(entry)
    dfa = builder.finish(probe)
    partitions = {}
    for q in sorted(s):
        if ("landed", q) in builder.names:
            partitions[q] = frozenset([builder.names[("landed", q)]])
        else:
            partitions[q] = frozenset()
    return InducingAutomaton(
        GeneralStrategy(dfa), partitions, EffectTriple(p, a, s), builder.labels
    )


class SynthesizedStrategy(GeneralStrategy):
    """General strategy carrying the synthesis artifacts it was built
    from: state labels, effect set, subset automaton, pruned choice."""

    def __init__(self, dfa, labels, effects, ne, pruned):
        GeneralStrategy.__init__(self, dfa)
        self.labels = labels
        self.effects = effects
        self.ne = ne
        self.pruned = pruned


def build_top_automaton(game, effects, ne=None, pruned=None):
    """Strategy automaton following the pruned subset choice.

    States (p, S) pair the actual target state with the subset state;
    on a symbol the strategy reads when the target's move lands inside
    the chosen next subset and otherwise calls the smallest-bitmask
    admitted triple that fits, simulating its scan plan until one of
    its landing states re-enters the top level.
    """
    if ne is None:
        ne = build_ne(game, effects)
    if pruned is None:
        pruned = prune_weakly_dominant(OnlineInstance(ne.nfa))
    target = game.target
    builder = _AutomatonBuilder(game, effects)
    start = ("top", target.initial, pruned.initial)
    todo = [(target.initial, pruned.initial)]
    seen = set(todo)
    while todo:
        p, d = todo.pop()
        sid = builder.state(("top", p, d))
        for c in game.alphabet:
            d2 = pruned.transitions[(d, c)]
            members = ne.subsets[d2]
            read_to = target.transitions[(p, c)]
            if read_to in members:
                builder.transitions[(sid, c)] = builder.state(("top", read_to, d2))
                if (read_to, d2) not in seen:
                    seen.add((read_to, d2))
                    todo.append((read_to, d2))
            else:
                sub = effects.fitting(p, c, members)
                assert sub is not None, (
                    "pruned choice %r on %r offers no fitting triple" % (d, c)
                )
                builder.transitions[(sid, c)] = builder.state(("call",))
                cont = {}
                for r in sorted(sub):
                    cont[r] = ("top", r, d2)
                    if (r, d2) not in seen:
                        seen.add((r, d2))
                        todo.append((r, d2))
                entry = builder.embed((p, c, sub), cont)
                builder.transitions[(sid, hat(c))] = builder.state(entry)
    dfa = builder.finish(start)
    return SynthesizedStrategy(dfa, builder.labels, effects, ne, pruned)


def synthesize_weakly_dominant(game, cap=10):
    """Full pipeline: effect fixpoint, subset automaton, online pruning,
    top-level realization."""
    effects = effect_fixpoint(game, cap=cap)
    ne = build_ne(game, effects)
    pruned = prune_weakly_dominant(OnlineInstance(ne.nfa))
    return build_top_automaton(game, effects, ne=ne, pruned=pruned)
