"""Synthesis of weakly dominant strategies for prefix-free games.

The bookkeeping object is the effect triple (p, a, states): with the
target automaton at p, calling a can be played out so that however the
opponent writes the reply, the target ends up inside the state set.
Trivial triples (delta(p, a) already inside) are realized by reading.
Non-trivial triples are admitted stratum by stratum; a triple admitted
at stratum k may call nested symbols using triples from strata below k
only, which bounds the call depth and keeps every play finite.

Admission is a safety game on the scan graph of (p, a), whose nodes
pair the set of possible target states with the state of the reply
automaton on the raw symbols scanned so far.  Reading advances both
components by the scanned symbol; calling advances the reply component
by the called symbol while the target component jumps into the called
triple's state set.  Tracking the raw symbol on calls is the point: the
reply's membership in the replacement language is a fact about what the
opponent wrote, not about what it was rewritten into.  Only the leaves
depend on the candidate target set, so each round builds one scan graph
per (p, a) and solves it for all target sets at once, as bitsets indexed
by target-set bitmask.  The solved scan is the plan of every triple it
admits: the strategy realizing (p, a, S) walks it, taking at each node
the least option that still wins for S.  Effect sets are int bitmasks
(bit q for state q) from admission to the strategy automaton; only
EffectSet.triples(), NeAutomaton.subsets and the state labels name them
as frozensets.
"""

from collections import namedtuple

from .automata import Dfa, Nfa, coaccessible_states
from .games import classify, hat
from .online import OnlineInstance, prune_weakly_dominant
from .play import GeneralStrategy


class SynthesisError(ValueError):
    """Synthesis preconditions are not met."""


EffectTriple = namedtuple("EffectTriple", ["p", "a", "states"])


def _bitmask(states):
    return sum(1 << q for q in states)


def _states(mask):
    return [q for q in range(mask.bit_length()) if mask >> q & 1]


class EffectSet:
    """Admitted effect triples of a game, with their strata.

    Trivial triples are implicit: for every state and symbol the read
    move realizes (p, a, {delta(p, a)}), so option lists always include
    it and the subset automaton below is total.
    """

    def __init__(self, game):
        self.game = game
        # (p, a) -> {bitmask: (stratum, solved scan)} in admission order
        self.admitted = {}

    def triples(self):
        return [
            EffectTriple(p, a, frozenset(_states(mask)))
            for (p, a), stored in sorted(self.admitted.items())
            for mask in stored
        ]

    def option_masks(self, p, c, below=None):
        """Bitmasks of the effect sets usable on symbol c at target state
        p: the read move plus stored triples, optionally only those
        admitted in strata below the given one."""
        stored = self.admitted.get((p, c), ())
        usable = stored if below is None else [m for m in stored if stored[m][0] < below]
        return [1 << self.game.target.transitions[(p, c)], *usable]

    def fitting(self, p, c, inside, below=None):
        """Least usable effect-set bitmask inside the bitmask inside, or
        None."""
        fits = [m for m in self.option_masks(p, c, below) if not m & ~inside]
        return min(fits, default=None)


def _solve_scan(game, effects, p, a, live, below, upward):
    """Scan graph of the replies to a from target state p, solved for
    every target set at once.  live is
    coaccessible_states(game.replacement_dfa(a)), and only triples
    admitted below the given stratum are used.

    Nodes pair the bitmask of the possible target states with the reply
    state reached on the raw symbols scanned so far.  Returns (nodes,
    edges, wins): edges[i] lists, per symbol, the options (bitmask,
    successor node) of node i, and bit m of wins[i] is set when the opponent
    cannot force a failure from node i for the target set of bitmask m.
    With n target states each wins has 2^n bits, 128 bytes per node at
    the default cap of 10.
    """
    rdfa = game.replacement_dfa(a)
    start = (1 << p, rdfa.initial)
    if rdfa.initial not in live:
        return [start], [[]], [0]  # no reply can be completed
    nodes = [start]
    index = {start: 0}
    edges = []
    preds = [[]]
    for i, (members, y) in enumerate(nodes):
        out = []
        edges.append(out)
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
            opts = []
            for u in _pointwise_successors(effects, members, c, below):
                j = index.setdefault((u, y2), len(nodes))
                if j == len(nodes):
                    nodes.append((u, y2))
                    preds.append([])
                preds[j].append(i)
                opts.append((u, j))
            out.append((c, opts))

    # greatest fixpoint: a leaf wins the target sets containing its
    # members, an inner node those that every symbol wins by some option
    full = upward(0)  # every target set contains the empty set
    wins = [
        upward(members) if y in rdfa.accepting else full
        for members, y in nodes
    ]
    pending = [i for i, out in enumerate(edges) if out]
    queued = set(pending)
    while pending:
        i = pending.pop()
        queued.discard(i)
        w = full
        for _, opts in edges[i]:
            some = 0
            for _, j in opts:
                some |= wins[j]
            w &= some
        if w != wins[i]:
            wins[i] = w
            for k in preds[i]:
                if k not in queued:
                    queued.add(k)
                    pending.append(k)
    return nodes, edges, wins


def effect_fixpoint(game, cap=10):
    """Least fixpoint of the effect-triple admission operator.

    Each round solves, for every (p, a), one scan graph over the triples
    admitted in earlier rounds, for all target sets at once.  Candidate
    sets are bitmasks, admitted in increasing order; one upward-closed
    int marks the sets that reading or an already stored set fits inside,
    and these are skipped, so the stored sets per (p, a) stay
    inclusion-minimal.  The scan is solved only when some set is left
    uncovered.  A triple is stored as soon as it is admitted, since the
    scan ignores triples of the current round.
    """
    if cap < 0:
        raise ValueError("the synthesis cap must not be negative, got %d" % cap)
    if not classify(game).prefix_free:
        raise SynthesisError(
            "game is not prefix-free; run the prefix-free transform first"
        )
    n = game.target.n_states
    if n > cap:
        raise SynthesisError(
            "target has %d states, above the synthesis cap of %d" % (n, cap)
        )
    effects = EffectSet(game)
    live = {
        a: coaccessible_states(game.replacement_dfa(a))
        for a in game.function_symbols
    }
    upsets = {}

    def upward(members):
        # bit m is set when the target set of bitmask m contains members
        if members not in upsets:
            upsets[members] = sum(1 << m for m in range(1 << n) if m & members == members)
        return upsets[members]

    stratum = 0
    admitted = True
    while admitted:
        stratum += 1
        admitted = False
        for a in game.function_symbols:
            for p in range(n):
                free = upward(0) - 1  # every nonempty target set
                for c in effects.option_masks(p, a):
                    free &= ~upward(c)
                if not free:
                    continue
                scan = _solve_scan(game, effects, p, a, live[a], stratum, upward)
                free &= scan[2][0]
                while free:
                    mask = (free & -free).bit_length() - 1
                    effects.admitted.setdefault((p, a), {})[mask] = (stratum, scan)
                    free &= ~upward(mask)
                    admitted = True
    return effects


NeAutomaton = namedtuple("NeAutomaton", ["masks", "subsets", "nfa"])


def build_ne(game, effects):
    """Subset automaton of the achievable effect sets.

    A transition (S, c, S') exists when every member of S has a read or
    stored effect landing inside S'.  Only pointwise unions of options
    are materialized: any other legal successor contains one of them
    and so accepts no more.

    Materializing every pointwise union makes S <= T a simulation: T's
    options on the members of S alone give a successor of S inside each
    successor of T, and acceptance (S inside the target's accepting
    states) is closed under subsets, so L(T) <= L(S).  Pruning removes
    such successors, so only its first round may rely on this.

    States are found as bitmasks: masks[i] is the effect set of state i
    as a bitmask and subsets[i] as a frozenset.
    """
    target = game.target
    masks = [1 << target.initial]
    index = {masks[0]: 0}
    transitions = {}
    for i, members in enumerate(masks):
        for c in game.alphabet:
            for u in sorted(_pointwise_successors(effects, members, c)):
                if u not in index:
                    index[u] = len(masks)
                    masks.append(u)
                transitions.setdefault((i, c), set()).add(index[u])
    rejecting = ~_bitmask(target.accepting)
    accepting = {i for i, members in enumerate(masks) if not members & rejecting}
    nfa = Nfa(len(masks), game.alphabet, transitions, {0}, accepting)
    return NeAutomaton(masks, [frozenset(_states(m)) for m in masks], nfa)


def _pointwise_successors(effects, members, c, below=None):
    """The unions of one option per member of the bitmask members on
    symbol c, as bitmasks, optionally using only triples admitted below
    the given stratum.  Members are folded in one at a time, single-option
    ones first, deduplicating as it goes."""
    unions = {0}
    options = (effects.option_masks(q, c, below) for q in _states(members))
    for opts in sorted(options, key=len):
        unions = {u | o for u in unions for o in opts}
    return unions


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
        self.embedded = {}

    def state(self, label):
        if label not in self.names:
            self.names[label] = len(self.labels)
            self.labels.append(label)
        return self.names[label]

    def marked(self, label):
        """The state of label as a one-element set, if it was created."""
        return frozenset([self.names[label]] if label in self.names else [])

    def realize(self, sid, q, c, inside, below, label):
        """Wire symbol c at state sid, with the target at q: read it when
        the target's move lands in the chosen set (the bitmask inside),
        otherwise call the least fitting triple admitted below the given
        stratum.  label maps a landing target state to the label play
        continues at.  Returns the landing target states."""
        read_to = self.game.target.transitions[(q, c)]
        if inside >> read_to & 1:
            self.transitions[(sid, c)] = self.state(label(read_to))
            return [read_to]
        sub = self.effects.fitting(q, c, inside, below=below)
        assert sub is not None, "no admitted triple fits %r on %r" % (q, c)
        self.transitions[(sid, c)] = self.state(("call",))
        landed = _states(sub)
        entry = self.embed((q, c, sub), {r: label(r) for r in landed})
        self.transitions[(sid, hat(c))] = self.state(entry)
        return landed

    def embed(self, key, cont):
        """Instantiate the solved scan of the triple (p, a, mask) = key:
        walk pairs of the actual target state and a scan node, taking at
        each node the least option that still wins for mask, and send
        completed replies to the continuation labels.  Returns the entry
        label."""
        cont_key = tuple(sorted(cont.items()))
        memo = (key, cont_key)
        if memo in self.embedded:
            return self.embedded[memo]
        p, a, mask = key
        accepting = self.game.replacement_dfa(a).accepting
        level, (nodes, edges, wins) = self.effects.admitted[(p, a)][mask]
        named = (p, a, frozenset(_states(mask)))

        def label_of(q, j):
            members, y = nodes[j]
            if y in accepting:
                return cont[q]
            return ("ind", named, q, frozenset(_states(members)), y, cont_key)

        entry = label_of(p, 0)
        self.embedded[memo] = entry
        pending = [(p, 0)]
        walked = set()
        while pending:
            q, i = pending.pop()
            if (q, i) in walked or not edges[i]:
                continue
            walked.add((q, i))
            sid = self.state(label_of(q, i))
            for c, opts in sorted(edges[i]):
                u, j = min((u, j) for u, j in opts if wins[j] >> mask & 1)
                landed = self.realize(sid, q, c, u, level, lambda r: label_of(r, j))
                pending.extend((r, j) for r in landed)
        return entry

    def finish(self, start_label):
        dead = self.state(("dead",))
        n = len(self.labels)
        for q in range(n):
            for c in self.game.hist_alphabet:
                self.transitions.setdefault((q, c), dead)
        return Dfa(
            n,
            self.game.hist_alphabet,
            self.transitions,
            self.names[start_label],
            self.marked(("call",)),
        )


# Strategy automaton realizing one effect triple; partitions maps each landing
# target state to the automaton states that mark a completed reply ending there.
InducingAutomaton = namedtuple("InducingAutomaton", ["strategy", "partitions", "triple", "labels"])


def build_inducing_automaton(game, triple, effects):
    p, a, s = triple.p, triple.a, frozenset(triple.states)
    mask = _bitmask(s)
    if mask not in effects.admitted.get((p, a), {}):
        raise SynthesisError(
            "triple (%r, %r, %r) was never admitted" % (p, a, sorted(s))
        )
    builder = _AutomatonBuilder(game, effects)
    cont = {q: ("landed", q) for q in sorted(s)}
    entry = builder.embed((p, a, mask), cont)
    probe = ("probe",)
    sid = builder.state(probe)
    builder.transitions[(sid, a)] = builder.state(("call",))
    builder.transitions[(sid, hat(a))] = builder.state(entry)
    dfa = builder.finish(probe)
    partitions = {q: builder.marked(("landed", q)) for q in sorted(s)}
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


def build_top_automaton(game, effects):
    """Strategy automaton following the pruned subset choice.

    States (p, S) pair the actual target state with the subset state;
    each symbol is realized by the builder's read-or-call step, with
    every admitted triple usable.
    """
    ne = build_ne(game, effects)
    pruned = prune_weakly_dominant(OnlineInstance(ne.nfa), ne.masks)
    builder = _AutomatonBuilder(game, effects)
    start = (game.target.initial, pruned.initial)
    todo = [start]
    seen = {start}
    while todo:
        p, d = todo.pop()
        sid = builder.state(("top", p, d))
        for c in game.alphabet:
            d2 = pruned.transitions[(d, c)]
            landed = builder.realize(
                sid, p, c, ne.masks[d2], None, lambda r: ("top", r, d2)
            )
            for r in landed:
                if (r, d2) not in seen:
                    seen.add((r, d2))
                    todo.append((r, d2))
    dfa = builder.finish(("top",) + start)
    return SynthesizedStrategy(dfa, builder.labels, effects, ne, pruned)


def synthesize_weakly_dominant(game, cap=10):
    """Full pipeline: effect fixpoint, subset automaton, online pruning,
    top-level realization."""
    return build_top_automaton(game, effect_fixpoint(game, cap=cap))
