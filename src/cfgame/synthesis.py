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
by target-set bitmask.  Effect sets are int bitmasks (bit q for state
q) from admission to the strategy automaton; only EffectSet.triples(),
NeAutomaton.subsets and the state labels name them as frozensets.
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
        self.masks = {}     # (p, a) -> [(bitmask, stratum), ...] in admission order
        self.admitted = {}  # (p, a, bitmask) -> (stratum, choice map on bitmasks)

    def triples(self):
        return [
            EffectTriple(p, a, frozenset(_states(mask)))
            for (p, a), opts in sorted(self.masks.items())
            for mask, _ in opts
        ]

    def option_masks(self, p, c, below=None):
        """Bitmasks of the effect sets usable on symbol c at target state
        p: the read move plus stored triples, optionally only those
        admitted in strata below the given one."""
        opts = [1 << self.game.target.transitions[(p, c)]]
        for mask, level in self.masks.get((p, c), ()):
            if below is None or level < below:
                opts.append(mask)
        return opts

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


def _scan_choice(nodes, edges, wins, mask):
    """Choice map of the scan for the target set of the given bitmask:
    (possible target states, reply state, symbol) goes to the
    least-bitmask option that keeps the scan winning, which a winning
    node has on every symbol."""
    choice = {}
    for (members, y), out, w in zip(nodes, edges, wins):
        if w >> mask & 1:
            for c, opts in out:
                choice[(members, y, c)] = min(u for u, j in opts if wins[j] >> mask & 1)
    return choice


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
                    effects.masks.setdefault((p, a), []).append((mask, stratum))
                    effects.admitted[(p, a, mask)] = (stratum, _scan_choice(*scan, mask))
                    free &= ~upward(mask)
                    admitted = True
    return effects


class NeAutomaton:
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

    def __init__(self, game, effects):
        self.game = game
        self.effects = effects
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
        self.masks = masks
        self.subsets = [frozenset(_states(members)) for members in masks]
        self.nfa = Nfa(len(masks), game.alphabet, transitions, {0}, accepting)


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


def build_ne(game, effects):
    return NeAutomaton(game, effects)


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
        """Instantiate the scan of the triple (p, a, mask) = key along its
        choice map; nodes pair the actual target state with the scanner's
        (possible target states as a bitmask, reply state), and completed
        replies go to the continuation labels.  Returns the entry label."""
        cont_key = tuple(sorted(cont.items()))
        memo = (key, cont_key)
        if memo in self.embedded:
            return self.embedded[memo]
        p, a, mask = key
        rdfa = self.game.replacement_dfa(a)
        level, choice = self.effects.admitted[key]
        symbols = sorted(self.game.alphabet)
        named = (p, a, frozenset(_states(mask)))

        def label_of(node):
            q, members, y = node
            if y in rdfa.accepting:
                return cont[q]
            return ("ind", named, q, frozenset(_states(members)), y, cont_key)

        start = (p, 1 << p, rdfa.initial)
        entry = label_of(start)
        self.embedded[memo] = entry
        pending = [start]
        walked = set()
        while pending:
            node = pending.pop()
            q, members, y = node
            if node in walked or y in rdfa.accepting:
                continue
            walked.add(node)
            sid = self.state(label_of(node))
            for c in symbols:
                inside = choice.get((members, y, c))
                if inside is None:
                    continue  # no reply continues with c here
                y2 = rdfa.transitions[(y, c)]
                landed = self.realize(
                    sid, q, c, inside, level, lambda r: label_of((r, inside, y2))
                )
                pending.extend((r, inside, y2) for r in landed)
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


# Strategy automaton realizing one effect triple; partitions maps each landing
# target state to the automaton states that mark a completed reply ending there.
InducingAutomaton = namedtuple("InducingAutomaton", ["strategy", "partitions", "triple", "labels"])


def build_inducing_automaton(game, triple, effects):
    p, a, s = triple.p, triple.a, frozenset(triple.states)
    key = (p, a, _bitmask(s))
    if key not in effects.admitted:
        raise SynthesisError(
            "triple (%r, %r, %r) was never admitted" % (p, a, sorted(s))
        )
    builder = _AutomatonBuilder(game, effects)
    cont = {q: ("landed", q) for q in sorted(s)}
    entry = builder.embed(key, cont)
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
