"""Decision procedures for automaton strategies.

The workhorse is a saturated family of relations describing how a
strategy automaton walks the product with the target while input symbols
and replacement subexpressions are handled, calls included.  From the
saturated relations we read off a nondeterministic automaton for the
complement of the winning set, memoized with the SubsetView membership
steps; membership, enumeration, domination and the search for winning
reroute sets are all automaton questions on top of that.
"""

import itertools
import weakref
from collections import deque

from .automata import (
    Nfa,
    SubsetView,
    all_words_upto,
    coaccessible_states,
    complement,
    determinize,
    enumerate_upto,
    minimize,
    shortlex_path,
    symbol_classes,
)
from .games import hat
from .play import strategy_automaton, strongly_regular_automaton


class BudgetExceeded(RuntimeError):
    """A search space is larger than the caller allowed."""


def _key_of(node):
    # a bare symbol node and the symbol itself are the same key
    if node[0] == "sym":
        return node[1]
    return node


class Relations:
    """Move, next and inf facts for one strategy on one game, on demand.

    States are the reachable (strategy state, target state) pairs, index
    0 the initial one.  A configuration (i, r) is a state i and a key r:
    a node of a rule's AST, except that a sym leaf is keyed by its
    symbol.  Once demanded:

      * j in move[(i, r)] says processing r at i can finish in j,
      * (i, r) in inf says it can go on forever,
      * next_from(i, r) holds the (j, a) such that processing r at i can
        pass through a configuration about to handle symbol a at j.

    Calls are unfolded: handling a symbol the strategy calls means
    handling the replacement expression from the called state.  The
    attributes hold only the facts derived so far.
    """

    def __init__(self, game, strategy):
        sdfa = strategy_automaton(game, strategy)
        targ = game.target
        self.rules = game.rules

        # Reachable product pairs, following the move a play would make:
        # succ[(i, a)] is the pair after reading a at i or, when (i, a)
        # is in calls, the pair the replacement expression starts from.
        start = (sdfa.initial, targ.initial)
        self.pairs = [start]
        self.index = {start: 0}
        self.calls = set()
        self.succ = {}
        for i, (p, q) in enumerate(self.pairs):  # grows while walked: a BFS queue
            for a in game.alphabet:
                if a in game.rules and sdfa.transitions[(p, a)] in sdfa.accepting:
                    self.calls.add((i, a))
                    dest = (sdfa.transitions[(p, hat(a))], q)
                else:
                    dest = (sdfa.transitions[(p, a)], targ.transitions[(q, a)])
                j = self.index.get(dest)
                if j is None:
                    j = self.index[dest] = len(self.pairs)
                    self.pairs.append(dest)
                self.succ[(i, a)] = j
        self.move = {}
        self.next_rel = {}
        self.inf = set()
        self._waiters = {}

    def target_of(self, i):
        return self.pairs[i][1]

    def _hands_on(self, config):
        """The configurations that processing config directly starts."""
        i, k = config
        if isinstance(k, str):
            if config in self.calls:
                return [(self.succ[config], _key_of(self.rules[k]))]
            return []
        tag = k[0]
        if tag == "cat":
            left, right = _key_of(k[1]), _key_of(k[2])
            return [(i, left)] + [(j, right) for j in self.move[(i, left)]]
        if tag == "alt":
            return [(i, _key_of(k[1])), (i, _key_of(k[2]))]
        if tag == "star":
            return [(j, _key_of(k[1])) for j in self.move[config]]
        return []

    def demand(self, configs):
        """Derive the move and inf facts of configs and of every
        configuration they hand on to.

        Move facts are tabulated: a configuration waits on the parts it
        is built from and is told each of their results.
        """
        move, waiters, rules = self.move, self._waiters, self.rules
        fresh = []
        for c in configs:
            if c not in move:
                move[c] = set()
                waiters[c] = []
                fresh.append(c)
        if not fresh:
            return
        facts = deque()

        def add(c, j):
            if j not in move[c]:
                move[c].add(j)
                facts.append((c, j))

        def wait(c, target, then):
            # target learns each result j of c; with then set, what it
            # learns is the result of then processed from j
            if c not in move:
                move[c] = set()
                waiters[c] = []
                fresh.append(c)
            waiters[c].append((target, then))
            for j in list(move[c]):
                tell(j, target, then)

        def tell(j, target, then):
            if then is None:
                add(target, j)
            else:
                wait((j, then), target, None)

        started = 0
        while started < len(fresh) or facts:
            if facts:
                c, j = facts.popleft()
                for target, then in waiters[c]:
                    tell(j, target, then)
                continue
            c = fresh[started]
            started += 1
            i, k = c
            if isinstance(k, str):
                if c in self.calls:
                    wait((self.succ[c], _key_of(rules[k])), c, None)
                else:
                    add(c, self.succ[c])
            elif k[0] == "eps":
                add(c, i)
            elif k[0] == "alt":
                wait((i, _key_of(k[1])), c, None)
                wait((i, _key_of(k[2])), c, None)
            elif k[0] == "cat":
                wait((i, _key_of(k[1])), c, _key_of(k[2]))
            else:
                add(c, i)
                wait((i, _key_of(k[1])), c, k)

        # A fresh configuration can go on forever when it survives the
        # repeated removal of those that hand on to nothing left: the
        # graph is finite, so a path that never ends runs into a cycle.
        # Earlier configurations are settled; those in inf stay.
        live = {c: 0 for c in fresh}
        users = {}
        for c in fresh:
            for d in self._hands_on(c):
                if d in live:
                    live[c] += 1
                    users.setdefault(d, []).append(c)
                elif d in self.inf:
                    live[c] += 1
        dead = [c for c, n in live.items() if n == 0]
        while dead:
            for c in users.get(dead.pop(), ()):
                live[c] -= 1
                if live[c] == 0:
                    dead.append(c)
        self.inf.update(c for c, n in live.items() if n)

    def next_from(self, i, k):
        """The (j, a) that processing k at i can pass through."""
        found = self.next_rel.get((i, k))
        if found is None:
            self.demand([(i, k)])
            found = set()
            seen = {(i, k)}
            stack = [(i, k)]
            while stack:
                c = stack.pop()
                if isinstance(c[1], str):
                    found.add(c)
                for d in self._hands_on(c):
                    if d not in seen:
                        seen.add(d)
                        stack.append(d)
            self.next_rel[(i, k)] = found
        return found


def compute_relations(game, strategy):
    """The move and inf relations of a strategy on every symbol."""
    rel = Relations(game, strategy)
    rel.demand((i, a) for i in range(len(rel.pairs)) for a in game.alphabet)
    return rel


# The losing NFA is a pure function of (game, strategy); memoize it and
# its SubsetView on object identity so repeated queries stay cheap.  An
# entry goes when its game or strategy dies; ids are reused, so only an
# entry still holding a dead reference is dropped.
_relations_cache = {}


def _losing_view(game, strategy):
    key = (id(game), id(strategy))
    entry = _relations_cache.get(key)
    if entry is not None and entry[0]() is game and entry[1]() is strategy:
        return entry[2]
    rel = compute_relations(game, strategy)
    sink = len(rel.pairs)
    transitions = {(sink, a): {sink} for a in game.alphabet}
    for c in itertools.product(range(sink), game.alphabet):
        transitions[c] = rel.move[c] | {sink} if c in rel.inf else rel.move[c]
    accepting = {sink}
    for i in range(sink):
        if rel.target_of(i) not in game.target.accepting:
            accepting.add(i)
    view = SubsetView(Nfa(sink + 1, game.alphabet, transitions, {0}, accepting))

    def evict(_):
        held = _relations_cache.get(key)
        if held is not None and (held[0]() is None or held[1]() is None):
            del _relations_cache[key]

    try:
        refs = (weakref.ref(game, evict), weakref.ref(strategy, evict))
    except TypeError:
        return view
    if len(_relations_cache) > 4096:
        _relations_cache.clear()
    _relations_cache[key] = (refs[0], refs[1], view)
    return view


def losing_nfa(game, strategy):
    """Nondeterministic automaton for the words the strategy does not win.

    A run follows one play; the extra absorbing state, the last one, is
    entered when the play can go on forever.  A word is accepted exactly
    when some play on it ends outside the target language or never ends.

    The result is memoized per (game, strategy) with its SubsetView and
    shared by every caller, the decisions below included: do not mutate it.
    """
    return _losing_view(game, strategy).nfa


def _check_word(game, word):
    for a in word:
        if a not in game.alphabet:
            raise ValueError("input symbol %r is not in the alphabet" % (a,))


def is_winning(game, strategy, word):
    """Does the strategy win the word whatever the replacements are?

    Membership in the cached losing NFA's SubsetView, stepped until a run
    enters its absorbing state: the word is then lost whatever follows.
    """
    _check_word(game, word)
    view = _losing_view(game, strategy)
    sink, subsets, i = view.nfa.n_states - 1, view.subsets, 0
    for a in word:
        i = view.step(i, a)
        if sink in subsets[i]:
            return False
    return not view.accepts(i)


def winning_set_upto(game, strategy, max_len):
    """The set of winning words of length at most max_len: every word
    minus those the cached losing NFA accepts."""
    lost = enumerate_upto(losing_nfa(game, strategy), max_len)
    return set(all_words_upto(game.alphabet, max_len)).difference(lost)


def winning_set_dfa(game, strategy):
    """Minimal deterministic automaton for the full winning set."""
    return minimize(complement(determinize(losing_nfa(game, strategy))))


def is_dominated(game, first, second):
    """Is every word the first strategy wins also won by the second?

    Returns (answer, witness).  The witness is the shortlex least word
    won by the first strategy but not the second, None when dominated.
    It is searched on fresh SubsetViews, so the cached ones stay small,
    stepping one symbol per class of both NFAs: the rest reach its pairs later.
    """
    n1, n2 = (losing_nfa(game, s) for s in (first, second))
    v1, v2, classes = SubsetView(n1), SubsetView(n2), symbol_classes(game.alphabet, n1, n2)
    witness = shortlex_path(
        (0, 0), lambda p, a: (v1.step(p[0], a), v2.step(p[1], a)), [c[0] for c in classes],
        lambda p: v2.accepts(p[1]) and not v1.accepts(p[0]),
    )
    return witness is None, witness


def exists_winning_sreg(game, word, mode="dfs", budget=2 ** 20):
    """Search for a strongly regular strategy winning the given word.

    Returns the strategy, or None when no reroute set wins.  Modes: "dfs"
    branches only on the reroute decisions that plays actually run into
    and raises BudgetExceeded past budget search nodes, counting only the
    nodes it simulates, not the subtrees it cuts; "incremental"
    tries reroute sets by size first, so it returns a smallest winning
    set, and raises BudgetExceeded when the 2^k reroute sets exceed the
    budget.  A negative budget raises ValueError.
    """
    _check_word(game, word)
    if budget < 0:
        raise ValueError("budget must be at least 0, got %d" % budget)
    if mode == "dfs":
        return _dfs_sreg(game, word, budget)
    if mode != "incremental":
        raise ValueError("unknown mode %r" % (mode,))
    pairs = [
        (q, a)
        for q in range(game.target.n_states)
        for a in game.function_symbols
    ]
    k = len(pairs)
    if 2 ** k > budget:
        raise BudgetExceeded(
            "2^%d reroute sets exceed the budget of %d" % (k, budget)
        )
    for size in range(k + 1):
        for reroutes in itertools.combinations(pairs, size):
            strategy = strongly_regular_automaton(game, reroutes)
            if is_winning(game, strategy, word):
                return strategy
    return None


def _dfs_sreg(game, word, budget):
    """Backtracking search over reroute decisions.

    Undecided transitions default to reading.  A simulation that loses
    reports, in encounter order, the undecided (state, symbol) decisions
    some play ran into; flipping one of those to a call is the only way
    to change anything, so the search branches exactly there.  Each
    simulation derives only the facts the plays on the word reach.

    Two cuts drop subtrees that provably hold no winner, so the first
    winner in search order is the one the uncut search finds.  A target
    state is dead when no accepting state is reachable from it; a play
    that enters one loses whatever comes next, since reads keep it dead
    and calls do not move the target.

      * The simulation stops at the first word position after which the
        play has certainly lost: some configuration there can go on
        forever, or some play sits in a dead state.  The decisions it
        reports are those met up to that position.  Every child flips a
        decision met later, so it plays the same up to there and loses
        too.
      * A decision at a dead state only changes plays that have already
        lost, so a winner keeps winning when it is set either way.  If
        every reported decision is at a dead state, resetting them to
        read turns any winner below this node into this node's losing
        strategy: there is none.  Once a child that flipped a decision
        at a dead state fails, every later sibling (which reads it)
        would have a winner only if that child had one: stop there.
    """
    rules = game.rules
    accepting = game.target.accepting
    dead = set(range(game.target.n_states)) - coaccessible_states(game.target)
    nodes = 0

    def simulate(decided):
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise BudgetExceeded(
                "the search needs more than the budget of %d nodes" % budget
            )
        reroutes = [p for p, call in decided.items() if call]
        strategy = strongly_regular_automaton(game, reroutes)
        rel = Relations(game, strategy)
        seen = []
        noted = set()

        def note(i, a):
            p = (rel.target_of(i), a)
            if a in rules and p not in decided and p not in noted:
                noted.add(p)
                seen.append(p)

        current = {0}
        for a in word:
            rel.demand([(i, a) for i in current])
            nxt = set()
            lost = False
            for i in sorted(current):
                note(i, a)
                if (i, a) in rel.calls:
                    h = rel.succ[(i, a)]
                    for j, b in sorted(rel.next_from(h, _key_of(rules[a]))):
                        note(j, b)
                if (i, a) in rel.inf:
                    lost = True
                nxt.update(rel.move[(i, a)])
            current = nxt
            if lost or any(rel.target_of(i) in dead for i in current):
                return False, seen, strategy
        win = all(rel.target_of(i) in accepting for i in current)
        return win, seen, strategy

    def search(decided):
        win, seen, strategy = simulate(decided)
        if win:
            return strategy
        if all(q in dead for q, _ in seen):
            return None
        # Keeping a reached decision on "read" reproduces the simulation
        # we just ran, so only the flips are new search states.
        for idx, pair in enumerate(seen):
            trial = dict(decided)
            for earlier in seen[:idx]:
                trial[earlier] = False
            trial[pair] = True
            result = search(trial)
            if result is not None or pair[0] in dead:
                return result
        return None

    found = search({})
    if found is not None:
        assert is_winning(game, found, word)
    return found
