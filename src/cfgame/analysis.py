"""Decision procedures for automaton strategies.

The workhorse is a saturated family of relations describing how a
strategy automaton walks the product with the target while input symbols
and replacement subexpressions are handled, calls included.  From the
saturated relations we read off a nondeterministic automaton for the
complement of the winning set; membership, enumeration, domination and
the search for winning reroute sets are all automaton questions on top
of that.
"""

import itertools
import weakref
from collections import deque

from .automata import (
    Dfa,
    Nfa,
    complement,
    determinize,
    minimize,
    subset_witness,
)
from .games import hat
from .play import GeneralStrategy, StrategyFormatError, strongly_regular_automaton


class BudgetExceeded(RuntimeError):
    """A search space is larger than the caller allowed."""


def _resolve_automaton(game, strategy):
    if isinstance(strategy, Dfa):
        return GeneralStrategy(strategy).automaton(game)
    if hasattr(strategy, "automaton"):
        return strategy.automaton(game)
    raise StrategyFormatError(
        "need a strategy object or automaton, got %r" % type(strategy).__name__
    )


def _key_of(node):
    # a bare symbol node and the symbol itself are the same key
    if node[0] == "sym":
        return node[1]
    return node


class _KeyIndex:
    """Subexpression keys of all replacement rules.

    parts maps a concatenation or alternative key to the keys of its two
    parts and a star key to the key of its body; rule_key maps a function
    symbol to the key of its rule.
    """

    def __init__(self, game):
        self.parts = {}
        self.rule_key = {
            sym: self._walk(game.rules[sym]) for sym in game.function_symbols
        }

    def _walk(self, node):
        k = _key_of(node)
        if node[0] in ("cat", "alt"):
            self.parts[k] = (self._walk(node[1]), self._walk(node[2]))
        elif node[0] == "star":
            self.parts[k] = self._walk(node[1])
        return k


class Relations:
    """Move, next and inf facts for one strategy on one game, on demand.

    States are the reachable (strategy state, target state) pairs, index
    0 the initial one.  A configuration (i, r) is a state i and a key r,
    a symbol or a subexpression of a rule.  Once demanded:

      * j in move[(i, r)] says processing r at i can finish in j,
      * (i, r) in inf says it can go on forever,
      * next_from(i, r) holds the (j, a) such that processing r at i can
        pass through a configuration about to handle symbol a at j.

    Calls are unfolded: handling a symbol the strategy calls means
    handling the replacement expression from the called state.  The
    attributes hold only the facts derived so far.
    """

    def __init__(self, game, strategy, keys=None):
        self.automaton = _resolve_automaton(game, strategy)
        self.alphabet = game.alphabet
        self.keys = keys if keys is not None else _KeyIndex(game)
        sdfa = self.automaton
        targ = game.target

        # Reachable product pairs, following the move a play would make.
        start = (sdfa.initial, targ.initial)
        self.pairs = [start]
        self.index = {start: 0}
        self.calls = set()
        self.read_to = {}
        self.hat_to = {}
        queue = deque([0])
        while queue:
            i = queue.popleft()
            p, q = self.pairs[i]
            for a in game.alphabet:
                if a in game.rules and sdfa.transitions[(p, a)] in sdfa.accepting:
                    self.calls.add((i, a))
                    dest = (sdfa.transitions[(p, hat(a))], q)
                    self.hat_to[(i, a)] = self._intern(dest, queue)
                else:
                    dest = (sdfa.transitions[(p, a)], targ.transitions[(q, a)])
                    self.read_to[(i, a)] = self._intern(dest, queue)
        self.move = {}
        self.next_rel = {}
        self.inf = set()
        self._waiters = {}

    def _intern(self, pair, queue):
        j = self.index.get(pair)
        if j is None:
            j = len(self.pairs)
            self.index[pair] = j
            self.pairs.append(pair)
            queue.append(j)
        return j

    def target_of(self, i):
        return self.pairs[i][1]

    def _hands_on(self, config):
        """The configurations that processing config directly starts."""
        i, k = config
        if isinstance(k, str):
            if config in self.calls:
                return [(self.hat_to[config], self.keys.rule_key[k])]
            return []
        tag = k[0]
        if tag == "cat":
            left, right = self.keys.parts[k]
            return [(i, left)] + [(j, right) for j in self.move[(i, left)]]
        if tag == "alt":
            return [(i, part) for part in self.keys.parts[k]]
        if tag == "star":
            return [(j, self.keys.parts[k]) for j in self.move[config]]
        return []

    def demand(self, configs):
        """Derive the move and inf facts of configs and of every
        configuration they hand on to.

        Move facts are tabulated: a configuration waits on the parts it
        is built from and is told each of their results.
        """
        move, waiters, parts = self.move, self._waiters, self.keys.parts
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
                    wait((self.hat_to[c], self.keys.rule_key[k]), c, None)
                else:
                    add(c, self.read_to[c])
            elif k[0] == "eps":
                add(c, i)
            elif k[0] == "alt":
                for part in parts[k]:
                    wait((i, part), c, None)
            elif k[0] == "cat":
                wait((i, parts[k][0]), c, parts[k][1])
            else:
                add(c, i)
                wait((i, parts[k]), c, k)

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

    def demand_all(self):
        """Demand every configuration of a state and a symbol."""
        self.demand((i, a) for i in range(len(self.pairs)) for a in self.alphabet)

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
    rel.demand_all()
    return rel


# Relations are pure functions of (game, strategy); memoize them on object
# identity so repeated queries about the same pair stay cheap.  An entry
# goes when its game or strategy dies; ids are reused, so only an entry
# still holding a dead reference is dropped.
_relations_cache = {}


def _cached_relations(game, strategy):
    key = (id(game), id(strategy))
    entry = _relations_cache.get(key)
    if entry is not None and entry[0]() is game and entry[1]() is strategy:
        return entry[2]
    rel = Relations(game, strategy)
    rel.demand_all()

    def evict(_):
        held = _relations_cache.get(key)
        if held is not None and (held[0]() is None or held[1]() is None):
            del _relations_cache[key]

    try:
        refs = (weakref.ref(game, evict), weakref.ref(strategy, evict))
    except TypeError:
        return rel
    if len(_relations_cache) > 4096:
        _relations_cache.clear()
    _relations_cache[key] = (refs[0], refs[1], rel)
    return rel


def losing_nfa(game, strategy):
    """Nondeterministic automaton for the words the strategy does not win.

    A run follows one play; the extra absorbing state is entered when the
    play can go on forever.  A word is accepted exactly when some play on
    it ends outside the target language or never ends.
    """
    rel = _cached_relations(game, strategy)
    n = len(rel.pairs)
    sink = n
    transitions = {}
    for (i, k), targets in rel.move.items():
        if isinstance(k, str):
            transitions[(i, k)] = set(targets)
    for i, k in rel.inf:
        if isinstance(k, str):
            transitions.setdefault((i, k), set()).add(sink)
    for a in game.alphabet:
        transitions.setdefault((sink, a), set()).add(sink)
    accepting = {sink}
    for i in range(n):
        if rel.target_of(i) not in game.target.accepting:
            accepting.add(i)
    return Nfa(n + 1, game.alphabet, transitions, {0}, accepting)


def _check_word(game, word):
    for a in word:
        if a not in game.alphabet:
            raise ValueError("input symbol %r is not in the alphabet" % (a,))


def is_winning(game, strategy, word):
    """Does the strategy win the word whatever the replacements are?"""
    _check_word(game, word)
    rel = _cached_relations(game, strategy)
    current = {0}
    for a in word:
        nxt = set()
        for i in current:
            if (i, a) in rel.inf:
                return False
            nxt.update(rel.move.get((i, a), ()))
        current = nxt
    accepting = game.target.accepting
    return all(rel.target_of(i) in accepting for i in current)


def winning_set_upto(game, strategy, max_len):
    """The set of winning words of length at most max_len."""
    rel = _cached_relations(game, strategy)
    accepting = game.target.accepting
    out = set()
    layer = [((), frozenset([0]))]
    for length in range(max_len + 1):
        deeper = []
        for word, states in layer:
            if all(rel.target_of(i) in accepting for i in states):
                out.add(word)
            if length == max_len:
                continue
            for a in game.alphabet:
                if any((i, a) in rel.inf for i in states):
                    continue
                succ = set()
                for i in states:
                    succ.update(rel.move.get((i, a), ()))
                deeper.append((word + (a,), frozenset(succ)))
        layer = deeper
    return out


def winning_set_dfa(game, strategy):
    """Minimal deterministic automaton for the full winning set."""
    return minimize(complement(determinize(losing_nfa(game, strategy))))


def is_dominated(game, first, second):
    """Is every word the first strategy wins also won by the second?

    Returns (answer, witness).  The witness is the shortlex least word
    won by the first strategy but not the second, None when dominated.
    """
    d1 = determinize(losing_nfa(game, first))
    d2 = determinize(losing_nfa(game, second))
    witness = subset_witness(d2, d1)
    return witness is None, witness


def exists_winning_sreg(game, word, mode="auto", budget=2 ** 20):
    """Search for a strongly regular strategy winning the given word.

    Returns the strategy, or None when no reroute set wins.  Modes:
    "exhaustive" tries reroute sets in bitmask order, "incremental" by
    size first, "dfs" branches only on the reroute decisions that plays
    actually run into, "auto" picks exhaustive when the whole space fits
    into the budget and dfs otherwise.  Raises BudgetExceeded when the
    exhaustive space, or the number of dfs nodes, exceeds the budget.
    """
    _check_word(game, word)
    pairs = [
        (q, a)
        for q in range(game.target.n_states)
        for a in game.function_symbols
    ]
    k = len(pairs)
    if mode == "auto":
        mode = "exhaustive" if 2 ** k <= budget else "dfs"
    if mode == "dfs":
        return _dfs_sreg(game, word, budget)
    if mode not in ("exhaustive", "incremental"):
        raise ValueError("unknown mode %r" % (mode,))
    if 2 ** k > budget:
        raise BudgetExceeded(
            "2^%d reroute sets exceed the budget of %d" % (k, budget)
        )
    if mode == "exhaustive":
        candidates = (
            [pairs[b] for b in range(k) if mask >> b & 1]
            for mask in range(2 ** k)
        )
    else:
        candidates = (
            [pairs[b] for b in combo]
            for size in range(k + 1)
            for combo in itertools.combinations(range(k), size)
        )
    for reroutes in candidates:
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
    """
    rules = game.rules
    accepting = game.target.accepting
    keys = _KeyIndex(game)
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
        rel = Relations(game, strategy, keys)
        seen = []
        noted = set()

        def note(i, a):
            p = (rel.target_of(i), a)
            if a in rules and p not in decided and p not in noted:
                noted.add(p)
                seen.append(p)

        current = {0}
        lost = False
        for a in word:
            rel.demand([(i, a) for i in current])
            nxt = set()
            for i in sorted(current):
                note(i, a)
                if (i, a) in rel.calls:
                    h = rel.hat_to[(i, a)]
                    for j, b in sorted(rel.next_from(h, keys.rule_key[a])):
                        note(j, b)
                if (i, a) in rel.inf:
                    lost = True
                nxt.update(rel.move[(i, a)])
            current = nxt
        if not lost:
            lost = any(rel.target_of(i) not in accepting for i in current)
        return not lost, seen, strategy

    def search(decided):
        win, seen, strategy = simulate(decided)
        if win:
            return strategy
        # Keeping a reached decision on "read" reproduces the simulation
        # we just ran, so only the flips are new search states.
        for idx, pair in enumerate(seen):
            trial = dict(decided)
            for earlier in seen[:idx]:
                trial[earlier] = False
            trial[pair] = True
            result = search(trial)
            if result is not None:
                return result
        return None

    found = search({})
    if found is not None:
        assert is_winning(game, found, word)
    return found
