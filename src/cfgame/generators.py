"""Instance generators: hardness reductions and seeded random games.

The decision procedures are easiest to trust when checked against
problems whose answers come from somewhere else entirely.  Two classic
reductions provide that here.  from_3sat builds a game in which a
strongly regular winning strategy exists exactly when a 3CNF formula is
satisfiable, so the search can be compared against truth tables.
from_nfa_universality builds a game and two strategies whose dominance
settles whether an NFA accepts every word over {0,1}, comparable against
the subset construction.  random_game produces seed-deterministic corpus
instances with requested class flags.
"""

import random
from collections import namedtuple

from .automata import Dfa
from .fixtures import fixture
from .games import Game, classify
from .play import StronglyRegularStrategy, strongly_regular_automaton


def _word_ast(symbols):
    """Concatenation AST for a fixed nonempty word."""
    node = ("sym", symbols[0])
    for sym in symbols[1:]:
        node = ("cat", node, ("sym", sym))
    return node


def _alt_ast(nodes):
    node = nodes[0]
    for extra in nodes[1:]:
        node = ("alt", node, extra)
    return node


# ---------------------------------------------------------------------------
# 3SAT.


class CnfFormula(namedtuple("CnfFormula", ["n_vars", "clauses"])):
    """A 3CNF formula over variables x1..xn.

    Clauses are triples of nonzero signed indices: literal 2 stands for
    x2, literal -2 for its negation.
    """

    __slots__ = ()

    def __new__(cls, n_vars, clauses):
        n_vars = int(n_vars)
        if n_vars < 1:
            raise ValueError("formula needs at least one variable")
        cleaned = []
        for clause in clauses:
            lits = tuple(int(lit) for lit in clause)
            if len(lits) != 3:
                raise ValueError(
                    "clause %r must have exactly three literals" % (clause,)
                )
            for lit in lits:
                if lit == 0 or abs(lit) > n_vars:
                    raise ValueError("literal %d out of range" % lit)
            cleaned.append(lits)
        if not cleaned:
            raise ValueError("formula needs at least one clause")
        return super().__new__(cls, n_vars, tuple(cleaned))

    @classmethod
    def parse(cls, text, n_vars=None):
        """Parse a clause list like "1,2,-3;-1,2,2".

        Clauses are separated by semicolons, literals by commas.  The
        variable count defaults to the largest index mentioned.
        """
        clauses = []
        for chunk in text.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            clauses.append(tuple(int(part) for part in chunk.split(",")))
        if not clauses:
            raise ValueError("no clauses in %r" % text)
        if n_vars is None:
            n_vars = max(abs(lit) for clause in clauses for lit in clause)
        return cls(n_vars, clauses)


def from_3sat(phi):
    """Game and input word encoding satisfiability of a 3CNF formula.

    A strongly regular winning strategy on the returned word exists if
    and only if the formula is satisfiable.  The target chains one
    six-state gadget per variable; the word first walks every gadget
    with a 0CD block that forces any winning strategy to call exactly
    one of the symbols 0 and 1 there, fixing an assignment, and ends
    with the symbol E whose replacements spell the clauses.  The
    opponent picks the clause, so the committed assignment must satisfy
    all of them.
    """
    n = phi.n_vars
    a_sym = ["a%d" % i for i in range(1, n + 1)]
    alphabet = ["0", "1", "C", "D", "E", "b", "c", "d"] + a_sym

    # Gadget i occupies states 6(i-1) .. 6(i-1)+5 in the order
    # s, b, c, d, f, t; the last state is the failure sink.
    def s(i):
        return 6 * (i - 1)

    sink = 6 * n
    n_states = 6 * n + 1
    accepting = frozenset(s(i) + 4 for i in range(1, n + 1))

    trans = {}
    for i in range(1, n + 1):
        base = s(i)
        trans[(base, "0")] = base + 1
        trans[(base, "b")] = base + 4
        trans[(base, "1")] = base + 3
        trans[(base + 1, "C")] = base + 2
        trans[(base + 2, "d")] = base
        trans[(base + 3, "D")] = base + 5
        trans[(base + 4, "c")] = base
        trans[(base + 4, "b")] = base + 4
        trans[(base + 4, "d")] = base + 5
        for a in a_sym:
            trans[(base + 4, a)] = base + 4
    for i in range(2, n + 1):
        trans[(s(i - 1) + 5, a_sym[i - 1])] = s(i)
    # Any other non-final, non-sink state may jump to the start of any
    # gadget on its entry symbol.
    barred = set(accepting) | {sink} | {s(i) + 5 for i in range(1, n)}
    for q in range(n_states):
        if q in barred:
            continue
        for i in range(1, n + 1):
            trans.setdefault((q, a_sym[i - 1]), s(i))
    for q in range(n_states):
        for x in alphabet:
            trans.setdefault((q, x), sink)

    target = Dfa(n_states, alphabet, trans, 0, accepting)

    def literal_word(lit):
        return (a_sym[abs(lit) - 1], "1" if lit > 0 else "0")

    clause_words = []
    for clause in phi.clauses:
        word = ()
        for lit in clause:
            word += literal_word(lit)
        clause_words.append(word)

    rules = {
        "0": ("sym", "b"),
        "1": ("sym", "b"),
        "C": _word_ast(("c", "1")),
        "D": _word_ast(("d", "1", "d")),
        "E": _alt_ast([_word_ast(w) for w in clause_words]),
    }

    game = Game(
        alphabet,
        rules,
        target,
        name="3sat-n%d-m%d" % (n, len(phi.clauses)),
    )
    # The gadget states are pairwise distinguishable, so the constructor
    # must not have replaced the target with a smaller automaton.
    assert not game.notices, game.notices

    word = ("0", "C", "D")
    for i in range(2, n + 1):
        word += (a_sym[i - 1], "0", "C", "D")
    word += ("E",)
    return game, word


def assignment_strategy(phi, assignment):
    """Strongly regular strategy induced by a variable assignment.

    assignment is indexed by 1-based variable number; truthy means the
    variable is set to 1.  The strategy calls every function symbol whose
    read would fail outright, plus, in each gadget, the bit symbol the
    assignment rules out.  It wins the from_3sat word exactly when the
    assignment satisfies the formula.
    """
    game, _ = from_3sat(phi)
    target = game.target
    sink = 6 * phi.n_vars
    reroutes = set()
    for q in range(target.n_states):
        if q == sink:
            continue
        for x in game.function_symbols:
            if target.transitions[(q, x)] == sink:
                reroutes.add((q, x))
    for i in range(1, phi.n_vars + 1):
        reroutes.add((6 * (i - 1), "1" if assignment[i] else "0"))
    return StronglyRegularStrategy(reroutes)


# ---------------------------------------------------------------------------
# NFA universality.


def _normalize_nfa(nfa):
    """Single accessible initial state, states renumbered in BFS order.

    Several initial states are merged into a fresh one, nfa.n_states,
    carrying the union of their outgoing transitions; unreachable states
    are dropped.  Returns (k, transitions, accepting) over states 0..k-1
    with 0 initial, where transitions maps (p, a) to a sorted tuple.
    """
    merged = nfa.n_states
    order = [next(iter(nfa.initials)) if len(nfa.initials) == 1 else merged]
    index = {order[0]: 0}
    transitions = {}
    for i, p in enumerate(order):  # grows while walked: a BFS queue
        for a in ("0", "1"):
            succ = sorted(
                nfa.step_set(nfa.initials, a) if p == merged
                else nfa.transitions.get((p, a), ())
            )
            for q in succ:
                if q not in index:
                    index[q] = len(order)
                    order.append(q)
            transitions[(i, a)] = tuple(sorted(index[q] for q in succ))
    accepting = frozenset(
        i for i, p in enumerate(order)
        if p in nfa.accepting or p == merged and nfa.initials & nfa.accepting
    )
    return len(order), transitions, accepting


def from_nfa_universality(nfa):
    """Game and two strongly regular strategies encoding NFA universality.

    The first strategy calls every 0 and 1, letting the opponent trace a
    run of the automaton; it loses exactly on the {0,1}-words the
    automaton accepts.  The second strategy wins exactly the words that
    leave {0,1}*.  Hence the first is dominated by the second if and
    only if the automaton accepts every word over {0,1}.

    A state outside range(nfa.n_states) raises ValueError.  The input is
    normalized (initial states merged, unreachable states dropped).  One
    rejecting the empty word is not universal: it maps to the non-dominated
    sandbox game with its read-all and call-initial-a strategies.
    """
    if set(nfa.alphabet) != {"0", "1"}:
        raise ValueError(
            "universality reduction needs an NFA over 0 and 1, got alphabet %r"
            % (list(nfa.alphabet),)
        )
    states = nfa.initials.union(nfa.accepting, *nfa.transitions.values())
    for q in states.union(q for q, _ in nfa.transitions) - set(range(nfa.n_states)):
        raise ValueError("NFA state %r is not in range(%d)" % (q, nfa.n_states))
    k, delta, accepting = _normalize_nfa(nfa)
    if 0 not in accepting:
        fx = fixture("sandbox")
        return fx.game, fx.strategies["read-all"], fx.strategies["call-initial-a"]

    pair_syms = {
        (a, p): "(%s,%d)" % (a, p) for a in ("0", "1") for p in range(k)
    }
    home_syms = {p: "($,%d)" % p for p in range(1, k)}
    alphabet = (
        ["0", "1", "#"]
        + [pair_syms[(a, p)] for a in ("0", "1") for p in range(k)]
        + [home_syms[p] for p in range(1, k)]
    )

    # Target: the automaton's states plus a fresh all-absorbing state f.
    # Reading 0 or 1 stands still, reading (a,q) follows the claimed
    # transition when it exists, reading ($,p) at p returns to the start.
    f = k
    trans = {}
    for p in range(k):
        trans[(p, "0")] = p
        trans[(p, "1")] = p
        for a in ("0", "1"):
            for q in range(k):
                trans[(p, pair_syms[(a, q)])] = q if q in delta[(p, a)] else f
        if p != 0:
            trans[(p, home_syms[p])] = 0
    for q in range(k + 1):
        for x in alphabet:
            trans.setdefault((q, x), f)
    target = Dfa(k + 1, alphabet, trans, 0, frozenset({f}) | (set(range(k)) - accepting))

    rules = {}
    for a in ("0", "1"):
        rules[a] = _alt_ast([("sym", pair_syms[(a, p)]) for p in range(k)])
    for sym in list(pair_syms.values()) + list(home_syms.values()):
        rules[sym] = ("sym", "#")

    game = Game(alphabet, rules, target, name="universality-%d" % k)
    assert not game.notices, game.notices

    run_syms = set(pair_syms.values())
    pairs = [(q, x) for q in range(k + 1) for x in game.function_symbols]
    a1 = strongly_regular_automaton(game, [(q, x) for q, x in pairs if x not in run_syms])
    a2 = strongly_regular_automaton(
        game, [(q, x) for q, x in pairs if q != f and not (q == 0 and x in ("0", "1"))]
    )
    return game, a1, a2


# ---------------------------------------------------------------------------
# Random games.


_CONSTRAINTS = (
    "prefix_free",
    "non_recursive",
    "unary",
    "finite_target",
    "finite_replacement",
)

_CAPS = {"alphabet": 8, "target_states": 10, "rule_length": 6}


def random_game(params, seed):
    """Seed-deterministic random game.

    params is a dict with optional keys:
      alphabet           number of symbols (default 3)
      target_states      target DFA size before minimization (default 3)
      rule_length        longest replacement word (default 3)
      constraints        iterable of class flags the game must satisfy:
                         prefix_free, non_recursive, unary, finite_target
                         or finite_replacement
      retries            rejection-sampling budget (default 500)

    finite_replacement keeps every rule star-free, which is what the
    brute-force play oracle needs.  The other constraints are checked
    with classify and unsatisfying draws are rejected.  The same params
    and seed always produce the same game.
    """
    params = dict(params or {})
    constraints = set(params.pop("constraints", ()))
    unknown = constraints - set(_CONSTRAINTS)
    if unknown:
        raise ValueError("unknown constraints %s" % sorted(unknown))
    retries = params.pop("retries", 500)
    if type(retries) is not int or retries < 1:
        raise ValueError("retries must be an int of at least 1, got %r" % (retries,))
    sizes = {"alphabet": 3, "target_states": 3, "rule_length": 3}
    for key in list(params):
        if key not in sizes:
            raise ValueError("unknown parameter %r" % key)
        sizes[key] = int(params.pop(key))
        if not 1 <= sizes[key] <= _CAPS[key]:
            raise ValueError(
                "%s must be between 1 and %d" % (key, _CAPS[key])
            )
    if "unary" in constraints:
        sizes["alphabet"] = 1

    rng = random.Random(seed)
    letters = "abcdefgh"
    alphabet = tuple(letters[i] for i in range(sizes["alphabet"]))
    finite_rules = "finite_replacement" in constraints

    def draw_word():
        length = rng.randint(1, sizes["rule_length"])
        return tuple(rng.choice(alphabet) for _ in range(length))

    def draw_rule():
        node = _alt_ast([_word_ast(draw_word()) for _ in range(rng.randint(1, 3))])
        if not finite_rules and rng.random() < 0.35:
            node = ("cat", node, ("star", ("sym", rng.choice(alphabet))))
        return node

    def draw_game():
        m = sizes["target_states"]
        trans = {
            (q, a): rng.randrange(m) for q in range(m) for a in alphabet
        }
        acc = [q for q in range(m) if rng.random() < 0.5]
        if not acc:
            acc = [rng.randrange(m)]
        target = Dfa(m, alphabet, trans, 0, acc)
        count = rng.randint(1, len(alphabet))
        rules = {a: draw_rule() for a in rng.sample(list(alphabet), count)}
        return Game(alphabet, rules, target, name="random-%s" % seed)

    wanted = constraints - {"finite_replacement"}
    for _ in range(retries):
        game = draw_game()
        if not wanted:
            return game
        report = classify(game)
        if all(getattr(report, flag) for flag in wanted):
            return game
    raise ValueError(
        "no game satisfying %s within %d draws (seed %r)"
        % (sorted(constraints), retries, seed)
    )
