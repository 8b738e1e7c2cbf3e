"""Finite automata and regular expressions over symbol alphabets.

Symbols are strings, words are tuples of symbols.  A word like ("a", "b")
prints as "ab" when every symbol is a single character.  All DFAs here are
total: every (state, symbol) pair has a transition, with an explicit dead
state where needed.  Lazy walks over the subsets of states that an NFA's
words reach all read a SubsetView; determinize keeps its own loop.  It and
is_dominated step one symbol per class (symbol_classes): the rest follow it.
"""

from collections import defaultdict, deque
import itertools
import json


class RegexSyntaxError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Regular expressions.
#
# The AST is built from plain tuples so it can be hashed and compared:
#   ("sym", s), ("eps",), ("cat", l, r), ("alt", l, r), ("star", x)
# The concrete syntax uses juxtaposition for concatenation, "+" for union,
# "*" for iteration and parentheses for grouping.  A bare character is a
# symbol; multi-character symbols are written in double quotes, e.g. "(0,2)".
# The empty word has no concrete syntax (rule languages never contain it).

_SPECIAL = set('()+*"')


def tokenize_regex(text):
    tokens = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
        elif c in "()+*":
            tokens.append((c, c))
            i += 1
        elif c == '"':
            j = text.find('"', i + 1)
            if j < 0:
                raise RegexSyntaxError("unterminated quoted symbol in %r" % text)
            if j == i + 1:
                raise RegexSyntaxError("empty quoted symbol in %r" % text)
            tokens.append(("sym", text[i + 1:j]))
            i = j + 1
        else:
            tokens.append(("sym", c))
            i += 1
    return tokens


def parse_regex(text):
    """Parse a regular expression into an AST tuple."""
    tokens = tokenize_regex(text)
    pos = 0

    def peek():
        return tokens[pos][0] if pos < len(tokens) else None

    def parse_alt():
        nonlocal pos
        node = parse_cat()
        while peek() == "+":
            pos += 1
            node = ("alt", node, parse_cat())
        return node

    def parse_cat():
        nonlocal pos
        node = parse_rep()
        while peek() in ("sym", "("):
            node = ("cat", node, parse_rep())
        return node

    def parse_rep():
        nonlocal pos
        node = parse_atom()
        while peek() == "*":
            pos += 1
            node = ("star", node)
        return node

    def parse_atom():
        nonlocal pos
        kind = peek()
        if kind == "sym":
            sym = tokens[pos][1]
            pos += 1
            return ("sym", sym)
        if kind == "(":
            pos += 1
            if peek() == ")":
                raise RegexSyntaxError("empty group in %r" % text)
            node = parse_alt()
            if peek() != ")":
                raise RegexSyntaxError("missing ) in %r" % text)
            pos += 1
            return node
        raise RegexSyntaxError("unexpected %s in %r" % (kind or "end of input", text))

    if not tokens:
        raise RegexSyntaxError("empty regular expression")
    node = parse_alt()
    if pos != len(tokens):
        raise RegexSyntaxError("trailing %r in %r" % (tokens[pos][1], text))
    return node


def _symbol_text(sym):
    if len(sym) == 1 and sym not in _SPECIAL and not sym.isspace():
        return sym
    if '"' in sym:
        raise ValueError("symbol %r cannot be written in regex syntax" % sym)
    return '"%s"' % sym


def regex_to_text(node):
    """Render an AST back to concrete syntax (inverse of parse_regex)."""

    def render(n, level):
        # level: 0 alt context, 1 cat context, 2 star context
        kind = n[0]
        if kind == "sym":
            return _symbol_text(n[1])
        if kind == "eps":
            raise ValueError("the empty word has no concrete syntax")
        if kind == "alt":
            body = render(n[1], 0) + "+" + render(n[2], 1)
            return "(" + body + ")" if level > 0 else body
        if kind == "cat":
            body = render(n[1], 1) + render(n[2], 2)
            return "(" + body + ")" if level > 1 else body
        if kind == "star":
            return render(n[1], 2) + "*"
        raise ValueError("bad AST node %r" % (n,))

    return render(node, 0)


def regex_symbols(node):
    """The set of symbols that occur in an AST."""
    kind = node[0]
    if kind == "sym":
        return {node[1]}
    if kind == "eps":
        return set()
    if kind == "star":
        return regex_symbols(node[1])
    return regex_symbols(node[1]) | regex_symbols(node[2])


# ---------------------------------------------------------------------------
# Automata.


class Dfa:
    """Total deterministic automaton.

    transitions maps (state, symbol) to a state and must cover every pair;
    states are 0 .. n_states-1.
    """

    def __init__(self, n_states, alphabet, transitions, initial, accepting):
        self.n_states = n_states
        self.alphabet = tuple(alphabet)
        self.transitions = dict(transitions)
        self.initial = initial
        self.accepting = frozenset(accepting)
        if len(set(self.alphabet)) != len(self.alphabet):
            raise ValueError("duplicate symbols in alphabet")
        if not (0 <= initial < n_states):
            raise ValueError("initial state out of range")
        for q in self.accepting:
            if not 0 <= q < n_states:
                raise ValueError("accepting state %r out of range" % (q,))
        for q in range(n_states):
            for a in self.alphabet:
                if (q, a) not in self.transitions:
                    raise ValueError("missing transition (%r, %r)" % (q, a))
        if len(self.transitions) != n_states * len(self.alphabet):
            extra = set(self.transitions) - {
                (q, a) for q in range(n_states) for a in self.alphabet
            }
            raise ValueError("unexpected transitions: %r" % sorted(extra))

    def run(self, word):
        q = self.initial
        for a in word:
            q = self.transitions[(q, a)]
        return q

    def accepts(self, word):
        return self.run(word) in self.accepting

    def __eq__(self, other):
        if not isinstance(other, Dfa):
            return NotImplemented
        return (
            self.n_states == other.n_states
            and self.alphabet == other.alphabet
            and self.initial == other.initial
            and self.accepting == other.accepting
            and self.transitions == other.transitions
        )

    def __repr__(self):
        return "Dfa(%d states, %d accepting, alphabet %r)" % (
            self.n_states,
            len(self.accepting),
            list(self.alphabet),
        )


class Nfa:
    """Nondeterministic automaton without epsilon transitions.

    transitions maps (state, symbol) to a set of states; missing pairs mean
    no move.  initials is a set of initial states.
    """

    def __init__(self, n_states, alphabet, transitions, initials, accepting):
        self.n_states = n_states
        self.alphabet = tuple(alphabet)
        self.transitions = {k: frozenset(v) for k, v in transitions.items() if v}
        self.initials = frozenset(initials)
        self.accepting = frozenset(accepting)

    def step_set(self, states, symbol):
        out = set()
        for q in states:
            out |= self.transitions.get((q, symbol), frozenset())
        return frozenset(out)

    def accepts(self, word):
        current = self.initials
        for a in word:
            current = self.step_set(current, a)
        return bool(current & self.accepting)

    def __repr__(self):
        return "Nfa(%d states, alphabet %r)" % (self.n_states, list(self.alphabet))


def regex_to_nfa(node, alphabet):
    """Glushkov position construction; the result has no epsilon moves.
    State p > 0 is the p-th symbol leaf from the left; the start state 0
    accepts exactly when the AST is nullable."""
    positions = []  # positions[p - 1] is the symbol at position p
    follow = {}

    def analyze(n):
        # returns (nullable, first, last); numbers leaves, fills follow
        kind = n[0]
        if kind == "sym":
            positions.append(n[1])
            p = len(positions)
            follow[p] = set()
            return (False, {p}, {p})
        if kind == "eps":
            return (True, set(), set())
        if kind == "cat":
            n1, f1, l1 = analyze(n[1])
            n2, f2, l2 = analyze(n[2])
            for p in l1:
                follow[p] |= f2
            first = f1 | f2 if n1 else f1
            last = l2 | l1 if n2 else l2
            return (n1 and n2, first, last)
        if kind == "alt":
            n1, f1, l1 = analyze(n[1])
            n2, f2, l2 = analyze(n[2])
            return (n1 or n2, f1 | f2, l1 | l2)
        if kind == "star":
            n1, f1, l1 = analyze(n[1])
            for p in l1:
                follow[p] |= f1
            return (True, f1, l1)
        raise ValueError("bad AST node %r" % (n,))

    nullable, first, last = analyze(node)

    transitions = {}
    for p in first:
        transitions.setdefault((0, positions[p - 1]), set()).add(p)
    for p, succs in follow.items():
        for q in succs:
            transitions.setdefault((p, positions[q - 1]), set()).add(q)
    accepting = set(last)
    if nullable:
        accepting.add(0)
    return Nfa(len(positions) + 1, alphabet, transitions, {0}, accepting)


class SubsetView:
    """Lazy subset construction of an NFA.  subsets[i] is the i-th subset
    of states found reachable by a word, subset 0 the initial states, and
    index maps each back to its number.  step(i, a), memoized, numbers the
    subset a leads to from subset i; a cut, when given, maps each stepped
    subset to the one numbered in its place."""

    def __init__(self, nfa, cut=None):
        self.nfa, self.cut = nfa, cut
        self.subsets, self.index, self._steps = [nfa.initials], {nfa.initials: 0}, {}

    def number(self, subset):
        """The number of subset, which is numbered next if it is new."""
        i = self.index.get(subset)
        if i is None:
            i = self.index[subset] = len(self.subsets)
            self.subsets.append(subset)
        return i

    def step(self, i, a):
        j = self._steps.get((i, a))
        if j is None:
            nxt = self.nfa.step_set(self.subsets[i], a)
            j = self._steps[(i, a)] = self.number(self.cut(nxt) if self.cut else nxt)
        return j

    def accepts(self, i):
        return not self.nfa.accepting.isdisjoint(self.subsets[i])


def symbol_classes(alphabet, *nfas):
    """Lists of the symbols with equal columns in every nfa, in alphabet order."""
    columns = defaultdict(list)  # symbol -> (nfa, state, targets) triples
    for i, nfa in enumerate(nfas):
        for (q, a), targets in nfa.transitions.items():
            columns[a].append((i, q, targets))
    classes = {}
    for a in alphabet:
        classes.setdefault(frozenset(columns[a]), []).append(a)
    return list(classes.values())


def determinize(nfa):
    """Subset construction, numbering subsets breadth first from the initial
    one.  The result is total; the empty subset is a dead state if reached.
    One symbol per class is stepped; the rest reach the same subset, later."""
    classes, view, transitions = symbol_classes(nfa.alphabet, nfa), SubsetView(nfa), {}
    for i, subset in enumerate(view.subsets):  # grows while walked: a BFS queue
        for members in classes:
            j = view.number(nfa.step_set(subset, members[0]))
            for a in members:
                transitions[(i, a)] = j
    accepting = {i for i, subset in enumerate(view.subsets) if subset & nfa.accepting}
    return Dfa(len(view.subsets), nfa.alphabet, transitions, 0, accepting)


def _moore_blocks(states, alphabet, transitions, accepting):
    """Moore partition refinement over states, which transitions (a total
    map from (state, symbol)) must not leave.

    Returns the map from each state to its block number; two states
    share a block exactly when they accept the same language.  Blocks are
    numbered 0, 1, ... in the order of their first members in states.
    """
    successors = [(q, [transitions[(q, a)] for a in alphabet]) for q in states]
    block = {q: (1 if q in accepting else 0) for q, _ in successors}
    count = len(set(block.values()))
    while True:
        renumber = {}
        refined = {
            q: renumber.setdefault((block[q], *[block[t] for t in succ]), len(renumber))
            for q, succ in successors
        }
        if len(renumber) == count:
            return refined
        block, count = refined, len(renumber)


def minimize(dfa):
    """Minimize a total DFA.

    States of the result are numbered canonically: 0 is initial and the
    rest follow breadth-first discovery order in alphabet order, so two
    minimal automata for the same language over the same alphabet are
    structurally equal.
    """
    reachable = [dfa.initial]
    seen = {dfa.initial}
    for q in reachable:
        for a in dfa.alphabet:
            t = dfa.transitions[(q, a)]
            if t not in seen:
                seen.add(t)
                reachable.append(t)

    # Blocks are numbered in the order reachable first meets them, which is
    # the quotient's own breadth-first order: this FIFO search visits states
    # in shortlex order of their least access words, and a block's least
    # access word is the least of its members' least access words.
    block = _moore_blocks(reachable, dfa.alphabet, dfa.transitions, dfa.accepting)
    rep = {}  # block -> its first member in reachable
    for q in reachable:
        rep.setdefault(block[q], q)
    transitions = {
        (b, a): block[dfa.transitions[(q, a)]]
        for b, q in rep.items()
        for a in dfa.alphabet
    }
    accepting = {b for b, q in rep.items() if q in dfa.accepting}
    return Dfa(len(rep), dfa.alphabet, transitions, 0, accepting)


def complement(dfa):
    return Dfa(
        dfa.n_states,
        dfa.alphabet,
        dfa.transitions,
        dfa.initial,
        set(range(dfa.n_states)) - dfa.accepting,
    )


def shortlex_path(start, step, alphabet, goal):
    """Breadth-first search from start, expanding in alphabet order.

    Returns the word leading to the first visited node satisfying
    goal(node), or None.  Visit order equals shortlex order of
    first-access words, so the word is the shortlex least one that
    reaches a goal node.
    """
    parent = {start: None}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        if goal(node):
            word = []
            while parent[node] is not None:
                node, a = parent[node]
                word.append(a)
            return tuple(reversed(word))
        for a in alphabet:
            nxt = step(node, a)
            if nxt not in parent:
                parent[nxt] = (node, a)
                queue.append(nxt)
    return None


def _pair_path(d1, d2, predicate):
    """Shortlex least word whose memberships in two total DFAs satisfy
    predicate(in1, in2), or None."""
    if d1.alphabet != d2.alphabet:
        raise ValueError("alphabet mismatch: %r vs %r" % (d1.alphabet, d2.alphabet))
    t1, t2 = d1.transitions, d2.transitions
    return shortlex_path(
        (d1.initial, d2.initial),
        lambda pair, a: (t1[(pair[0], a)], t2[(pair[1], a)]),
        d1.alphabet,
        lambda pair: predicate(pair[0] in d1.accepting, pair[1] in d2.accepting),
    )


def subset_witness(d1, d2):
    """Shortlex least word in L(d1) \\ L(d2), or None if L(d1) <= L(d2)."""
    return _pair_path(d1, d2, lambda x, y: x and not y)


def compare_shortlex(d1, d2):
    """Shortlex order on languages.

    Returns (cmp, witness): cmp is -1 when L(d1) < L(d2), 1 when
    L(d1) > L(d2), 0 when equal.  The order compares the shortlex least
    word of the symmetric difference; the language containing it is the
    larger one.  witness is that word (None when equal).
    """
    word = _pair_path(d1, d2, lambda x, y: x != y)
    if word is None:
        return 0, None
    return (1, word) if d1.accepts(word) else (-1, word)


def equivalent(d1, d2):
    return compare_shortlex(d1, d2)[0] == 0


def residual_order(nfa, cut=None):
    """Shortlex order on the residual languages of an NFA's states.

    Returns cmp(p, q): -1, 0 or 1 as the language accepted from {p} is
    less than, equal to or greater than the one accepted from {q}, in the
    order of compare_shortlex.  Each call is Hopcroft and Karp's check up
    to equivalence (Bonchi and Pous, POPL 2013): a breadth-first search
    over pairs of subsets reached by one word from ({p}, {q}), expanding
    in alphabet order, that skips a pair whose sides are already in one
    union-find class, returns at the first pair whose sides disagree on
    acceptance (1 when the left side accepts) and otherwise unions the
    sides and enqueues their successors.  All calls share a SubsetView,
    which is a memo of subset steps, and a union-find over its subset
    numbers; a call that ends in 0 commits its unions, which then join
    subsets of equal language, and a call that finds a difference discards
    them.  A cut, when given, is the view's: it maps each stepped subset to
    one of equal language, so the search sees the same languages on fewer
    states.  Each pair of classes is answered once: a call whose {p} and
    {q} share a class returns 0, and one whose pair of classes, or its
    mirror, was answered returns that answer or its negation without
    searching.  Classes only join subsets of equal language, so the answer
    is the one a search would give, and the argument below concerns only
    the searches that run.

    The first disagreeing pair sits at the shortlex least word w* of the
    symmetric difference.  Pairs leave the queue in shortlex order of
    their access words, and a pair with an access word before w* agrees
    on acceptance, so only a skipped pair on the path of w* could hide
    it.  Say the pair (X, Y) at the prefix u of w* = u.v is skipped.
    X and Y are joined by a chain of links, each a processed pair whose
    access word u_i comes before u or two subsets of equal language.
    X.v and Y.v disagree on acceptance, so the two sides of some link
    do after v, and that link is a processed pair (S_i, T_i).  Then
    u_i.v is in the symmetric difference, and since u_i comes before u
    and both are followed by v, u_i.v comes before w*: a contradiction.
    """
    view = SubsetView(nfa, cut)
    step, accepts = view.step, view.accepts
    equal = {}  # union-find parent links between subset numbers of equal language
    answers = {}  # (root of {p}, root of {q}) -> cmp(p, q) when unequal
    singletons = [view.number(frozenset([q])) for q in range(nfa.n_states)]

    def root(subset, links):
        top = subset
        while top in links:
            top = links[top]
        while subset in links:  # path compression
            links[subset], subset = top, links[subset]
        return top

    def cmp(p, q):
        pair = (root(singletons[p], equal), root(singletons[q], equal))
        if pair[0] == pair[1] or pair in answers:
            return answers.get(pair, 0)
        tentative = {}  # links between roots of equal, committed on 0
        queue = deque([(singletons[p], singletons[q])])
        while queue:
            left, right = queue.popleft()
            top = root(root(left, equal), tentative)
            other = root(root(right, equal), tentative)
            if top == other:
                continue
            in_left = accepts(left)
            if in_left != accepts(right):
                answers[pair] = 1 if in_left else -1
                answers[pair[::-1]] = -answers[pair]
                return answers[pair]
            tentative[top] = other
            for a in nfa.alphabet:
                queue.append((step(left, a), step(right, a)))
        equal.update(tentative)
        return 0

    return cmp


def shortlex_key(word, alphabet):
    index = {a: i for i, a in enumerate(alphabet)}
    return (len(word), tuple(index[a] for a in word))


def shortlex_min_word(dfa):
    """Shortlex least accepted word, or None for the empty language."""
    trans = dfa.transitions
    return shortlex_path(
        dfa.initial, lambda q, a: trans[(q, a)], dfa.alphabet, dfa.accepting.__contains__
    )


def coaccessible_states(automaton):
    """States of a Dfa or Nfa from which some accepting state is reachable
    (in 0+ steps)."""
    deterministic = isinstance(automaton, Dfa)
    incoming = {}
    for (q, _), targets in automaton.transitions.items():
        for t in (targets,) if deterministic else targets:
            incoming.setdefault(t, set()).add(q)
    result = set(automaton.accepting)
    queue = deque(result)
    while queue:
        q = queue.popleft()
        for p in incoming.get(q, ()):
            if p not in result:
                result.add(p)
                queue.append(p)
    return result


def has_cycle(nodes, successors):
    """Whether the graph reached from nodes through successors(node) has a
    cycle.  Iterative depth-first search, so long paths are fine."""
    color = {}  # 1 while on the search path, 2 when done
    for root in nodes:
        if root in color:
            continue
        color[root] = 1
        path = [(root, iter(successors(root)))]
        while path:
            node, succs = path[-1]
            for succ in succs:
                c = color.get(succ)
                if c == 1:
                    return True
                if c is None:
                    color[succ] = 1
                    path.append((succ, iter(successors(succ))))
                    break
            else:
                color[node] = 2
                path.pop()
    return False


def language_is_finite(dfa):
    """True when L(dfa) is finite: no cycle among states that are both
    reachable and coaccessible."""
    live = coaccessible_states(dfa)
    # every state on a path from the initial state to a live one is live
    roots = [dfa.initial] if dfa.initial in live else []
    trans = dfa.transitions
    return not has_cycle(
        roots, lambda q: [t for t in (trans[(q, a)] for a in dfa.alphabet) if t in live]
    )


def enumerate_upto(automaton, max_len):
    """All accepted words of length <= max_len, in shortlex order.

    Works for Dfa and Nfa, an Nfa through a SubsetView cut down to its
    coaccessible states.  The word tree is pruned at dead states and at
    empty subsets."""
    words = []
    live = frozenset(coaccessible_states(automaton))
    if isinstance(automaton, Dfa):
        start, step = automaton.initial, lambda q, a: automaton.transitions[(q, a)]
        alive, accepted = live.__contains__, automaton.accepting.__contains__
    else:
        view = SubsetView(automaton, live.intersection)
        start, step, accepted = 0, view.step, view.accepts
        alive = view.subsets.__getitem__  # a nonempty subset is alive
    frontier = [((), start)]
    for length in range(max_len + 1):
        nxt = []
        for word, q in frontier:
            if accepted(q):
                words.append(word)
            if length < max_len:
                for a in automaton.alphabet:
                    t = step(q, a)
                    if alive(t):
                        nxt.append((word + (a,), t))
        frontier = nxt
    return words


def all_words_upto(alphabet, max_len):
    """Every word of length <= max_len in shortlex order (alphabet order)."""
    for length in range(max_len + 1):
        for combo in itertools.product(alphabet, repeat=length):
            yield combo


def is_prefix_free(dfa):
    """Whether no accepted word is a proper prefix of another.

    Returns (True, None) or (False, (word, extension)) where word is the
    shortlex least accepted word with an accepted proper extension and
    extension the shortlex least nonempty word completing it.
    """
    trans = dfa.transitions
    live = coaccessible_states(dfa)
    # states with a nonempty path to an accepting state
    extendable = {q for (q, _), t in trans.items() if t in live}
    word = shortlex_path(
        dfa.initial,
        lambda q, a: trans[(q, a)],
        dfa.alphabet,
        lambda q: q in dfa.accepting and q in extendable,
    )
    if word is None:
        return True, None
    # nodes are (state, whether a symbol has been read yet)
    extension = shortlex_path(
        (dfa.run(word), False),
        lambda node, a: (trans[(node[0], a)], True),
        dfa.alphabet,
        lambda node: node[1] and node[0] in dfa.accepting,
    )
    return False, (word, extension)


def dfa_to_dict(dfa):
    """Plain-dict form of a Dfa, for JSON serialization."""
    return {
        "alphabet": list(dfa.alphabet),
        "states": dfa.n_states,
        "initial": dfa.initial,
        "accepting": sorted(dfa.accepting),
        "transitions": [[q, a, t] for (q, a), t in sorted(dfa.transitions.items())],
    }


def _transition_triples(data, initial_set=False):
    """The initial states, as a list, and the (q, a, t) transition entries
    of an automaton description.

    Raises ValueError unless the description is an object with every
    field, its alphabet a list of distinct strings, states a non-negative
    int, accepting and transitions lists and each transition entry a
    triple on an alphabet symbol, and unless every state value (initial,
    which may be a list of states when initial_set, each accepting entry
    and each transition's source and target) is an int, not a bool, in
    range(states).
    """
    if not isinstance(data, dict):
        raise ValueError("automaton description must be an object")
    for field in ("alphabet", "states", "initial", "accepting", "transitions"):
        if field not in data:
            raise ValueError("automaton is missing %r" % field)
    for field in ("alphabet", "accepting", "transitions"):
        if not isinstance(data[field], (list, tuple)):
            raise ValueError("%s must be a list, got %r" % (field, data[field]))
    symbols = set()
    for a in data["alphabet"]:
        if not isinstance(a, str):
            raise ValueError("alphabet entry %r is not a string" % (a,))
        if a in symbols:
            raise ValueError("duplicate symbols in alphabet: %r" % (a,))
        symbols.add(a)
    states = data["states"]
    if isinstance(states, bool) or not isinstance(states, int) or states < 0:
        raise ValueError("states must be a non-negative int, got %r" % (states,))

    def check(role, q):
        if isinstance(q, bool) or not isinstance(q, int) or not 0 <= q < states:
            raise ValueError("%s %r is not an int in range(%d)" % (role, q, states))

    initials = data["initial"]
    if not (initial_set and isinstance(initials, (list, tuple))):
        initials = [initials]
    for q in initials:
        check("initial state", q)
    for q in data["accepting"]:
        check("accepting state", q)
    triples = []
    for entry in data["transitions"]:
        if not (isinstance(entry, (list, tuple)) and len(entry) == 3):
            raise ValueError("bad transition entry %r" % (entry,))
        q, a, t = entry
        check("transition source", q)
        check("transition target", t)
        if not (isinstance(a, str) and a in symbols):
            raise ValueError("transition on unknown symbol %r" % (a,))
        triples.append((q, a, t))
    return initials, triples


def dfa_from_dict(data):
    transitions = {}
    for q, a, t in _transition_triples(data)[1]:
        if (q, a) in transitions:
            raise ValueError("duplicate transition for state %r on %r" % (q, a))
        transitions[(q, a)] = t
    return Dfa(
        data["states"], data["alphabet"], transitions, data["initial"], data["accepting"]
    )


def nfa_to_dict(nfa):
    triples = []
    for (q, a), targets in sorted(nfa.transitions.items()):
        for t in sorted(targets):
            triples.append([q, a, t])
    return {
        "alphabet": list(nfa.alphabet),
        "states": nfa.n_states,
        "initial": sorted(nfa.initials),
        "accepting": sorted(nfa.accepting),
        "transitions": triples,
        "nondeterministic": True,
    }


def nfa_from_dict(data):
    """An Nfa from its description, whose initial is a state or a list."""
    initials, triples = _transition_triples(data, initial_set=True)
    transitions = {}
    for q, a, t in triples:
        transitions.setdefault((q, a), set()).add(t)
    return Nfa(data["states"], data["alphabet"], transitions, initials, data["accepting"])


def parse_json(text, error):
    """The JSON value of text (str, or UTF-8 bytes); raises error with
    "invalid JSON: ..." when it does not parse."""
    try:
        if isinstance(text, bytes):
            text = text.decode("utf-8")
        return json.loads(text)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise error("invalid JSON: %s" % exc) from None


def _gvquote(label):
    return '"%s"' % str(label).replace("\\", "\\\\").replace('"', '\\"')


def to_dot(automaton, name="automaton"):
    """Graphviz source for a Dfa or Nfa; a name that is not a plain DOT
    ID (letters, digits and underscores, no keyword) is quoted."""
    keyword = name.lower() in ("node", "edge", "graph", "digraph", "subgraph", "strict")
    if keyword or not (name.isascii() and name.isidentifier()):
        name = _gvquote(name)
    lines = ["digraph %s {" % name, "  rankdir=LR;", '  __start [shape=point, label=""];']
    for q in range(automaton.n_states):
        shape = "doublecircle" if q in automaton.accepting else "circle"
        lines.append("  %d [shape=%s, label=%s];" % (q, shape, _gvquote(q)))
    if isinstance(automaton, Dfa):
        initials = [automaton.initial]
    else:
        initials = sorted(automaton.initials)
    for q in initials:
        lines.append("  __start -> %d;" % q)
    edges = {}
    for (q, a), target in sorted(automaton.transitions.items()):
        targets = [target] if isinstance(target, int) else sorted(target)
        for t in targets:
            edges.setdefault((q, t), []).append(a)
    for (q, t), symbols in sorted(edges.items()):
        lines.append("  %d -> %d [label=%s];" % (q, t, _gvquote(",".join(symbols))))
    lines.append("}")
    return "\n".join(lines) + "\n"
