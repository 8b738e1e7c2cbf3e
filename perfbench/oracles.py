"""Independent answers for the benchmark's correctness checks.

Nothing here imports cfgame.  The functions read only the plain data
fields of the library's containers (alphabets, transition tables, rule
syntax trees) and answer by direct enumeration, so a wrong verdict from
the code under test cannot also be a wrong expectation.
"""

import itertools
from collections import deque


def cnf_satisfiable(n_vars, clauses):
    """Truth-table satisfiability of a CNF over variables 1..n_vars."""
    for bits in itertools.product((False, True), repeat=n_vars):
        if all(any(bits[abs(lit) - 1] == (lit > 0) for lit in c) for c in clauses):
            return True
    return False


def nfa_least_rejected(alphabet, transitions, initials, accepting):
    """Shortlex least word the NFA rejects, or None when it is universal.

    Breadth-first subset construction, expanding symbols in alphabet
    order, so the first rejecting subset is reached by the least word.
    """
    start = frozenset(initials)
    parent = {start: None}
    queue = deque([start])
    while queue:
        current = queue.popleft()
        if not current & accepting:
            word = []
            node = current
            while parent[node] is not None:
                node, a = parent[node]
                word.append(a)
            return tuple(reversed(word))
        for a in alphabet:
            nxt = frozenset(t for q in current for t in transitions.get((q, a), ()))
            if nxt not in parent:
                parent[nxt] = (current, a)
                queue.append(nxt)
    return None


def nfa_accepts(transitions, initials, accepting, word):
    current = set(initials)
    for a in word:
        current = {t for q in current for t in transitions.get((q, a), ())}
    return bool(current & set(accepting))


def dfa_accepts(transitions, initial, accepting, word):
    q = initial
    for a in word:
        q = transitions[(q, a)]
    return q in accepting


def dfa_equivalent(d1, d2):
    """Same language?  Each argument is (alphabet, transitions, initial,
    accepting) of a total DFA; the pair graph is searched for a pair that
    disagrees on acceptance."""
    alphabet, t1, i1, acc1 = d1
    _, t2, i2, acc2 = d2
    seen = {(i1, i2)}
    queue = deque(seen)
    while queue:
        p, q = queue.popleft()
        if (p in acc1) != (q in acc2):
            return False
        for a in alphabet:
            nxt = (t1[(p, a)], t2[(q, a)])
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return True


def words_upto(alphabet, max_len):
    for n in range(max_len + 1):
        yield from itertools.product(alphabet, repeat=n)


def finite_language(node):
    """Words of a star-free rule syntax tree."""
    tag = node[0]
    if tag == "sym":
        return {(node[1],)}
    if tag == "eps":
        return {()}
    if tag == "alt":
        return finite_language(node[1]) | finite_language(node[2])
    if tag == "cat":
        return {u + v for u in finite_language(node[1]) for v in finite_language(node[2])}
    raise ValueError("rule is not star-free: %r" % (node,))


class PlayReferee:
    """Brute-force verdicts for one automaton strategy on a game whose
    replacement languages are finite.

    The strategy is a total DFA over the history alphabet, read from its
    transition table: on a function symbol it calls when the symbol's
    transition enters an accepting state, and a call is recorded as the
    symbol prefixed with "^".  Romeo may answer a call with any word of
    the rule's language.  The opponent can make a play go on forever
    exactly when some (strategy state, called symbol) pair repeats on the
    nesting stack, since the strategy's choices depend on its state only.
    """

    def __init__(self, rules, target, strategy):
        self.replies = {a: sorted(finite_language(r)) for a, r in rules.items()}
        self.target = target
        self.strategy = strategy
        self.memo = {}

    def _calls(self, p, a):
        s = self.strategy
        return a in self.replies and s.transitions[(p, a)] in s.accepting

    def _sub_play(self, p, q, a, stack):
        """(endpoints, can_diverge) of handling symbol a from (p, q)."""
        if not self._calls(p, a):
            return {(self.strategy.transitions[(p, a)], self.target.transitions[(q, a)])}, False
        if (p, a) in stack:
            return set(), True
        key = (p, q, a, stack)
        if key in self.memo:
            return self.memo[key]
        inner = stack | {(p, a)}
        ends = set()
        diverge = False
        for reply in self.replies[a]:
            current = {(self.strategy.transitions[(p, "^" + a)], q)}
            for c in reply:
                step = set()
                for pp, qq in current:
                    e, d = self._sub_play(pp, qq, c, inner)
                    step |= e
                    diverge = diverge or d
                current = step
            ends |= current
        self.memo[key] = (ends, diverge)
        return ends, diverge

    def loses(self, word):
        """Can Romeo make the play end outside the target, or never end?"""
        current = {(self.strategy.initial, self.target.initial)}
        for a in word:
            step = set()
            for p, q in current:
                e, d = self._sub_play(p, q, a, frozenset())
                if d:
                    return True
                step |= e
            current = step
        return any(q not in self.target.accepting for _, q in current)
