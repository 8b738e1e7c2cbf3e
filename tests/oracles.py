"""Independent reference implementations used to check the library.

Everything here is deliberately naive: direct enumeration, table filling,
set arithmetic.  Nothing imports the algorithms under test beyond the plain
data containers.
"""

import itertools


def words_upto(alphabet, max_len):
    out = []
    for n in range(max_len + 1):
        out.extend(itertools.product(alphabet, repeat=n))
    return out


def brute_language(accepts, alphabet, max_len):
    """Accepted words up to max_len, via a membership callable."""
    return {w for w in words_upto(alphabet, max_len) if accepts(w)}


def ast_language(node, max_len):
    """The language of a regex AST, truncated to words of length <= max_len."""
    kind = node[0]
    if kind == "sym":
        return {(node[1],)} if max_len >= 1 else set()
    if kind == "eps":
        return {()}
    if kind == "alt":
        return ast_language(node[1], max_len) | ast_language(node[2], max_len)
    if kind == "cat":
        left = ast_language(node[1], max_len)
        right = ast_language(node[2], max_len)
        return {
            u + v for u in left for v in right if len(u) + len(v) <= max_len
        }
    if kind == "star":
        base = ast_language(node[1], max_len)
        result = {()}
        while True:
            grown = result | {
                u + v for u in base for v in result if len(u) + len(v) <= max_len
            }
            if grown == result:
                return result
            result = grown
    raise ValueError("bad AST node %r" % (node,))


def nerode_is_minimal(dfa):
    """Table-filling check that a total DFA is minimal: all states reachable
    and pairwise distinguishable."""
    reachable = {dfa.initial}
    frontier = [dfa.initial]
    while frontier:
        q = frontier.pop()
        for a in dfa.alphabet:
            t = dfa.transitions[(q, a)]
            if t not in reachable:
                reachable.add(t)
                frontier.append(t)
    if len(reachable) != dfa.n_states:
        return False
    states = sorted(reachable)
    marked = {
        (p, q)
        for p in states
        for q in states
        if p < q and (p in dfa.accepting) != (q in dfa.accepting)
    }
    changed = True
    while changed:
        changed = False
        for p in states:
            for q in states:
                if p >= q or (p, q) in marked:
                    continue
                for a in dfa.alphabet:
                    sp = dfa.transitions[(p, a)]
                    sq = dfa.transitions[(q, a)]
                    key = (min(sp, sq), max(sp, sq))
                    if sp != sq and key in marked:
                        marked.add((p, q))
                        changed = True
                        break
    pairs = len(states) * (len(states) - 1) // 2
    return len(marked) == pairs


def shortlex_sorted(words, alphabet):
    index = {a: i for i, a in enumerate(alphabet)}
    return sorted(words, key=lambda w: (len(w), tuple(index[a] for a in w)))


def brute_min_symdiff(accepts1, accepts2, alphabet, max_len):
    """Shortlex least word up to max_len on which two languages disagree."""
    for w in words_upto(alphabet, max_len):
        if accepts1(w) != accepts2(w):
            return w
    return None


def brute_prefix_violation(language_words):
    """A pair (u, v) with u and u+v both in the given finite word set and v
    nonempty, or None."""
    words = sorted(language_words, key=len)
    as_set = set(words)
    for u in words:
        for w in words:
            if len(w) > len(u) and w[: len(u)] == u and u in as_set:
                return u, w[len(u):]
    return None


def brute_force_effects(game, strategy):
    """Exact symbol effects and divergence, for games with finite rules.

    Endpoint sets come out of a plain Kleene iteration over explicitly
    enumerated reply words; divergence is reachability of a cycle in the
    graph of call contexts.  Returns (pairs, index, effects, diverging):
    pairs lists the reachable (strategy state, target state) product
    states, effects maps (state index, symbol) to the frozenset of
    states after the symbol is completely handled, and diverging holds
    the (state index, symbol) contexts from which handling can go on
    forever.
    """
    from cfgame.automata import enumerate_upto, language_is_finite
    from cfgame.games import hat

    dfa = strategy.automaton(game)
    targ = game.target
    replies = {}
    for a in game.function_symbols:
        rdfa = game.replacement_dfa(a)
        assert language_is_finite(rdfa)
        replies[a] = list(enumerate_upto(rdfa, rdfa.n_states))

    def calls(p, a):
        return a in game.rules and dfa.transitions[(p, a)] in dfa.accepting

    pairs = [(dfa.initial, targ.initial)]
    index = {pairs[0]: 0}
    at = 0
    while at < len(pairs):
        p, q = pairs[at]
        for a in game.alphabet:
            if calls(p, a):
                dest = (dfa.transitions[(p, hat(a))], q)
            else:
                dest = (dfa.transitions[(p, a)], targ.transitions[(q, a)])
            if dest not in index:
                index[dest] = len(pairs)
                pairs.append(dest)
        at += 1

    effects = {}
    for i, (p, q) in enumerate(pairs):
        for a in game.alphabet:
            if calls(p, a):
                effects[(i, a)] = frozenset()
            else:
                dest = (dfa.transitions[(p, a)], targ.transitions[(q, a)])
                effects[(i, a)] = frozenset([index[dest]])

    def compose(start, word):
        states = {start}
        for c in word:
            step = set()
            for s in states:
                step |= effects[(s, c)]
            states = step
        return states

    changed = True
    while changed:
        changed = False
        for i, (p, q) in enumerate(pairs):
            for a in game.function_symbols:
                if not calls(p, a):
                    continue
                hat_i = index[(dfa.transitions[(p, hat(a))], q)]
                total = set()
                for reply in replies[a]:
                    total |= compose(hat_i, reply)
                if frozenset(total) != effects[(i, a)]:
                    effects[(i, a)] = frozenset(total)
                    changed = True

    edges = {}
    for i, (p, q) in enumerate(pairs):
        for a in game.function_symbols:
            if not calls(p, a):
                continue
            hat_i = index[(dfa.transitions[(p, hat(a))], q)]
            out = set()
            for reply in replies[a]:
                states = {hat_i}
                for c in reply:
                    for s in states:
                        if calls(pairs[s][0], c):
                            out.add((s, c))
                    step = set()
                    for s in states:
                        step |= effects[(s, c)]
                    states = step
            edges[(i, a)] = out

    alive = set(edges)
    changed = True
    while changed:
        changed = False
        for node in list(alive):
            if not (edges[node] & alive):
                alive.discard(node)
                changed = True
    return pairs, index, effects, alive


def _rule_keys(game):
    """Keys, parent edges, concatenation parts, star bodies and rule keys
    of a game's replacement rules; a bare symbol node's key is the symbol.
    """

    def key_of(node):
        return node[1] if node[0] == "sym" else node

    keys = set(game.alphabet)
    parents = {}
    cat_parts = {}
    star_body = {}

    def walk(node):
        k = key_of(node)
        keys.add(k)
        tag = node[0]
        if tag in ("cat", "alt"):
            lk = walk(node[1])
            rk = walk(node[2])
            if tag == "cat":
                parents.setdefault(lk, set()).add((k, "left"))
                parents.setdefault(rk, set()).add((k, "right"))
                cat_parts[k] = (lk, rk)
            else:
                parents.setdefault(lk, set()).add((k, "alt"))
                parents.setdefault(rk, set()).add((k, "alt"))
        elif tag == "star":
            bk = walk(node[1])
            parents.setdefault(bk, set()).add((k, "body"))
            star_body[k] = bk
        return k

    rule_key = {sym: walk(game.rules[sym]) for sym in game.function_symbols}
    return keys, parents, cat_parts, star_body, rule_key


class EagerRelations:
    """Move, next and inf facts of a strategy automaton, saturated for
    every reachable product pair and every key by three bottom-up
    worklists: move first, then next and inf on top of its move_into.

    Pairs are numbered in the breadth-first order of the library's
    Relations, so the two can be compared index by index.
    """

    def __init__(self, game, sdfa):
        from cfgame.games import hat

        targ = game.target
        self.keys, self.parents, self.cat_parts, self.star_body, self.rule_key = (
            _rule_keys(game)
        )
        self.call_groups = {}
        for sym, k in self.rule_key.items():
            self.call_groups.setdefault(k, []).append(sym)
        start = (sdfa.initial, targ.initial)
        self.pairs = [start]
        self.index = {start: 0}
        self.calls = set()
        self.read_to = {}
        self.hat_to = {}
        at = 0
        while at < len(self.pairs):
            p, q = self.pairs[at]
            for a in game.alphabet:
                if a in game.rules and sdfa.transitions[(p, a)] in sdfa.accepting:
                    self.calls.add((at, a))
                    dest = (sdfa.transitions[(p, hat(a))], q)
                    self.hat_to[(at, a)] = self._intern(dest)
                else:
                    dest = (sdfa.transitions[(p, a)], targ.transitions[(q, a)])
                    self.read_to[(at, a)] = self._intern(dest)
            at += 1
        self.call_sources = {}
        for (i, a), j in self.hat_to.items():
            self.call_sources.setdefault((a, j), []).append(i)
        self._saturate_move()
        self._saturate_next(game.alphabet)
        self._saturate_inf()

    def _intern(self, pair):
        if pair not in self.index:
            self.index[pair] = len(self.pairs)
            self.pairs.append(pair)
        return self.index[pair]

    def _saturate_move(self):
        move = {}
        move_into = {}
        work = []

        def add(i, k, j):
            bucket = move.setdefault((i, k), set())
            if j not in bucket:
                bucket.add(j)
                move_into.setdefault((k, j), set()).add(i)
                work.append((i, k, j))

        for (i, a), j in self.read_to.items():
            add(i, a, j)
        for i in range(len(self.pairs)):
            for k in self.keys:
                if k == ("eps",) or (isinstance(k, tuple) and k[0] == "star"):
                    add(i, k, i)
        while work:
            src, k, dst = work.pop()
            for parent, role in self.parents.get(k, ()):
                if role == "left":
                    for j in list(move.get((dst, self.cat_parts[parent][1]), ())):
                        add(src, parent, j)
                elif role == "right":
                    for i0 in list(move_into.get((self.cat_parts[parent][0], src), ())):
                        add(i0, parent, dst)
                elif role == "alt":
                    add(src, parent, dst)
                else:
                    for j in list(move.get((dst, parent), ())):
                        add(src, parent, j)
            if k in self.star_body:
                for i0 in list(move_into.get((self.star_body[k], src), ())):
                    add(i0, k, dst)
            for b in self.call_groups.get(k, ()):
                for i0 in self.call_sources.get((b, src), ()):
                    add(i0, b, dst)
        self.move = move
        self.move_into = move_into

    def _saturate_next(self, alphabet):
        move_into = self.move_into
        next_rel = {}
        work = []

        def add(i, k, j, a):
            bucket = next_rel.setdefault((i, k), set())
            if (j, a) not in bucket:
                bucket.add((j, a))
                work.append((i, k, j, a))

        for i in range(len(self.pairs)):
            for a in alphabet:
                add(i, a, i, a)
        while work:
            src, k, j, a = work.pop()
            for parent, role in self.parents.get(k, ()):
                if role in ("left", "alt"):
                    add(src, parent, j, a)
                elif role == "right":
                    for i0 in list(move_into.get((self.cat_parts[parent][0], src), ())):
                        add(i0, parent, j, a)
                else:
                    for i0 in list(move_into.get((parent, src), ())):
                        add(i0, parent, j, a)
            for b in self.call_groups.get(k, ()):
                for i0 in self.call_sources.get((b, src), ()):
                    add(i0, b, j, a)
        self.next_rel = next_rel

    def _saturate_inf(self):
        move_into = self.move_into
        inf = set()
        work = []

        def add(i, k):
            if (i, k) not in inf:
                inf.add((i, k))
                work.append((i, k))

        for i, a in self.calls:
            h = self.hat_to[(i, a)]
            if (i, a) in self.next_rel.get((h, self.rule_key[a]), ()):
                add(i, a)
        while work:
            src, k = work.pop()
            for parent, role in self.parents.get(k, ()):
                if role in ("left", "alt"):
                    add(src, parent)
                elif role == "right":
                    for i0 in list(move_into.get((self.cat_parts[parent][0], src), ())):
                        add(i0, parent)
                else:
                    for i0 in list(move_into.get((parent, src), ())):
                        add(i0, parent)
            for b in self.call_groups.get(k, ()):
                for i0 in self.call_sources.get((b, src), ()):
                    add(i0, b)
        self.inf = inf


def best_one_pass_win_set(game, max_word_len, history_bound, node_budget=2000000):
    """Shortlex-greatest winning set achievable by a one-pass strategy
    whose read/call decisions live on histories shorter than the bound,
    with reading forced beyond it.

    Words are committed greedily in shortlex order.  Feasibility of a
    word set is decided by evaluating the whole set as one bundle
    indexed by the scanned history: words sharing a history face the
    same decision, histories never merge again, so one free call/read
    choice per bundle node is exactly a consistent decision table and
    no search over tables is needed.  Exact for the bounded class.
    Needs prefix-free rules so that reply completion is unambiguous
    while scanning.
    """
    from cfgame.automata import coaccessible_states
    from cfgame.games import classify

    assert classify(game).prefix_free
    target = game.target
    rdfas = {a: game.replacement_dfa(a) for a in game.function_symbols}
    lives = {a: coaccessible_states(rdfas[a]) for a in game.function_symbols}

    reach_memo = {}

    def tail_states(a, t, y):
        # target states once a reply read out from (t, y) completes
        key = (a, t, y)
        if key in reach_memo:
            return reach_memo[key]
        rdfa = rdfas[a]
        seen = {(t, y)}
        stack = [(t, y)]
        out = set()
        while stack:
            ct, cy = stack.pop()
            if cy in rdfa.accepting:
                out.add(ct)
                continue
            for c in game.alphabet:
                ny = rdfa.transitions[(cy, c)]
                if ny not in lives[a]:
                    continue
                nt = target.transitions[(ct, c)]
                if (nt, ny) not in seen:
                    seen.add((nt, ny))
                    stack.append((nt, ny))
        reach_memo[key] = frozenset(out)
        return reach_memo[key]

    def read_out(t_set, pending):
        states = set(t_set)
        for item in pending:
            if isinstance(item, str):
                states = {target.transitions[(t, item)] for t in states}
            else:
                _, a, y = item
                nxt = set()
                for t in states:
                    nxt |= tail_states(a, t, y)
                states = nxt
        return all(t in target.accepting for t in states)

    counter = [0]

    def feasible(ws):
        memo = {}

        def eval_symbol(t, depth, c, frames, suffixes):
            # one shared choice for every bundled word scanning c here;
            # the two branches extend the history differently, so their
            # downstream decisions are disjoint and independent
            if eval_bundle(
                target.transitions[(t, c)], depth + 1, frames, suffixes
            ):
                return True
            if c in game.rules:
                nframes = (("rep", c, rdfas[c].initial),) + frames
                return eval_bundle(t, depth + 1, nframes, suffixes)
            return False

        def eval_bundle(t, depth, frames, suffixes):
            counter[0] += 1
            assert counter[0] <= node_budget, "one-pass oracle budget exhausted"
            key = (t, depth, frames, suffixes)
            if key in memo:
                return memo[key]
            if depth >= history_bound:
                # reading forced from here on, each word on its own
                ok = all(read_out([t], frames + suf) for suf in suffixes)
            elif frames:
                _, a, y = frames[0]
                rdfa = rdfas[a]
                if y in rdfa.accepting:
                    # prefix-free: an accepted reply cannot continue
                    ok = eval_bundle(t, depth, frames[1:], suffixes)
                else:
                    ok = True
                    for c in game.alphabet:
                        ny = rdfa.transitions[(y, c)]
                        if ny not in lives[a]:
                            continue
                        nframes = (("rep", a, ny),) + frames[1:]
                        if not eval_symbol(t, depth, c, nframes, suffixes):
                            ok = False
                            break
            else:
                # plays of exhausted words end here; the rest split by
                # their next symbol and never share a history again
                ok = all(suf for suf in suffixes) or t in target.accepting
                if ok:
                    heads = {}
                    for suf in suffixes:
                        if suf:
                            heads.setdefault(suf[0], set()).add(suf[1:])
                    for c, tails in sorted(heads.items()):
                        if not eval_symbol(t, depth, c, (), frozenset(tails)):
                            ok = False
                            break
            memo[key] = ok
            return ok

        return eval_bundle(target.initial, 0, (), frozenset(ws))

    committed = []
    for w in words_upto(game.alphabet, max_word_len):
        if feasible(committed + [tuple(w)]):
            committed.append(tuple(w))
    return set(committed)


def all_assignments(n):
    for bits in itertools.product((False, True), repeat=n):
        yield {i + 1: bit for i, bit in enumerate(bits)}


def small_formulas(n):
    """All 3CNF formulas with the given variable count and at most two
    clauses, deduplicated up to literal and clause order."""
    from cfgame.generators import CnfFormula

    lits = [v * sign for v in range(1, n + 1) for sign in (1, -1)]
    clauses = sorted(set(tuple(sorted(c)) for c in itertools.product(lits, repeat=3)))
    out = [CnfFormula(n, [c]) for c in clauses]
    out.extend(
        CnfFormula(n, list(pair))
        for pair in itertools.combinations_with_replacement(clauses, 2)
    )
    return out


def sat_assignment(phi):
    """Truth-table search; the first satisfying assignment or None.

    Assignments map 1-based variable indices to booleans.
    """
    for bits in itertools.product((False, True), repeat=phi.n_vars):
        theta = {i + 1: bit for i, bit in enumerate(bits)}
        if all(
            any((lit > 0) == theta[abs(lit)] for lit in clause)
            for clause in phi.clauses
        ):
            return theta
    return None


def nfa_is_universal(nfa):
    """Does the NFA accept every word over its alphabet?

    Plain subset construction: explore reachable state sets and fail on
    the first one without an accepting member.
    """
    start = frozenset(nfa.initials)
    seen = {start}
    frontier = [start]
    while frontier:
        current = frontier.pop()
        if not current & nfa.accepting:
            return False
        for a in nfa.alphabet:
            step = set()
            for q in current:
                step |= nfa.transitions.get((q, a), frozenset())
            step = frozenset(step)
            if step not in seen:
                seen.add(step)
                frontier.append(step)
    return True
