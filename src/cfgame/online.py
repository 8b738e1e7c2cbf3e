"""The online word problem for nondeterministic automata.

The player reads a word letter by letter and must commit to one
transition per letter; the word is won when the chosen run ends in an
accepting state.  Removing transitions until every remaining choice has
the shortlex-greatest residual language leaves a deterministic
sub-automaton that is a weakly dominant way of playing.
"""

import json

from .automata import (
    Dfa,
    Nfa,
    compare_shortlex,
    determinize,
    enumerate_upto,
    equivalent,
    nfa_from_dict,
    nfa_to_dict,
    shortlex_key,
)


class OnlineFormatError(ValueError):
    """An online instance or strategy is malformed."""


class OnlineInstance:
    """A total NFA with a single initial state.

    Totality means at least one outgoing transition per state and
    symbol, so the player is never stuck.
    """

    def __init__(self, nfa):
        if len(nfa.initials) != 1:
            raise OnlineFormatError(
                "online instance needs exactly one initial state, got %d"
                % len(nfa.initials)
            )
        for q in range(nfa.n_states):
            for a in nfa.alphabet:
                if not nfa.transitions.get((q, a)):
                    raise OnlineFormatError(
                        "state %d has no transition on %r" % (q, a)
                    )
        self.nfa = nfa
        self.initial = next(iter(nfa.initials))

    @property
    def alphabet(self):
        return self.nfa.alphabet

    def __repr__(self):
        return "OnlineInstance(%d states, alphabet %r)" % (
            self.nfa.n_states,
            list(self.nfa.alphabet),
        )


def load_online_instance(text):
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise OnlineFormatError("not valid JSON: %s" % exc) from None
    try:
        nfa = nfa_from_dict(data)
    except ValueError as exc:
        raise OnlineFormatError(str(exc)) from None
    return OnlineInstance(nfa)


def dump_online_instance(inst):
    return json.dumps(nfa_to_dict(inst.nfa), indent=2, sort_keys=True) + "\n"


def _as_instance(inst):
    return inst if isinstance(inst, OnlineInstance) else OnlineInstance(inst)


def _finite_set_cmp(s1, s2, alphabet):
    """Shortlex order on finite word sets, via the least differing word."""
    if s1 == s2:
        return 0
    m = min(s1 ^ s2, key=lambda w: shortlex_key(w, alphabet))
    return 1 if m in s1 else -1


def _pruned_transitions(inst):
    """Stabilized keep-sets of the full-language pruning rounds."""
    nfa = inst.nfa
    transitions = {k: set(v) for k, v in nfa.transitions.items()}
    while True:
        residuals = [
            determinize(
                Nfa(nfa.n_states, nfa.alphabet, transitions, {q}, nfa.accepting)
            )
            for q in range(nfa.n_states)
        ]
        removed = False
        for key, succ in transitions.items():
            if len(succ) < 2:
                continue
            best = []
            for p in sorted(succ):
                if not best:
                    best = [p]
                    continue
                cmp, _ = compare_shortlex(residuals[p], residuals[best[0]])
                if cmp > 0:
                    best = [p]
                elif cmp == 0:
                    best.append(p)
            if set(best) != succ:
                transitions[key] = set(best)
                removed = True
        if not removed:
            return transitions


def prune_weakly_dominant(inst):
    """Prune the instance into a weakly dominant deterministic strategy.

    Rounds remove, for every state and symbol with several successors,
    the transitions whose successor language is not shortlex-greatest in
    the current automaton; remaining ties are broken towards the
    smallest state index.  The result is a sub-automaton of the
    instance, total by totality of the instance.
    """
    inst = _as_instance(inst)
    nfa = inst.nfa
    transitions = _pruned_transitions(inst)

    # Sanity: in the stabilized automaton, states reached together by the
    # same word have the same residual language, so a determinization
    # subset that touches the accepting set lies inside it.
    from collections import deque

    seen = {frozenset([inst.initial])}
    queue = deque(seen)
    while queue:
        subset = queue.popleft()
        assert not subset & nfa.accepting or subset <= nfa.accepting
        for a in nfa.alphabet:
            nxt = frozenset(t for s in subset for t in transitions[(s, a)])
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)

    table = {}
    for q in range(nfa.n_states):
        for a in nfa.alphabet:
            table[(q, a)] = min(transitions[(q, a)])
    dfa = Dfa(nfa.n_states, nfa.alphabet, table, inst.initial, nfa.accepting)
    pruned = Nfa(
        nfa.n_states, nfa.alphabet, transitions, {inst.initial}, nfa.accepting
    )
    # the tie-break loses no words
    assert equivalent(dfa, determinize(pruned))
    return dfa


def diagnose_bounded(inst, bound):
    """Replay the length-truncated pruning and compare with the full scheme.

    Round n+1 compares the successor languages truncated to length n.
    Returns a list of divergence messages, empty when the truncated
    iteration stopped at the same keep-sets the full-language rounds
    reach.  A nonempty report usually means the bound is too small for
    the instance, not that either scheme is wrong.
    """
    inst = _as_instance(inst)
    nfa = inst.nfa
    full = _pruned_transitions(inst)
    transitions = {k: set(v) for k, v in nfa.transitions.items()}
    for n in range(bound + 1):
        residuals = []
        for q in range(nfa.n_states):
            sub = Nfa(nfa.n_states, nfa.alphabet, transitions, {q}, nfa.accepting)
            residuals.append(set(enumerate_upto(sub, n)))
        for key, succ in sorted(transitions.items()):
            if len(succ) < 2:
                continue
            best = []
            for p in sorted(succ):
                if not best:
                    best = [p]
                    continue
                cmp = _finite_set_cmp(residuals[p], residuals[best[0]], nfa.alphabet)
                if cmp > 0:
                    best = [p]
                elif cmp == 0:
                    best.append(p)
            transitions[key] = set(best)
    messages = []
    for key in sorted(full):
        if transitions[key] != full[key]:
            messages.append(
                "state %r on %r: truncated keeps %r, full language keeps %r"
                % (key[0], key[1], sorted(transitions[key]), sorted(full[key]))
            )
    return messages
