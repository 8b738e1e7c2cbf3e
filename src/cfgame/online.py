"""The online word problem for nondeterministic automata.

The player reads a word letter by letter and must commit to one
transition per letter; the word is won when the chosen run ends in an
accepting state.  Removing transitions until every remaining choice has
the shortlex-greatest residual language leaves a deterministic
sub-automaton that is a weakly dominant way of playing.

Pruning goes in rounds.  A round compares two successors p and q of
a choice by a breadth-first search over pairs of subsets reached from
({p}, {q}) by one word, up to the subsets already proven equal
(automata.residual_order, on one automata.SubsetView per round): the
first pair that disagrees on acceptance orders them, and a search that
finds none proves them equal for the rest of the round.  Each choice
keeps its greatest successors; rounds repeat until none changes.

On the subset automaton of effect sets that synthesis prunes, S_i <= S_j
gives L(j) <= L(i) (synthesis.build_ne), so round 1 steps only the
members of a subset with inclusion-minimal effect sets.  Later rounds
step whole subsets: removed transitions can break that simulation.
"""

import json

from .automata import (
    Dfa,
    Nfa,
    SubsetView,
    enumerate_upto,
    nfa_from_dict,
    nfa_to_dict,
    parse_json,
    residual_order,
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
    try:
        nfa = nfa_from_dict(parse_json(text, OnlineFormatError))
    except ValueError as exc:
        raise OnlineFormatError(str(exc)) from None
    return OnlineInstance(nfa)


def dump_online_instance(inst):
    return json.dumps(nfa_to_dict(inst.nfa), indent=2, sort_keys=True) + "\n"


def _finite_set_cmp(s1, s2, alphabet):
    """Shortlex order on finite word sets, via the least differing word."""
    if s1 == s2:
        return 0
    m = min(s1 ^ s2, key=lambda w: shortlex_key(w, alphabet))
    return 1 if m in s1 else -1


def _keep_best(transitions, cmp):
    """One pruning round: cut every choice down to the successors that
    cmp(p, q) ranks greatest, scanning them in index order and keeping
    ties.  Returns whether anything was removed."""
    removed = False
    for key, succ in transitions.items():
        if len(succ) < 2:
            continue
        best = []
        for p in sorted(succ):
            c = cmp(p, best[0]) if best else 1
            if c > 0:
                best = [p]
            elif c == 0:
                best.append(p)
        if len(best) < len(succ):
            transitions[key] = set(best)
            removed = True
    return removed


def _minimal_members(masks, subset):
    """The members of subset whose masks are inclusion-minimal in it.
    Ascending integer order puts every mask after its proper subsets."""
    kept = []
    for i in sorted(subset, key=masks.__getitem__):
        for j in kept:
            if masks[j] & masks[i] == masks[j]:
                break
        else:
            kept.append(i)
    return frozenset(kept)


def _pruned_transitions(inst, masks=None):
    """Stabilized keep-sets of the full-language pruning rounds.

    Each round ranks successors by their residual languages in the
    automaton as it stood at the start of the round.  residual_order
    searches the pairs of subsets reached from the two singletons by the
    same word, in shortlex order, and stops at the first pair that
    disagrees on acceptance.  Pairs whose subsets are already joined by
    processed pairs or by an earlier proof of equality are skipped, so a
    round explores only the subsets its comparisons need, and a tie
    proven once serves the rest of the round.  Since the order depends
    only on the languages, the keep-sets are those of determinizing and
    comparing every residual on its own.
    """
    nfa = inst.nfa
    transitions = {k: set(v) for k, v in nfa.transitions.items()}
    cut = (lambda sub: _minimal_members(masks, sub)) if masks else None
    while True:
        current = Nfa(nfa.n_states, nfa.alphabet, transitions, (), nfa.accepting)
        if not _keep_best(transitions, residual_order(current, cut)):
            return transitions
        cut = None


def prune_weakly_dominant(inst, masks=None):
    """Prune the instance into a weakly dominant deterministic strategy.

    Rounds remove, for every state and symbol with several successors,
    the transitions whose successor language is not shortlex-greatest in
    the current automaton; remaining ties are broken towards the
    smallest state index.  The result is a sub-automaton of the
    instance, total by totality of the instance.  masks, when given,
    holds the effect-set bitmask of each state of an unpruned NE
    automaton, where inclusion of masks is a simulation because every
    pointwise union is a move (synthesis.build_ne).  Round 1 then
    steps only inclusion-minimal members; pruning can break the
    simulation, so later rounds step whole subsets.
    """
    nfa = inst.nfa
    transitions = _pruned_transitions(inst, masks)
    pruned = Nfa(nfa.n_states, nfa.alphabet, transitions, {inst.initial}, nfa.accepting)

    # Sanity: in the stabilized automaton, states reached together by the
    # same word have the same residual language, so a determinization
    # subset that touches the accepting set lies inside it.  So the
    # tie-break loses no words: min(succ) is a kept successor, and the
    # state the table reaches by a word lies in the subset it reaches.
    view = SubsetView(pruned)
    for i, subset in enumerate(view.subsets):  # grows while walked
        assert not subset & nfa.accepting or subset <= nfa.accepting
        for a in nfa.alphabet:
            view.step(i, a)

    table = {key: min(succ) for key, succ in transitions.items()}
    return Dfa(nfa.n_states, nfa.alphabet, table, inst.initial, nfa.accepting)


def diagnose_bounded(inst, bound):
    """Replay the length-truncated pruning and compare with the full scheme.

    Round n+1 compares the successor languages truncated to length n.
    Returns a list of divergence messages, empty when the truncated
    iteration stopped at the same keep-sets the full-language rounds
    reach.  A nonempty report usually means the bound is too small for
    the instance, not that either scheme is wrong.  A negative bound
    raises ValueError.
    """
    if bound < 0:
        raise ValueError("the bound must be at least 0, got %d" % bound)
    nfa = inst.nfa
    full = _pruned_transitions(inst)
    transitions = {k: set(v) for k, v in nfa.transitions.items()}
    for n in range(bound + 1):
        residuals = []
        for q in range(nfa.n_states):
            sub = Nfa(nfa.n_states, nfa.alphabet, transitions, {q}, nfa.accepting)
            residuals.append(set(enumerate_upto(sub, n)))
        _keep_best(
            transitions,
            lambda p, q: _finite_set_cmp(residuals[p], residuals[q], nfa.alphabet),
        )
    messages = []
    for key in sorted(full):
        if transitions[key] != full[key]:
            messages.append(
                "state %r on %r: truncated keeps %r, full language keeps %r"
                % (key[0], key[1], sorted(transitions[key]), sorted(full[key]))
            )
    return messages
