import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfgame.analysis import BudgetExceeded
from cfgame.automata import Dfa, Nfa, determinize, enumerate_upto, equivalent, shortlex_key
from cfgame.generators import random_game
from cfgame.online import (
    OnlineFormatError,
    OnlineInstance,
    _pruned_transitions,
    diagnose_bounded,
    dump_online_instance,
    load_online_instance,
    prune_weakly_dominant,
)
from cfgame.synthesis import build_ne, effect_fixpoint
from oracles import brute_force_best_online, online_win_set, pruning_keep_sets


def set_cmp(s1, s2, alphabet):
    if s1 == s2:
        return 0
    m = min(set(s1) ^ set(s2), key=lambda w: shortlex_key(w, alphabet))
    return 1 if m in s1 else -1


def random_table(inst, max_len, rng):
    table = {(): inst.initial}
    frontier = [()]
    for _ in range(max_len):
        deeper = []
        for w in frontier:
            q = table[w]
            for a in inst.alphabet:
                table[w + (a,)] = rng.choice(sorted(inst.nfa.transitions[(q, a)]))
                deeper.append(w + (a,))
        frontier = deeper
    return table


@st.composite
def tiny_instances(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    alphabet = ("a", "b")
    transitions = {}
    for q in range(n):
        for a in alphabet:
            succ = draw(
                st.sets(st.integers(0, n - 1), min_size=1, max_size=n)
            )
            transitions[(q, a)] = succ
    accepting = draw(st.sets(st.integers(0, n - 1), max_size=n))
    return OnlineInstance(Nfa(n, alphabet, transitions, {0}, accepting))


@st.composite
def total_instances(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    alphabet = ("a", "b", "c")[: draw(st.integers(min_value=2, max_value=3))]
    transitions = {
        (q, a): draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n))
        for q in range(n)
        for a in alphabet
    }
    accepting = draw(st.sets(st.integers(0, n - 1), max_size=n))
    return OnlineInstance(Nfa(n, alphabet, transitions, {0}, accepting))


def test_instance_validation():
    with pytest.raises(OnlineFormatError):
        OnlineInstance(Nfa(2, ("a",), {(0, "a"): {0}, (1, "a"): {1}}, {0, 1}, {0}))
    with pytest.raises(OnlineFormatError):
        OnlineInstance(Nfa(2, ("a",), {(0, "a"): {1}}, {0}, {1}))
    inst = OnlineInstance(
        Nfa(2, ("a",), {(0, "a"): {1}, (1, "a"): {1}}, {0}, {1})
    )
    assert inst.initial == 0
    assert inst.alphabet == ("a",)


def test_json_round_trip():
    inst = OnlineInstance(
        Nfa(
            2,
            ("a", "b"),
            {(0, "a"): {0, 1}, (0, "b"): {0}, (1, "a"): {1}, (1, "b"): {0}},
            {0},
            {1},
        )
    )
    again = load_online_instance(dump_online_instance(inst))
    assert again.nfa.transitions == inst.nfa.transitions
    assert again.nfa.accepting == inst.nfa.accepting
    with pytest.raises(OnlineFormatError, match="^invalid JSON: "):
        load_online_instance("not json at all {")
    with pytest.raises(OnlineFormatError):
        load_online_instance('{"states": 1}')


def test_deterministic_instance_is_unchanged():
    transitions = {
        (0, "a"): {1},
        (0, "b"): {0},
        (1, "a"): {0},
        (1, "b"): {1},
    }
    inst = OnlineInstance(Nfa(2, ("a", "b"), transitions, {0}, {1}))
    dfa = prune_weakly_dominant(inst)
    assert dfa.n_states == 2
    assert dfa.initial == 0
    for (q, a), succ in transitions.items():
        assert dfa.transitions[(q, a)] == next(iter(succ))
    assert online_win_set(inst, dfa, 3) == enumerate_upto(dfa, 3)


def test_language_containment_forces_the_choice():
    # From state 0 on "a" the player may go to 1 or 2.  State 1 accepts
    # everything, state 2 only words avoiding an initial "a", so the
    # pruning has to keep the transition to 1.
    transitions = {
        (0, "a"): {1, 2},
        (0, "b"): {0},
        (1, "a"): {1},
        (1, "b"): {1},
        (2, "a"): {0},
        (2, "b"): {1},
    }
    inst = OnlineInstance(Nfa(3, ("a", "b"), transitions, {0}, {1}))
    dfa = prune_weakly_dominant(inst)
    assert dfa.transitions[(0, "a")] == 1
    assert diagnose_bounded(inst, 4) == []


def test_diagnose_reports_a_too_small_bound():
    # Both successors of the initial "a" look identical on words of
    # length <= 1, only longer words separate them.
    transitions = {
        (0, "a"): {1, 2},
        (0, "b"): {0},
        (1, "a"): {3},
        (1, "b"): {3},
        (2, "a"): {2},
        (2, "b"): {2},
        (3, "a"): {4},
        (3, "b"): {4},
        (4, "a"): {4},
        (4, "b"): {4},
    }
    inst = OnlineInstance(Nfa(5, ("a", "b"), transitions, {0}, {4}))
    assert diagnose_bounded(inst, 1) != []
    assert diagnose_bounded(inst, 3) == []


def test_diagnose_rejects_a_negative_bound():
    inst = OnlineInstance(
        Nfa(2, ("a",), {(0, "a"): {0, 1}, (1, "a"): {1}}, {0}, {1})
    )
    with pytest.raises(ValueError):
        diagnose_bounded(inst, -1)
    assert diagnose_bounded(inst, 0) == []


def test_exhaustive_two_state_sweep():
    # Every two-state instance over {a, b} with initial state 0.  This
    # pits the fixpoint pruning against the dynamic program on the
    # whole space, not a sample of it.
    alphabet = ("a", "b")
    options = [{0}, {1}, {0, 1}]
    keys = [(0, "a"), (0, "b"), (1, "a"), (1, "b")]
    count = 0
    for combo in itertools.product(options, repeat=4):
        for accepting in ({0}, {1}, {0, 1}, set()):
            transitions = dict(zip(keys, combo))
            inst = OnlineInstance(
                Nfa(2, alphabet, transitions, {0}, set(accepting))
            )
            dfa = prune_weakly_dominant(inst)
            won = set(online_win_set(inst, dfa, 3))
            assert won == brute_force_best_online(inst, 3)
            count += 1
    assert count == 324


@settings(deadline=None, max_examples=60)
@given(tiny_instances(), st.integers(min_value=0, max_value=2**30))
def test_pruning_beats_every_table(inst, seed):
    dfa = prune_weakly_dominant(inst)
    for (q, a), t in dfa.transitions.items():
        assert t in inst.nfa.transitions[(q, a)]
    won = set(online_win_set(inst, dfa, 3))
    assert won == brute_force_best_online(inst, 3)
    rng = random.Random(seed)
    for _ in range(5):
        table = random_table(inst, 3, rng)
        other = set(online_win_set(inst, table, 3))
        assert set_cmp(other, won, inst.alphabet) <= 0


@settings(deadline=None, max_examples=200)
@given(total_instances())
def test_pruned_transitions_match_the_oracle(inst):
    assert _pruned_transitions(inst) == pruning_keep_sets(inst)


def assert_keeps_the_pruned_language(inst, masks=None):
    # the tie-break table loses no word of the pruned automaton
    nfa = inst.nfa
    kept = _pruned_transitions(inst, masks)
    pruned = Nfa(nfa.n_states, nfa.alphabet, kept, {inst.initial}, nfa.accepting)
    assert equivalent(prune_weakly_dominant(inst, masks), determinize(pruned))


@settings(deadline=None, max_examples=300)
@given(total_instances())
def test_the_pruned_dfa_keeps_the_pruned_language(inst):
    assert_keeps_the_pruned_language(inst)


@settings(deadline=None, max_examples=60)
@given(
    seed=st.integers(0, 10_000),
    states=st.integers(2, 4),
    finite=st.booleans(),
)
def test_the_pruned_ne_dfa_keeps_the_pruned_language(seed, states, finite):
    constraints = ["prefix_free"] + (["finite_replacement"] if finite else [])
    game = random_game({"constraints": constraints, "target_states": states}, seed)
    ne = build_ne(game, effect_fixpoint(game))
    assert_keeps_the_pruned_language(OnlineInstance(ne.nfa), ne.masks)


def test_online_win_set_table_agrees_with_dfa():
    transitions = {
        (0, "a"): {1, 2},
        (0, "b"): {0},
        (1, "a"): {1},
        (1, "b"): {1},
        (2, "a"): {0},
        (2, "b"): {1},
    }
    inst = OnlineInstance(Nfa(3, ("a", "b"), transitions, {0}, {1}))
    dfa = prune_weakly_dominant(inst)
    table = {}
    for n in range(4):
        for w in itertools.product(inst.alphabet, repeat=n):
            state = dfa.initial
            for c in w:
                state = dfa.transitions[(state, c)]
            table[w] = state
    assert online_win_set(inst, table, 3) == online_win_set(inst, dfa, 3)


def test_online_win_set_validates_strategies():
    transitions = {(0, "a"): {0, 1}, (1, "a"): {1}}
    inst = OnlineInstance(Nfa(2, ("a",), transitions, {0}, {1}))
    with pytest.raises(OnlineFormatError):
        online_win_set(inst, {(): 1}, 0)
    with pytest.raises(OnlineFormatError):
        online_win_set(inst, {(): 0}, 1)
    with pytest.raises(OnlineFormatError):
        online_win_set(inst, {(): 0, ("a",): 1, ("a", "a"): 0}, 2)
    foreign = Dfa(2, ("a",), {(0, "a"): 1, (1, "a"): 0}, 0, {1})
    with pytest.raises(OnlineFormatError):
        online_win_set(inst, foreign, 2)
    good = {(): 0, ("a",): 1, ("a", "a"): 1}
    assert online_win_set(inst, good, 2) == [("a",), ("a", "a")]


def test_brute_force_budget():
    inst = OnlineInstance(
        Nfa(1, ("a", "b"), {(0, "a"): {0}, (0, "b"): {0}}, {0}, {0})
    )
    with pytest.raises(BudgetExceeded):
        brute_force_best_online(inst, 30)
    assert () in brute_force_best_online(inst, 2)
