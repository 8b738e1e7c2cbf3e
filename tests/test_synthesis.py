import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfgame.analysis import is_winning, winning_set_dfa, winning_set_upto
from cfgame.automata import (
    Dfa,
    Nfa,
    determinize,
    enumerate_upto,
    equivalent,
    shortlex_key,
    subset_witness,
)
from cfgame.fixtures import fixture
from cfgame.games import Game, hat, to_prefix_free
from cfgame.generators import random_game
from cfgame.online import OnlineInstance, _pruned_transitions
from cfgame.play import ForgetfulStrategy, GeneralStrategy
from cfgame.synthesis import (
    EffectSet,
    EffectTriple,
    SynthesisError,
    _bitmask,
    _states,
    build_inducing_automaton,
    build_ne,
    build_top_automaton,
    effect_fixpoint,
    synthesize_weakly_dominant,
)
from oracles import (
    WIN,
    best_one_pass_win_set,
    brute_force_outcome,
    effect_admission_by_sets,
)


def set_cmp(s1, s2, alphabet):
    if set(s1) == set(s2):
        return 0
    m = min(set(s1) ^ set(s2), key=lambda w: shortlex_key(w, alphabet))
    return 1 if m in s1 else -1


def chain_game():
    # a -> b, b -> c, target accepts only the word c: winning the input a
    # needs a call inside the reply
    alphabet = ("a", "b", "c")
    target = Dfa(
        3,
        alphabet,
        {
            (0, "a"): 2, (0, "b"): 2, (0, "c"): 1,
            (1, "a"): 2, (1, "b"): 2, (1, "c"): 2,
            (2, "a"): 2, (2, "b"): 2, (2, "c"): 2,
        },
        0,
        {1},
    )
    return Game(alphabet, {"a": "b", "b": "c"}, target, name="chain")


def test_no_function_symbols_gives_trivial_effects():
    target = Dfa(2, ("a", "b"), {(0, "a"): 1, (0, "b"): 0,
                                 (1, "a"): 1, (1, "b"): 1}, 0, {1})
    game = Game(("a", "b"), {}, target)
    effects = effect_fixpoint(game)
    assert effects.triples() == []
    ne = build_ne(game, effects)
    assert all(len(members) == 1 for members in ne.subsets)
    assert equivalent(determinize(ne.nfa), game.target)
    strat = synthesize_weakly_dominant(game)
    assert equivalent(winning_set_dfa(game, strat), game.target)


def test_useless_calls_leave_the_target_language():
    # the only rule rewrites a into c, which the target never wants
    alphabet = ("a", "b", "c")
    target = Dfa(
        3,
        alphabet,
        {
            (0, "a"): 1, (0, "b"): 2, (0, "c"): 2,
            (1, "a"): 2, (1, "b"): 1, (1, "c"): 2,
            (2, "a"): 2, (2, "b"): 2, (2, "c"): 2,
        },
        0,
        {1},
    )
    game = Game(alphabet, {"a": "c"}, target)
    strat = synthesize_weakly_dominant(game)
    assert equivalent(winning_set_dfa(game, strat), game.target)


def test_nested_call_effects_are_admitted():
    game = chain_game()
    effects = effect_fixpoint(game)
    landed = game.target.transitions[(game.target.initial, "c")]
    key = (game.target.initial, "a")
    assert EffectTriple(*key, frozenset([landed])) in effects.triples()
    # not trivial: reading a does not land there
    assert game.target.transitions[key] != landed
    strat = synthesize_weakly_dominant(game)
    assert strat == GeneralStrategy(strat.dfa) and GeneralStrategy(strat.dfa) == strat
    assert strat != ForgetfulStrategy(strat.dfa)
    assert is_winning(game, strat, ("a",))
    assert brute_force_outcome(game, strat, ("a",)) == WIN
    won = winning_set_upto(game, strat, 3)
    assert won == {("a",), ("b",), ("c",)}
    assert won == best_one_pass_win_set(game, 3, 6)


def test_transformed_sandbox_admits_the_call_effect():
    game = to_prefix_free(fixture("sandbox").game, "$")
    target = game.target
    effects = effect_fixpoint(game)
    landed = target.transitions[(target.transitions[(target.initial, "b")], "$")]
    assert EffectTriple(target.initial, "a", frozenset([landed])) in effects.triples()
    strat = build_top_automaton(game, effects)
    # the subset automaton knows the run where a is called, even though
    # the pruned strategy prefers reading the a (ab sorts before ac)
    assert strat.ne.nfa.accepts(("a", "$", "c"))
    assert not is_winning(game, strat, ("a", "$", "c"))
    assert is_winning(game, strat, ("a", "b"))
    assert equivalent(winning_set_dfa(game, strat), strat.pruned)
    best = best_one_pass_win_set(game, 3, 5)
    assert set_cmp(winning_set_upto(game, strat, 3), best, game.alphabet) >= 0


def test_trivial_effect_set_reads_everything():
    game = chain_game()
    strat = build_top_automaton(game, EffectSet(game))
    assert equivalent(winning_set_dfa(game, strat), game.target)
    assert strat.labels[strat.dfa.initial] == (
        "top", game.target.initial, strat.pruned.initial
    )
    assert strat.ne.subsets[0] == frozenset([game.target.initial])


def replay_partitions(game, ind):
    """All sub-plays on replies to the triple's symbol: returns the
    (automaton state, target state) endpoints and checks on the way that
    no partition state shows up before the reply is over."""
    dfa = ind.strategy.automaton(game)
    triple = ind.triple
    rdfa = game.replacement_dfa(triple.a)
    replies = {
        c: [tuple(w) for w in enumerate_upto(game.replacement_dfa(c),
                                             game.replacement_dfa(c).n_states)]
        for c in game.function_symbols
    }
    part_states = set()
    for states in ind.partitions.values():
        part_states |= states
    results = []

    def walk(st, t, pending):
        if not pending:
            results.append((st, t))
            return
        assert st not in part_states
        c, rest = pending[0], pending[1:]
        probe = dfa.transitions[(st, c)]
        if c in game.rules and probe in dfa.accepting:
            inner = dfa.transitions[(st, hat(c))]
            for x in replies[c]:
                walk(inner, t, x + rest)
        else:
            walk(probe, game.target.transitions[(t, c)], rest)

    assert dfa.transitions[(dfa.initial, triple.a)] in dfa.accepting
    entry = dfa.transitions[(dfa.initial, hat(triple.a))]
    for u in enumerate_upto(rdfa, rdfa.n_states):
        walk(entry, triple.p, tuple(u))
    return results


def test_inducing_automaton_partitions():
    game = chain_game()
    effects = effect_fixpoint(game)
    landed = game.target.transitions[(game.target.initial, "c")]
    triple = EffectTriple(game.target.initial, "a", frozenset([landed]))
    ind = build_inducing_automaton(game, triple, effects)
    endpoints = replay_partitions(game, ind)
    assert endpoints
    for st, t in endpoints:
        assert t in triple.states
        assert st in ind.partitions[t]
    seen_pairs = set()
    for q, states in ind.partitions.items():
        for other, more in ind.partitions.items():
            if q != other:
                assert not states & more
    assert (triple.p, triple.a, triple.states) in effects.triples()


def test_transformed_sandbox_inducing_partitions():
    game = to_prefix_free(fixture("sandbox").game, "$")
    effects = effect_fixpoint(game)
    for triple in effects.triples():
        ind = build_inducing_automaton(game, triple, effects)
        for st, t in replay_partitions(game, ind):
            assert t in triple.states
            assert st in ind.partitions[t]


def test_refusals():
    alphabet = ("a", "b")
    target = Dfa(2, alphabet, {(0, "a"): 1, (0, "b"): 0,
                               (1, "a"): 1, (1, "b"): 1}, 0, {1})
    crooked = Game(alphabet, {"a": "a+ab"}, target)
    with pytest.raises(SynthesisError):
        synthesize_weakly_dominant(crooked)
    big = Dfa(
        3,
        alphabet,
        {
            (0, "a"): 1, (0, "b"): 0,
            (1, "a"): 2, (1, "b"): 0,
            (2, "a"): 2, (2, "b"): 2,
        },
        0,
        {2},
    )
    fine = Game(alphabet, {"a": "b"}, big)
    with pytest.raises(SynthesisError):
        synthesize_weakly_dominant(fine, cap=2)
    game = chain_game()
    effects = effect_fixpoint(game)
    with pytest.raises(SynthesisError):
        build_inducing_automaton(
            game, EffectTriple(0, "a", frozenset([0, 1, 2])), effects
        )


def test_negative_cap_is_a_usage_error():
    with pytest.raises(ValueError) as info:
        effect_fixpoint(chain_game(), cap=-1)
    assert not isinstance(info.value, SynthesisError)


@st.composite
def small_prefix_free_games(draw):
    alphabet = ("a", "b")
    n = draw(st.integers(min_value=1, max_value=3))
    transitions = {}
    for q in range(n):
        for c in alphabet:
            transitions[(q, c)] = draw(st.integers(0, n - 1))
    accepting = draw(st.sets(st.integers(0, n - 1), min_size=0, max_size=n))
    target = Dfa(n, alphabet, transitions, 0, accepting)
    rules = {}
    for c in alphabet:
        if draw(st.booleans()):
            length = draw(st.integers(1, 2))
            count = draw(st.integers(1, 2))
            words = draw(
                st.sets(
                    st.tuples(*[st.sampled_from(alphabet)] * length),
                    min_size=1,
                    max_size=count,
                )
            )
            rules[c] = "+".join("".join(w) for w in sorted(words))
    if not rules:
        rules["a"] = "b"
    return Game(alphabet, rules, target)


@settings(deadline=None, max_examples=30)
@given(small_prefix_free_games())
def test_synthesis_on_random_prefix_free_games(game):
    strat = synthesize_weakly_dominant(game)
    # the game-side winning set is exactly the pruned online language
    assert equivalent(winning_set_dfa(game, strat), strat.pruned)
    # enlarging the effect set never shrinks the subset automaton language
    bare = build_ne(game, EffectSet(game))
    assert subset_witness(determinize(bare.nfa), determinize(strat.ne.nfa)) is None
    # nothing a bounded one-pass strategy wins beats it in shortlex order
    won = winning_set_upto(game, strat, 3)
    best = best_one_pass_win_set(game, 3, 5)
    assert set_cmp(won, best, game.alphabet) >= 0


@settings(deadline=None, max_examples=60)
@given(
    seed=st.integers(0, 10_000),
    states=st.integers(2, 4),
    finite=st.booleans(),
)
def test_effect_fixpoint_matches_the_per_set_referee(seed, states, finite):
    game = _random_game(seed, states, finite)
    replies = {}
    for a in game.function_symbols:
        rdfa = game.replacement_dfa(a)
        replies[a] = (rdfa.transitions, rdfa.initial, rdfa.accepting)
    stored, stratum, choice = effect_admission_by_sets(
        game.target.n_states, game.alphabet, game.target.transitions, replies
    )
    effects = effect_fixpoint(game)

    def as_set(mask):
        return frozenset(_states(mask))

    assert stored == {
        key: [as_set(mask) for mask in table] for key, table in effects.admitted.items()
    }
    # each stored set's plan is its solved scan: at every node that wins
    # for the set, each symbol takes the least option that still wins
    levels, plans = {}, {}
    for (p, a), table in effects.admitted.items():
        for mask, (level, (nodes, edges, wins)) in table.items():
            key = (p, a, as_set(mask))
            levels[key] = level
            plans[key] = {
                (as_set(members), y, c): as_set(
                    min(u for u, j in opts if wins[j] >> mask & 1)
                )
                for (members, y), out, w in zip(nodes, edges, wins)
                if w >> mask & 1
                for c, opts in out
            }
    assert stratum == levels
    assert choice == plans


def _random_game(seed, states, finite):
    constraints = ["prefix_free"] + (["finite_replacement"] if finite else [])
    return random_game({"constraints": constraints, "target_states": states}, seed)


def _random_ne(seed, states, finite):
    game = _random_game(seed, states, finite)
    return build_ne(game, effect_fixpoint(game))


@settings(deadline=None, max_examples=60)
@given(
    seed=st.integers(0, 10_000),
    states=st.integers(2, 4),
    finite=st.booleans(),
)
def test_round_one_cut_to_minimal_effect_sets_keeps_the_keep_sets(
    seed, states, finite
):
    ne = _random_ne(seed, states, finite)
    inst = OnlineInstance(ne.nfa)
    masks = [_bitmask(members) for members in ne.subsets]
    assert _pruned_transitions(inst, masks) == _pruned_transitions(inst)


@settings(deadline=None, max_examples=60)
@given(
    seed=st.integers(0, 10_000),
    states=st.integers(2, 4),
    finite=st.booleans(),
)
def test_effect_set_inclusion_is_a_simulation_on_the_ne_automaton(
    seed, states, finite
):
    # S_i <= S_j gives L(j) <= L(i): the premise of the round-one cut
    ne = _random_ne(seed, states, finite)
    nfa = ne.nfa

    def language(i):
        return determinize(
            Nfa(nfa.n_states, nfa.alphabet, nfa.transitions, {i}, nfa.accepting)
        )

    for i, small in enumerate(ne.subsets):
        for j, large in enumerate(ne.subsets):
            if i != j and small <= large:
                assert subset_witness(language(j), language(i)) is None


@settings(deadline=None, max_examples=60)
@given(
    seed=st.integers(0, 10_000),
    states=st.integers(2, 4),
    finite=st.booleans(),
)
def test_effect_set_masks_match_their_sets(seed, states, finite):
    game = _random_game(seed, states, finite)
    effects = effect_fixpoint(game)
    ne = build_ne(game, effects)
    for i, members in enumerate(ne.subsets):
        assert ne.masks[i] == _bitmask(members)
    target = game.target
    n = target.n_states
    insides = [frozenset(q for q in range(n) if m >> q & 1) for m in range(1 << n)]
    levels = {level for table in effects.admitted.values() for level, _ in table.values()}
    strata = [None] + sorted(levels | {1}) + [max(levels, default=0) + 1]

    def referee(p, c, inside, below):
        # the smallest-bitmask read or admitted option inside the set
        options = [frozenset([target.transitions[(p, c)]])] + [
            frozenset(_states(mask))
            for mask, (level, _) in effects.admitted.get((p, c), {}).items()
            if below is None or level < below
        ]
        fits = [s for s in options if s <= inside]
        return min(fits, key=lambda s: sum(1 << q for q in s), default=None)

    for p in range(n):
        for c in game.alphabet:
            for inside in insides:
                for below in strata:
                    expected = referee(p, c, inside, below)
                    got = effects.fitting(p, c, _bitmask(inside), below)
                    assert got == (None if expected is None else _bitmask(expected))
