"""Checks of the relation saturation and the decision procedures on top."""

import gc
import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from cfgame import analysis
from cfgame.analysis import (
    BudgetExceeded,
    compute_relations,
    exists_winning_sreg,
    is_dominated,
    is_winning,
    losing_nfa,
    winning_set_dfa,
    winning_set_upto,
)
from cfgame.automata import (
    Dfa,
    Nfa,
    compare_shortlex,
    determinize,
    enumerate_upto,
    equivalent,
    language_is_finite,
    minimize,
    parse_regex,
    regex_to_nfa,
    shortlex_key,
    subset_witness,
)
from cfgame.fixtures import fixture, fixture_names
from cfgame.games import Game
from cfgame.generators import CnfFormula, from_3sat, from_nfa_universality
from cfgame.play import (
    ForgetfulStrategy,
    GeneralStrategy,
    read_all_strategy,
    strongly_regular_automaton,
)
from oracles import (
    WIN,
    EagerRelations,
    brute_force_effects,
    brute_force_outcome,
    relations_win,
    sreg_automaton_by_lifting,
    sreg_winner_by_enumeration,
    words_upto,
)


@pytest.mark.parametrize("name", fixture_names())
def test_read_all_wins_exactly_the_target_language(name):
    game = fixture(name).game
    wdfa = winning_set_dfa(game, read_all_strategy(game))
    assert equivalent(wdfa, game.target)


def test_fixture_winning_sets():
    for name in fixture_names():
        fx = fixture(name)
        for sname, (bound, words) in fx.expected.get("winning_set_upto", {}).items():
            assert winning_set_upto(fx.game, fx.strategies[sname], bound) == words
        for sname, words in fx.expected.get("exact_winning_sets", {}).items():
            wdfa = winning_set_dfa(fx.game, fx.strategies[sname])
            assert language_is_finite(wdfa)
            assert set(enumerate_upto(wdfa, wdfa.n_states)) == words


@pytest.mark.parametrize("name", fixture_names())
def test_is_winning_matches_brute_force(name):
    fx = fixture(name)
    for strategy in fx.strategies.values():
        for w in words_upto(fx.game.alphabet, 3):
            assert is_winning(fx.game, strategy, w) == (
                brute_force_outcome(fx.game, strategy, w) == WIN
            )


@pytest.mark.parametrize("name", fixture_names())
def test_losing_nfa_enumerates_the_lost_words(name):
    fx = fixture(name)
    for strategy in fx.strategies.values():
        nfa = losing_nfa(fx.game, strategy)
        lost = set(enumerate_upto(nfa, 3))
        expected = {
            w
            for w in words_upto(fx.game.alphabet, 3)
            if brute_force_outcome(fx.game, strategy, w) != WIN
        }
        assert lost == expected


def test_domination_witnesses_from_fixtures():
    for name in fixture_names():
        fx = fixture(name)
        witnesses = fx.expected.get("domination_witnesses", {})
        for (winner, loser), word in witnesses.items():
            dominated, got = is_dominated(
                fx.game, fx.strategies[winner], fx.strategies[loser]
            )
            assert not dominated
            assert got == word


def test_g1_dominance_chain():
    fx = fixture("g1-recursive")
    game = fx.game
    call_first = fx.strategies["call-first"]
    read_all = fx.strategies["read-all"]
    always = fx.strategies["always-call"]
    assert is_dominated(game, read_all, call_first) == (True, None)
    assert is_dominated(game, call_first, read_all) == (False, ("a",))
    assert is_dominated(game, always, read_all) == (True, None)
    assert is_dominated(game, read_all, always)[0] is False
    assert is_dominated(game, call_first, call_first) == (True, None)


def test_sandbox_strategies_incomparable():
    fx = fixture("sandbox")
    read_all = fx.strategies["read-all"]
    call_initial = fx.strategies["call-initial-a"]
    assert is_dominated(fx.game, read_all, call_initial) == (False, ("a", "b"))
    assert is_dominated(fx.game, call_initial, read_all) == (False, ("a", "c"))
    cmp, word = compare_shortlex(
        winning_set_dfa(fx.game, read_all),
        winning_set_dfa(fx.game, call_initial),
    )
    assert cmp == 1 and word == ("a", "b")
    assert fx.expected["weakly_dominant"] == "read-all"


def test_g2c_optimal_and_read_all_incomparable():
    fx = fixture("g2c-undominated")
    optimal = fx.strategies["forgetful-optimal"]
    read_all = fx.strategies["read-all"]
    assert is_dominated(fx.game, read_all, optimal) == (False, ("b", "b", "c"))
    assert is_dominated(fx.game, optimal, read_all) == (False, ("a",))


def test_exists_winning_sreg_g2():
    fx = fixture("g2-regular-not-sreg")
    game = fx.game
    word = ("c",)
    for mode in ("incremental", "dfs"):
        found = exists_winning_sreg(game, word, mode=mode)
        assert found is not None, mode
        assert is_winning(game, found, word)
        assert brute_force_outcome(game, found, word) == WIN
    smallest = exists_winning_sreg(game, word, mode="incremental")
    assert smallest.reroutes == frozenset({(0, "c"), (0, "a")})


def test_exists_winning_sreg_sandbox():
    game = fixture("sandbox").game
    won = exists_winning_sreg(game, ("a", "b"))
    assert won is not None and won.reroutes == frozenset()
    direct = exists_winning_sreg(game, ("a", "c"), mode="incremental")
    assert direct is not None and direct.reroutes == frozenset({(0, "a")})
    for mode in ("incremental", "dfs"):
        assert exists_winning_sreg(game, ("c", "a"), mode=mode) is None


def test_exists_winning_sreg_budget():
    game = fixture("g2-regular-not-sreg").game
    with pytest.raises(BudgetExceeded):
        exists_winning_sreg(game, ("c",), mode="incremental", budget=4)
    found = exists_winning_sreg(game, ("c",), budget=4)
    assert found is not None
    # the dfs search for c visits three nodes
    with pytest.raises(BudgetExceeded):
        exists_winning_sreg(game, ("c",), mode="dfs", budget=2)
    assert exists_winning_sreg(game, ("c",), mode="dfs", budget=3) is not None


def test_exists_winning_sreg_rejects_a_negative_budget():
    # a budget of 0 is a scope limit, a negative one a usage error
    game = fixture("g2-regular-not-sreg").game
    for mode in ("dfs", "incremental"):
        with pytest.raises(ValueError, match="budget"):
            exists_winning_sreg(game, ("c",), mode=mode, budget=-1)
        with pytest.raises(BudgetExceeded):
            exists_winning_sreg(game, ("c",), mode=mode, budget=0)


def test_exists_winning_sreg_budget_counts_only_simulated_nodes():
    # subtrees that cannot win are cut unsimulated: the uncut search
    # needed 484 nodes for the first formula and 275 for the second
    unsat = CnfFormula(2, [(1, 2, 2), (1, -2, -2), (-1, 2, 2), (-1, -2, -2)])
    game, word = from_3sat(unsat)
    assert exists_winning_sreg(game, word, budget=100) is None
    game, word = from_3sat(CnfFormula(3, [(3, 1, -2), (-2, -3, -2)]))
    found = exists_winning_sreg(game, word, budget=50)
    assert found is not None and is_winning(game, found, word)


def test_exists_winning_sreg_rejects_unknown_modes():
    game = fixture("sandbox").game
    for mode in ("exhaustive", "auto"):
        with pytest.raises(ValueError, match="unknown mode"):
            exists_winning_sreg(game, ("a",), mode=mode)


def test_relations_cache_drops_dead_strategies():
    game = fixture("g2-regular-not-sreg").game
    strategy = strongly_regular_automaton(game, [(0, "c")])
    is_winning(game, strategy, ("c",))
    key = (id(game), id(strategy))
    assert key in analysis._relations_cache
    del strategy
    gc.collect()
    assert key not in analysis._relations_cache


def test_empty_word_can_win():
    target = Dfa(1, ("a",), {(0, "a"): 0}, 0, {0})
    game = Game(("a",), {}, target)
    sigma = read_all_strategy(game)
    assert is_winning(game, sigma, ())
    assert () in winning_set_upto(game, sigma, 1)
    assert exists_winning_sreg(game, ("a",)).reroutes == frozenset()


def test_star_rule_pumps_the_target():
    # target language c b*; the rule lets a call on a stand in for the c
    target = Dfa(
        3,
        ("a", "b", "c"),
        {
            (0, "a"): 2,
            (0, "b"): 2,
            (0, "c"): 1,
            (1, "a"): 2,
            (1, "b"): 1,
            (1, "c"): 2,
            (2, "a"): 2,
            (2, "b"): 2,
            (2, "c"): 2,
        },
        0,
        {1},
    )
    game = Game(("a", "b", "c"), {"a": "cb*"}, target)
    sigma = strongly_regular_automaton(game, [(0, "a")])
    with pytest.raises(ValueError):
        brute_force_outcome(game, sigma, ("a",))
    assert is_winning(game, sigma, ("a",))
    assert is_winning(game, sigma, ("a", "b"))
    assert not is_winning(game, sigma, ("a", "a"))
    expected = minimize(
        determinize(regex_to_nfa(parse_regex("(a+c)b*"), ("a", "b", "c")))
    )
    assert equivalent(winning_set_dfa(game, sigma), expected)
    assert equivalent(winning_set_dfa(game, read_all_strategy(game)), game.target)


def test_star_rule_divergence():
    # the reply a+ starts with a rerouted symbol again, so calling loops
    target = Dfa(1, ("a",), {(0, "a"): 0}, 0, ())
    game = Game(("a",), {"a": "a*a"}, target)
    sigma = strongly_regular_automaton(game, [(0, "a")])
    assert not is_winning(game, sigma, ("a",))
    assert ("a",) in set(enumerate_upto(losing_nfa(game, sigma), 2))
    rel = compute_relations(game, sigma)
    assert (0, "a") in rel.inf


def _word_ast(word):
    node = ("sym", word[0])
    for c in word[1:]:
        node = ("cat", node, ("sym", c))
    return node


@st.composite
def small_finite_games(draw):
    alphabet = ("a", "b")
    n = draw(st.integers(min_value=1, max_value=3))
    transitions = {}
    for q in range(n):
        for a in alphabet:
            transitions[(q, a)] = draw(st.integers(min_value=0, max_value=n - 1))
    accepting = draw(st.sets(st.integers(min_value=0, max_value=n - 1), max_size=n))
    target = Dfa(n, alphabet, transitions, 0, accepting)
    rules = {}
    for sym in alphabet:
        if draw(st.booleans()):
            words = draw(
                st.lists(
                    st.lists(st.sampled_from(alphabet), min_size=1, max_size=2),
                    min_size=1,
                    max_size=2,
                    unique_by=tuple,
                )
            )
            node = _word_ast(words[0])
            for w in words[1:]:
                node = ("alt", node, _word_ast(w))
            rules[sym] = node
    return Game(alphabet, rules, target)


@st.composite
def small_regex_games(draw):
    # rules with stars and empty words inside; the closing symbol keeps
    # the empty word out of the replacement language
    alphabet = ("a", "b")
    target = Dfa(
        2, alphabet, {(0, "a"): 1, (0, "b"): 0, (1, "a"): 0, (1, "b"): 1}, 0, {0}
    )
    leaves = st.sampled_from([("sym", "a"), ("sym", "b"), ("eps",)])
    asts = st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.tuples(st.just("star"), inner),
            st.tuples(st.sampled_from(["cat", "alt"]), inner, inner),
        ),
        max_leaves=5,
    )
    rules = {}
    for sym in alphabet:
        if sym == "a" or draw(st.booleans()):
            rules[sym] = ("cat", draw(asts), ("sym", draw(st.sampled_from(alphabet))))
    return Game(alphabet, rules, target)


@st.composite
def random_strategies(draw, game):
    kind = draw(st.sampled_from(("general", "forgetful", "sreg")))
    if kind == "sreg":
        pairs = [
            (q, a)
            for q in range(game.target.n_states)
            for a in game.function_symbols
        ]
        chosen = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
        return strongly_regular_automaton(game, chosen)
    sigma_alphabet = game.hist_alphabet if kind == "general" else game.alphabet
    n = draw(st.integers(min_value=1, max_value=3))
    transitions = {
        (q, a): draw(st.integers(min_value=0, max_value=n - 1))
        for q in range(n)
        for a in sigma_alphabet
    }
    accepting = draw(st.sets(st.integers(min_value=0, max_value=n - 1), max_size=n))
    dfa = Dfa(n, sigma_alphabet, transitions, 0, accepting)
    return GeneralStrategy(dfa) if kind == "general" else ForgetfulStrategy(dfa)


@settings(deadline=None, max_examples=200)
@given(data=st.data())
def test_sreg_automaton_matches_lifted_construction(data):
    game = data.draw(st.one_of(small_finite_games(), small_regex_games()))
    pairs = [
        (q, a)
        for q in range(game.target.n_states)
        for a in game.function_symbols
    ]
    reroutes = data.draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    strategy = strongly_regular_automaton(game, reroutes)
    assert strategy.automaton(game) == sreg_automaton_by_lifting(game, reroutes)


@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_relations_match_brute_effects(data):
    game = data.draw(small_finite_games())
    strategy = data.draw(random_strategies(game))
    rel = compute_relations(game, strategy)
    pairs, index, effects, diverging = brute_force_effects(game, strategy)
    assert set(index) == set(rel.index)
    for (i, a), states in effects.items():
        ri = rel.index[pairs[i]]
        expected = {rel.index[pairs[j]] for j in states}
        assert set(rel.move.get((ri, a), set())) == expected
    for i in range(len(pairs)):
        ri = rel.index[pairs[i]]
        for a in game.alphabet:
            assert ((ri, a) in rel.inf) == ((i, a) in diverging)


@settings(deadline=None, max_examples=150)
@given(data=st.data())
def test_relations_match_eager_saturation(data):
    game = data.draw(st.one_of(small_finite_games(), small_regex_games()))
    strategy = data.draw(random_strategies(game))
    rel = compute_relations(game, strategy)
    ref = EagerRelations(game, strategy.automaton(game))
    assert rel.pairs == ref.pairs
    for i in range(len(ref.pairs)):
        for a in game.alphabet:
            assert rel.move[(i, a)] == ref.move.get((i, a), set())
            assert ((i, a) in rel.inf) == ((i, a) in ref.inf)
        for k in ref.keys:
            assert rel.next_from(i, k) == ref.next_rel.get((i, k), set())
    # next_from demanded every configuration
    for config, targets in rel.move.items():
        assert targets == ref.move.get(config, set())
        assert (config in rel.inf) == (config in ref.inf)


@settings(deadline=None, max_examples=150)
@given(data=st.data())
def test_membership_matches_stepping_the_eager_relations(data):
    # stars in the rules give plays that go on forever
    game = data.draw(st.one_of(small_finite_games(), small_regex_games()))
    strategy = data.draw(random_strategies(game))
    rel = EagerRelations(game, strategy.automaton(game))
    won = {
        w for w in words_upto(game.alphabet, 4)
        if relations_win(rel, game.target.accepting, w)
    }
    for w in words_upto(game.alphabet, 4):
        assert is_winning(game, strategy, w) == (w in won), w
    assert winning_set_upto(game, strategy, 4) == won


def _long_lost_word():
    # the target takes every word, so only the play that calling a at
    # the first symbol never ends can lose; 10,000 more symbols follow
    target = Dfa(1, ("a", "b"), {(0, "a"): 0, (0, "b"): 0}, 0, {0})
    game = Game(("a", "b"), {"a": "a*a"}, target)
    sigma = strongly_regular_automaton(game, [(0, "a")])
    return game, sigma, ("a",) + ("b",) * 10_000


def test_an_infinite_play_loses_a_long_word():
    game, sigma, word = _long_lost_word()
    rel = EagerRelations(game, sigma.automaton(game))
    assert not relations_win(rel, game.target.accepting, word)
    assert not is_winning(game, sigma, word)
    assert is_winning(game, sigma, word[1:])


def test_is_winning_stops_stepping_at_a_certain_loss(monkeypatch):
    game, sigma, word = _long_lost_word()
    losing_nfa(game, sigma)  # build the cached NFA outside the count
    stepped = []
    step_set = Nfa.step_set

    def counted(self, states, symbol):
        stepped.append(symbol)
        return step_set(self, states, symbol)

    monkeypatch.setattr(Nfa, "step_set", counted)
    assert not is_winning(game, sigma, word)
    assert len(stepped) <= 2
    # the word is checked before it is stepped
    with pytest.raises(ValueError):
        is_winning(game, sigma, word + ("z",))


def _kth_from_last_nfa(k, universal):
    """Words over 0/1 shorter than k, and those whose k-th symbol from the
    end is 1 (or either bit, when universal: then every word)."""
    chains = [range(1 + j * k, 1 + (j + 1) * k) for j in range(3 if universal else 2)]
    transitions = {(0, "0"): {0}, (0, "1"): {0}}
    for chain in chains:
        for p in chain[:-1]:
            transitions[(p, "0")] = transitions[(p, "1")] = {p + 1}
    for bit, chain in zip("10", chains[1:]):
        transitions[(0, bit)].add(chain[0])
    accepting = set(chains[0]) | {chain[-1] for chain in chains[1:]}
    return Nfa(1 + len(chains) * k, ("0", "1"), transitions, {0, 1}, accepting)


def test_a_repeated_word_is_not_stepped_again(monkeypatch):
    # plays on universality games never stop early, so the word is read
    # to its end; the second time every subset step is memoized
    game, a1, _ = from_nfa_universality(_kth_from_last_nfa(4, False))
    word = tuple(random.Random(4).choices("01", k=300))
    stepped = []
    step_set = Nfa.step_set

    def counted(self, states, symbol):
        stepped.append(symbol)
        return step_set(self, states, symbol)

    monkeypatch.setattr(Nfa, "step_set", counted)
    won = is_winning(game, a1, word)
    assert stepped
    stepped.clear()
    assert is_winning(game, a1, word) == won
    assert stepped == []


# exists_winning_sreg on 3SAT reductions: (variables, clauses, reroutes
# found by dfs mode as {state: symbols}), recorded with the eagerly
# saturated relations
SREG_GOLDEN = [
    (
        2,
        [(-2, 2, -2), (2, -2, -1), (-2, 2, 1)],
        {0: "0", 4: "C", 6: "0", 10: "01C", 11: "E", 12: "01"},
    ),
    (
        3,
        [(3, -3, 2), (3, -3, 1)],
        {0: "0", 4: "C", 6: "0", 10: "C", 12: "0", 16: "1C", 17: "E"},
    ),
    (1, [(1, 1, -1)], {0: "0", 4: "C", 5: "E"}),
    (
        2,
        [(-1, 1, 1), (-2, 2, 1)],
        {0: "0", 4: "1C", 6: "0", 10: "1C", 11: "E", 12: "1"},
    ),
    (
        3,
        [(-2, -2, -2)],
        {0: "0", 4: "C", 6: "0", 10: "0C", 12: "0", 16: "C", 17: "E", 18: "0"},
    ),
    (1, [(-1, -1, 1), (-1, -1, 1)], {0: "0", 4: "01C", 5: "E", 6: "1"}),
    (2, [(2, 2, -1), (-1, 2, 1)], {0: "0", 4: "1C", 6: "0", 10: "C", 11: "E", 12: "1"}),
    (
        3,
        [(-1, 2, -3), (3, -3, -3)],
        {0: "0", 4: "01C", 6: "0", 10: "C", 12: "0", 16: "0C", 17: "E", 18: "0"},
    ),
    (1, [(-1, 1, 1), (-1, -1, -1), (-1, 1, 1)], {0: "0", 4: "01C", 5: "E", 6: "01"}),
    (
        2,
        [(-2, -1, 1), (-1, 2, -2), (2, -2, -1)],
        {0: "0", 4: "01C", 6: "0", 10: "01C", 11: "E", 12: "01"},
    ),
    (
        3,
        [(-1, 1, -3)],
        {0: "0", 4: "01C", 6: "0", 10: "C", 12: "0", 16: "C", 17: "E", 18: "0"},
    ),
    (1, [(-1, -1, -1)], {0: "0", 4: "0C", 5: "E", 6: "0"}),
    (2, [(1, 2, -2)], {0: "0", 4: "C", 6: "0", 10: "C", 11: "E"}),
    (
        3,
        [(3, 1, -2), (-2, -3, -2)],
        {0: "0", 4: "C", 6: "0", 10: "0C", 12: "0", 16: "C", 17: "E", 18: "0"},
    ),
    (1, [(-1, 1, 1)], {0: "0", 4: "1C", 5: "E", 6: "1"}),
    (
        2,
        [(1, 2, 2), (1, -2, -2), (2, 1, -1)],
        {0: "1", 2: "D", 4: "01", 6: "0", 10: "C", 11: "E", 12: "01"},
    ),
    (
        3,
        [(-1, -1, -2), (3, 1, 2)],
        {
            0: "0", 4: "0C", 6: "0", 10: "C", 12: "1", 14: "D", 16: "1", 17: "E",
            18: "01",
        },
    ),
    (1, [(-1, -1, 1), (1, 1, 1)], {0: "1", 2: "D", 4: "1", 5: "E", 6: "1"}),
    (1, [(1, 1, 1), (-1, -1, -1)], None),
    (2, [(1, 2, 2), (1, -2, -2), (-1, 2, 2), (-1, -2, -2)], None),
]


@pytest.mark.parametrize("n_vars, clauses, reroutes", SREG_GOLDEN)
def test_sreg_reroutes_golden(n_vars, clauses, reroutes):
    game, word = from_3sat(CnfFormula(n_vars, clauses))
    found = exists_winning_sreg(game, word, mode="dfs")
    if reroutes is None:
        assert found is None
    else:
        expected = {(q, a) for q, symbols in reroutes.items() for a in symbols}
        assert found.reroutes == expected


@settings(deadline=None, max_examples=40)
@given(data=st.data())
def test_decisions_match_brute_force(data):
    game = data.draw(small_finite_games())
    strategy = data.draw(random_strategies(game))
    wins = {
        w
        for w in words_upto(game.alphabet, 3)
        if brute_force_outcome(game, strategy, w) == WIN
    }
    assert winning_set_upto(game, strategy, 3) == wins
    for w in words_upto(game.alphabet, 3):
        assert is_winning(game, strategy, w) == (w in wins)
    lost = set(enumerate_upto(losing_nfa(game, strategy), 3))
    assert lost == set(words_upto(game.alphabet, 3)) - wins


@settings(deadline=None, max_examples=25)
@given(data=st.data())
def test_dfs_matches_exhaustive(data):
    game = data.draw(small_finite_games())
    word = tuple(data.draw(st.lists(st.sampled_from(game.alphabet), max_size=3)))
    a = sreg_winner_by_enumeration(game, word)
    b = exists_winning_sreg(game, word, mode="dfs")
    assert (a is None) == (b is None)
    if b is not None:
        assert is_winning(game, b, word)
        assert brute_force_outcome(game, b, word) == WIN


def test_dfs_branches_past_an_infinite_play():
    # reading a at 0 falls into the sink; calling a there replays ba at 0
    # forever unless b is called too, and b's reply c reaches the accepting
    # state: the search must still branch on the decision at (0, b) that
    # the infinite play ran into
    target = Dfa(
        3,
        ("a", "b", "c"),
        {
            (0, "a"): 2,
            (0, "b"): 0,
            (0, "c"): 1,
            (1, "a"): 1,
            (1, "b"): 1,
            (1, "c"): 1,
            (2, "a"): 2,
            (2, "b"): 2,
            (2, "c"): 2,
        },
        0,
        {1},
    )
    game = Game(("a", "b", "c"), {"a": "ba", "b": "c"}, target)
    assert not is_winning(game, strongly_regular_automaton(game, [(0, "a")]), ("a",))
    found = exists_winning_sreg(game, ("a",))
    assert found is not None and found.reroutes == frozenset({(0, "a"), (0, "b")})


@settings(deadline=None, max_examples=400)
@given(data=st.data())
def test_dfs_matches_incremental_on_infinite_plays(data):
    # regex rules can pump a play forever, which the brute-force referee
    # cannot follow; the incremental search is the reference instead
    game = data.draw(st.one_of(small_finite_games(), small_regex_games()))
    word = tuple(data.draw(st.lists(st.sampled_from(game.alphabet), max_size=5)))
    found = exists_winning_sreg(game, word, mode="dfs")
    smallest = exists_winning_sreg(game, word, mode="incremental")
    assert (found is None) == (smallest is None)
    if found is not None:
        assert is_winning(game, found, word)


@settings(deadline=None, max_examples=30)
@given(data=st.data())
def test_dominance_against_bounded_sets(data):
    game = data.draw(small_finite_games())
    s1 = data.draw(random_strategies(game))
    s2 = data.draw(random_strategies(game))
    dominated, witness = is_dominated(game, s1, s2)
    w1 = winning_set_upto(game, s1, 4)
    w2 = winning_set_upto(game, s2, 4)
    if dominated:
        assert witness is None
        assert w1 <= w2
    else:
        assert is_winning(game, s1, witness)
        assert not is_winning(game, s2, witness)
        diffs = sorted(w1 - w2, key=lambda w: shortlex_key(w, game.alphabet))
        if len(witness) <= 4:
            assert diffs and diffs[0] == witness
        else:
            assert not diffs


def _dominated_by_determinizing(game, first, second):
    # the construction is_dominated replaced: a pair search on the two
    # determinized losing NFAs
    witness = subset_witness(
        determinize(losing_nfa(game, second)), determinize(losing_nfa(game, first))
    )
    return witness is None, witness


@settings(deadline=None, max_examples=100)
@given(data=st.data())
def test_is_dominated_matches_determinizing(data):
    game = data.draw(st.one_of(small_finite_games(), small_regex_games()))
    s1 = data.draw(random_strategies(game))
    s2 = data.draw(random_strategies(game))
    assert is_dominated(game, s1, s2) == _dominated_by_determinizing(game, s1, s2)
    assert is_dominated(game, s2, s1) == _dominated_by_determinizing(game, s2, s1)


@pytest.mark.parametrize("universal", [False, True])
@pytest.mark.parametrize("k", range(2, 7))
def test_is_dominated_matches_determinizing_on_universality_games(k, universal):
    game, a1, a2 = from_nfa_universality(_kth_from_last_nfa(k, universal))
    assert is_dominated(game, a1, a2) == _dominated_by_determinizing(game, a1, a2)
    assert is_dominated(game, a2, a1) == _dominated_by_determinizing(game, a2, a1)
    assert is_dominated(game, a1, a2)[0] == universal
