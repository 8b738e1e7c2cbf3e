"""Golden tests: fixture facts re-derived with the brute-force oracle."""

import pytest

from cfgame.automata import all_words_upto
from cfgame.fixtures import fixture, fixture_names
from cfgame.games import classify
from cfgame.play import read_all_strategy, strongly_regular_automaton
from oracles import WIN, brute_force_outcome


def brute_winning_set(game, strategy, max_len):
    return {
        w
        for w in all_words_upto(game.alphabet, max_len)
        if brute_force_outcome(game, strategy, w) == WIN
    }


def test_names_and_lookup():
    assert fixture_names() == [
        "g1-recursive",
        "g1c-undominated",
        "g2-regular-not-sreg",
        "g2c-undominated",
        "sandbox",
    ]
    with pytest.raises(ValueError, match="unknown fixture"):
        fixture("nope")


def test_all_fixture_strategies_build():
    for name in fixture_names():
        fx = fixture(name)
        assert fx.game.notices == []
        for strategy in fx.strategies.values():
            automaton = strategy.automaton(fx.game)
            assert set(automaton.alphabet) == set(fx.game.hist_alphabet)
        assert set(fx.notes) <= set(fx.expected) or fx.notes


def test_sandbox_winning_sets():
    fx = fixture("sandbox")
    for name, words in fx.expected["exact_winning_sets"].items():
        derived = brute_winning_set(fx.game, fx.strategies[name], 4)
        assert derived == words


def test_g1_winning_sets():
    fx = fixture("g1-recursive")
    for name, (bound, words) in fx.expected["winning_set_upto"].items():
        assert brute_winning_set(fx.game, fx.strategies[name], bound) == words


def test_g2_winning_set_and_sreg_example():
    fx = fixture("g2-regular-not-sreg")
    bound, words = fx.expected["winning_set_upto"]["forgetful-winner"]
    assert brute_winning_set(fx.game, fx.strategies["forgetful-winner"], bound) == words
    example = fx.expected["sreg_win_example"]
    strategy = strongly_regular_automaton(fx.game, example["reroutes"])
    assert brute_force_outcome(fx.game, strategy, example["word"]) == WIN
    # Reading the c, or calling it without also calling the a of its
    # reply, both fail.
    assert brute_force_outcome(fx.game, fx.strategies["read-all"], ("c",)) != WIN
    lone = strongly_regular_automaton(fx.game, [(0, "c")])
    assert brute_force_outcome(fx.game, lone, ("c",)) != WIN


def test_g1c_winning_sets_and_witnesses():
    fx = fixture("g1c-undominated")
    for name, words in fx.expected["exact_winning_sets"].items():
        assert brute_winning_set(fx.game, fx.strategies[name], 3) == words
    for (winner, loser), word in fx.expected["domination_witnesses"].items():
        assert brute_force_outcome(fx.game, fx.strategies[winner], word) == WIN
        assert brute_force_outcome(fx.game, fx.strategies[loser], word) != WIN


def test_g2c_winning_sets():
    fx = fixture("g2c-undominated")
    for name, (bound, words) in fx.expected["winning_set_upto"].items():
        assert brute_winning_set(fx.game, fx.strategies[name], bound) == words


def test_g2c_winnable_but_lost():
    fx = fixture("g2c-undominated")
    optimal = fx.strategies["forgetful-optimal"]
    winners = {
        ("b", "c"): strongly_regular_automaton(fx.game, [(0, "b")]),
        ("c", "b"): strongly_regular_automaton(fx.game, [(1, "b")]),
        ("b", "b", "c"): read_all_strategy(fx.game),
    }
    for word in fx.expected["winnable_but_lost"]:
        assert brute_force_outcome(fx.game, optimal, word) != WIN
        assert brute_force_outcome(fx.game, winners[word], word) == WIN


def test_fixture_class_flags():
    flags = {
        "sandbox": (True, True),
        "g1-recursive": (False, False),
        "g2-regular-not-sreg": (False, False),
        "g1c-undominated": (True, True),
        "g2c-undominated": (True, True),
    }
    for name, (non_recursive, finite_target) in flags.items():
        report = classify(fixture(name).game)
        assert report.non_recursive == non_recursive, name
        assert report.finite_target == finite_target, name
