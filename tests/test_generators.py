import itertools
import random

import pytest

from cfgame.analysis import exists_winning_sreg, is_dominated, is_winning, winning_set_upto
from cfgame.automata import Nfa, language_is_finite, minimize
from cfgame.games import classify
from cfgame.generators import (
    CnfFormula,
    assignment_strategy,
    fixture,
    from_3sat,
    from_nfa_universality,
    random_game,
)
from cfgame.play import read_all_strategy
from conftest import random_nfa
from oracles import (
    all_assignments,
    brute_force_outcome,
    nfa_is_universal,
    sat_assignment,
    small_formulas,
    words_upto,
)


def test_cnf_formula_validation():
    phi = CnfFormula(2, [(1, -2, 2)])
    assert phi.clauses == ((1, -2, 2),)
    with pytest.raises(ValueError):
        CnfFormula(2, [(1, 2)])
    with pytest.raises(ValueError):
        CnfFormula(2, [(1, 2, 0)])
    with pytest.raises(ValueError):
        CnfFormula(2, [(1, 2, 3)])
    with pytest.raises(ValueError):
        CnfFormula(0, [])
    with pytest.raises(ValueError):
        CnfFormula(2, [])


def test_cnf_parse():
    phi = CnfFormula.parse("1,1,1;-1,-1,-1")
    assert phi.n_vars == 1
    assert phi.clauses == ((1, 1, 1), (-1, -1, -1))
    assert CnfFormula.parse("1,2,-3").n_vars == 3
    assert CnfFormula.parse("1,2,-3") == CnfFormula(3, [("1", 2, -3)])
    assert hash(CnfFormula.parse("1,2,-3")) == hash(CnfFormula(3, [("1", 2, -3)]))
    assert hash(phi) == hash((1, ((1, 1, 1), (-1, -1, -1))))
    assert CnfFormula.parse("1,1,1", n_vars=4).n_vars == 4
    with pytest.raises(ValueError):
        CnfFormula.parse("")
    with pytest.raises(ValueError):
        CnfFormula.parse("1,1")
    with pytest.raises(ValueError):
        CnfFormula.parse("1,1,x")


def test_3sat_single_positive_clause_is_winnable():
    game, word = from_3sat(CnfFormula(1, [(1, 1, 1)]))
    assert word == ("0", "C", "D", "E")
    strat = exists_winning_sreg(game, word)
    assert strat is not None
    assert is_winning(game, strat, word)


def test_3sat_contradiction_is_not_winnable():
    game, word = from_3sat(CnfFormula(1, [(1, 1, 1), (-1, -1, -1)]))
    assert exists_winning_sreg(game, word) is None


def test_3sat_game_shape():
    phi = CnfFormula(2, [(1, -2, 2), (-1, -1, 2)])
    game, word = from_3sat(phi)
    report = classify(game)
    assert report.non_recursive
    assert report.prefix_free
    assert all(
        language_is_finite(game.replacement_dfa(a)) for a in game.function_symbols
    )
    assert game.function_symbols == ("0", "1", "C", "D", "E")
    assert word == ("0", "C", "D", "a2", "0", "C", "D", "E")
    # one six-state gadget per variable plus the sink, and already minimal
    assert game.target.n_states == 13
    assert minimize(game.target).n_states == 13


def test_3sat_assignment_strategies_decide_each_assignment():
    phi = CnfFormula(2, [(1, 2, 2), (-1, -2, -2)])
    game, word = from_3sat(phi)
    for theta in all_assignments(2):
        satisfies = all(
            any((lit > 0) == theta[abs(lit)] for lit in clause)
            for clause in phi.clauses
        )
        spec = assignment_strategy(phi, theta)
        assert is_winning(game, spec, word) == satisfies


def test_3sat_one_variable_sweep_matches_truth_tables():
    for phi in small_formulas(1):
        game, word = from_3sat(phi)
        theta = sat_assignment(phi)
        found = exists_winning_sreg(game, word)
        assert (found is not None) == (theta is not None), phi
        if theta is not None:
            assert is_winning(game, assignment_strategy(phi, theta), word)


def test_3sat_two_variable_sample_matches_truth_tables():
    rng = random.Random(20)
    formulas = small_formulas(2)
    for phi in rng.sample(formulas, 24):
        game, word = from_3sat(phi)
        theta = sat_assignment(phi)
        assert (exists_winning_sreg(game, word) is not None) == (theta is not None), phi
        if theta is not None:
            assert is_winning(game, assignment_strategy(phi, theta), word)


def figure_nfa():
    # three states 0,1,2; 0 and 1 accepting; no transition on 1 from 0,
    # so the word 1 is missed
    return Nfa(
        3,
        ("0", "1"),
        {(0, "0"): {1, 2}, (1, "0"): {1}, (1, "1"): {2}},
        {0},
        {0, 1},
    )


def test_universality_universal_one_state():
    nfa = Nfa(1, ("0", "1"), {(0, "0"): {0}, (0, "1"): {0}}, {0}, {0})
    game, a1, a2 = from_nfa_universality(nfa)
    dominated, witness = is_dominated(game, a1, a2)
    assert dominated and witness is None
    assert nfa_is_universal(nfa)


def test_universality_missing_word_gives_witness():
    game, a1, a2 = from_nfa_universality(figure_nfa())
    dominated, witness = is_dominated(game, a1, a2)
    assert not dominated
    assert witness == ("1",)
    assert not nfa_is_universal(figure_nfa())


def test_universality_rejecting_epsilon_maps_to_fixed_instance():
    nfa = Nfa(2, ("0", "1"), {(0, "0"): {1}, (1, "0"): {1}, (1, "1"): {1}}, {0}, {1})
    game, a1, a2 = from_nfa_universality(nfa)
    assert game == fixture("sandbox").game
    dominated, _ = is_dominated(game, a1, a2)
    assert not dominated


def test_universality_alphabet_checked():
    bad = Nfa(1, ("a", "b"), {(0, "a"): {0}}, {0}, {0})
    with pytest.raises(ValueError):
        from_nfa_universality(bad)


@pytest.mark.parametrize(
    "nfa, state",
    [
        # state 1's moves were lost when initial states were merged
        (Nfa(1, ("0", "1"), {(0, "0"): {1}, (1, "1"): {0}}, {0, 1}, {0}), "1"),
        (Nfa(1, ("0", "1"), {(0, "0"): {0}}, {0}, {0, 2}), "2"),
        (Nfa(2, ("0", "1"), {(0, "0"): {-1}}, {0}, {0}), "-1"),
        (Nfa(1, ("0", "1"), {}, {"0"}, {0}), "'0'"),
    ],
)
def test_universality_rejects_states_out_of_range(nfa, state):
    with pytest.raises(ValueError, match="NFA state %s is not in range" % state):
        from_nfa_universality(nfa)


def test_universality_second_strategy_wins_outside_01():
    game, _, a2 = from_nfa_universality(figure_nfa())
    got = winning_set_upto(game, a2, 2)
    expected = {
        w
        for w in words_upto(game.alphabet, 2)
        if any(sym not in ("0", "1") for sym in w)
    }
    assert set(got) == expected


def test_universality_merges_initial_states():
    # two initial states, one accepting; together they accept everything
    nfa = Nfa(
        2,
        ("0", "1"),
        {(0, "0"): {0}, (0, "1"): {0}, (1, "0"): {1}, (1, "1"): {1}},
        {0, 1},
        {0},
    )
    game, a1, a2 = from_nfa_universality(nfa)
    dominated, witness = is_dominated(game, a1, a2)
    assert dominated, witness
    assert nfa_is_universal(nfa)


def test_universality_random_sweep_matches_subset_construction():
    rng = random.Random(99)
    checked = 0
    for _ in range(40):
        nfa = random_nfa(rng)
        game, a1, a2 = from_nfa_universality(nfa)
        dominated, witness = is_dominated(game, a1, a2)
        universal = nfa_is_universal(nfa)
        assert dominated == universal, (nfa.transitions, witness)
        checked += 1
    assert checked == 40


def test_random_game_is_seed_deterministic():
    params = {"alphabet": 3, "target_states": 4, "rule_length": 3}
    assert random_game(params, 11) == random_game(params, 11)
    assert random_game(params, 11) != random_game(params, 12)


def test_random_game_honours_constraints():
    game = random_game({"constraints": ["prefix_free"]}, 3)
    assert classify(game).prefix_free
    game = random_game({"constraints": ["non_recursive"]}, 4)
    assert classify(game).non_recursive
    game = random_game({"constraints": ["unary"]}, 5)
    assert classify(game).unary


def test_random_game_finite_replacement_is_oracle_scope():
    for seed in range(6):
        game = random_game({"constraints": ["finite_replacement"]}, seed)
        assert all(
            language_is_finite(game.replacement_dfa(a))
            for a in game.function_symbols
        )
        word = tuple(game.alphabet[:2])
        brute_force_outcome(game, read_all_strategy(game), word)


def test_random_game_rejects_bad_params():
    with pytest.raises(ValueError):
        random_game({"alphabet": 50}, 0)
    with pytest.raises(ValueError):
        random_game({"bogus": 2}, 0)
    with pytest.raises(ValueError):
        random_game({"constraints": ["shiny"]}, 0)


@pytest.mark.parametrize("retries", [0, -2, 2.5, "3", True])
def test_random_game_rejects_a_bad_retries(retries):
    params = {"constraints": ["prefix_free"], "retries": retries}
    with pytest.raises(ValueError, match="retries must be an int of at least 1"):
        random_game(params, 0)


def test_random_game_reports_unsatisfiable_constraints():
    # a one-state target that accepts anything at all accepts an
    # infinite language, so finite_target can never hold
    with pytest.raises(ValueError):
        random_game(
            {"target_states": 1, "constraints": ["finite_target"], "retries": 40}, 1
        )
