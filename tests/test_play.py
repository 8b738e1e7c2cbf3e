"""Tests for the play engine, strategy objects and the brute-force oracle."""

import pytest

from cfgame.analysis import is_winning
from cfgame.automata import Dfa, all_words_upto
from cfgame.fixtures import fixture
from cfgame.games import Game, flatten_history
from cfgame.play import (
    TRUNCATED,
    WIN_JULIET,
    WIN_ROMEO,
    ForgetfulStrategy,
    GeneralStrategy,
    PlayProtocolError,
    StrategyFormatError,
    StronglyRegularStrategy,
    dump_strategy,
    load_strategy,
    read_all_strategy,
    run_play,
    scripted_romeo,
    shortlex_romeo,
    strategy_from_dict,
    strategy_to_dict,
    strongly_regular_automaton,
)
from oracles import DIVERGE, LOSE, WIN, brute_force_outcome


def test_sandbox_read_all_wins_ab():
    fx = fixture("sandbox")
    play = run_play(
        fx.game, fx.strategies["read-all"], shortlex_romeo(fx.game), ("a", "b")
    )
    assert play.outcome == WIN_JULIET
    assert play.final_word == ("a", "b")
    assert play.depth == 0
    assert play.configurations[0] == ((), ("a", "b"))
    assert len(play.configurations) == 3
    configurations, outcome, depth = play
    assert (configurations, outcome, depth) == (play.configurations, WIN_JULIET, 0)


def test_sandbox_call_initial_wins_ac():
    fx = fixture("sandbox")
    tau = lambda history, symbol: ("b",)
    play = run_play(fx.game, fx.strategies["call-initial-a"], tau, ("a", "c"))
    assert play.outcome == WIN_JULIET
    assert play.final_word == ("b", "c")
    assert play.final_history[0] == "^a"
    assert play.depth == 1


def test_g1_always_call_truncates():
    fx = fixture("g1-recursive")
    tau = lambda history, symbol: ("a", "a")
    play = run_play(fx.game, fx.strategies["always-call"], tau, ("a",), step_limit=50)
    assert play.outcome == TRUNCATED
    assert play.depth == 50
    assert len(play.configurations) == 51
    assert all(s == "^a" for s in play.final_history)


def test_read_all_wins_exactly_the_target():
    for name in ("sandbox", "g2c-undominated"):
        fx = fixture(name)
        sigma = fx.strategies["read-all"]
        tau = shortlex_romeo(fx.game)
        for word in all_words_upto(fx.game.alphabet, 3):
            play = run_play(fx.game, sigma, tau, word)
            assert play.final_word == word
            expected = WIN_JULIET if fx.game.target.accepts(word) else WIN_ROMEO
            assert play.outcome == expected


def test_run_play_is_deterministic():
    fx = fixture("g2c-undominated")
    sigma = fx.strategies["forgetful-optimal"]
    plays = [run_play(fx.game, sigma, shortlex_romeo(fx.game), ("a",)) for _ in range(2)]
    assert plays[0].configurations == plays[1].configurations
    assert plays[0].outcome == plays[1].outcome
    assert plays[0].depth == plays[1].depth


def test_nested_call_depth():
    fx = fixture("g1c-undominated")
    tau = scripted_romeo([("b",), ("c", "d")])
    play = run_play(fx.game, fx.strategies["selective-call"], tau, ("a",))
    assert play.outcome == WIN_JULIET
    assert play.final_word == ("c", "d")
    assert play.depth == 2
    assert play.final_history == ("^a", "^b", "c", "d")


def test_invalid_reply_rejected():
    fx = fixture("sandbox")
    tau = lambda history, symbol: ("c",)
    with pytest.raises(PlayProtocolError, match="replacement language"):
        run_play(fx.game, fx.strategies["call-initial-a"], tau, ("a", "c"))


def test_scripted_romeo_exhaustion():
    fx = fixture("g1-recursive")
    tau = scripted_romeo([("a", "a")])
    with pytest.raises(PlayProtocolError, match="exhausted"):
        run_play(fx.game, fx.strategies["always-call"], tau, ("a",), step_limit=50)


def test_shortlex_romeo_picks_least_reply():
    fx = fixture("g2c-undominated")
    tau = shortlex_romeo(fx.game)
    assert tau((), "a") == ("b", "b")
    assert tau((), "b") == ("c", "c")
    play = run_play(fx.game, fx.strategies["forgetful-optimal"], tau, ("a",))
    assert play.final_word == ("b", "c", "c")
    assert play.outcome == WIN_JULIET


def test_accepting_step_on_a_symbol_without_a_rule_reads_it():
    # the automaton accepts after every symbol, but only a has a rule
    fx = fixture("sandbox")
    hist = fx.game.hist_alphabet
    always = GeneralStrategy(Dfa(1, hist, {(0, a): 0 for a in hist}, 0, {0}))
    tau = shortlex_romeo(fx.game)  # a has the single reply b
    for word in all_words_upto(fx.game.alphabet, 3):
        play = run_play(fx.game, always, tau, word)
        assert play.final_history == sum(
            (("^a", "b") if a == "a" else (a,) for a in word), ()
        )
        won = play.outcome == WIN_JULIET
        assert won == is_winning(fx.game, always, word) == (
            brute_force_outcome(fx.game, always, word) == WIN
        )


def test_empty_spec_behaves_like_read_all():
    fx = fixture("sandbox")
    sreg = strongly_regular_automaton(fx.game, [])
    assert sreg.automaton(fx.game).n_states == fx.game.target.n_states + 1
    tau = shortlex_romeo(fx.game)
    for word in all_words_upto(fx.game.alphabet, 3):
        a = run_play(fx.game, sreg, tau, word)
        b = run_play(fx.game, fx.strategies["read-all"], tau, word)
        assert a.outcome == b.outcome
        assert a.final_word == b.final_word


def test_strongly_regular_validation():
    fx = fixture("sandbox")
    with pytest.raises(StrategyFormatError, match="non-function"):
        strongly_regular_automaton(fx.game, [(0, "b")])
    with pytest.raises(StrategyFormatError, match="out of range"):
        strongly_regular_automaton(fx.game, [(9, "a")])


def test_strongly_regular_object_on_g2():
    fx = fixture("g2-regular-not-sreg")
    strategy = strongly_regular_automaton(fx.game, [(0, "c"), (0, "a"), (1, "d")])
    assert strategy.kind == "strongly-regular"
    assert strategy.automaton(fx.game).n_states == 4
    assert strategy.reroutes == frozenset({(0, "c"), (0, "a"), (1, "d")})


def test_brute_force_sandbox():
    fx = fixture("sandbox")
    read_all = fx.strategies["read-all"]
    call_initial = fx.strategies["call-initial-a"]
    assert brute_force_outcome(fx.game, read_all, ("a", "b")) == WIN
    assert brute_force_outcome(fx.game, read_all, ("a", "c")) == LOSE
    assert brute_force_outcome(fx.game, read_all, ("b", "c")) == WIN
    assert brute_force_outcome(fx.game, read_all, ()) == LOSE
    assert brute_force_outcome(fx.game, call_initial, ("a", "c")) == WIN
    assert brute_force_outcome(fx.game, call_initial, ("a", "b")) == LOSE


def test_brute_force_g1():
    fx = fixture("g1-recursive")
    assert brute_force_outcome(fx.game, fx.strategies["always-call"], ("a",)) == DIVERGE
    assert brute_force_outcome(fx.game, fx.strategies["read-all"], ("a",)) == LOSE
    assert brute_force_outcome(fx.game, fx.strategies["call-first"], ("a",)) == WIN
    assert brute_force_outcome(fx.game, fx.strategies["call-first"], ("a", "a")) == WIN
    assert brute_force_outcome(fx.game, fx.strategies["call-first"], ()) == LOSE


def test_brute_force_rejects_infinite_rules():
    target = Dfa(1, ("a", "b"), {(0, "a"): 0, (0, "b"): 0}, 0, {0})
    game = Game(("a", "b"), {"a": "bb*"}, target)
    with pytest.raises(ValueError, match="infinite"):
        brute_force_outcome(game, read_all_strategy(game), ("a",))


def test_brute_win_implies_play_win():
    fx = fixture("g2c-undominated")
    sigma = fx.strategies["forgetful-optimal"]
    tables = [
        {"a": ("b", "b"), "b": ("c", "c")},
        {"a": ("c", "b", "c"), "b": ("c", "c")},
    ]
    for word in all_words_upto(fx.game.alphabet, 3):
        if brute_force_outcome(fx.game, sigma, word) == WIN:
            for table in tables:
                tau = lambda history, symbol: table[symbol]
                play = run_play(fx.game, sigma, tau, word)
                assert play.outcome == WIN_JULIET


def test_strategy_round_trips():
    sandbox = fixture("sandbox")
    g2c = fixture("g2c-undominated")
    for strategy in (
        sandbox.strategies["call-initial-a"],
        g2c.strategies["forgetful-optimal"],
        StronglyRegularStrategy([(0, "a"), (2, "b")]),
    ):
        again = load_strategy(dump_strategy(strategy))
        assert again == strategy
        assert strategy_from_dict(strategy_to_dict(strategy)) == strategy


def test_strongly_regular_strategy_round_trips():
    fx = fixture("g2-regular-not-sreg")
    strategy = strongly_regular_automaton(fx.game, [(0, "c"), (0, "a"), (1, "d")])
    again = load_strategy(dump_strategy(strategy))
    assert again == strategy
    assert again.automaton(fx.game) == strategy.automaton(fx.game)


def test_strategy_format_errors():
    with pytest.raises(StrategyFormatError, match="unknown strategy kind"):
        strategy_from_dict({"kind": "psychic"})
    with pytest.raises(StrategyFormatError, match="missing its automaton"):
        strategy_from_dict({"kind": "general"})
    with pytest.raises(StrategyFormatError, match="bad reroute entry"):
        strategy_from_dict({"kind": "strongly-regular", "reroutes": [[1]]})
    with pytest.raises(StrategyFormatError, match="invalid JSON"):
        load_strategy("{nope")


def test_forgetful_lift_ignores_called_symbols():
    for name, strategy_name in (
        ("g2c-undominated", "forgetful-optimal"),
        ("g1-recursive", "always-call"),
    ):
        fx = fixture(name)
        strategy = fx.strategies[strategy_name]
        lifted = strategy.automaton(fx.game)
        for word in all_words_upto(fx.game.hist_alphabet, 3):
            assert lifted.run(word) == strategy.dfa.run(flatten_history(word))


def test_strategy_alphabet_mismatch():
    fx = fixture("sandbox")
    wrong = Dfa(1, ("a", "b"), {(0, "a"): 0, (0, "b"): 0}, 0, set())
    with pytest.raises(StrategyFormatError, match="does not match the history alphabet"):
        GeneralStrategy(wrong).automaton(fx.game)
    with pytest.raises(StrategyFormatError, match="does not match the game alphabet"):
        ForgetfulStrategy(wrong).automaton(fx.game)


def test_forgetful_strategy_is_a_general_strategy_of_another_kind():
    dfa = fixture("sandbox").strategies["read-all"].dfa
    assert isinstance(ForgetfulStrategy(dfa), GeneralStrategy)
    assert ForgetfulStrategy(dfa) == ForgetfulStrategy(dfa)
    assert ForgetfulStrategy(dfa) != GeneralStrategy(dfa)
    assert GeneralStrategy(dfa) != ForgetfulStrategy(dfa)


def test_run_play_input_checks():
    fx = fixture("sandbox")
    tau = shortlex_romeo(fx.game)
    with pytest.raises(PlayProtocolError, match="not in the alphabet"):
        run_play(fx.game, fx.strategies["read-all"], tau, ("z",))
    with pytest.raises(ValueError, match="step_limit"):
        run_play(fx.game, fx.strategies["read-all"], tau, ("a",), step_limit=0)
