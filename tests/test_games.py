"""Tests for the game object: validation, serialization, classification,
and the prefix-free transform."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfgame.automata import (
    Dfa,
    all_words_upto,
    complement,
    enumerate_upto,
    equivalent,
    is_prefix_free,
    regex_to_text,
    subset_witness,
)
from cfgame.games import (
    Game,
    GameFormatError,
    classify,
    dump_game,
    flatten_history,
    format_word,
    game_from_dict,
    game_to_dict,
    hat,
    load_game,
    parse_word,
    to_prefix_free,
)
from cfgame.online import OnlineFormatError, load_online_instance
from cfgame.play import StrategyFormatError, load_strategy


def sandbox_dict():
    # Three symbols, one rule a -> b, target {ab, bc}.
    return {
        "alphabet": ["a", "b", "c"],
        "rules": {"a": "b"},
        "target": {
            "states": 5,
            "initial": 0,
            "accepting": [3],
            "transitions": [
                [0, "a", 1],
                [0, "b", 2],
                [0, "c", 4],
                [1, "a", 4],
                [1, "b", 3],
                [1, "c", 4],
                [2, "a", 4],
                [2, "b", 4],
                [2, "c", 3],
                [3, "a", 4],
                [3, "b", 4],
                [3, "c", 4],
                [4, "a", 4],
                [4, "b", 4],
                [4, "c", 4],
            ],
        },
        "name": "sandbox",
    }


def g1_game():
    # One symbol, a -> aa, target = all words of length at least two.
    target = Dfa(3, ("a",), {(0, "a"): 1, (1, "a"): 2, (2, "a"): 2}, 0, {2})
    return Game(("a",), {"a": "aa"}, target, name="g1")


def g2c_game():
    # a -> bb+cbc, b -> cc, target {bbc, bcc, cbc, ccc}.
    transitions = {
        (0, "a"): 4, (0, "b"): 1, (0, "c"): 1,
        (1, "a"): 4, (1, "b"): 2, (1, "c"): 2,
        (2, "a"): 4, (2, "b"): 4, (2, "c"): 3,
        (3, "a"): 4, (3, "b"): 4, (3, "c"): 4,
        (4, "a"): 4, (4, "b"): 4, (4, "c"): 4,
    }
    target = Dfa(5, ("a", "b", "c"), transitions, 0, {3})
    return Game(("a", "b", "c"), {"a": "bb+cbc", "b": "cc"}, target)


def test_sandbox_loads():
    game = load_game(json.dumps(sandbox_dict()))
    assert game.function_symbols == ("a",)
    assert game.notices == []
    assert game.name == "sandbox"
    assert game.target.accepts(("a", "b"))
    assert game.target.accepts(("b", "c"))
    assert not game.target.accepts(("a", "c"))
    assert not game.target.accepts(())
    assert enumerate_upto(game.replacement_dfa("a"), 3) == [("b",)]
    assert game.hist_alphabet == ("a", "b", "c", "^a")


def test_empty_replacement_word_rejected():
    data = sandbox_dict()
    data["rules"]["a"] = "b*"
    with pytest.raises(GameFormatError, match="empty word"):
        load_game(json.dumps(data))


def test_round_trip():
    game = load_game(json.dumps(sandbox_dict()))
    again = load_game(dump_game(game))
    assert again == game
    assert again.name == game.name
    assert game_from_dict(game_to_dict(game)) == game


def test_round_trip_multichar_symbols():
    target = Dfa(
        1, ("a", "(0,1)"), {(0, "a"): 0, (0, "(0,1)"): 0}, 0, {0}
    )
    game = Game(("a", "(0,1)"), {"a": '"(0,1)"a'}, target)
    again = load_game(dump_game(game))
    assert again == game
    assert enumerate_upto(again.replacement_dfa("a"), 2) == [("(0,1)", "a")]


def test_classify_g1():
    report = classify(g1_game())
    assert report.unary
    assert not report.non_recursive
    assert not report.finite_target
    assert report.prefix_free
    assert report.function_symbols == ("a",)


def test_classify_non_recursive_finite():
    report = classify(g2c_game())
    assert report.non_recursive
    assert report.finite_target
    assert report.prefix_free
    assert not report.unary
    assert report.function_symbols == ("a", "b")


def test_classify_cycle_without_self_loop():
    target = Dfa(1, ("a", "b"), {(0, "a"): 0, (0, "b"): 0}, 0, {0})
    game = Game(("a", "b"), {"a": "b", "b": "a"}, target)
    assert not classify(game).non_recursive
    game2 = Game(("a", "b"), {"a": "b"}, target)
    assert classify(game2).non_recursive


def test_classify_prefix_free_flag():
    target = Dfa(1, ("a", "b"), {(0, "a"): 0, (0, "b"): 0}, 0, {0})
    game = Game(("a", "b"), {"a": "b+bb"}, target)
    assert not classify(game).prefix_free


def test_to_prefix_free_sandbox():
    game = load_game(json.dumps(sandbox_dict()))
    out = to_prefix_free(game, "$")
    assert out.alphabet == ("a", "b", "c", "$")
    assert regex_to_text(out.rules["a"]) == "b$"
    assert out.notices == []
    assert classify(out).prefix_free
    # The end symbol is ignored by the target wherever it appears.
    assert out.target.accepts(("a", "$", "b"))
    assert out.target.accepts(("$", "b", "$", "c", "$"))
    assert not out.target.accepts(("a", "$"))
    # The original game is untouched.
    assert "$" not in game.alphabet
    assert regex_to_text(game.rules["a"]) == "b"


def test_to_prefix_free_g1():
    assert classify(to_prefix_free(g1_game(), "$")).prefix_free


def test_end_symbol_collision():
    game = g1_game()
    with pytest.raises(GameFormatError):
        to_prefix_free(game, "a")
    with pytest.raises(GameFormatError):
        to_prefix_free(game, "^e")


def test_non_minimal_target_gets_notice():
    data = sandbox_dict()
    # A second dead state, unreachable to boot.
    data["target"]["states"] = 6
    data["target"]["transitions"] += [[5, "a", 5], [5, "b", 5], [5, "c", 4]]
    game = load_game(json.dumps(data))
    assert len(game.notices) == 1
    assert "not minimal" in game.notices[0]
    assert game.target.n_states == 5
    reference = load_game(json.dumps(sandbox_dict()))
    assert equivalent(game.target, reference.target)


def test_target_alphabet_reordered_to_game_order():
    target = Dfa(1, ("b", "a"), {(0, "a"): 0, (0, "b"): 0}, 0, {0})
    game = Game(("a", "b"), {}, target)
    assert game.target.alphabet == ("a", "b")


broken_mutations = [
    ("missing alphabet", lambda d: d.pop("alphabet")),
    ("missing rules", lambda d: d.pop("rules")),
    ("missing target", lambda d: d.pop("target")),
    ("rule for unknown symbol", lambda d: d["rules"].update({"z": "b"})),
    ("unknown symbol in rule body", lambda d: d["rules"].update({"a": "bz"})),
    ("regex syntax error", lambda d: d["rules"].update({"a": "b+"})),
    ("missing transition", lambda d: d["target"]["transitions"].pop()),
    ("duplicate transition", lambda d: d["target"]["transitions"].append([0, "a", 2])),
    ("accepting out of range", lambda d: d["target"].update({"accepting": [9]})),
    ("initial out of range", lambda d: d["target"].update({"initial": 7})),
    ("duplicate alphabet symbol", lambda d: d.update({"alphabet": ["a", "b", "b"]})),
    ("transition entry too short", lambda d: d["target"]["transitions"].append([0, "a"])),
]


@pytest.mark.parametrize(
    "mutate", [m for _, m in broken_mutations], ids=[n for n, _ in broken_mutations]
)
def test_bad_game_files(mutate):
    data = sandbox_dict()
    mutate(data)
    with pytest.raises(GameFormatError):
        game_from_dict(data)


def test_bad_json_text():
    with pytest.raises(GameFormatError, match="invalid JSON"):
        load_game("{")
    with pytest.raises(GameFormatError, match="JSON object"):
        load_game("[1, 2]")


@pytest.mark.parametrize(
    "load, error",
    [
        (load_game, GameFormatError),
        (load_strategy, StrategyFormatError),
        (load_online_instance, OnlineFormatError),
    ],
)
def test_bytes_that_are_not_utf8_raise_the_readers_error(load, error):
    with pytest.raises(error, match="invalid JSON"):
        load(b"\xff")


def test_bad_symbols_rejected():
    plain = Dfa(1, ("a",), {(0, "a"): 0}, 0, {0})
    with pytest.raises(GameFormatError):
        Game(("^a",), {}, Dfa(1, ("^a",), {(0, "^a"): 0}, 0, {0}))
    with pytest.raises(GameFormatError):
        Game(("a", 'b"'), {}, plain)
    with pytest.raises(GameFormatError):
        Game(("a", "x y"), {}, plain)
    with pytest.raises(GameFormatError):
        Game((), {}, plain)
    with pytest.raises(GameFormatError):
        Game(("a",), {}, Dfa(1, ("a", "b"), {(0, "a"): 0, (0, "b"): 0}, 0, {0}))


def test_parse_word():
    assert parse_word("abc", ("a", "b", "c")) == ("a", "b", "c")
    assert parse_word("a b a", ("a", "b")) == ("a", "b", "a")
    assert parse_word("", ("a",)) == ()
    assert parse_word("  ", ("a",)) == ()
    assert parse_word("a (0,1)", ("a", "(0,1)")) == ("a", "(0,1)")
    assert parse_word("(0,1)", ("a", "(0,1)")) == ("(0,1)",)
    with pytest.raises(GameFormatError):
        parse_word("ad", ("a", "b"))
    with pytest.raises(GameFormatError):
        parse_word("a(0,1)", ("a", "(0,1)"))


def test_format_word():
    assert format_word(()) == ""
    assert format_word(("a", "b")) == "ab"
    assert format_word(("a", "(0,1)")) == "a (0,1)"
    for word in [(), ("a", "b", "a")]:
        assert parse_word(format_word(word), ("a", "b")) == word
    assert parse_word(format_word(("(0,1)", "a")), ("a", "(0,1)")) == ("(0,1)", "a")


def test_hat_helpers():
    assert hat("a") == "^a"
    assert flatten_history(("a", "^b", "c", "^a")) == ("a", "c")


# ---------------------------------------------------------------------------
# Random small games.


@st.composite
def rule_asts(draw, alphabet):
    words = draw(
        st.lists(
            st.lists(st.sampled_from(alphabet), min_size=1, max_size=2),
            min_size=1,
            max_size=2,
        )
    )
    alts = []
    for w in words:
        node = ("sym", w[0])
        for s in w[1:]:
            node = ("cat", node, ("sym", s))
        alts.append(node)
    node = alts[0]
    for other in alts[1:]:
        node = ("alt", node, other)
    if draw(st.booleans()):
        node = ("cat", node, ("star", ("sym", draw(st.sampled_from(alphabet)))))
    return node


@st.composite
def small_games(draw):
    alphabet = draw(st.sampled_from([("a",), ("a", "b")]))
    n = draw(st.integers(1, 3))
    transitions = {}
    for q in range(n):
        for a in alphabet:
            transitions[(q, a)] = draw(st.integers(0, n - 1))
    accepting = draw(st.sets(st.integers(0, n - 1)))
    target = Dfa(n, alphabet, transitions, 0, accepting)
    syms = draw(st.sets(st.sampled_from(alphabet)))
    rules = {s: draw(rule_asts(alphabet)) for s in sorted(syms)}
    return Game(alphabet, rules, target)


@given(small_games())
@settings(max_examples=60, deadline=None)
def test_prefix_free_transform_properties(game):
    out = to_prefix_free(game, "$")
    assert classify(out).prefix_free
    for a in out.function_symbols:
        ok, witness = is_prefix_free(out.replacement_dfa(a))
        assert ok, witness
        suffixed = [
            w + ("$",) for w in enumerate_upto(game.replacement_dfa(a), 2)
        ]
        assert enumerate_upto(out.replacement_dfa(a), 3) == suffixed
    for w in all_words_upto(out.alphabet, 4):
        projected = tuple(s for s in w if s != "$")
        assert out.target.accepts(w) == game.target.accepts(projected)


def _contains_symbol_dfa(alphabet, b):
    transitions = {}
    for s in alphabet:
        transitions[(0, s)] = 1 if s == b else 0
        transitions[(1, s)] = 1
    return Dfa(2, alphabet, transitions, 0, {1})


@given(small_games())
@settings(max_examples=60, deadline=None)
def test_classify_non_recursive_matches_automaton_oracle(game):
    # Edges computed by automaton inclusion instead of syntax trees,
    # cycles by transitive closure instead of depth-first search.
    funcs = set(game.function_symbols)
    reach = {}
    for a in funcs:
        reach[a] = {
            b
            for b in funcs
            if subset_witness(
                game.replacement_dfa(a),
                complement(_contains_symbol_dfa(game.alphabet, b)),
            )
            is not None
        }
    changed = True
    while changed:
        changed = False
        for a in funcs:
            for b in list(reach[a]):
                extra = reach[b] - reach[a]
                if extra:
                    reach[a] |= extra
                    changed = True
    oracle = all(a not in reach[a] for a in funcs)
    assert classify(game).non_recursive == oracle
