"""Built-in example games with named strategies and documented facts.

Each fixture records what is known about its strategies (winning sets,
domination witnesses) so tests can re-derive the facts independently.
The expected dict maps fact names to plain values; notes explain the
behaviour in words.
"""

from collections import namedtuple

from .automata import Dfa, all_words_upto
from .games import Game
from .play import ForgetfulStrategy, GeneralStrategy, read_all_strategy


Fixture = namedtuple("Fixture", ["name", "game", "strategies", "expected", "notes"])


def _sandbox():
    # One rule a -> b; target {ab, bc}.  Reading everything wins on ab
    # and bc; calling the initial a turns ab into bb (lost) but ac into
    # bc (won).
    alphabet = ("a", "b", "c")
    target = Dfa(
        5,
        alphabet,
        {
            (0, "a"): 1, (0, "b"): 2, (0, "c"): 4,
            (1, "a"): 4, (1, "b"): 3, (1, "c"): 4,
            (2, "a"): 4, (2, "b"): 4, (2, "c"): 3,
            (3, "a"): 4, (3, "b"): 4, (3, "c"): 4,
            (4, "a"): 4, (4, "b"): 4, (4, "c"): 4,
        },
        0,
        {3},
    )
    game = Game(alphabet, {"a": "b"}, target, name="sandbox")
    hist = game.hist_alphabet
    call_initial = Dfa(
        3,
        hist,
        {
            (0, "a"): 2, (0, "b"): 1, (0, "c"): 1, (0, "^a"): 1,
            (1, "a"): 1, (1, "b"): 1, (1, "c"): 1, (1, "^a"): 1,
            (2, "a"): 1, (2, "b"): 1, (2, "c"): 1, (2, "^a"): 1,
        },
        0,
        {2},
    )
    strategies = {
        "read-all": read_all_strategy(game),
        "call-initial-a": GeneralStrategy(call_initial),
    }
    expected = {
        "exact_winning_sets": {
            "read-all": frozenset({("a", "b"), ("b", "c")}),
            "call-initial-a": frozenset({("a", "c"), ("b", "c")}),
        },
        "weakly_dominant": "read-all",
    }
    notes = {
        "exact_winning_sets": "every strategy wins bc (nothing on it is callable); "
        "the only real choice is the initial a, trading ab for ac",
        "weakly_dominant": "the two winning sets differ first at ab, so under "
        "alphabet order a<b<c the read-all set is the shortlex larger one",
    }
    return Fixture("sandbox", game, strategies, expected, notes)


def _g1_recursive():
    # One symbol, a -> aa, target = words of length at least two.
    alphabet = ("a",)
    target = Dfa(3, alphabet, {(0, "a"): 1, (1, "a"): 2, (2, "a"): 2}, 0, {2})
    game = Game(alphabet, {"a": "aa"}, target, name="g1-recursive")
    hist = game.hist_alphabet
    call_first = Dfa(
        3,
        hist,
        {
            (0, "a"): 1, (0, "^a"): 2,
            (1, "a"): 1, (1, "^a"): 2,
            (2, "a"): 2, (2, "^a"): 2,
        },
        0,
        {1},
    )
    always_call = Dfa(1, alphabet, {(0, "a"): 0}, 0, {0})
    strategies = {
        "call-first": GeneralStrategy(call_first),
        "always-call": ForgetfulStrategy(always_call),
        "read-all": read_all_strategy(game),
    }
    expected = {
        "winning_set_upto": {
            "call-first": (3, frozenset({("a",), ("a", "a"), ("a", "a", "a")})),
            "always-call": (3, frozenset()),
            "read-all": (3, frozenset({("a", "a"), ("a", "a", "a")})),
        },
        "weakly_dominant": "call-first",
    }
    notes = {
        "winning_set_upto": "calling the first a and reading from then on wins "
        "every nonempty word; always calling never finishes a play, and the "
        "empty input is lost by everyone since no move can lengthen it",
        "weakly_dominant": "call-first wins all of the nonempty words, which is "
        "everything any strategy can win here",
    }
    return Fixture("g1-recursive", game, strategies, expected, notes)


def _g2_regular_not_sreg():
    # Rules a -> b, c -> ac, d -> bad.  A forgetful strategy wins every
    # word, but no rerouting of the target manages the same.
    alphabet = ("a", "b", "c", "d")
    target = Dfa(
        3,
        alphabet,
        {
            (0, "a"): 0, (0, "b"): 1, (0, "c"): 2, (0, "d"): 0,
            (1, "a"): 2, (1, "b"): 0, (1, "c"): 0, (1, "d"): 2,
            (2, "a"): 2, (2, "b"): 2, (2, "c"): 2, (2, "d"): 2,
        },
        0,
        {0, 1},
    )
    game = Game(
        alphabet, {"a": "b", "c": "ac", "d": "bad"}, target, name="g2-regular-not-sreg"
    )
    winner = Dfa(
        5,
        alphabet,
        {
            (0, "a"): 1, (0, "b"): 2, (0, "c"): 3, (0, "d"): 0,
            (1, "a"): 3, (1, "b"): 2, (1, "c"): 3, (1, "d"): 0,
            (2, "a"): 3, (2, "b"): 0, (2, "c"): 0, (2, "d"): 3,
            (3, "a"): 4, (3, "b"): 4, (3, "c"): 4, (3, "d"): 4,
            (4, "a"): 4, (4, "b"): 4, (4, "c"): 4, (4, "d"): 4,
        },
        0,
        {3},
    )
    strategies = {
        "forgetful-winner": ForgetfulStrategy(winner),
        "read-all": read_all_strategy(game),
    }
    expected = {
        "winning_set_upto": {
            "forgetful-winner": (2, frozenset(all_words_upto(alphabet, 2))),
        },
        "sreg_win_example": {"word": ("c",), "reroutes": frozenset({(0, "c"), (0, "a")})},
    }
    notes = {
        "winning_set_upto": "the forgetful winner turns any input into a word "
        "the target likes; its winning set is every word, empty one included",
        "sreg_win_example": "rerouting (0,c) and (0,a) wins on c: call c, call "
        "the a of its reply, then read b and c, ending in bc",
    }
    return Fixture("g2-regular-not-sreg", game, strategies, expected, notes)


def _g1c_undominated():
    # Rules a -> b+c, b -> cd, c -> e; target {e, cd}.  The documented
    # strategy and read-all beat each other on different words.
    alphabet = ("a", "b", "c", "d", "e")
    target = Dfa(
        4,
        alphabet,
        {
            (0, "a"): 3, (0, "b"): 3, (0, "c"): 1, (0, "d"): 3, (0, "e"): 2,
            (1, "a"): 3, (1, "b"): 3, (1, "c"): 3, (1, "d"): 2, (1, "e"): 3,
            (2, "a"): 3, (2, "b"): 3, (2, "c"): 3, (2, "d"): 3, (2, "e"): 3,
            (3, "a"): 3, (3, "b"): 3, (3, "c"): 3, (3, "d"): 3, (3, "e"): 3,
        },
        0,
        {2},
    )
    game = Game(
        alphabet,
        {"a": "b+c", "b": "cd", "c": "e"},
        target,
        name="g1c-undominated",
    )
    hist = game.hist_alphabet
    rows = {
        0: {"a": 1, "b": 1, "c": 1, "d": 4, "e": 4, "^a": 2, "^b": 4, "^c": 4},
        1: {},
        2: {"b": 3, "c": 3, "^b": 4, "^c": 4},
        3: {},
        4: {},
    }
    transitions = {}
    for q in range(5):
        for s in hist:
            transitions[(q, s)] = rows[q].get(s, 4)
    selective = Dfa(5, hist, transitions, 0, {1, 3})
    strategies = {
        "selective-call": GeneralStrategy(selective),
        "read-all": read_all_strategy(game),
    }
    expected = {
        "exact_winning_sets": {
            "selective-call": frozenset({("a",), ("b",), ("c",), ("e",)}),
            "read-all": frozenset({("e",), ("c", "d")}),
        },
        "domination_witnesses": {
            ("read-all", "selective-call"): ("c", "d"),
            ("selective-call", "read-all"): ("a",),
        },
    }
    notes = {
        "exact_winning_sets": "the selective caller rewrites a, b and c down to "
        "e or cd and wins them, but loses cd itself: it calls the c and ends "
        "with ed",
        "domination_witnesses": "each strategy wins a word the other loses, so "
        "neither dominates; no single strategy of any kind picks up both cd "
        "and a",
    }
    return Fixture("g1c-undominated", game, strategies, expected, notes)


def _g2c_undominated():
    # Rules a -> bb+cbc, b -> cc; target {bbc, bcc, cbc, ccc}.
    alphabet = ("a", "b", "c")
    target = Dfa(
        5,
        alphabet,
        {
            (0, "a"): 4, (0, "b"): 1, (0, "c"): 1,
            (1, "a"): 4, (1, "b"): 2, (1, "c"): 2,
            (2, "a"): 4, (2, "b"): 4, (2, "c"): 3,
            (3, "a"): 4, (3, "b"): 4, (3, "c"): 4,
            (4, "a"): 4, (4, "b"): 4, (4, "c"): 4,
        },
        0,
        {3},
    )
    game = Game(
        alphabet, {"a": "bb+cbc", "b": "cc"}, target, name="g2c-undominated"
    )
    optimal = Dfa(
        7,
        alphabet,
        {
            (0, "a"): 5, (0, "b"): 1, (0, "c"): 2,
            (1, "a"): 5, (1, "b"): 5, (1, "c"): 3,
            (2, "a"): 5, (2, "b"): 3, (2, "c"): 3,
            (3, "a"): 5, (3, "b"): 5, (3, "c"): 4,
            (4, "a"): 5, (4, "b"): 5, (4, "c"): 4,
            (5, "a"): 6, (5, "b"): 6, (5, "c"): 6,
            (6, "a"): 6, (6, "b"): 6, (6, "c"): 6,
        },
        0,
        {5},
    )
    strategies = {
        "forgetful-optimal": ForgetfulStrategy(optimal),
        "read-all": read_all_strategy(game),
    }
    expected = {
        "winning_set_upto": {
            "forgetful-optimal": (
                3,
                frozenset(
                    {
                        ("a",),
                        ("b", "b"),
                        ("b", "c", "c"),
                        ("c", "b", "c"),
                        ("c", "c", "c"),
                    }
                ),
            ),
            "read-all": (
                3,
                frozenset(
                    {
                        ("b", "b", "c"),
                        ("b", "c", "c"),
                        ("c", "b", "c"),
                        ("c", "c", "c"),
                    }
                ),
            ),
        },
        "winnable_but_lost": (
            ("b", "c"),
            ("c", "b"),
            ("b", "b", "c"),
        ),
    }
    notes = {
        "winning_set_upto": "the documented strategy calls a and any b whose "
        "target step would accept, stretching short words into three-letter "
        "target members",
        "winnable_but_lost": "other strategies win bc, cb or bbc, but no "
        "strategy that does also keeps everything this one wins",
    }
    return Fixture("g2c-undominated", game, strategies, expected, notes)


_BUILDERS = {
    "sandbox": _sandbox,
    "g1-recursive": _g1_recursive,
    "g2-regular-not-sreg": _g2_regular_not_sreg,
    "g1c-undominated": _g1c_undominated,
    "g2c-undominated": _g2c_undominated,
}


def fixture_names():
    return sorted(_BUILDERS)


def fixture(name):
    """A named example game with its strategies and documented facts."""
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise ValueError(
            "unknown fixture %r, have %s" % (name, ", ".join(fixture_names()))
        ) from None
    return builder()
