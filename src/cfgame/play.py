"""Plays and one-pass strategies.

Juliet scans the input word left to right.  At each symbol she either
reads it or, for a function symbol, calls it; on a call Romeo picks a
replacement word from the rule language and play continues at its first
symbol.  Juliet wins a finite play when the final word (the read symbols
of the history) lands in the target language.  Plays that never end are
won by nobody.

Juliet's strategies are finite automata over the history alphabet: the
plain symbols plus "^a" for every called function symbol.  A strategy
calls symbol a at history state p exactly when stepping p on a leads to
an accepting state.  Forgetful strategies only look at the read symbols
and are given as automata over the plain alphabet; strongly regular
strategies modify the target automaton itself by rerouting some of its
transitions to a fresh Call state.
"""

import json
from collections import deque

from .automata import (
    Dfa,
    dfa_from_dict,
    dfa_to_dict,
    parse_json,
    shortlex_min_word,
)
from .games import flatten_history, hat


class PlayProtocolError(ValueError):
    """A move violates the rules of the game."""


class StrategyFormatError(ValueError):
    """Raised for malformed strategy descriptions."""


# Play outcomes.
WIN_JULIET = "WinJuliet"
WIN_ROMEO = "WinRomeo"
TRUNCATED = "Truncated"


class Play:
    """A finished (or truncated) play record.

    configurations holds (history, remaining) pairs, one per position,
    starting from the initial configuration.  depth is the maximum call
    nesting that occurred.
    """

    def __init__(self, configurations, outcome, depth):
        self.configurations = configurations
        self.outcome = outcome
        self.depth = depth

    @property
    def final_history(self):
        return self.configurations[-1][0]

    @property
    def final_word(self):
        return flatten_history(self.final_history)

    def __repr__(self):
        return "Play(%s, %d moves, depth %d)" % (
            self.outcome,
            len(self.configurations) - 1,
            self.depth,
        )


# ---------------------------------------------------------------------------
# Juliet's strategies.


class GeneralStrategy:
    """A strategy automaton over the full history alphabet."""

    kind = "general"

    def __init__(self, dfa):
        self.dfa = dfa

    def automaton(self, game):
        if set(self.dfa.alphabet) != set(game.hist_alphabet):
            raise StrategyFormatError(
                "strategy alphabet %r does not match the history alphabet %r"
                % (list(self.dfa.alphabet), list(game.hist_alphabet))
            )
        if self.dfa.alphabet == game.hist_alphabet:
            return self.dfa
        return Dfa(
            self.dfa.n_states,
            game.hist_alphabet,
            self.dfa.transitions,
            self.dfa.initial,
            self.dfa.accepting,
        )

    def __eq__(self, other):
        return (
            isinstance(other, GeneralStrategy)
            and other.kind == self.kind
            and other.dfa == self.dfa
        )


def _forgetful_automaton(game, n_states, transitions, initial, accepting):
    """History-alphabet automaton from transitions on the plain alphabet;
    called symbols leave the state unchanged."""
    transitions = dict(transitions)
    for q in range(n_states):
        for a in game.function_symbols:
            transitions[(q, hat(a))] = q
    return Dfa(n_states, game.hist_alphabet, transitions, initial, accepting)


class ForgetfulStrategy:
    """A strategy that only sees the read symbols of the history.

    The automaton runs over the plain alphabet; called symbols leave its
    state unchanged.
    """

    kind = "forgetful"

    def __init__(self, dfa):
        self.dfa = dfa

    def automaton(self, game):
        if set(self.dfa.alphabet) != set(game.alphabet):
            raise StrategyFormatError(
                "strategy alphabet %r does not match the game alphabet %r"
                % (list(self.dfa.alphabet), list(game.alphabet))
            )
        d = self.dfa
        return _forgetful_automaton(game, d.n_states, d.transitions, d.initial, d.accepting)

    def __eq__(self, other):
        return (
            isinstance(other, ForgetfulStrategy)
            and other.kind == self.kind
            and other.dfa == self.dfa
        )


class StronglyRegularStrategy:
    """The target automaton with some transitions on function symbols
    rerouted to a fresh Call state.

    reroutes holds the rerouted (target state, symbol) pairs.  The
    strategy automaton is forgetful; its states are the target's states
    plus Call, the only accepting state, which loops on every symbol.
    """

    kind = "strongly-regular"

    def __init__(self, reroutes):
        self.reroutes = frozenset((q, a) for q, a in reroutes)

    def check(self, game):
        n = game.target.n_states
        for q, a in self.reroutes:
            if not (isinstance(q, int) and 0 <= q < n):
                raise StrategyFormatError("reroute state %r out of range" % (q,))
            if a not in game.rules:
                raise StrategyFormatError("reroute on non-function symbol %r" % (a,))

    def automaton(self, game):
        self.check(game)
        target = game.target
        call = target.n_states
        transitions = {(call, a): call for a in game.alphabet}
        for (q, a), t in target.transitions.items():
            transitions[(q, a)] = call if (q, a) in self.reroutes else t
        return _forgetful_automaton(game, call + 1, transitions, target.initial, {call})

    def __eq__(self, other):
        return (
            isinstance(other, StronglyRegularStrategy)
            and other.reroutes == self.reroutes
        )

    def __repr__(self):
        return "StronglyRegularStrategy(%r)" % (sorted(self.reroutes),)


def strongly_regular_automaton(game, reroutes):
    """The strongly regular strategy rerouting the given (state, symbol)
    pairs, checked against the game."""
    strategy = StronglyRegularStrategy(reroutes)
    strategy.check(game)
    return strategy


def strategy_automaton(game, strategy):
    """The history-alphabet automaton of a strategy object or of a Dfa."""
    if isinstance(strategy, Dfa):
        strategy = GeneralStrategy(strategy)
    if not hasattr(strategy, "automaton"):
        raise StrategyFormatError(
            "need a strategy object or automaton, got %r" % type(strategy).__name__
        )
    return strategy.automaton(game)


def read_all_strategy(game):
    """The strategy that never calls anything."""
    transitions = {(0, a): 0 for a in game.alphabet}
    return ForgetfulStrategy(Dfa(1, game.alphabet, transitions, 0, ()))


# ---------------------------------------------------------------------------
# Strategy files.  JSON, either
#   {"kind": "general"|"forgetful", "automaton": {...}}    or
#   {"kind": "strongly-regular", "reroutes": [[state, symbol], ...]}


def strategy_to_dict(strategy):
    if strategy.kind == "strongly-regular":
        return {
            "kind": strategy.kind,
            "reroutes": [[q, a] for q, a in sorted(strategy.reroutes)],
        }
    return {"kind": strategy.kind, "automaton": dfa_to_dict(strategy.dfa)}


def strategy_from_dict(data):
    if not isinstance(data, dict):
        raise StrategyFormatError("strategy description must be a JSON object")
    kind = data.get("kind")
    if kind == "strongly-regular":
        reroutes = data.get("reroutes", [])
        if not isinstance(reroutes, list):
            raise StrategyFormatError("reroutes must be a list, got %r" % (reroutes,))
        for entry in reroutes:
            if not (
                isinstance(entry, (list, tuple))
                and len(entry) == 2
                and isinstance(entry[0], int)
                and not isinstance(entry[0], bool)
                and isinstance(entry[1], str)
            ):
                raise StrategyFormatError("bad reroute entry %r" % (entry,))
        return StronglyRegularStrategy(reroutes)
    if kind in ("general", "forgetful"):
        if "automaton" not in data:
            raise StrategyFormatError("strategy is missing its automaton")
        try:
            dfa = dfa_from_dict(data["automaton"])
        except ValueError as exc:
            raise StrategyFormatError("bad strategy automaton: %s" % exc) from None
        return GeneralStrategy(dfa) if kind == "general" else ForgetfulStrategy(dfa)
    raise StrategyFormatError("unknown strategy kind %r" % (kind,))


def load_strategy(text):
    return strategy_from_dict(parse_json(text, StrategyFormatError))


def dump_strategy(strategy):
    return json.dumps(strategy_to_dict(strategy), indent=2) + "\n"


# ---------------------------------------------------------------------------
# Romeo's strategies: callables (history, called symbol) -> replacement word.


def shortlex_romeo(game):
    """Always reply with the shortlex least replacement word."""
    replies = {
        a: shortlex_min_word(game.replacement_dfa(a)) for a in game.function_symbols
    }

    def tau(history, symbol):
        return replies[symbol]

    return tau


def scripted_romeo(replies):
    """Serve the given replacement words one call at a time, in order."""
    queue = deque(tuple(r) for r in replies)

    def tau(history, symbol):
        if not queue:
            raise PlayProtocolError("reply script exhausted at a call on %r" % (symbol,))
        return queue.popleft()

    return tau


# ---------------------------------------------------------------------------
# The play loop.


def run_play(game, strategy, tau, word, step_limit=10000):
    """Play a strategy against tau on a word and record what happened.

    strategy is a strategy object or a DFA over the history alphabet.
    tau is a callback (history, symbol) -> replacement word.  The play
    stops after step_limit moves with a Truncated outcome.
    """
    if step_limit < 1:
        raise ValueError("step_limit must be at least 1")
    dfa = strategy_automaton(game, strategy)
    for a in word:
        if a not in game.alphabet:
            raise PlayProtocolError("input symbol %r is not in the alphabet" % (a,))

    history = []
    state = dfa.initial
    remaining = deque((a, 0) for a in word)
    configurations = [((), tuple(word))]
    depth = 0
    steps = 0
    outcome = None
    while remaining:
        if steps >= step_limit:
            outcome = TRUNCATED
            break
        symbol, d = remaining.popleft()
        if symbol in game.rules and dfa.transitions[(state, symbol)] in dfa.accepting:
            reply = tuple(tau(tuple(history), symbol))
            if not game.replacement_dfa(symbol).accepts(reply):
                raise PlayProtocolError(
                    "reply %r is not in the replacement language of %r"
                    % (reply, symbol)
                )
            history.append(hat(symbol))
            state = dfa.transitions[(state, hat(symbol))]
            for c in reversed(reply):
                remaining.appendleft((c, d + 1))
            depth = max(depth, d + 1)
        else:
            history.append(symbol)
            state = dfa.transitions[(state, symbol)]
        steps += 1
        configurations.append((tuple(history), tuple(s for s, _ in remaining)))
    if outcome is None:
        final = flatten_history(history)
        outcome = WIN_JULIET if game.target.accepts(final) else WIN_ROMEO
    return Play(configurations, outcome, depth)
