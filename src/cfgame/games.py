"""Rewriting games: an alphabet, replacement rules, and a target DFA.

A game couples a finite alphabet with one replacement rule per function
symbol (a regular language of nonempty replacement words, given as a
regular expression) and a target DFA over the alphabet.  The play
mechanics live in play.py; this module owns the game object itself,
validation, serialization, classification and the prefix-free transform.
"""

import json

from .automata import (
    Dfa,
    RegexSyntaxError,
    determinize,
    dfa_from_dict,
    dfa_to_dict,
    has_cycle,
    is_prefix_free,
    language_is_finite,
    minimize,
    parse_json,
    parse_regex,
    regex_symbols,
    regex_to_nfa,
    regex_to_text,
)


class GameFormatError(ValueError):
    """Raised for malformed game descriptions."""


# ---------------------------------------------------------------------------
# History symbols.
#
# When a symbol a is called during a play, the history records it as "^a";
# read symbols are recorded as themselves.  Alphabet symbols therefore must
# not start with "^".


def hat(symbol):
    return "^" + symbol


def flatten_history(history):
    """Drop called symbols from a history word, keeping the read ones."""
    return tuple(s for s in history if not s.startswith("^"))


def check_symbol(sym):
    if not isinstance(sym, str) or not sym:
        raise GameFormatError("symbols must be nonempty strings, got %r" % (sym,))
    if sym.startswith("^"):
        raise GameFormatError(
            "symbol %r must not start with '^', which marks called symbols" % sym
        )
    if '"' in sym:
        raise GameFormatError("symbol %r must not contain a double quote" % sym)
    if any(c.isspace() for c in sym):
        raise GameFormatError("symbol %r must not contain whitespace" % sym)


# ---------------------------------------------------------------------------
# Words.


def parse_word(text, symbols):
    """Parse a word from text.

    Symbols may be separated by whitespace; when the text contains none
    and every allowed symbol is a single character, each character is one
    symbol.  Returns a tuple of symbols.
    """
    allowed = set(symbols)
    text = text.strip()
    if not text:
        return ()
    if any(c.isspace() for c in text):
        parts = text.split()
    elif all(len(s) == 1 for s in allowed):
        parts = list(text)
    elif text in allowed:
        parts = [text]
    else:
        raise GameFormatError(
            "cannot split %r into symbols; separate them with spaces" % text
        )
    for p in parts:
        if p not in allowed:
            raise GameFormatError("unknown symbol %r in word" % p)
    return tuple(parts)


def format_word(word):
    if not word:
        return ""
    if all(len(s) == 1 for s in word):
        return "".join(word)
    return " ".join(word)


# ---------------------------------------------------------------------------
# The game object.


class Game:
    """A rewriting game.

    rules maps each function symbol to a regex AST whose language is the
    set of allowed replacement words; that language never contains the
    empty word.  The target DFA is stored in minimal form.  If the
    supplied target was not minimal it is replaced by the equivalent
    minimal automaton and a notice string is appended to self.notices.
    """

    def __init__(self, alphabet, rules, target, name=None):
        self.alphabet = tuple(alphabet)
        if not self.alphabet:
            raise GameFormatError("empty alphabet")
        for sym in self.alphabet:
            check_symbol(sym)
        if len(set(self.alphabet)) != len(self.alphabet):
            raise GameFormatError("duplicate symbols in alphabet")
        symbol_set = set(self.alphabet)

        self.rules = {}
        self._rule_dfas = {}
        for sym, rx in rules.items():
            if sym not in symbol_set:
                raise GameFormatError("rule for unknown symbol %r" % (sym,))
            if isinstance(rx, str):
                try:
                    ast = parse_regex(rx)
                except RegexSyntaxError as exc:
                    raise GameFormatError("rule for %r: %s" % (sym, exc)) from None
            else:
                ast = rx
            unknown = regex_symbols(ast) - symbol_set
            if unknown:
                raise GameFormatError(
                    "rule for %r uses unknown symbols %s" % (sym, sorted(unknown))
                )
            nfa = regex_to_nfa(ast, self.alphabet)
            if 0 in nfa.accepting:
                raise GameFormatError(
                    "replacement language for %r contains the empty word" % (sym,)
                )
            self.rules[sym] = ast
            self._rule_dfas[sym] = minimize(determinize(nfa))

        self.function_symbols = tuple(a for a in self.alphabet if a in self.rules)
        self.hist_alphabet = self.alphabet + tuple(hat(a) for a in self.function_symbols)

        if not isinstance(target, Dfa):
            raise GameFormatError("target must be a Dfa")
        if set(target.alphabet) != symbol_set:
            raise GameFormatError(
                "target alphabet %r differs from game alphabet %r"
                % (list(target.alphabet), list(self.alphabet))
            )
        if target.alphabet != self.alphabet:
            target = Dfa(
                target.n_states,
                self.alphabet,
                target.transitions,
                target.initial,
                target.accepting,
            )
        self.notices = []
        reduced = minimize(target)
        if reduced.n_states < target.n_states:
            self.notices.append(
                "target automaton is not minimal (%d states, minimal needs %d); "
                "using the minimized form" % (target.n_states, reduced.n_states)
            )
            target = reduced
        self.target = target
        self.name = name

    def replacement_dfa(self, symbol):
        """Minimal DFA for the replacement language of a function symbol."""
        try:
            return self._rule_dfas[symbol]
        except KeyError:
            raise ValueError("%r has no replacement rule" % (symbol,)) from None

    def __eq__(self, other):
        if not isinstance(other, Game):
            return NotImplemented
        return (
            self.alphabet == other.alphabet
            and self.rules == other.rules
            and self.target == other.target
        )

    def __repr__(self):
        label = "%r, " % self.name if self.name else ""
        return "Game(%s%d symbols, %d rules, target %d states)" % (
            label,
            len(self.alphabet),
            len(self.rules),
            self.target.n_states,
        )


# ---------------------------------------------------------------------------
# Serialization.  Game files are JSON:
#
#   {"alphabet": ["a", "b"], "rules": {"a": "b+ab"},
#    "target": {"states": 2, "initial": 0, "accepting": [1],
#               "transitions": [[0, "a", 1], ...]},
#    "name": "optional"}


def game_to_dict(game):
    target = dfa_to_dict(game.target)
    del target["alphabet"]
    data = {
        "alphabet": list(game.alphabet),
        "rules": {a: regex_to_text(ast) for a, ast in game.rules.items()},
        "target": target,
    }
    if game.name:
        data["name"] = game.name
    return data


def game_from_dict(data):
    if not isinstance(data, dict):
        raise GameFormatError("game description must be a JSON object")
    missing = {"alphabet", "rules", "target"} - set(data)
    if missing:
        raise GameFormatError("missing fields: %s" % ", ".join(sorted(missing)))
    if not isinstance(data["rules"], dict):
        raise GameFormatError("rules must be an object")
    for sym, rx in data["rules"].items():
        if not isinstance(rx, str):
            raise GameFormatError("rule for %r must be a string, got %r" % (sym, rx))
    if not isinstance(data["target"], dict):
        raise GameFormatError("target must be an object")
    if not isinstance(data.get("name"), (str, type(None))):
        raise GameFormatError("name must be a string or null, got %r" % (data["name"],))
    try:
        dfa = dfa_from_dict(dict(data["target"], alphabet=data["alphabet"]))
    except ValueError as exc:
        raise GameFormatError("bad target automaton: %s" % exc) from None
    return Game(data["alphabet"], data["rules"], dfa, name=data.get("name"))


def load_game(text):
    """Parse a game file (JSON text or bytes) into a Game."""
    return game_from_dict(parse_json(text, GameFormatError))


def dump_game(game):
    return json.dumps(game_to_dict(game), indent=2) + "\n"


# ---------------------------------------------------------------------------
# Classification.


class GameClassReport:
    def __init__(self, prefix_free, non_recursive, unary, finite_target, function_symbols):
        self.prefix_free = prefix_free
        self.non_recursive = non_recursive
        self.unary = unary
        self.finite_target = finite_target
        self.function_symbols = tuple(function_symbols)

    def as_dict(self):
        return {
            "prefix_free": self.prefix_free,
            "non_recursive": self.non_recursive,
            "unary": self.unary,
            "finite_target": self.finite_target,
            "function_symbols": list(self.function_symbols),
        }

    def __repr__(self):
        return "GameClassReport(%r)" % (self.as_dict(),)


def classify(game):
    """Structural predicates of a game.

    prefix_free: every replacement language is prefix-free.
    non_recursive: no function symbol can reproduce itself through any
    chain of replacements.  A symbol b is producible from a rule exactly
    when b occurs in the rule's syntax tree, since no subexpression
    denotes the empty language.
    """
    prefix_free = all(
        is_prefix_free(game.replacement_dfa(a))[0] for a in game.function_symbols
    )
    funcs = set(game.function_symbols)
    edges = {a: regex_symbols(game.rules[a]) & funcs for a in funcs}
    return GameClassReport(
        prefix_free=prefix_free,
        non_recursive=not has_cycle(edges, edges.get),
        unary=len(game.alphabet) == 1,
        finite_target=language_is_finite(game.target),
        function_symbols=game.function_symbols,
    )


# ---------------------------------------------------------------------------
# The prefix-free transform: suffix every replacement word with a fresh end
# symbol and let the target ignore that symbol wherever it appears.


def to_prefix_free(game, end_symbol="$"):
    check_symbol(end_symbol)
    if end_symbol in game.alphabet:
        raise GameFormatError("end symbol %r already occurs in the alphabet" % end_symbol)
    alphabet = game.alphabet + (end_symbol,)
    rules = {
        a: ("cat", ast, ("sym", end_symbol)) for a, ast in game.rules.items()
    }
    transitions = dict(game.target.transitions)
    for q in range(game.target.n_states):
        transitions[(q, end_symbol)] = q
    target = Dfa(
        game.target.n_states,
        alphabet,
        transitions,
        game.target.initial,
        game.target.accepting,
    )
    name = game.name + "-pf" if game.name else None
    return Game(alphabet, rules, target, name=name)
