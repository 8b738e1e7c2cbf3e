"""Command line front end.

Every subcommand is a thin adapter over one library call.  Decision
commands print a one-line verdict followed by a JSON detail object and
encode the answer in the exit status: 0 affirmative, 1 negative, 2 bad
usage or input, 3 budget or scope exceeded.  --json drops the verdict
line, --quiet drops the JSON.

Games are given as file paths or as fixture:<name>; strategies as file
paths, fixture strategy names, or the builtin read-all.
"""

import argparse
import json
import os
import sys

from .analysis import (
    BudgetExceeded,
    exists_winning_sreg,
    is_dominated,
    is_winning,
    losing_nfa,
    winning_set_dfa,
)
from .automata import dfa_to_dict, enumerate_upto, nfa_from_dict, nfa_to_dict, to_dot
from .fixtures import fixture, fixture_names
from .games import (
    GameFormatError,
    classify,
    dump_game,
    format_word,
    load_game,
    parse_word,
    to_prefix_free,
)
from .generators import CnfFormula, from_3sat, from_nfa_universality, random_game
from .online import (
    OnlineFormatError,
    diagnose_bounded,
    load_online_instance,
    prune_weakly_dominant,
)
from .play import (
    TRUNCATED,
    WIN_JULIET,
    PlayProtocolError,
    StrategyFormatError,
    dump_strategy,
    load_strategy,
    read_all_strategy,
    run_play,
    shortlex_romeo,
)
from .synthesis import SynthesisError, synthesize_weakly_dominant

YES = 0
NO = 1
USAGE = 2
SCOPE = 3


class CliError(Exception):
    def __init__(self, message, code=USAGE):
        Exception.__init__(self, message)
        self.code = code


# ---------------------------------------------------------------------------
# Output plumbing.


def _emit(args, verdict, details):
    if not getattr(args, "json", False):
        print(verdict)
    if not getattr(args, "quiet", False):
        print(json.dumps(details, indent=2, sort_keys=True))
    sys.stdout.flush()


def _emit_error(args, message, code):
    details = {"error": message, "exit": code}
    if not getattr(args, "json", False):
        print("error: %s" % message, file=sys.stderr)
    print(json.dumps(details, indent=2, sort_keys=True))
    sys.stdout.flush()


def _write_text(path, text):
    with open(path, "w") as handle:
        handle.write(text)
        if not text.endswith("\n"):
            handle.write("\n")


# ---------------------------------------------------------------------------
# Argument resolution.


def _read_file(path):
    try:
        with open(path) as handle:
            return handle.read()
    except OSError as exc:
        raise CliError("cannot read %s: %s" % (path, exc.strerror or exc))


def _load_game_arg(value):
    """Game plus the fixture it came from, if any."""
    if value.startswith("fixture:"):
        name = value[len("fixture:"):]
        try:
            fx = fixture(name)
        except ValueError as exc:
            raise CliError(str(exc))
        return fx.game, fx
    if not os.path.exists(value):
        raise CliError(
            "no game file %r; fixtures are addressed as fixture:<name> (%s)"
            % (value, ", ".join(fixture_names()))
        )
    return load_game(_read_file(value)), None


def _load_strategy_arg(value, game, fx):
    """(strategy, label).  Files win over fixture strategy names."""
    if os.path.exists(value):
        label = os.path.splitext(os.path.basename(value))[0]
        return load_strategy(_read_file(value)), label
    if fx is not None and value in fx.strategies:
        return fx.strategies[value], value
    if value == "read-all":
        return read_all_strategy(game), "read-all"
    hints = []
    if fx is not None:
        hints.append("fixture strategies: %s" % ", ".join(sorted(fx.strategies)))
    hints.append("read-all is always available")
    raise CliError("no strategy %r (%s)" % (value, "; ".join(hints)))


def _parse_word_arg(text, game):
    try:
        return parse_word(text, game.alphabet)
    except GameFormatError as exc:
        raise CliError(str(exc))


def _game_summary(game):
    return {
        "name": game.name,
        "alphabet": list(game.alphabet),
        "function_symbols": list(game.function_symbols),
        "target_states": game.target.n_states,
        "notices": list(game.notices),
    }


# ---------------------------------------------------------------------------
# Subcommands.


def cmd_validate(args):
    game, fx = _load_game_arg(args.game)
    details = {"valid": True, "game": _game_summary(game)}
    if args.strategy:
        strategy, label = _load_strategy_arg(args.strategy, game, fx)
        try:
            dfa = strategy.automaton(game)
        except (StrategyFormatError, KeyError) as exc:
            raise CliError("strategy %s does not fit the game: %s" % (label, exc))
        details["strategy"] = {
            "label": label,
            "kind": strategy.kind,
            "states": dfa.n_states,
        }
    _emit(args, "valid", details)
    return YES


def cmd_classify(args):
    game, _ = _load_game_arg(args.game)
    report = classify(game).as_dict()
    flags = [k for k, v in sorted(report.items()) if v is True]
    _emit(
        args,
        "%s: %s" % (game.name or "game", " ".join(flags) or "no class flags"),
        {"game": _game_summary(game), "classes": report},
    )
    return YES


def cmd_transform(args):
    if not args.prefix_free:
        raise CliError("nothing to do; pass --prefix-free")
    game, _ = _load_game_arg(args.game)
    before = classify(game).as_dict()
    try:
        transformed = to_prefix_free(game, args.end_symbol)
    except GameFormatError as exc:
        raise CliError(str(exc))
    after = classify(transformed).as_dict()
    text = dump_game(transformed)
    details = {
        "game": _game_summary(transformed),
        "end_symbol": args.end_symbol,
        "classes_before": before,
        "classes_after": after,
    }
    if args.out:
        _write_text(args.out, text)
        details["written"] = args.out
    else:
        details["transformed"] = json.loads(text)
    _emit(args, "prefix-free transform done", details)
    return YES


def _interactive_romeo(game):
    def tau(history, symbol):
        state = game.target.run(
            tuple(s for s in history if not s.startswith("^"))
        )
        print("history : %s" % (format_word(history) or "(empty)"))
        print("T-state : %d" % state)
        while True:
            try:
                line = input("replacement for ^%s> " % symbol)
            except EOFError:
                raise CliError("interactive play aborted")
            try:
                reply = parse_word(line, game.alphabet)
            except GameFormatError as exc:
                print("  %s" % exc)
                continue
            if reply and game.replacement_dfa(symbol).accepts(reply):
                return reply
            print(
                "  %r is not in the replacement language of %s; try again"
                % (line.strip(), symbol)
            )

    return tau


def cmd_play(args):
    game, fx = _load_game_arg(args.game)
    strategy, label = _load_strategy_arg(args.strategy, game, fx)
    word = _parse_word_arg(args.word, game)
    if args.interactive:
        tau = _interactive_romeo(game)
    else:
        tau = shortlex_romeo(game)
    try:
        play = run_play(game, strategy, tau, word, step_limit=args.steps)
    except PlayProtocolError as exc:
        raise CliError(str(exc))
    details = {
        "word": format_word(word),
        "strategy": label,
        "outcome": play.outcome,
        "depth": play.depth,
        "final_history": format_word(play.final_history),
        "final_word": format_word(play.final_word),
        "moves": [
            {"history": format_word(h), "remaining": format_word(r)}
            for h, r in play.configurations
        ],
    }
    _emit(args, "outcome: %s" % play.outcome, details)
    if play.outcome == WIN_JULIET:
        return YES
    if play.outcome == TRUNCATED:
        return SCOPE
    return NO


def cmd_is_winning(args):
    game, fx = _load_game_arg(args.game)
    strategy, label = _load_strategy_arg(args.strategy, game, fx)
    word = _parse_word_arg(args.word, game)
    winning = is_winning(game, strategy, word)
    _emit(
        args,
        "%s %s %s" % (label, "wins" if winning else "does not win", format_word(word) or "the empty word"),
        {"word": format_word(word), "strategy": label, "winning": winning},
    )
    return YES if winning else NO


def cmd_exists_winning(args):
    game, _ = _load_game_arg(args.game)
    word = _parse_word_arg(args.word, game)
    strategy = exists_winning_sreg(game, word, mode=args.mode, budget=args.budget)
    if strategy is None:
        _emit(
            args,
            "no strongly regular strategy wins %s" % (format_word(word) or "the empty word"),
            {"word": format_word(word), "exists": False},
        )
        return NO
    details = {
        "word": format_word(word),
        "exists": True,
        "reroutes": [[q, a] for q, a in sorted(strategy.reroutes)],
    }
    if args.out:
        _write_text(args.out, dump_strategy(strategy))
        details["written"] = args.out
    _emit(args, "found a winning strongly regular strategy", details)
    return YES


def cmd_compare(args):
    game, fx = _load_game_arg(args.game)
    first, label1 = _load_strategy_arg(args.first, game, fx)
    second, label2 = _load_strategy_arg(args.second, game, fx)
    dominated, witness = is_dominated(game, first, second)
    details = {
        "first": label1,
        "second": label2,
        "dominated": dominated,
        "witness": None if witness is None else format_word(witness),
    }
    if dominated:
        _emit(args, "%s ⊆ %s" % (label1, label2), details)
        return YES
    _emit(
        args,
        "%s ⊄ %s (witness: %s)"
        % (label1, label2, format_word(witness) or "the empty word"),
        details,
    )
    return NO


def cmd_synthesize(args):
    game, _ = _load_game_arg(args.game)
    strategy = synthesize_weakly_dominant(game, cap=args.cap)
    dfa = strategy.automaton(game)
    details = {
        "game": _game_summary(game),
        "strategy_states": dfa.n_states,
        "winning_set_states": strategy.pruned.n_states,
        "winning_set_sample": [
            format_word(w) for w in enumerate_upto(strategy.pruned, 3)[:20]
        ],
    }
    if args.out:
        _write_text(args.out, dump_strategy(strategy))
        details["written"] = args.out
    if args.dot:
        _write_text(args.dot, to_dot(dfa, name="strategy"))
        details["dot"] = args.dot
    _emit(
        args,
        "synthesized a weakly dominant strategy with %d states" % dfa.n_states,
        details,
    )
    return YES


def cmd_online_prune(args):
    inst = load_online_instance(_read_file(args.instance))
    pruned = prune_weakly_dominant(inst)
    details = {
        "states": inst.nfa.n_states,
        "alphabet": list(inst.alphabet),
        "pruned": dfa_to_dict(pruned),
    }
    if args.diagnose_bounded is not None:
        details["diagnose_bounded"] = diagnose_bounded(inst, args.diagnose_bounded)
    if args.dot:
        _write_text(args.dot, to_dot(pruned, name="pruned"))
        details["dot"] = args.dot
    _emit(
        args,
        "pruned to a deterministic sub-automaton with %d states" % pruned.n_states,
        details,
    )
    return YES


def cmd_losing_nfa(args):
    game, fx = _load_game_arg(args.game)
    strategy, label = _load_strategy_arg(args.strategy, game, fx)
    nfa = losing_nfa(game, strategy)
    details = {
        "strategy": label,
        "states": nfa.n_states,
        "nfa": nfa_to_dict(nfa),
        "winning_set_states": winning_set_dfa(game, strategy).n_states,
    }
    if args.dot:
        _write_text(args.dot, to_dot(nfa, name="losing"))
        details["dot"] = args.dot
    _emit(args, "losing NFA has %d states" % nfa.n_states, details)
    return YES


def _write_generated(args, files, details, verdict):
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        written = []
        for name, text in files:
            path = os.path.join(args.out, name)
            _write_text(path, text)
            written.append(path)
        details["written"] = written
    else:
        for name, text in files:
            key = os.path.splitext(name)[0]
            details[key] = json.loads(text) if name.endswith(".json") else text
    _emit(args, verdict, details)
    return YES


def cmd_generate_3sat(args):
    try:
        phi = CnfFormula.parse(args.clauses)
    except ValueError as exc:
        raise CliError(str(exc))
    game, word = from_3sat(phi)
    # the word file is space separated so it feeds straight back into
    # --word even though the game alphabet has multi-character symbols
    files = [
        ("game.json", dump_game(game)),
        ("word.txt", " ".join(word)),
    ]
    details = {
        "variables": phi.n_vars,
        "clauses": [list(c) for c in phi.clauses],
        "word": format_word(word),
        "game": _game_summary(game),
    }
    return _write_generated(
        args, files, details, "generated %s" % game.name
    )


def cmd_generate_universality(args):
    data = _read_file(args.nfa)
    try:
        nfa = nfa_from_dict(json.loads(data))
    except (ValueError, KeyError, TypeError) as exc:
        raise CliError("bad NFA file %s: %s" % (args.nfa, exc))
    try:
        game, a1, a2 = from_nfa_universality(nfa)
    except ValueError as exc:
        raise CliError(str(exc))
    files = [
        ("game.json", dump_game(game)),
        ("a1.json", dump_strategy(a1)),
        ("a2.json", dump_strategy(a2)),
    ]
    details = {"game": _game_summary(game)}
    if game.name == "sandbox":
        details["note"] = (
            "the NFA rejects the empty word, so it is not universal; "
            "emitted the fixed non-dominated instance"
        )
    return _write_generated(args, files, details, "generated %s" % game.name)


def _parse_params(text):
    params = {}
    if not text:
        return params
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise CliError("parameter %r is not key=value" % chunk)
        key, value = chunk.split("=", 1)
        key = key.strip()
        value = value.strip()
        if key == "constraints":
            params[key] = [c for c in value.split("+") if c]
        else:
            try:
                params[key] = int(value)
            except ValueError:
                raise CliError("parameter %r needs an integer, got %r" % (key, value))
    return params


def cmd_generate_random(args):
    params = _parse_params(args.params)
    try:
        game = random_game(params, args.seed)
    except ValueError as exc:
        raise CliError(str(exc))
    files = [("game.json", dump_game(game))]
    details = {"seed": args.seed, "params": params, "game": _game_summary(game)}
    return _write_generated(args, files, details, "generated %s" % game.name)


def cmd_export(args):
    game, fx = _load_game_arg(args.game)
    if args.what == "target":
        automaton = game.target
        label = "target"
    elif args.what.startswith("rule:"):
        sym = args.what[len("rule:"):]
        if sym not in game.rules:
            raise CliError("no replacement rule for %r" % sym)
        automaton = game.replacement_dfa(sym)
        label = "rule_%s" % sym
    elif args.what == "strategy":
        if not args.strategy:
            raise CliError("export strategy needs --strategy")
        strategy, label = _load_strategy_arg(args.strategy, game, fx)
        automaton = strategy.automaton(game)
    else:
        raise CliError(
            "unknown export %r; use target, rule:<symbol> or strategy" % args.what
        )
    if args.dot:
        text = to_dot(automaton, name=label)
        suffix = "dot"
    else:
        text = json.dumps(dfa_to_dict(automaton), indent=2, sort_keys=True)
        suffix = "json"
    details = {"what": args.what, "states": automaton.n_states, "format": suffix}
    if args.out:
        _write_text(args.out, text)
        details["written"] = args.out
        _emit(args, "exported %s" % args.what, details)
    else:
        print(text)
    return YES


# ---------------------------------------------------------------------------
# Parser.


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cfgame",
        description="Context-free rewriting games: play, decide, synthesize.",
    )
    output = parser.add_mutually_exclusive_group()
    output.add_argument(
        "--json", action="store_true", help="machine output only, no verdict line"
    )
    output.add_argument(
        "--quiet", action="store_true", help="verdict line only, no JSON details"
    )
    sub = parser.add_subparsers(dest="subcommand", metavar="subcommand")
    sub.required = True

    def game_arg(p):
        p.add_argument("game", help="game JSON file or fixture:<name>")

    p = sub.add_parser("validate", help="check a game file, optionally a strategy")
    game_arg(p)
    p.add_argument("--strategy", help="strategy file or fixture strategy name")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("classify", help="report structural class flags")
    game_arg(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("transform", help="rewrite the game into a safe variant")
    game_arg(p)
    p.add_argument(
        "--prefix-free",
        action="store_true",
        help="append a fresh end marker to every replacement language",
    )
    p.add_argument("--end-symbol", default="$", help="end marker (default $)")
    p.add_argument("--out", help="write the transformed game here")
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("play", help="run one play, scripted or interactive")
    game_arg(p)
    p.add_argument("--strategy", required=True)
    p.add_argument("--word", required=True)
    p.add_argument(
        "--interactive",
        action="store_true",
        help="prompt for each replacement instead of picking the least one",
    )
    p.add_argument("--steps", type=int, default=10000, help="move limit")
    p.set_defaults(func=cmd_play)

    p = sub.add_parser("is-winning", help="does the strategy win this word?")
    game_arg(p)
    p.add_argument("--strategy", required=True)
    p.add_argument("--word", required=True)
    p.set_defaults(func=cmd_is_winning)

    p = sub.add_parser(
        "exists-winning", help="search for a winning strongly regular strategy"
    )
    game_arg(p)
    p.add_argument("--word", required=True)
    p.add_argument(
        "--mode",
        default="auto",
        choices=["auto", "exhaustive", "incremental", "dfs"],
    )
    p.add_argument(
        "--budget",
        type=int,
        default=2 ** 20,
        help="most reroute sets (exhaustive, incremental) or search nodes (dfs)",
    )
    p.add_argument("--out", help="write the found strategy here")
    p.set_defaults(func=cmd_exists_winning)

    p = sub.add_parser("compare", help="is the first strategy dominated by the second?")
    game_arg(p)
    p.add_argument("first", help="strategy file or fixture strategy name")
    p.add_argument("second", help="strategy file or fixture strategy name")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser(
        "synthesize", help="build a weakly dominant strategy (prefix-free games)"
    )
    game_arg(p)
    p.add_argument("--cap", type=int, default=10, help="target size cap")
    p.add_argument("--out", help="write the strategy JSON here")
    p.add_argument("--dot", help="write the strategy automaton as DOT here")
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("online-prune", help="weakly dominant online sub-automaton")
    p.add_argument("instance", help="online instance JSON file")
    p.add_argument(
        "--diagnose-bounded",
        type=int,
        metavar="N",
        help="also replay the pruning with languages truncated at N",
    )
    p.add_argument("--dot", help="write the pruned automaton as DOT here")
    p.set_defaults(func=cmd_online_prune)

    p = sub.add_parser("losing-nfa", help="NFA of words the strategy loses")
    game_arg(p)
    p.add_argument("--strategy", required=True)
    p.add_argument("--dot", help="write the NFA as DOT here")
    p.set_defaults(func=cmd_losing_nfa)

    p = sub.add_parser("generate", help="produce reduction and random instances")
    gen = p.add_subparsers(dest="generator", metavar="kind")
    gen.required = True

    g = gen.add_parser("3sat", help="satisfiability as a rewriting game")
    g.add_argument(
        "--clauses",
        required=True,
        help='semicolon-separated clauses, e.g. "1,1,1;-1,-1,-1"',
    )
    g.add_argument("--out", help="directory for game.json and word.txt")
    g.set_defaults(func=cmd_generate_3sat)

    g = gen.add_parser("universality", help="NFA universality as strategy dominance")
    g.add_argument("--nfa", required=True, help="NFA JSON file over 0 and 1")
    g.add_argument("--out", help="directory for game.json, a1.json, a2.json")
    g.set_defaults(func=cmd_generate_universality)

    g = gen.add_parser("random", help="seeded random game")
    g.add_argument("--seed", type=int, required=True)
    g.add_argument(
        "--params",
        default="",
        help="comma list like alphabet=3,target_states=4,"
        "constraints=prefix_free+finite_replacement",
    )
    g.add_argument("--out", help="directory for game.json")
    g.set_defaults(func=cmd_generate_random)

    p = sub.add_parser("export", help="dump an automaton as JSON or DOT")
    game_arg(p)
    p.add_argument(
        "--what",
        default="target",
        help="target (default), rule:<symbol> or strategy",
    )
    p.add_argument("--strategy", help="strategy for --what strategy")
    p.add_argument("--dot", action="store_true", help="DOT instead of JSON")
    p.add_argument("--out", help="write here instead of standard output")
    p.set_defaults(func=cmd_export)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        _emit_error(args, str(exc), exc.code)
        return exc.code
    except BudgetExceeded as exc:
        _emit_error(args, str(exc), SCOPE)
        return SCOPE
    except SynthesisError as exc:
        _emit_error(args, str(exc), SCOPE)
        return SCOPE
    except (GameFormatError, StrategyFormatError, OnlineFormatError) as exc:
        _emit_error(args, str(exc), USAGE)
        return USAGE
    except PlayProtocolError as exc:
        _emit_error(args, str(exc), USAGE)
        return USAGE
    except KeyboardInterrupt:
        print(
            json.dumps(
                {"error": "interrupted", "incomplete": True, "exit": SCOPE},
                indent=2,
                sort_keys=True,
            )
        )
        return SCOPE


if __name__ == "__main__":
    sys.exit(main())
