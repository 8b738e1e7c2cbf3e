import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import cfgame.cli
from cfgame.analysis import is_dominated, is_winning, losing_nfa, winning_set_dfa
from cfgame.automata import Dfa, Nfa, dfa_to_dict, nfa_to_dict
from cfgame.cli import main
from cfgame.fixtures import fixture
from cfgame.games import (
    Game,
    classify,
    dump_game,
    format_word,
    load_game,
    parse_word,
)
from cfgame.online import OnlineInstance, dump_online_instance, prune_weakly_dominant
from cfgame.play import load_strategy
from cfgame.synthesis import synthesize_weakly_dominant


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def run_json(capsys, *argv):
    code, out = run(capsys, "--json", *argv)
    return code, json.loads(out)


def crooked_game_text():
    # replacement language {b, bb} is not prefix-free; target accepts b*
    alphabet = ("a", "b")
    target = Dfa(
        2,
        alphabet,
        {(0, "a"): 1, (0, "b"): 0, (1, "a"): 1, (1, "b"): 1},
        0,
        {0},
    )
    return dump_game(Game(alphabet, {"a": "b+bb"}, target, name="crooked"))


def total_online_instance():
    nfa = Nfa(
        2,
        ("a", "b"),
        {(0, "a"): {0, 1}, (0, "b"): {0}, (1, "a"): {1}, (1, "b"): {1}},
        {0},
        {1},
    )
    return OnlineInstance(nfa)


# ---------------------------------------------------------------------------
# Verdicts and exit codes on the fixture games.


def test_is_winning_examples(capsys):
    code, out = run(
        capsys,
        "is-winning",
        "fixture:g2c-undominated",
        "--strategy",
        "forgetful-optimal",
        "--word",
        "cbc",
    )
    assert code == 0
    assert "forgetful-optimal wins cbc" in out

    code, _ = run(
        capsys,
        "is-winning",
        "fixture:g2c-undominated",
        "--strategy",
        "forgetful-optimal",
        "--word",
        "cb",
    )
    assert code == 1


def test_is_winning_json_matches_library(capsys):
    fx = fixture("g2c-undominated")
    sigma = fx.strategies["forgetful-optimal"]
    for word in ("cbc", "cb", "a", "bb"):
        code, data = run_json(
            capsys,
            "is-winning",
            "fixture:g2c-undominated",
            "--strategy",
            "forgetful-optimal",
            "--word",
            word,
        )
        expected = is_winning(fx.game, sigma, tuple(word))
        assert data == {"word": word, "strategy": "forgetful-optimal",
                        "winning": expected}
        assert code == (0 if expected else 1)


def test_compare_reflexive(capsys):
    code, out = run(
        capsys, "compare", "fixture:g1c-undominated", "read-all", "read-all"
    )
    assert code == 0
    assert "read-all ⊆ read-all" in out


def test_compare_witness_matches_library(capsys):
    fx = fixture("g1c-undominated")
    code, data = run_json(
        capsys, "compare", "fixture:g1c-undominated", "read-all", "selective-call"
    )
    dominated, witness = is_dominated(
        fx.game, fx.strategies["read-all"], fx.strategies["selective-call"]
    )
    assert code == 1
    assert data["dominated"] is dominated is False
    assert data["witness"] == format_word(witness) == "cd"


def test_classify_matches_library(capsys):
    code, data = run_json(capsys, "classify", "fixture:g1c-undominated")
    assert code == 0
    assert data["classes"] == classify(fixture("g1c-undominated").game).as_dict()


def test_validate_round_trip(tmp_path, capsys):
    path = tmp_path / "game.json"
    path.write_text(dump_game(fixture("sandbox").game))
    code, data = run_json(capsys, "validate", str(path))
    assert code == 0
    assert data["valid"] is True
    assert data["game"]["name"] == "sandbox"

    code, data = run_json(capsys, "validate", str(path), "--strategy", "read-all")
    assert code == 0
    assert data["strategy"]["label"] == "read-all"

    code, data = run_json(capsys, "validate", str(path), "--strategy", "nope")
    assert code == 2
    assert "error" in data


# ---------------------------------------------------------------------------
# Playing.


def test_play_scripted_transcript(capsys):
    code, data = run_json(
        capsys,
        "play",
        "fixture:sandbox",
        "--strategy",
        "read-all",
        "--word",
        "ab",
    )
    assert code == 0
    assert data["outcome"] == "WinJuliet"
    assert data["moves"][0] == {"history": "", "remaining": "ab"}
    assert data["moves"][-1] == {"history": "ab", "remaining": ""}
    assert data["final_word"] == "ab"

    code, data = run_json(
        capsys,
        "play",
        "fixture:sandbox",
        "--strategy",
        "read-all",
        "--word",
        "ac",
    )
    assert code == 1
    assert data["outcome"] == "WinRomeo"


def test_play_interactive_reprompts(capsys, monkeypatch):
    # "c" parses but is not in the replacement language of a, so the
    # prompt repeats before accepting "b"
    replies = iter(["c", "b"])
    monkeypatch.setattr("builtins.input", lambda prompt="": next(replies))
    code, out = run(
        capsys,
        "play",
        "fixture:sandbox",
        "--strategy",
        "call-initial-a",
        "--word",
        "a",
        "--interactive",
    )
    assert code in (0, 1)
    assert "is not in the replacement language" in out
    with pytest.raises(StopIteration):
        next(replies)


def test_play_interactive_eof_is_usage_error(capsys, monkeypatch):
    def bail(prompt=""):
        raise EOFError

    monkeypatch.setattr("builtins.input", bail)
    code, out = run(
        capsys,
        "play",
        "fixture:sandbox",
        "--strategy",
        "call-initial-a",
        "--word",
        "a",
        "--interactive",
    )
    assert code == 2


# ---------------------------------------------------------------------------
# Generators through the CLI, then deciding on the generated files.


def test_generate_3sat_and_exists_winning(tmp_path, capsys):
    out_dir = tmp_path / "sat"
    code, data = run_json(
        capsys, "generate", "3sat", "--clauses", "1,1,1", "--out", str(out_dir)
    )
    assert code == 0
    word = (out_dir / "word.txt").read_text()
    assert word.strip() == "0 C D E"

    strat_path = tmp_path / "strat.json"
    code, data = run_json(
        capsys,
        "exists-winning",
        str(out_dir / "game.json"),
        "--word",
        word,
        "--out",
        str(strat_path),
    )
    assert code == 0
    assert data["exists"] is True
    assert data["reroutes"]

    game = load_game((out_dir / "game.json").read_text())
    strategy = load_strategy(strat_path.read_text())
    assert is_winning(game, strategy, parse_word(word, game.alphabet))


def test_generate_3sat_unsat_has_no_winner(tmp_path, capsys):
    out_dir = tmp_path / "unsat"
    code, _ = run_json(
        capsys,
        "generate",
        "3sat",
        "--clauses",
        "1,1,1;-1,-1,-1",
        "--out",
        str(out_dir),
    )
    assert code == 0
    word = (out_dir / "word.txt").read_text()
    code, data = run_json(
        capsys, "exists-winning", str(out_dir / "game.json"), "--word", word
    )
    assert code == 1
    assert data["exists"] is False


def test_exists_winning_budget_exceeded(tmp_path, capsys):
    out_dir = tmp_path / "sat"
    run_json(capsys, "generate", "3sat", "--clauses", "1,1,1", "--out", str(out_dir))
    code, data = run_json(
        capsys,
        "exists-winning",
        str(out_dir / "game.json"),
        "--word",
        "0 C D E",
        "--mode",
        "incremental",
        "--budget",
        "1",
    )
    assert code == 3
    assert "error" in data


def test_exists_winning_dfs_budget_exceeded(capsys):
    code, data = run_json(
        capsys,
        "exists-winning",
        "fixture:g2-regular-not-sreg",
        "--word",
        "c",
        "--mode",
        "dfs",
        "--budget",
        "2",
    )
    assert code == 3
    assert data["exit"] == 3


def test_exists_winning_rejects_a_negative_budget(capsys):
    for mode in ("dfs", "incremental"):
        code, data = run_json(
            capsys,
            "exists-winning",
            "fixture:g2-regular-not-sreg",
            "--word",
            "c",
            "--mode",
            mode,
            "--budget",
            "-1",
        )
        assert code == 2
        assert data["exit"] == 2
        assert "budget" in data["error"]


def test_exists_winning_rejects_retired_modes(capsys):
    for mode in ("auto", "exhaustive"):
        with pytest.raises(SystemExit) as err:
            main(["exists-winning", "fixture:sandbox", "--word", "a", "--mode", mode])
        assert err.value.code == 2


def test_generate_universality_and_compare(tmp_path, capsys):
    nfa = {
        "states": 1,
        "alphabet": ["0", "1"],
        "initial": 0,
        "accepting": [0],
        "transitions": [[0, "0", 0], [0, "1", 0]],
    }
    nfa_path = tmp_path / "nfa.json"
    nfa_path.write_text(json.dumps(nfa))
    out_dir = tmp_path / "uni"
    code, data = run_json(
        capsys,
        "generate",
        "universality",
        "--nfa",
        str(nfa_path),
        "--out",
        str(out_dir),
    )
    assert code == 0
    assert data["game"]["name"] == "universality-1"

    code, data = run_json(
        capsys,
        "compare",
        str(out_dir / "game.json"),
        str(out_dir / "a1.json"),
        str(out_dir / "a2.json"),
    )
    assert code == 0
    assert data["dominated"] is True


def test_generate_universality_empty_word_note(tmp_path, capsys):
    # initial state rejecting: the NFA misses the empty word
    nfa = {
        "states": 2,
        "alphabet": ["0", "1"],
        "initial": 0,
        "accepting": [1],
        "transitions": [[0, "0", 1], [0, "1", 1], [1, "0", 1], [1, "1", 1]],
    }
    nfa_path = tmp_path / "nfa.json"
    nfa_path.write_text(json.dumps(nfa))
    code, data = run_json(capsys, "generate", "universality", "--nfa", str(nfa_path))
    assert code == 0
    assert "note" in data


def test_generate_random_is_seed_deterministic(tmp_path, capsys):
    dirs = (tmp_path / "r1", tmp_path / "r2")
    for d in dirs:
        code, _ = run_json(
            capsys,
            "generate",
            "random",
            "--seed",
            "7",
            "--params",
            "constraints=finite_replacement,alphabet=3",
            "--out",
            str(d),
        )
        assert code == 0
    texts = [(d / "game.json").read_text() for d in dirs]
    assert texts[0] == texts[1]


@pytest.mark.parametrize("retries", ["0", "-2"])
def test_generate_random_rejects_a_bad_retries(retries, capsys):
    code, data = run_json(
        capsys,
        "generate",
        "random",
        "--seed",
        "1",
        "--params",
        "retries=%s,constraints=prefix_free" % retries,
    )
    assert code == 2
    assert data == {
        "error": "retries must be an int of at least 1, got %s" % retries,
        "exit": 2,
    }


# ---------------------------------------------------------------------------
# Transform and synthesis pipeline.


def test_synthesize_wants_prefix_free(tmp_path, capsys):
    path = tmp_path / "crooked.json"
    path.write_text(crooked_game_text())
    code, data = run_json(capsys, "synthesize", str(path))
    assert code == 3
    assert "prefix-free" in data["error"]


def test_synthesize_rejects_a_negative_cap(capsys):
    code, data = run_json(capsys, "synthesize", "fixture:sandbox", "--cap", "-1")
    assert code == 2
    assert data["exit"] == 2
    assert "cap" in data["error"]


def test_out_of_memory_exits_3_without_traceback(capsys, monkeypatch):
    def exhausted(game, cap):
        raise MemoryError()

    monkeypatch.setattr(cfgame.cli, "synthesize_weakly_dominant", exhausted)
    code = main(["--json", "synthesize", "fixture:g1-recursive"])
    out, err = capsys.readouterr()
    assert code == 3
    assert json.loads(out) == {"error": "out of memory", "exit": 3}
    assert "Traceback" not in err


def test_transform_then_synthesize(tmp_path, capsys):
    path = tmp_path / "crooked.json"
    path.write_text(crooked_game_text())
    out = tmp_path / "pf.json"
    code, data = run_json(
        capsys, "transform", str(path), "--prefix-free", "--out", str(out)
    )
    assert code == 0
    assert data["classes_before"]["prefix_free"] is False
    assert data["classes_after"]["prefix_free"] is True

    code, data = run_json(capsys, "synthesize", str(out))
    assert code == 0
    expected = synthesize_weakly_dominant(load_game(out.read_text()), cap=10)
    assert data["winning_set_states"] == expected.pruned.n_states


# ---------------------------------------------------------------------------
# Exports and the remaining read-only views.


def test_export_target_dot_to_stdout(capsys):
    code, out = run(
        capsys, "--quiet", "export", "fixture:sandbox", "--what", "target", "--dot"
    )
    assert code == 0
    assert out.startswith("digraph")


def test_export_rule_json(tmp_path, capsys):
    out = tmp_path / "rule.json"
    code, data = run_json(
        capsys,
        "export",
        "fixture:sandbox",
        "--what",
        "rule:a",
        "--out",
        str(out),
    )
    assert code == 0
    exported = json.loads(out.read_text())
    assert exported == dfa_to_dict(fixture("sandbox").game.replacement_dfa("a"))


def test_export_unknown_what(capsys):
    code, data = run_json(capsys, "export", "fixture:sandbox", "--what", "spam")
    assert code == 2


def test_losing_nfa_matches_library(capsys):
    fx = fixture("sandbox")
    code, data = run_json(
        capsys, "losing-nfa", "fixture:sandbox", "--strategy", "read-all"
    )
    assert code == 0
    sigma = fx.strategies["read-all"]
    assert data["nfa"] == nfa_to_dict(losing_nfa(fx.game, sigma))
    assert data["winning_set_states"] == winning_set_dfa(fx.game, sigma).n_states


def test_online_prune_matches_library(tmp_path, capsys):
    inst = total_online_instance()
    path = tmp_path / "online.json"
    path.write_text(dump_online_instance(inst))
    code, data = run_json(capsys, "online-prune", str(path))
    assert code == 0
    assert data["pruned"] == dfa_to_dict(prune_weakly_dominant(inst))


def test_online_prune_rejects_a_negative_bound(tmp_path, capsys):
    path = tmp_path / "online.json"
    path.write_text(dump_online_instance(total_online_instance()))
    code, data = run_json(capsys, "online-prune", str(path), "--diagnose-bounded", "-1")
    assert code == 2
    assert data["exit"] == 2
    assert "diagnose_bounded" not in data


@pytest.mark.parametrize(
    "alphabet, error",
    [
        (["b", "b"], "duplicate symbols in alphabet"),
        ([["a"], "b"], "alphabet entry ['a'] is not a string"),
    ],
    ids=["repeated-symbol", "list-symbol"],
)
def test_online_prune_rejects_a_bad_alphabet(alphabet, error, tmp_path):
    instance = {
        "alphabet": alphabet,
        "states": 1,
        "initial": 0,
        "accepting": [0],
        "transitions": [[0, "b", 0]],
    }
    (tmp_path / "instance.json").write_text(json.dumps(instance))
    proc = subprocess.run(
        [sys.executable, "-m", "cfgame", "--json", "online-prune", "instance.json"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        env=package_env(),
        timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    data = json.loads(proc.stdout)
    assert data["exit"] == 2
    assert error in data["error"]


# ---------------------------------------------------------------------------
# Error handling and output modes.


# every output flag, aimed at a path that cannot be written: {dir} is a
# directory and {file} an existing file (for the flags that make a
# directory), so the case holds when the suite runs as root too
UNWRITABLE_OUTPUTS = {
    "transform-out": ["transform", "fixture:sandbox", "--prefix-free", "--out", "{dir}"],
    "exists-winning-out": [
        "exists-winning", "fixture:g2-regular-not-sreg", "--word", "a", "--out", "{dir}"
    ],
    "synthesize-out": ["synthesize", "fixture:sandbox", "--out", "{dir}"],
    "synthesize-dot": ["synthesize", "fixture:sandbox", "--dot", "{dir}"],
    "online-prune-dot": ["online-prune", "{instance}", "--dot", "{dir}"],
    "losing-nfa-dot": [
        "losing-nfa", "fixture:sandbox", "--strategy", "read-all", "--dot", "{dir}"
    ],
    "export-out": ["export", "fixture:sandbox", "--what", "target", "--out", "{dir}"],
    "generate-3sat-out": ["generate", "3sat", "--clauses", "1,1,1", "--out", "{file}"],
    "generate-universality-out": [
        "generate", "universality", "--nfa", "{nfa}", "--out", "{file}"
    ],
    "generate-random-out": ["generate", "random", "--seed", "1", "--out", "{file}"],
}


@pytest.mark.parametrize("case", sorted(UNWRITABLE_OUTPUTS))
def test_unwritable_output_path_exits_2(case, tmp_path, capsys):
    paths = {
        "dir": tmp_path / "taken",
        "file": tmp_path / "taken.txt",
        "instance": tmp_path / "online.json",
        "nfa": tmp_path / "nfa.json",
    }
    paths["dir"].mkdir()
    paths["file"].write_text("kept\n")
    paths["instance"].write_text(dump_online_instance(total_online_instance()))
    nfa = Nfa(1, ("0", "1"), {(0, "0"): {0}, (0, "1"): {0}}, {0}, {0})
    paths["nfa"].write_text(json.dumps(nfa_to_dict(nfa)))
    argv = [arg.format(**paths) for arg in UNWRITABLE_OUTPUTS[case]]
    code, data = run_json(capsys, *argv)
    assert code == 2
    assert data["exit"] == 2
    bad = argv[-1]
    assert data["error"].startswith("cannot write %s: " % bad), data["error"]
    assert paths["dir"].is_dir() and not any(paths["dir"].iterdir())
    assert paths["file"].read_text() == "kept\n"


def test_usage_errors(tmp_path, capsys):
    code, data = run_json(capsys, "classify", "fixture:nope")
    assert code == 2
    assert "error" in data

    code, data = run_json(capsys, "classify", str(tmp_path / "missing.json"))
    assert code == 2

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, data = run_json(capsys, "classify", str(bad))
    assert code == 2


ONE_STATE_GAME = {
    "alphabet": ["a", "b"],
    "rules": {"a": "b"},
    "target": {
        "states": 1,
        "initial": 0,
        "accepting": [0],
        "transitions": [[0, "a", 0], [0, "b", 0]],
    },
}

# a forgetful strategy whose transition on b leads to a state it lacks
OUT_OF_RANGE_STRATEGY = {
    "kind": "forgetful",
    "automaton": {
        "alphabet": ["a", "b"],
        "states": 1,
        "initial": 0,
        "accepting": [],
        "transitions": [[0, "a", 0], [0, "b", 7]],
    },
}

# name -> (arguments, input files); every file parses as JSON
MALFORMED_INPUTS = {
    "game-transitions": (
        ["classify", "game.json"],
        {
            "game.json": dict(
                ONE_STATE_GAME, target=dict(ONE_STATE_GAME["target"], transitions=5)
            )
        },
    ),
    "strategy-transitions": (
        ["validate", "game.json", "--strategy", "sigma.json"],
        {
            "game.json": ONE_STATE_GAME,
            "sigma.json": {
                "kind": "general",
                "automaton": {
                    "alphabet": ["a", "b", "^a"],
                    "states": 1,
                    "initial": 0,
                    "accepting": [],
                    "transitions": 5,
                },
            },
        },
    ),
    "online-transitions": (
        ["online-prune", "instance.json"],
        {
            "instance.json": {
                "alphabet": ["a"],
                "states": 1,
                "initial": 0,
                "accepting": [0],
                "transitions": 5,
            }
        },
    ),
    "reroutes": (
        ["validate", "game.json", "--strategy", "sigma.json"],
        {
            "game.json": ONE_STATE_GAME,
            "sigma.json": {"kind": "strongly-regular", "reroutes": 5},
        },
    ),
    "rule-value": (
        ["classify", "game.json"],
        {"game.json": dict(ONE_STATE_GAME, rules={"a": 5})},
    ),
    "deep-rule": (
        ["classify", "game.json"],
        {"game.json": dict(ONE_STATE_GAME, rules={"a": "b" * 2000})},
    ),
    "unhashable-transition": (
        ["classify", "game.json"],
        {
            "game.json": dict(
                ONE_STATE_GAME,
                target=dict(ONE_STATE_GAME["target"], transitions=[[[0], "a", 0]]),
            )
        },
    ),
    "strategy-states": (
        ["validate", "game.json", "--strategy", "sigma.json"],
        {
            "game.json": ONE_STATE_GAME,
            "sigma.json": {
                "kind": "forgetful",
                "automaton": {
                    "alphabet": ["a", "b"],
                    "states": "one",
                    "initial": 0,
                    "accepting": [],
                    "transitions": [[0, "a", 0], [0, "b", 0]],
                },
            },
        },
    ),
    "online-states": (
        ["online-prune", "instance.json"],
        {
            "instance.json": {
                "alphabet": ["a"],
                "states": "one",
                "initial": 0,
                "accepting": [0],
                "transitions": [[0, "a", 0]],
            }
        },
    ),
    "unhashable-reroute": (
        ["validate", "game.json", "--strategy", "sigma.json"],
        {
            "game.json": ONE_STATE_GAME,
            "sigma.json": {"kind": "strongly-regular", "reroutes": [[[0], "a"]]},
        },
    ),
    "strategy-target": (
        ["is-winning", "game.json", "--strategy", "sigma.json", "--word", "a"],
        {"game.json": ONE_STATE_GAME, "sigma.json": OUT_OF_RANGE_STRATEGY},
    ),
    "strategy-target-validate": (
        ["validate", "game.json", "--strategy", "sigma.json"],
        {"game.json": ONE_STATE_GAME, "sigma.json": OUT_OF_RANGE_STRATEGY},
    ),
    "game-target": (
        ["classify", "game.json"],
        {
            "game.json": dict(
                ONE_STATE_GAME,
                target=dict(
                    ONE_STATE_GAME["target"], transitions=[[0, "a", 0], [0, "b", 7]]
                ),
            )
        },
    ),
    "game-name": (
        ["transform", "game.json", "--prefix-free"],
        {"game.json": dict(ONE_STATE_GAME, name=5)},
    ),
    "play-steps": (
        ["play", "fixture:sandbox", "--strategy", "read-all", "--word", "a", "--steps", "0"],
        {},
    ),
    "game-alphabet-string": (
        ["classify", "game.json"],
        {"game.json": dict(ONE_STATE_GAME, alphabet="ab")},
    ),
    "game-alphabet-object": (
        ["classify", "game.json"],
        {"game.json": dict(ONE_STATE_GAME, alphabet={"a": 1, "b": 2})},
    ),
    "strategy-alphabet-string": (
        ["is-winning", "game.json", "--strategy", "sigma.json", "--word", "a"],
        {
            "game.json": ONE_STATE_GAME,
            "sigma.json": {
                "kind": "forgetful",
                "automaton": {
                    "alphabet": "ab",
                    "states": 1,
                    "initial": 0,
                    "accepting": [],
                    "transitions": [[0, "a", 0], [0, "b", 0]],
                },
            },
        },
    ),
    "online-alphabet-string": (
        ["online-prune", "instance.json"],
        {
            "instance.json": {
                "alphabet": "a",
                "states": 1,
                "initial": 0,
                "accepting": [0],
                "transitions": [[0, "a", 0]],
            }
        },
    ),
    "online-states-float": (
        ["online-prune", "instance.json"],
        {
            "instance.json": {
                "alphabet": ["a"],
                "states": 1.5,
                "initial": 0,
                "accepting": [0],
                "transitions": [[0, "a", 0]],
            }
        },
    ),
    "online-alphabet-number": (
        ["online-prune", "instance.json"],
        {
            "instance.json": {
                "alphabet": [0, "a"],
                "states": 1,
                "initial": 0,
                "accepting": [0],
                "transitions": [[0, 0, 0], [0, "a", 0]],
            }
        },
    ),
    "online-accepting-bool": (
        ["online-prune", "instance.json"],
        {
            "instance.json": {
                "alphabet": ["a"],
                "states": 2,
                "initial": 0,
                "accepting": [True],
                "transitions": [[0, "a", 1], [1, "a", 0]],
            }
        },
    ),
    "online-target-float": (
        ["online-prune", "instance.json"],
        {
            "instance.json": {
                "alphabet": ["a"],
                "states": 2,
                "initial": 0,
                "accepting": [1],
                "transitions": [[0, "a", 1], [1, "a", 0.0]],
            }
        },
    ),
    "strategy-accepting-float": (
        ["is-winning", "game.json", "--strategy", "sigma.json", "--word", "a"],
        {
            "game.json": ONE_STATE_GAME,
            "sigma.json": {
                "kind": "forgetful",
                "automaton": {
                    "alphabet": ["a", "b"],
                    "states": 1,
                    "initial": 0,
                    "accepting": [0.0],
                    "transitions": [[0, "a", 0], [0, "b", 0]],
                },
            },
        },
    ),
    "reroute-state-bool": (
        ["is-winning", "fixture:sandbox", "--strategy", "sigma.json", "--word", "a"],
        {"sigma.json": {"kind": "strongly-regular", "reroutes": [[True, "a"]]}},
    ),
    "universality-nfa-accepting-float": (
        ["generate", "universality", "--nfa", "nfa.json", "--out", "uni"],
        {
            "nfa.json": {
                "alphabet": ["0", "1"],
                "states": 1,
                "initial": 0,
                "accepting": [0.0],
                "transitions": [[0, "0", 0], [0, "1", 0]],
            }
        },
    ),
    "online-alphabet-numbers-dot": (
        ["online-prune", "instance.json", "--dot", "instance.dot"],
        {
            "instance.json": {
                "alphabet": [0, 1],
                "states": 1,
                "initial": 0,
                "accepting": [0],
                "transitions": [[0, 0, 0], [0, 1, 0]],
            }
        },
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
def test_malformed_input_exits_without_traceback(case, tmp_path):
    argv, files = MALFORMED_INPUTS[case]
    for name, data in files.items():
        (tmp_path / name).write_text(json.dumps(data))
    proc = subprocess.run(
        [sys.executable, "-m", "cfgame", "--json", *argv],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        env=package_env(),
        timeout=120,
    )
    assert proc.returncode in (2, 3), proc.stderr
    assert "Traceback" not in proc.stderr
    assert json.loads(proc.stdout)["exit"] == proc.returncode


@pytest.mark.parametrize(
    "argv, bad",
    [
        (["classify", "game.json"], "game.json"),
        (["validate", "fixture:sandbox", "--strategy", "sigma.json"], "sigma.json"),
        (["online-prune", "instance.json"], "instance.json"),
        (["generate", "universality", "--nfa", "nfa.json", "--out", "uni"], "nfa.json"),
    ],
)
def test_file_that_is_not_utf8_exits_2_without_traceback(argv, bad, tmp_path):
    (tmp_path / bad).write_bytes(b'{"name": "\xff"}')
    proc = subprocess.run(
        [sys.executable, "-m", "cfgame", "--json", *argv],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        env=package_env(),
        timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    report = json.loads(proc.stdout)
    assert report["exit"] == 2
    assert "can't decode byte 0xff" in report["error"]


@pytest.mark.parametrize("data", [b"{nope", b'{"name": "\xff"}'])
def test_universality_nfa_file_that_is_not_json_exits_2(data, tmp_path):
    # the NFA reader reports bad JSON and bad UTF-8 as the other readers do
    (tmp_path / "nfa.json").write_bytes(data)
    proc = subprocess.run(
        [sys.executable, "-m", "cfgame", "--json", "generate", "universality", "--nfa", "nfa.json"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        env=package_env(),
        timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    report = json.loads(proc.stdout)
    assert report["exit"] == 2
    assert report["error"].startswith("bad NFA file nfa.json: invalid JSON: ")


@pytest.mark.parametrize(
    "argv, unbuffered",
    [
        (["export", "fixture:g2c-undominated"], "1"),
        (["export", "fixture:g2c-undominated"], ""),
        (["classify", "fixture:nope"], "1"),  # the error report is lost too
    ],
)
def test_closed_stdout_exits_3_without_traceback(argv, unbuffered):
    # the read end is closed before the child starts, so its first write
    # (or the flush of a buffered one) fails with a broken pipe
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "cfgame", "--json", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=dict(package_env(), PYTHONUNBUFFERED=unbuffered),
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "BrokenPipeError" not in proc.stderr


@pytest.mark.parametrize(
    "argv", [["--help"], ["classify", "--help"]], ids=["help", "classify-help"]
)
@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_help_into_closed_stdout_exits_3_quietly(unbuffered, argv):
    # buffered, argparse writes the help into the stdout buffer and
    # exits, and the failing flush of that buffer is reported like any
    # other closed stdout, not by the interpreter at shutdown; unbuffered,
    # the failing write itself must reach main
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "cfgame", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=dict(package_env(), PYTHONUNBUFFERED=unbuffered),
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr == ""


def test_bad_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["no-such-command"])
    assert err.value.code == 2


def test_quiet_is_one_line(capsys):
    code, out = run(
        capsys,
        "--quiet",
        "is-winning",
        "fixture:g2c-undominated",
        "--strategy",
        "forgetful-optimal",
        "--word",
        "cbc",
    )
    assert code == 0
    assert out.strip() == "forgetful-optimal wins cbc"


def test_json_and_quiet_conflict(capsys):
    with pytest.raises(SystemExit) as err:
        main(["--json", "--quiet", "classify", "fixture:sandbox"])
    assert err.value.code == 2


def declared_entry_point(name):
    # the [project.scripts] entry of the repo's pyproject.toml, as
    # (module, function)
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with open(pyproject, "rb") as handle:
        scripts = tomllib.load(handle)["project"].get("scripts", {})
    assert name in scripts, "no %r in [project.scripts]" % name
    module, _, function = scripts[name].partition(":")
    return module, function


def package_env():
    # the environment with the cfgame package this suite imports first on
    # the path
    package_root = os.path.dirname(
        os.path.dirname(os.path.abspath(cfgame.cli.__file__))
    )
    pythonpath = [package_root]
    if os.environ.get("PYTHONPATH"):
        pythonpath.append(os.environ["PYTHONPATH"])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(pythonpath))


def check_cfgame_process(command, env=None):
    def run_process(*argv):
        return subprocess.run(
            command + ["--json", *argv],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )

    proc = run_process("classify", "fixture:sandbox")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["classes"]

    # main's return code must become the process exit status
    proc = run_process("classify", "fixture:nope")
    assert proc.returncode == 2, proc.stderr
    assert json.loads(proc.stdout)["exit"] == 2


def test_console_script_is_installed():
    # run the declared entry point the way an installed wrapper does, on
    # the same cfgame package this suite imports
    module, function = declared_entry_point("cfgame")
    wrapper = "import sys; from {0} import {1}; sys.exit({1}())".format(
        module, function
    )
    check_cfgame_process([sys.executable, "-c", wrapper], env=package_env())

    installed = shutil.which("cfgame")
    if installed:
        check_cfgame_process([installed])


def test_python_m_cfgame():
    # a regular package, so no other cfgame directory on sys.path merges in
    assert cfgame.__file__ is not None
    check_cfgame_process([sys.executable, "-m", "cfgame"], env=package_env())
