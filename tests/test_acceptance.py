"""Acceptance sweep.

Each test covers one headline guarantee and prints a single PASS/FAIL
line (visible with -s); run the whole file with

    pytest tests/test_acceptance.py -v -s
"""

import random
import time

from cfgame.analysis import (
    exists_winning_sreg,
    is_dominated,
    is_winning,
    losing_nfa,
    winning_set_upto,
)
from cfgame.automata import Dfa, enumerate_upto, equivalent, is_prefix_free, shortlex_key
from cfgame.fixtures import fixture
from cfgame.games import to_prefix_free
from cfgame.generators import from_3sat, from_nfa_universality, random_game
from cfgame.online import prune_weakly_dominant
from cfgame.play import strongly_regular_automaton
from cfgame.synthesis import synthesize_weakly_dominant
from conftest import random_nfa, random_online_instance
from oracles import (
    WIN,
    best_one_pass_win_set,
    brute_force_best_online,
    brute_force_outcome,
    nfa_is_universal,
    online_win_set,
    sat_assignment,
    small_formulas,
    words_upto,
)


def set_cmp(s1, s2, alphabet):
    if set(s1) == set(s2):
        return 0
    m = min(set(s1) ^ set(s2), key=lambda w: shortlex_key(w, alphabet))
    return 1 if m in s1 else -1


def report(num, ok, detail):
    print("criterion %2d: %s  %s" % (num, "PASS" if ok else "FAIL", detail))


def test_criterion_01_golden_winning_sets():
    fx2 = fixture("g2c-undominated")
    t0 = time.perf_counter()
    got2 = set(winning_set_upto(fx2.game, fx2.strategies["forgetful-optimal"], 3))
    t2 = time.perf_counter() - t0
    want2 = {("a",), ("b", "b"), ("b", "c", "c"), ("c", "b", "c"), ("c", "c", "c")}

    fx1 = fixture("g1c-undominated")
    t0 = time.perf_counter()
    got1 = set(winning_set_upto(fx1.game, fx1.strategies["selective-call"], 1))
    t1 = time.perf_counter() - t0
    want1 = {("a",), ("b",), ("c",), ("e",)}

    ok = got2 == want2 and got1 == want1 and t2 < 1.0 and t1 < 1.0
    report(1, ok, "golden winning sets exact (%.3fs, %.3fs)" % (t2, t1))
    assert got2 == want2
    assert got1 == want1
    assert t2 < 1.0 and t1 < 1.0


def test_criterion_02_is_winning_matches_brute_force(game_corpus):
    t0 = time.perf_counter()
    mismatches = 0
    checked = 0
    for game, sigma in game_corpus:
        for w in words_upto(game.alphabet, 5):
            got = is_winning(game, sigma, w)
            want = brute_force_outcome(game, sigma, w) == WIN
            checked += 1
            if got != want:
                mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 300.0
    report(
        2,
        ok,
        "%d games, %d words checked, %d mismatches (%.1fs)"
        % (len(game_corpus), checked, mismatches, elapsed),
    )
    assert mismatches == 0
    assert elapsed < 300.0


def test_criterion_03_losing_nfa_matches_brute_force(game_corpus):
    t0 = time.perf_counter()
    disagreements = 0
    for game, sigma in game_corpus:
        left = set(enumerate_upto(losing_nfa(game, sigma), 5))
        right = {
            w
            for w in words_upto(game.alphabet, 5)
            if brute_force_outcome(game, sigma, w) != WIN
        }
        if left != right:
            disagreements += 1
    elapsed = time.perf_counter() - t0
    ok = disagreements == 0
    report(
        3,
        ok,
        "%d games, %d losing-set disagreements (%.1fs)"
        % (len(game_corpus), disagreements, elapsed),
    )
    assert disagreements == 0


def test_criterion_04_is_winning_scales():
    fx = fixture("g2c-undominated")
    game, sigma = fx.game, fx.strategies["forgetful-optimal"]
    assert game.target.n_states == 5
    base = ("b", "c", "c")
    times = {}
    for n in (10, 100, 1000, 10000):
        w = tuple(base[i % 3] for i in range(n))
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            is_winning(game, sigma, w)
            best = min(best, time.perf_counter() - t0)
        times[n] = best
    each_ok = all(t < 1.0 for t in times.values())
    # at-most-quadratic: a tenfold word allows a hundredfold time, with a
    # floor soaking up timer noise on the tiny end
    floor = 0.005
    growth_ok = all(
        times[10 * n] <= 100.0 * max(times[n], floor) for n in (10, 100, 1000)
    )
    ok = each_ok and growth_ok
    report(
        4,
        ok,
        "timings "
        + " ".join("%d:%.4fs" % (n, times[n]) for n in sorted(times)),
    )
    assert each_ok
    assert growth_ok


def test_criterion_05_3sat_reduction():
    t0 = time.perf_counter()
    formulas = small_formulas(1) + small_formulas(2)
    assert len(formulas) == 244
    mismatches = 0
    satisfiable = 0
    for phi in formulas:
        game, word = from_3sat(phi)
        got = exists_winning_sreg(game, word) is not None
        want = sat_assignment(phi) is not None
        satisfiable += want
        if got != want:
            mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 120.0
    report(
        5,
        ok,
        "%d formulas (%d satisfiable), %d mismatches (%.1fs)"
        % (len(formulas), satisfiable, mismatches, elapsed),
    )
    assert mismatches == 0
    assert elapsed < 120.0


def test_criterion_06_universality_reduction():
    rng = random.Random(600)
    mismatches = 0
    universal = 0
    for _ in range(100):
        nfa = random_nfa(rng)
        game, a1, a2 = from_nfa_universality(nfa)
        dominated, _ = is_dominated(game, a1, a2)
        want = nfa_is_universal(nfa)
        universal += want
        if dominated != want:
            mismatches += 1
    ok = mismatches == 0
    report(
        6,
        ok,
        "100 NFAs (%d universal), %d mismatches" % (universal, mismatches),
    )
    assert mismatches == 0


def test_criterion_07_online_pruning():
    rng = random.Random(700)
    mismatches = 0
    for _ in range(50):
        inst = random_online_instance(rng)
        # prune carries the check that co-reached states agree on
        # acceptance; online_win_set re-validates the sub-automaton
        pruned = prune_weakly_dominant(inst)
        mine = set(online_win_set(inst, pruned, 3))
        best = set(brute_force_best_online(inst, 3))
        if mine != best or set_cmp(mine, best, inst.alphabet) < 0:
            mismatches += 1
    ok = mismatches == 0
    report(7, ok, "50 instances, %d mismatches" % mismatches)
    assert mismatches == 0


def test_criterion_08_synthesis_beats_bounded_one_pass():
    t0 = time.perf_counter()
    params = {
        "constraints": ["prefix_free", "finite_replacement"],
        "alphabet": 3,
        "target_states": 4,
        "rule_length": 3,
    }
    games, seed = [], 1000
    while len(games) < 20:
        try:
            games.append(random_game(params, seed))
        except ValueError:
            pass
        seed += 1
    violations = 0
    for game in games:
        synth = synthesize_weakly_dominant(game)
        mine = set(enumerate_upto(synth.pruned, 4))
        best = best_one_pass_win_set(game, 4, 6)
        if set_cmp(mine, best, game.alphabet) < 0:
            violations += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 600.0
    report(
        8,
        ok,
        "%d games, %d shortlex violations (%.1fs)"
        % (len(games), violations, elapsed),
    )
    assert violations == 0
    assert elapsed < 600.0


def test_criterion_09_no_sreg_dominates_g1c_fixture():
    fx = fixture("g1c-undominated")
    game = fx.game
    fixture_set = set(winning_set_upto(game, fx.strategies["selective-call"], 3))
    pairs = [
        (q, a)
        for q in range(game.target.n_states)
        for a in game.function_symbols
    ]
    assert len(pairs) == 12
    strict = 0
    for mask in range(1 << len(pairs)):
        spec = [pairs[b] for b in range(len(pairs)) if mask >> b & 1]
        strategy = strongly_regular_automaton(game, spec)
        if set(winning_set_upto(game, strategy, 3)) > fixture_set:
            strict += 1
    ok = strict == 0
    report(
        9,
        ok,
        "%d strongly regular specs, %d strict dominators" % (1 << len(pairs), strict),
    )
    assert strict == 0


def test_criterion_10_prefix_free_transform():
    crooked_rules = 0
    target_mismatches = 0
    for seed in range(100):
        game = random_game({}, seed)
        transformed = to_prefix_free(game)
        for a in transformed.function_symbols:
            flag, _ = is_prefix_free(transformed.replacement_dfa(a))
            if not flag:
                crooked_rules += 1
        # deleting the end symbol must not change target membership:
        # compare against the copy that skips it in place
        t = transformed.target
        skipping = dict(t.transitions)
        for q in range(t.n_states):
            skipping[(q, "$")] = q
        b = Dfa(t.n_states, t.alphabet, skipping, t.initial, t.accepting)
        if not equivalent(t, b):
            target_mismatches += 1
    ok = crooked_rules == 0 and target_mismatches == 0
    report(
        10,
        ok,
        "100 games, %d non-prefix-free rules, %d target mismatches"
        % (crooked_rules, target_mismatches),
    )
    assert crooked_rules == 0
    assert target_mismatches == 0
