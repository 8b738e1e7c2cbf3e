"""The benchmark's workloads: seeded inputs, queries and their checks.

Each workload turns a seed into a fixed list of queries, one pass.  A
query is a call into cfgame; its result is summarized outside the timed
region into a hashable value, and each distinct summary is checked once,
after the timed loop, against oracles.py or against a file recorded from
the library.

Why each workload exists, and which layers it is meant to move, is in
README.md next to this file.
"""

import collections
import json
import os
import random
import resource
import signal
import subprocess
import sys
import time

import oracles

HERE = os.path.dirname(os.path.abspath(__file__))
SYNTH_EXPECTED = os.path.join(HERE, "synth_expected.json")


class QueryTimeout(Exception):
    """A query ran past its workload's time limit."""


def _on_alarm(signum, frame):
    raise QueryTimeout()


# call() runs the query; summarize(result) -> hashable; check(summary) -> bool
Query = collections.namedtuple("Query", "label call summarize check")


class Frozen:
    """Hashable view of a Dfa or Nfa, compared by its tables."""

    def __init__(self, automaton):
        a = self.automaton = automaton
        if hasattr(a, "initials"):
            table = tuple(sorted((k, tuple(sorted(v))) for k, v in a.transitions.items()))
            self.key = (a.alphabet, tuple(sorted(a.initials)), a.accepting, table)
        else:
            self.key = (a.alphabet, a.initial, a.accepting, tuple(sorted(a.transitions.items())))

    def __eq__(self, other):
        return self.key == other.key

    def __hash__(self):
        return hash(self.key)


class Workload:
    """In-process queries, each under a SIGALRM time limit."""

    name = None
    limit_s = None
    warmup = 0  # leading queries run once, untimed, before the timed passes
    tracer = None
    rusage = resource.RUSAGE_SELF  # whose peak memory is reported

    def __init__(self, cf, seed, size, workdir):
        self.cf = cf
        self.rng = random.Random(seed)
        self.size = size
        self.workdir = workdir

    def run(self, query):
        previous = signal.signal(signal.SIGALRM, _on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.limit_s)
        try:
            return query.call()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def close(self):
        pass


# ---------------------------------------------------------------------------
# sreg-3sat: the NP-complete search, nearly all Relations rebuilds.


def _random_cnf(rng, n, m):
    return [
        tuple(rng.choice((1, -1)) * rng.randint(1, n) for _ in range(3))
        for _ in range(m)
    ]


def _unsat_cnf(rng, n, shape):
    """Unsatisfiable formula of a fixed shape on randomly chosen variables."""
    x, y = rng.sample(range(1, n + 1), 2)
    if shape == "contradiction":
        return [(x, x, x), (-x, -x, -x)]
    return [(sx * x, sy * y, sy * y) for sx in (1, -1) for sy in (1, -1)]


class Sreg3Sat(Workload):
    """The formula corpus is drawn once, from CORPUS_SEED: search cost
    swings by a factor of three between random formulas of one size, so
    a corpus drawn per run would move the medians more than any bound.
    The benchmark seed reorders each formula's clauses, which gives a
    different game with the same answer, and the order of the queries."""

    name = "sreg-3sat"
    limit_s = 60.0
    CORPUS_SEED = 1

    # (variables, clause count or unsatisfiable shape, formulas per pass)
    FULL = [
        (2, 1, 8), (2, 2, 10), (2, 3, 6), (2, 4, 4), (3, 1, 4), (3, 2, 2),
        (2, "contradiction", 1), (2, "all-signs", 1),
    ]
    TINY = [(2, 1, 2), (2, "contradiction", 1)]

    def queries(self):
        gen = self.cf.generators
        corpus = random.Random(self.CORPUS_SEED)
        out = []
        for n, m, count in self.FULL if self.size == "full" else self.TINY:
            for _ in range(count):
                if isinstance(m, int):
                    clauses = _random_cnf(corpus, n, m)
                else:
                    clauses = _unsat_cnf(corpus, n, m)
                self.rng.shuffle(clauses)
                game, word = gen.from_3sat(gen.CnfFormula(n, clauses))
                out.append(self._query(n, clauses, game, word))
        self.rng.shuffle(out)
        return out

    def _query(self, n, clauses, game, word):
        search = self.cf.analysis.exists_winning_sreg

        def summarize(strategy):
            return None if strategy is None else Frozen(strategy.automaton(game))

        def check(summary):
            # the verdict must match the truth table, and a returned
            # strategy must win the word against every reply
            if summary is None:
                return not oracles.cnf_satisfiable(n, clauses)
            referee = oracles.PlayReferee(game.rules, game.target, summary.automaton)
            return oracles.cnf_satisfiable(n, clauses) and not referee.loses(word)

        return Query("n=%d %s" % (n, clauses), lambda: search(game, word), summarize, check)


# ---------------------------------------------------------------------------
# synth-pf: the synthesis pipeline on prefix-free random games.

SYNTH_PARAMS = {
    "alphabet": 3,
    "target_states": 6,
    "rule_length": 3,
    "constraints": ["prefix_free", "finite_replacement"],
}
SYNTH_FIRST_SEED = 1000
SYNTH_GAMES = {"full": 28, "tiny": 3}


def synth_seeds(size):
    return range(SYNTH_FIRST_SEED, SYNTH_FIRST_SEED + SYNTH_GAMES[size])


class SynthPf(Workload):
    """The game list is fixed, seeds 1000 on, so that the expected
    languages can be recorded once; the benchmark seed sets the order
    the closed loop visits them in."""

    name = "synth-pf"
    limit_s = 90.0

    def queries(self):
        with open(SYNTH_EXPECTED) as handle:
            expected = json.load(handle)
        out = []
        for seed in synth_seeds(self.size):
            game = self.cf.generators.random_game(SYNTH_PARAMS, seed)
            out.append(self._query(seed, game, expected[str(seed)]))
        self.rng.shuffle(out)
        return out

    def _query(self, seed, game, want):
        synthesize = self.cf.synthesis.synthesize_weakly_dominant
        want = (
            tuple(want["alphabet"]),
            {(q, a): t for q, a, t in want["transitions"]},
            want["initial"],
            frozenset(want["accepting"]),
        )

        def check(summary):
            d = summary.automaton
            got = (d.alphabet, d.transitions, d.initial, d.accepting)
            return d.alphabet == want[0] and oracles.dfa_equivalent(got, want)

        return Query(
            "seed %d" % seed,
            lambda: synthesize(game),
            lambda strategy: Frozen(strategy.pruned),
            check,
        )


# ---------------------------------------------------------------------------
# decide-mix: build-once, read-many decisions; the blow-up is in automata.


def kth_from_last_nfa(k, universal):
    """NFA over 0/1 accepting words shorter than k and words whose k-th
    symbol from the end is 1; the universal variant also accepts those
    where it is 0.  Both determinize to about 2^k states."""
    transitions = {}
    n = 0

    def fresh():
        nonlocal n
        n += 1
        return n - 1

    loop = fresh()
    accepting = set()
    for a in "01":
        transitions.setdefault((loop, a), set()).add(loop)
    short = [fresh() for _ in range(k)]
    for p, q in zip(short, short[1:]):
        for a in "01":
            transitions.setdefault((p, a), set()).add(q)
    accepting.update(short)
    for bit in ("10" if universal else "1"):
        chain = [fresh() for _ in range(k)]
        transitions.setdefault((loop, bit), set()).add(chain[0])
        for p, q in zip(chain, chain[1:]):
            for a in "01":
                transitions.setdefault((p, a), set()).add(q)
        accepting.add(chain[-1])
    return n, transitions, {loop, short[0]}, frozenset(accepting)


DECIDE_SIZES = {
    # random (game, strategy) pairs, universality k values, 10k-symbol
    # words per universality game and per g2c-undominated strategy
    "full": (8, (4, 5, 6, 7, 8), 2),
    "tiny": (2, (3,), 1),
}
WORD_LENGTH = {"full": 10000, "tiny": 200}
ORACLE_WORD_LENGTH = 4


class DecideMix(Workload):
    """is_winning runs on games whose plays never stop early (universality
    games and g2c-undominated), so each of its 10k-symbol words is read to
    the end; on random games a play that can go on forever ends the scan
    at once, and the share of such words would move the median from seed
    to seed."""

    name = "decide-mix"
    limit_s = 30.0
    warmup = None  # all of them: the timed passes read cached Relations

    def queries(self):
        cf = self.cf
        rng = self.rng
        pairs, ks, words = DECIDE_SIZES[self.size]
        length = WORD_LENGTH[self.size]
        out = []
        for _ in range(pairs):
            game = cf.generators.random_game(
                {"alphabet": 3, "target_states": 4, "rule_length": 3,
                 "constraints": ["finite_replacement"]},
                rng.randrange(10 ** 9),
            )
            m = 3
            hist = game.hist_alphabet
            dfa = cf.automata.Dfa(
                m, hist,
                {(q, a): rng.randrange(m) for q in range(m) for a in hist},
                0, [q for q in range(m) if rng.random() < 0.5],
            )
            strategy = cf.play.GeneralStrategy(dfa)
            referee = oracles.PlayReferee(game.rules, game.target, strategy.automaton(game))
            out.append(self._losing_nfa(game, strategy, referee))
            out.append(self._winning_set_dfa(game, strategy, referee))
        fx = cf.fixtures.fixture("g2c-undominated")
        for _, strategy in sorted(fx.strategies.items()):
            referee = oracles.PlayReferee(fx.game.rules, fx.game.target, strategy.automaton(fx.game))
            for _ in range(words):
                word = tuple(rng.choice(fx.game.alphabet) for _ in range(length))
                out.append(self._is_winning(
                    fx.game, strategy, word, lambda w=word, r=referee: not r.loses(w)
                ))
        for k in ks:
            for universal in (False, True):
                n, delta, initials, accepting = kth_from_last_nfa(k, universal)
                nfa = cf.automata.Nfa(n, ("0", "1"), delta, initials, accepting)
                game, a1, a2 = cf.generators.from_nfa_universality(nfa)
                least = oracles.nfa_least_rejected(("0", "1"), delta, initials, accepting)
                out.append(self._is_dominated(k, universal, game, a1, a2, least))
                # a1 loses exactly the 0/1-words the NFA accepts
                for _ in range(words):
                    word = tuple(rng.choice("01") for _ in range(length))
                    out.append(self._is_winning(
                        game, a1, word,
                        lambda w=word, d=delta, i=initials, f=accepting:
                            not oracles.nfa_accepts(d, i, f, w),
                    ))
        rng.shuffle(out)
        return out

    def _is_winning(self, game, strategy, word, expect):
        is_winning = self.cf.analysis.is_winning
        return Query(
            "is_winning %s |w|=%d" % (game.name, len(word)),
            lambda: is_winning(game, strategy, word),
            bool,
            lambda got: got == expect(),
        )

    def _losing_nfa(self, game, strategy, referee):
        losing_nfa = self.cf.analysis.losing_nfa

        def check(summary):
            nfa = summary.automaton
            return all(
                oracles.nfa_accepts(nfa.transitions, nfa.initials, nfa.accepting, w) == referee.loses(w)
                for w in oracles.words_upto(game.alphabet, ORACLE_WORD_LENGTH)
            )

        return Query("losing_nfa %s" % game.name, lambda: losing_nfa(game, strategy), Frozen, check)

    def _winning_set_dfa(self, game, strategy, referee):
        winning_set_dfa = self.cf.analysis.winning_set_dfa

        def check(summary):
            dfa = summary.automaton
            return all(
                oracles.dfa_accepts(dfa.transitions, dfa.initial, dfa.accepting, w) != referee.loses(w)
                for w in oracles.words_upto(game.alphabet, ORACLE_WORD_LENGTH)
            )

        return Query("winning_set_dfa %s" % game.name, lambda: winning_set_dfa(game, strategy), Frozen, check)

    def _is_dominated(self, k, universal, game, a1, a2, least):
        is_dominated = self.cf.analysis.is_dominated
        return Query(
            "is_dominated k=%d %s" % (k, "universal" if universal else "non-universal"),
            lambda: is_dominated(game, a1, a2),
            lambda result: (result[0], None if result[1] is None else tuple(result[1])),
            lambda got: got == (least is None, least),
        )


# ---------------------------------------------------------------------------
# cli-cold: one child process per query, import and start-up included.

CHILD = """\
import json, sys, time
t0 = time.perf_counter()
from cfgame.cli import main
t1 = time.perf_counter()
code = main(sys.argv[1:])
t2 = time.perf_counter()
sys.stdout.flush()
sys.stderr.write(json.dumps({"import_s": t1 - t0, "main_s": t2 - t1}) + "\\n")
sys.exit(code)
"""

CLI_SIZES = {
    # classify runs, universality k values (each with a compare and
    # is-winning runs per variant), exists-winning runs
    "full": (10, (2, 3, 4), 2, 12),
    "tiny": (1, (3,), 1, 1),
}


CliResult = collections.namedtuple("CliResult", "code out timings process_s")


class CliCold(Workload):
    name = "cli-cold"
    limit_s = 30.0
    warmup = 1  # compiles the .pyc files a fresh checkout lacks
    rusage = resource.RUSAGE_CHILDREN

    def queries(self):
        cf = self.cf
        rng = self.rng
        n_classify, ks, n_words, n_sat = CLI_SIZES[self.size]
        os.makedirs(self.workdir, exist_ok=True)
        out = []
        files = []

        def write(text):
            path = os.path.join(self.workdir, "input-%d.json" % len(files))
            files.append(path)
            with open(path, "w") as handle:
                handle.write(text)
            return path

        for _ in range(n_classify):
            game = cf.generators.random_game(
                {"alphabet": 3, "target_states": 4, "constraints": ["prefix_free"]},
                rng.randrange(10 ** 9),
            )
            out.append(self._query(
                ["classify", write(cf.games.dump_game(game))],
                lambda code, data: code == 0 and data["classes"]["prefix_free"] is True,
            ))
        for k in ks:
            for universal in (False, True):
                n, delta, initials, accepting = kth_from_last_nfa(k, universal)
                nfa = cf.automata.Nfa(n, ("0", "1"), delta, initials, accepting)
                game, a1, a2 = cf.generators.from_nfa_universality(nfa)
                g = write(cf.games.dump_game(game))
                s1 = write(cf.play.dump_strategy(a1))
                s2 = write(cf.play.dump_strategy(a2))
                least = oracles.nfa_least_rejected(("0", "1"), delta, initials, accepting)
                out.append(self._query(
                    ["compare", g, s1, s2],
                    lambda code, data, least=least: code == (0 if least is None else 1)
                    and data["dominated"] == (least is None)
                    and data["witness"] == (None if least is None else "".join(least)),
                ))
                for _ in range(n_words):
                    word = [rng.choice("01") for _ in range(rng.randint(3, 8))]
                    wins = not oracles.nfa_accepts(delta, initials, accepting, word)
                    out.append(self._query(
                        ["is-winning", g, "--strategy", s1, "--word", " ".join(word)],
                        lambda code, data, wins=wins: code == (0 if wins else 1)
                        and data["winning"] == wins,
                    ))
        for _ in range(n_sat):
            clauses = _random_cnf(rng, 1, rng.randint(1, 3))
            game, word = cf.generators.from_3sat(cf.generators.CnfFormula(1, clauses))
            sat = oracles.cnf_satisfiable(1, clauses)
            out.append(self._query(
                ["exists-winning", write(cf.games.dump_game(game)), "--word", " ".join(word)],
                lambda code, data, sat=sat: code == (0 if sat else 1) and data["exists"] == sat,
            ))
        rng.shuffle(out)
        return out

    def _query(self, argv, verdict_ok):
        root = os.path.dirname(HERE)
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        command = [sys.executable, "-c", CHILD, "--json"] + argv

        def call():
            started = time.perf_counter()
            proc = subprocess.run(
                command, cwd=root, env=env, capture_output=True, text=True,
                timeout=self.limit_s,
            )
            process_s = time.perf_counter() - started
            timings = json.loads(proc.stderr.strip().splitlines()[-1])
            return CliResult(proc.returncode, proc.stdout, timings, process_s)

        def summarize(result):
            return result.code, result.out

        def check(summary):
            code, text = summary
            return verdict_ok(code, json.loads(text))

        return Query(" ".join(argv[:1]), call, summarize, check)

    def run(self, query):
        # subprocess.run enforces the limit and reaps the child itself
        started = time.perf_counter()
        try:
            result = query.call()
        except subprocess.TimeoutExpired:
            raise QueryTimeout() from None
        if self.tracer is not None:
            # the child process is this layer's span
            self.tracer.spans.append(["cli.process", started, started + result.process_s, -1])
            counts = self.tracer.counts
            counts["cli.import_s"] += result.timings["import_s"]
            counts["cli.main_s"] += result.timings["main_s"]
            counts["cli.process_s"] += result.process_s
        return result

    def close(self):
        for name in os.listdir(self.workdir):
            os.remove(os.path.join(self.workdir, name))
        os.rmdir(self.workdir)


WORKLOADS = {w.name: w for w in (Sreg3Sat, SynthPf, DecideMix, CliCold)}
