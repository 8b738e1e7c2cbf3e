"""cfgame benchmark: seeded workloads in a closed loop, with a traced mode.

    python3 perfbench/run.py --workload sreg-3sat --seed 1 --seconds 10 --trace 0

One client, one process, no threads, one query at a time.  Set-up (a
fresh import of cfgame plus input generation) is repeated and its median
reported.  The loop then runs whole passes over the workload's query list
until --seconds have passed; every result is checked against independent
oracles after the timed region.  The last line of output is one JSON
object: the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1.  --workload all runs each workload in its own child process.

The traced run times passes untraced for half of --seconds, then repeats
set-up, warm-up and exactly one pass with every layer wrapped.  Its
passes run each query once, so its counts repeat exactly for a seed; the
difference of the traced and untraced pass times is the tracing overhead.
"""

import argparse
import hashlib
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from types import SimpleNamespace

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
MODULES = ("automata", "games", "play", "analysis", "online", "synthesis", "generators", "fixtures")
SETUP_REPEATS = 5
ROUNDS = 5  # rounds over the quick queries of a pass, at most ...
ROUND_S = 0.2  # ... while a query's runs in the pass add up to less
END_TO_END = [
    ("setup_s", "s"),
    ("queries_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
]


def fresh_import():
    """Import every cfgame module anew, so each set-up pays the import."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    for name in [n for n in sys.modules if n.split(".")[0] == "cfgame"]:
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module("cfgame." + m) for m in MODULES})


def setup(cls, args, tracer=None):
    started = time.perf_counter()
    cf = fresh_import()
    if tracer is not None:
        tracer.install(cf)
    workload = cls(cf, args.seed, args.size, os.path.join(ROOT, ".perfbench-work"))
    workload.tracer = tracer
    queries = workload.queries()
    return workload, queries, time.perf_counter() - started


class Run:
    """Latencies and result summaries of every query attempted."""

    def __init__(self, workload, queries):
        self.workload = workload
        self.queries = queries
        self.latencies = [[] for _ in queries]  # per query, one per pass
        self.summaries = {}  # (query index, summary) -> times seen
        self.failed = 0
        self.reported = False

    def attempted(self):
        return sum(map(len, self.latencies))

    def one_pass(self, rounds=ROUNDS):
        """Run every query once, then, in up to rounds rounds in all, again
        each query whose runs in this pass add up to less than ROUND_S, so
        that a quick query's median rests on several samples taken at
        different times rather than on one."""
        spent = [0.0] * len(self.queries)
        todo = range(len(self.queries))
        started = time.perf_counter()
        for _ in range(rounds):
            for i in todo:
                spent[i] += self._attempt(i, self.queries[i])
            todo = [i for i in todo if spent[i] < ROUND_S]
        return time.perf_counter() - started

    def _attempt(self, i, query):
        """Run the query once, record its latency and result summary."""
        result = error = None
        t0 = time.perf_counter()
        try:
            result = self.workload.run(query)
        except workloads.QueryTimeout:
            error = "over the %.0f s limit" % self.workload.limit_s
        except Exception:
            error = "raised\n" + traceback.format_exc()
        elapsed = time.perf_counter() - t0
        self.latencies[i].append(elapsed)
        if error is None:
            try:
                key = (i, query.summarize(result))
            except Exception:
                error = "unreadable result\n" + traceback.format_exc()
            else:
                self.summaries[key] = self.summaries.get(key, 0) + 1
        if error is not None:
            self._fail("%s: %s" % (query.label, error))
        return elapsed

    def warm_up(self):
        """Run the workload's warm-up queries once each, untimed."""
        for i, query in enumerate(self.queries[:self.workload.warmup]):
            self._attempt(i, query)
        self.latencies = [[] for _ in self.queries]

    def _fail(self, message):
        self.failed += 1
        if not self.reported:
            self.reported = True
            print("first failure: " + message, file=sys.stderr)

    def check(self):
        """Check each distinct summary once; count every wrong result."""
        for (i, summary), seen in self.summaries.items():
            query = self.queries[i]
            try:
                ok = query.check(summary)
            except Exception:
                ok = False
            if not ok:
                self._fail("%s: wrong result %r" % (query.label, summary))
                self.failed += seen - 1


def tail(samples):
    """Highest percentile with at least ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def environment():
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "cfgame")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except OSError:
        commit = None
    return {
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "commit": commit,
        "source_sha256": digest.hexdigest()[:16],
        "loadavg_1m": os.getloadavg()[0],
    }


def untraced(cls, args):
    times = []
    for _ in range(SETUP_REPEATS):
        workload, queries, seconds = setup(cls, args)
        times.append(seconds)
    run = Run(workload, queries)
    run.warm_up()
    started = time.perf_counter()
    while True:
        run.one_pass()
        if time.perf_counter() - started >= args.seconds:
            break
    run.check()
    attempted = run.attempted()
    # a query's latency is the median of its runs; percentiles are taken
    # over the distinct queries, so their number does not depend on speed
    per_query = [statistics.median(l) for l in run.latencies if l]
    value, pct = tail(per_query)
    metrics = {
        "setup_s": statistics.median(times),
        "queries_per_s": len(per_query) / sum(per_query),
        "latency_p50_ms": 1000 * statistics.median(per_query),
        "latency_tail_ms": 1000 * value,
        "peak_rss_mb": resource.getrusage(workload.rusage).ru_maxrss / 1024.0,
    }
    notes = "tail is p%.1f of %d queries, %d samples; failed_frac %.4f" % (
        pct, len(per_query), attempted, run.failed / attempted)
    workload.close()
    metrics = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}
    return attempted, run.failed, metrics, notes


def traced(cls, args):
    workload, queries, _ = setup(cls, args)
    run = Run(workload, queries)
    run.warm_up()
    plain = []
    while not plain or sum(plain) < args.seconds / 2:
        plain.append(run.one_pass(rounds=1))
    run.check()
    plain_attempted, plain_failed = run.attempted(), run.failed

    tracer = tracing.Tracer()
    workload, queries, _ = setup(cls, args, tracer)
    run = Run(workload, queries)
    run.warm_up()
    first_span = len(tracer.spans)
    pass_s = run.one_pass(rounds=1)
    run.check()
    extra = {
        "trace.untraced_pass_s": statistics.median(plain),
        "trace.traced_pass_s": pass_s,
        "trace.overhead_s": pass_s - statistics.median(plain),
        "trace.covered_frac": tracer.root_time(first_span) / pass_s,
    }
    notes = "%d spans; per-layer figures cover one traced set-up, warm-up and pass" % len(tracer.spans)
    workload.close()
    attempted = plain_attempted + run.attempted()
    return attempted, plain_failed + run.failed, tracing.layer_metrics(tracer, extra), notes


def run_one(args):
    if not os.path.isdir(os.path.join(SRC, "cfgame")):
        sys.exit("no cfgame package under %s" % SRC)
    cls = workloads.WORKLOADS[args.workload]
    print("env " + json.dumps(environment(), sort_keys=True), flush=True)
    attempted, failed, metrics, notes = (traced if args.trace else untraced)(cls, args)
    print("%s seed %d trace %d: %d attempted, %d failed; %s"
          % (args.workload, args.seed, args.trace, attempted, failed, notes))
    for name, metric in metrics.items():
        print("  %-45s %14.6g %s" % (name, metric["value"], metric["unit"]))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))


def run_all(args):
    """Each workload in its own process, so peak RSS is its own."""
    results = {}
    for name in workloads.WORKLOADS:
        command = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(command, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            sys.exit("workload %s exited with %d" % (name, proc.returncode))
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            "%s.%s" % (w, m): v for w, r in results.items() for m, v in r["metrics"].items()
        },
    }))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every query list, for the smoke test")
    args = parser.parse_args(argv)
    (run_all if args.workload == "all" else run_one)(args)


if __name__ == "__main__":
    main()
