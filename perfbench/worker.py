"""One benchmark process: set up a workload, then time or trace it.

Started by ``run.py`` with ``src`` on ``PYTHONPATH``.  It imports the
package, generates the inputs, prints ``ready`` and, with ``--role setup``,
exits there: the parent times process start to ``ready`` as the set-up time.
With ``--role run`` it goes on to measure and prints one JSON result line.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
import traceback

import numpy as np
import scipy

import tracing
import workloads

# percentile reported as the tail of per-operation time: the highest one
# that keeps at least ten samples beyond it at the default run length
TAIL_PERCENTILE = {"cli": 75, "density": 90, "montecarlo": 90, "algebra": 90}

# workload-specific names of the end-to-end metrics: (name, scale) where the
# value is the generic metric times scale
NAMED = {
    "cli": {"op_p50_ms": ("cli.wall_p50_s", 1e-3),
            "op_tail_ms": ("cli.wall_p75_s", 1e-3)},
    "density": {"op_p50_ms": ("density.table_p50_s", 1e-3),
                "op_tail_ms": ("density.table_p90_s", 1e-3),
                "work_per_s": ("density.points_per_s", 1.0)},
    "montecarlo": {"op_p50_ms": ("mc.verify_p50_s", 1e-3),
                   "op_tail_ms": ("mc.verify_p90_s", 1e-3),
                   "work_per_s": ("mc.moment_evals_per_s", 1.0)},
    "algebra": {"op_p50_ms": ("algebra.query_p50_ms", 1.0),
                "op_tail_ms": ("algebra.query_p90_ms", 1.0),
                "work_per_s": ("algebra.queries_per_s", 1.0)},
}

TRACE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


def percentile(values, p):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def machine() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model,
            "python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__}


def guarded(runner):
    """The runner, reporting an operation that raises as a wrong answer."""
    def run(op):
        try:
            return runner(op)
        except Exception:  # the loop must go on; the failure is counted
            traceback.print_exc()
            return None
    return run


def run_decks(decks, seconds, run_one):
    """Call ``run_one(op)`` over whole decks, cycling, for about ``seconds``.

    Another deck starts only while it is expected to end less than half a
    deck past ``seconds``, so a run covers whole decks (the same mix of
    inputs whatever the machine's speed) and lasts ``seconds`` on average.
    At least one deck runs.
    """
    start = time.perf_counter()
    done = 0
    while True:
        for op in decks[done % len(decks)]:
            run_one(op)
        done += 1
        elapsed = time.perf_counter() - start
        if elapsed * (1 + 0.5 / done) >= seconds:
            return


def measure(workload, decks, seconds) -> dict:
    """Untraced run: end-to-end metrics and the checked answer count.

    Each answer is scored right after its operation, outside the timed
    region, and dropped, so memory and garbage-collection work do not grow
    with the number of operations.
    """
    runner = guarded(workloads.make_runner(workload))
    times, scores = [], []
    failed = 0

    def run_one(op):
        nonlocal failed
        t0 = time.perf_counter()
        answer = runner(op)
        times.append(time.perf_counter() - t0)
        scores.append(workloads.score(workload, op, answer))
        failed += scores[-1] != op.work

    run_decks(decks, seconds, run_one)
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    tail = TAIL_PERCENTILE[workload]
    metrics = {
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
        "op_p50_ms": statistics.median(times) * 1e3,
        "op_tail_ms": percentile(times, tail) * 1e3,
        "work_per_s": sum(scores) / sum(times),
    }
    named = {name: metrics[k] * scale
             for k, (name, scale) in NAMED[workload].items()}
    return {"attempted": len(times), "failed": failed, "metrics": metrics,
            "named": named, "samples": len(times), "tail_percentile": tail,
            "beyond_tail": sum(t * 1e3 > metrics["op_tail_ms"] for t in times)}


def trace(workload, decks, seconds, out_path=None) -> dict:
    """Traced run: per-layer metrics, and the tracing overhead.

    Every operation runs twice in a row, once untraced and once traced, in
    alternating order, over whole decks for about ``seconds``.  Both runs
    happen in this process (CLI commands through ``cli.main``) and must give
    identical, correct answers.  The overhead is traced time over untraced
    time, minus one.
    """
    runner = guarded(workloads.make_runner(workload, inprocess=True))
    tracer = tracing.Tracer()
    spent = {False: 0.0, True: 0.0}
    n = failed = 0

    def run_one(op):
        nonlocal n, failed
        answers = {}
        for traced in ((False, True) if n % 2 == 0 else (True, False)):
            if traced:
                tracer.install()
            t0 = time.perf_counter()
            answers[traced] = tracer.op(n, runner, op) if traced else runner(op)
            spent[traced] += time.perf_counter() - t0
            if traced:
                tracer.uninstall()
        failed += not (workloads.check(workload, op, answers[True])
                       and workloads.same_answer(answers[True], answers[False]))
        n += 1

    run_decks(decks, seconds, run_one)
    metrics = tracer.metrics()
    metrics["trace.overhead_ratio"] = spent[True] / spent[False] - 1
    metrics["trace.ops"] = n
    metrics.update(tracing.import_metrics(workloads.cli_env()))
    if out_path:
        tracer.dump(out_path)
    return {"attempted": 2 * n, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--role", choices=("setup", "run"), required=True)
    args = p.parse_args(argv)

    decks = workloads.generate(args.workload, args.seed)
    # the inputs live for the whole run: keep the collector from rescanning
    # them, as it would not in a program that holds only its own data
    gc.freeze()
    print("ready", flush=True)
    if args.role == "setup":
        return 0
    if args.trace:
        os.makedirs(TRACE_DIR, exist_ok=True)
        path = os.path.join(TRACE_DIR,
                            f"spans-{args.workload}-{args.seed}.jsonl")
        result = trace(args.workload, decks, args.seconds, path)
    else:
        result = measure(args.workload, decks, args.seconds)
    result["machine"] = machine()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
