"""Benchmark of the gammatype library and CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1]

For each workload it starts ``SETUPS`` fresh worker processes one after the
other and times each from process start to ``ready`` (import, entry
building, input generation); the median is ``setup_s``.  The last worker
then measures for ``--seconds`` and reports.  With ``--trace 1`` the worker
reports per-layer metrics instead of end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the details for each workload (machine, sample counts, the
workload-specific metric names).  The exit code is 0 only when every
worker ran; a wrong answer is reported as ``correct: false``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKER = os.path.join(ROOT, "perfbench", "worker.py")
WORKLOADS = ("cli", "density", "montecarlo", "algebra")
SETUPS = 5
DEFAULT_SECONDS = 45
WORKER_TIMEOUT = 150  # seconds one worker may take at most


def unit_of(name: str) -> str:
    """Unit of a metric, read from its name's suffix."""
    for suffix, unit in (("_per_s", "1/s"), ("_mb", "MiB"), ("_ms", "ms"),
                         ("_s", "s"), (".ns_per_call", "ns")):
        if name.endswith(suffix):
            return unit
    if name.endswith((".calls", ".values_drawn", ".ops")):
        return "count"
    return "ratio"


def _worker_env():
    src = os.path.join(ROOT, "src")
    old = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + old if old else ""))


def _start(args, workload, role):
    cmd = [sys.executable, WORKER, "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--role", role]
    return subprocess.Popen(cmd, cwd=ROOT, env=_worker_env(),
                            stdout=subprocess.PIPE, text=True)


def _finish(proc):
    """Wait for a worker, killing it if it overruns; return its stdout."""
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return out


def run_workload(args, workload) -> dict:
    setups = []
    result = None
    for i in range(SETUPS):
        role = "run" if i == SETUPS - 1 else "setup"
        t0 = time.perf_counter()
        proc = _start(args, workload, role)
        line = proc.stdout.readline()
        setups.append(time.perf_counter() - t0)
        out = _finish(proc)
        if line.strip() != "ready":
            raise RuntimeError("worker did not become ready")
        if role == "run":
            result = json.loads(out.strip().splitlines()[-1])
    if not args.trace:
        result["metrics"]["setup_s"] = statistics.median(setups)
        result["setup_samples"] = setups
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "gammatype", "cli.py")):
        print("perfbench: no gammatype sources under src/", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    details, metrics = {}, {}
    attempted = failed = 0
    for name in names:
        try:
            result = run_workload(args, name)
        except (RuntimeError, ValueError, subprocess.TimeoutExpired) as exc:
            print(f"perfbench: {name}: {exc}", file=sys.stderr)
            return 1
        attempted += result.pop("attempted")
        failed += result.pop("failed")
        values = result.pop("metrics")
        details[name] = result
        if len(names) == 1:
            chosen = values
        elif args.trace:
            # one run of every workload: per-layer names get a prefix
            chosen = {f"{name}/{k}": v for k, v in values.items()}
        else:
            # one run of every workload: the workload-specific names
            chosen = dict(result["named"],
                          **{f"{name}.{k}": values[k]
                             for k in ("setup_s", "peak_rss_mb")})
        metrics.update(chosen)

    print(json.dumps({"workloads": details, "seed": args.seed,
                      "seconds": args.seconds, "trace": args.trace}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
