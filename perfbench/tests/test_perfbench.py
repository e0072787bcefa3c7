"""Tests of the benchmark harness: seeded inputs, tracing, metric names.

Run from the root of the repository:

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)

# the end-to-end metrics under their workload-specific names
NAMED_METRICS = {
    "cli": {"cli.wall_p50_s", "cli.wall_p75_s"},
    "density": {"density.table_p50_s", "density.table_p90_s",
                "density.points_per_s"},
    "montecarlo": {"mc.verify_p50_s", "mc.verify_p90_s",
                   "mc.moment_evals_per_s"},
    "algebra": {"algebra.query_p50_ms", "algebra.query_p90_ms",
                "algebra.queries_per_s"},
}


def describe(op):
    """Plain-data view of an operation's inputs."""
    def plain(x):
        if hasattr(x, "form"):       # a catalog entry
            return [x.name, x.params]
        if hasattr(x, "to_json_dict"):
            return x.to_json_dict()
        if isinstance(x, np.ndarray):
            return x.tolist()
        if isinstance(x, (list, tuple)):
            return [plain(v) for v in x]
        return x
    return [op.kind, plain(op.args), plain(op.expect), op.work]


def cheap_ops(workload, count):
    """The first operations of seed 3 that run in milliseconds."""
    ops = [op for deck in workloads.generate(workload, 3) for op in deck]
    keep = {"cli": lambda op: op.kind in ("list", "strip", "moment",
                                          "check-identity"),
            "density": lambda op: op.work == 1,
            "montecarlo": lambda op: op.args[2] == 10 ** 5,
            "algebra": lambda op: True}[workload]
    return [op for op in ops if keep(op)][:count]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_same_inputs(workload):
    def inputs(seed):
        return [[describe(op) for op in deck]
                for deck in workloads.generate(workload, seed)]
    first = inputs(11)
    assert first == inputs(11)
    assert first != inputs(12)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_deck_has_the_same_mix(workload):
    def mix(deck):
        return sorted((op.kind, op.work, getattr(op.args[0], "name", None))
                      for op in deck)
    decks = workloads.generate(workload, 5)
    assert all(mix(deck) == mix(decks[0]) for deck in decks)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_and_untraced_answers_match(workload):
    ops = cheap_ops(workload, 4)
    runner = workloads.make_runner(workload, inprocess=True)
    plain = [runner(op) for op in ops]
    with tracing.Tracer() as tracer:
        traced = [tracer.op(i, runner, op) for i, op in enumerate(ops)]
    for op, a, b in zip(ops, plain, traced):
        assert workloads.same_answer(a, b)
        assert workloads.check(workload, op, b)
    assert sum(tracer.calls.values()) > 0
    if workload == "cli":
        # the untraced benchmark runs the CLI in a fresh interpreter
        fresh = workloads.make_runner("cli")
        assert fresh(ops[0]) == plain[0]


def test_tracer_restores_bindings():
    import gammatype.forms as forms
    original = forms.log_gamma
    with tracing.Tracer():
        assert forms.log_gamma is not original
    assert forms.log_gamma is original


def test_end_to_end_metrics_have_names_and_units():
    out = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload",
         "algebra", "--seed", "1", "--seconds", "0.3", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True).stdout
    result = json.loads(out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_workload_reports_its_named_metrics(workload):
    result = worker.measure(workload, [cheap_ops(workload, 1)], 0.0)
    assert result["failed"] == 0
    assert set(result["named"]) == NAMED_METRICS[workload]
    generic = {m["name"] for m in SPEC["end_to_end"]} - {"setup_s"}
    assert set(result["metrics"]) == generic


def test_per_layer_metrics_have_names_and_units():
    result = worker.trace("algebra", [cheap_ops("algebra", 20)], 0.05)
    assert result["failed"] == 0
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    got = {k: run.unit_of(k) for k in result["metrics"]}
    assert got == want
    assert result["metrics"]["forms.moments_equal.calls"] > 0


def test_benchmark_spec_matches_harness():
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert SPEC["run_seconds"] == run.DEFAULT_SECONDS
    # BENCHMARK.json gates a subset; the others run the same way ungated
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)
    assert tuple(run.WORKLOADS) == workloads.WORKLOADS


def _self_share(workload, ops, layer):
    runner = workloads.make_runner(workload, inprocess=True)
    with tracing.Tracer() as tracer:
        for i, op in enumerate(ops):
            tracer.op(i, runner, op)
    wall = sum(d for _, d in tracer.coverage)
    return tracer.self_s[layer] / wall


def test_layer_predictions_hold():
    density = cheap_ops("density", 3)
    mc = cheap_ops("montecarlo", 3)
    assert _self_share("density", density, "specfun.log_gamma") > 0.25
    assert _self_share("montecarlo", mc, "specfun.log_gamma") < 0.02
    assert _self_share("montecarlo", mc, "recipes.evaluate_recipe") > 0.4
    assert _self_share("density", density, "recipes.evaluate_recipe") == 0.0
