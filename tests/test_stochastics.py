"""Sampling determinism, recipe correctness, and the MC harness."""

import math
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from gammatype import catalog, recipes as rc, stochastics
from gammatype.errors import MomentRangeError, ValidationError
from gammatype.stochastics import (
    MCEstimate, evaluate_recipe, harmonic_drift, mc_moment, sample,
    verify_entry,
)


# --------------------------------------------------------------- determinism

def test_same_seed_same_stream():
    r = catalog.build("rayleigh", {}).recipe
    a = sample(r, 1000, seed=11)
    b = sample(r, 1000, seed=11)
    assert np.array_equal(a, b)
    c = sample(r, 1000, seed=12)
    assert not np.array_equal(a, c)


def test_leaves_get_independent_substreams():
    # product of two exponentials must not reuse one stream
    r = rc.Product((rc.exponential(), rc.exponential()))
    x = sample(r, 50_000, seed=9)
    single = sample(rc.exponential(), 50_000, seed=9)
    assert not np.allclose(x, single ** 2)


def test_every_leaf_law_has_a_draw():
    # recipes checks each law's arity, stochastics draws it: one law list
    assert set(stochastics._LEAF_DRAWS) == set(rc.LEAF_ARITY)
    for law, arity in rc.LEAF_ARITY.items():
        x = sample(rc.Leaf(law, (0.5,) * arity), 5, seed=1)
        assert x.shape == (5,) and np.isfinite(x).all(), law


# ------------------------------------------------------------ leaf anchors

def test_exponential_mean():
    x = sample(rc.exponential(), 10 ** 6, seed=1)
    stderr = x.std() / 1000.0
    assert abs(x.mean() - 1.0) < 5 * stderr


def test_max_exp_mean_is_harmonic_number():
    entry = catalog.build("max_exp", {"n": 5})
    x = sample(entry.recipe, 10 ** 6, seed=2)
    h5 = 137.0 / 60.0
    assert abs(x.mean() - h5) < 5 * x.std() / 1000.0


def test_positive_stable_laplace_transform():
    x = sample(rc.positive_stable(0.7), 400_000, seed=3)
    for t in (0.5, 1.0, 2.0):
        vals = np.exp(-t * x)
        target = math.exp(-t ** 0.7)
        assert abs(vals.mean() - target) < 5 * vals.std() / math.sqrt(len(x))


def test_symmetric_stable_char_function():
    x = sample(rc.symmetric_stable(1.5), 400_000, seed=4)
    for t in (0.5, 1.5):
        vals = np.cos(t * x)
        target = math.exp(-abs(t) ** 1.5)
        assert abs(vals.mean() - target) < 5 * vals.std() / math.sqrt(len(x))


def test_abs_node_does_not_overflow():
    # squaring a heavy-tailed draw overflows where |x| does not
    entry = catalog.build("symmetric_stable", {"alpha": 0.02})
    x = sample(entry.recipe, 10 ** 6, seed=0)
    raw = sample(rc.symmetric_stable(0.02), 10 ** 6, seed=0)
    assert np.array_equal(x, np.abs(raw))


# ------------------------------------------------------ distributional checks

def test_gumbel_symmetrization_is_logistic():
    gum = catalog.build("gumbel", {}).recipe
    n = 10 ** 5
    w = sample(gum, n, seed=21)
    w2 = sample(gum, n, seed=22)
    logi = sample(catalog.build("logistic", {}).recipe, n, seed=23)
    stat = stats.ks_2samp(w - w2, logi)
    assert stat.pvalue > 0.01


def test_neg_log_partial_sums_are_gamma():
    m = 3
    wm = sample(catalog.build("mth_gumbel", {"m": m}).recipe, 10 ** 5, seed=31)
    g = sample(rc.gamma(m), 10 ** 5, seed=32)
    stat = stats.ks_2samp(np.exp(-wm), g)
    assert stat.pvalue > 0.01


def test_stirling_blocks_draws_no_zeros():
    # a gamma leaf of shape (i+2)/k can underflow to an exact 0 (about 0.8%
    # of the values at k = 300); the recipe has no shape below 1
    recipe = catalog.build("stirling_blocks", {"k": 300}).recipe
    assert (sample(recipe, 10 ** 4, seed=0) > 0).all()


def test_truncated_symmetrized_series_approaches_logistic():
    # sum_{j<=J} (T_j - T'_j)/j with a large cutoff behaves like logistic
    rng = np.random.default_rng(77)
    n, big_j = 10 ** 4, 10 ** 4
    js = np.arange(1, big_j + 1)
    total = np.zeros(n)
    block = 500
    for start in range(0, big_j, block):
        w = js[start:start + block]
        diff = (rng.standard_exponential((n, len(w)))
                - rng.standard_exponential((n, len(w))))
        total += diff @ (1.0 / w)
    logi = sample(catalog.build("logistic", {}).recipe, n, seed=41)
    stat = stats.ks_2samp(total, logi)
    assert stat.pvalue > 0.01


# ----------------------------------------------------------------- mc_moment

def _exact_mean_and_stderr(entry, s, n, seed):
    """math.fsum mean of X^s (e^{sX} for an MGF) and its standard error."""
    x = sample(entry.recipe, n, seed=seed)
    vals = (np.exp(s * x) if entry.kind == "mgf" else np.abs(x) ** s).tolist()
    mean = math.fsum(vals) / n
    var = math.fsum((v - mean) ** 2 for v in vals) / (n - 1)
    return mean, math.sqrt(var / n)


@pytest.mark.parametrize("name,params,s", [
    ("symmetric_stable", {"alpha": 1.5}, 0.0),
    ("symmetric_stable", {"alpha": 1.5}, 0.5),
    ("symmetric_stable", {"alpha": 1.5}, -0.3),
    ("gamma", {"a": 2.0}, 2.0),
    ("max_exp", {"n": 3}, 0.7),
])
def test_in_place_estimator_matches_mean_and_std(name, params, s):
    # the chunk-by-chunk fold against an exact sum over the whole sample:
    # one short chunk, a full one plus one value, and a ragged third chunk
    entry = catalog.build(name, params)
    for n in (2, stochastics.CHUNK_SIZE + 1, 3 * stochastics.CHUNK_SIZE - 7):
        mean, stderr = _exact_mean_and_stderr(entry, s, n, seed=2)
        est = mc_moment(entry, s, n=n, seed=2)
        assert est.mean == pytest.approx(mean, rel=1e-12, abs=0.0), n
        assert est.stderr == pytest.approx(stderr, rel=1e-12, abs=0.0), n


def test_zeroth_moment_is_one_whatever_the_draws():
    # log|x| is -inf at 0 and inf at inf, and 0 * inf is nan; x ** 0.0 is 1
    entry = catalog.build("symmetric_stable", {"alpha": 0.01})
    entry = replace(entry, recipe=rc.Product((rc.gamma(1e-3), entry.recipe)))
    n = 2 * stochastics.CHUNK_SIZE
    x = sample(entry.recipe, n, seed=1)
    assert (x == 0).any() and np.isinf(x).any()
    point = verify_entry(entry, [0.0], n=n, seed=1).points[0]
    assert (point.estimate, point.stderr, point.z) == (1.0, 0.0, 0.0)


def test_an_infinite_draw_keeps_the_estimate_infinite():
    # at seed 4 one draw of the second chunk overflows; the third chunk's
    # merge must not turn the infinite mean into nan
    entry = catalog.build("symmetric_stable", {"alpha": 0.02})
    n = 3 * stochastics.CHUNK_SIZE
    x = sample(entry.recipe, n, seed=4)
    assert np.isinf(x[stochastics.CHUNK_SIZE:2 * stochastics.CHUNK_SIZE]).any()
    report = verify_entry(entry, [0.005, 0.009], n=n, seed=4)
    assert all(p.estimate == math.inf and math.isnan(p.z) and not p.passed
               for p in report.points)


def test_point_mass_has_zero_stderr():
    entry = catalog.build("beta_product", {"a": 1, "b": 0, "c": 1, "d": 0})
    assert entry.recipe == rc.Power(rc.uniform(), 0.0)
    report = verify_entry(entry, [-1.0, 0.5, 3.0],
                          n=2 * stochastics.CHUNK_SIZE + 5, seed=3)
    assert all((p.estimate, p.stderr, p.z) == (1.0, 0.0, 0.0)
               for p in report.points)
    assert report.passed


def test_mc_moment_matches_exact():
    entry = catalog.build("ball_distance", {"n": 3, "a": 0.5})
    est = mc_moment(entry, 1.0, n=10 ** 6, seed=6)
    assert est.ci_valid
    assert abs(est.mean - 18.0 / 35.0) < 5 * est.stderr


def test_mc_moment_outside_strip_refuses():
    entry = catalog.build("half_cauchy", {})
    with pytest.raises(MomentRangeError):
        mc_moment(entry, 1.5, n=100)


def test_mc_moment_flags_infinite_variance():
    entry = catalog.build("half_cauchy", {})
    est = mc_moment(entry, 0.8, n=10 ** 4, seed=7)
    assert not est.ci_valid


def test_mc_moment_requires_recipe():
    entry = catalog.build("tilted_stable", {"alpha": 0.5, "theta": 1.0})
    with pytest.raises(ValidationError):
        mc_moment(entry, 0.5, n=100)


def test_verify_entry_report(monkeypatch):
    entry = catalog.build("gamma", {"a": 2.0})
    draws = []

    def counting_evaluate(recipe, rngs, n):
        if recipe is entry.recipe:
            draws.append(n)
        return evaluate_recipe(recipe, rngs, n)

    monkeypatch.setattr(stochastics, "evaluate_recipe", counting_evaluate)
    report = verify_entry(entry, [0.5, 1.0, 2.0], n=200_000, seed=8)
    # each chunk is drawn once, for the whole grid
    chunk = stochastics.CHUNK_SIZE
    assert draws == [chunk] * 3 + [200_000 - 3 * chunk]
    assert report.passed
    data = report.to_json_dict()
    assert data["entry"] == "gamma"
    assert [p["s"] for p in data["points"]] == [0.5, 1.0, 2.0]
    assert all(p["ci_valid"] for p in data["points"])
    for p in report.points:
        assert mc_moment(entry, p.s, n=200_000, seed=8) == MCEstimate(
            p.estimate, p.stderr, 200_000, p.s, p.ci_valid)
    draws.clear()
    with pytest.raises(MomentRangeError):
        verify_entry(entry, [0.5, -3.0, 1.0], n=200_000, seed=8)
    assert draws == []


@pytest.mark.parametrize("name,params", [("rayleigh", {}),
                                         ("linnik", {"alpha": 1.5})])
def test_verify_entry_memory_does_not_grow_with_n(name, params):
    # numpy reports its buffers to tracemalloc; one sample of 1e6 draws
    # alone would take 7.6 MiB, and 16 MiB at 2**21
    entry = catalog.build(name, params)
    mib = 1 << 20
    peaks = {}
    for n in (1 << 17, 10 ** 6, 1 << 21):
        tracemalloc.start()
        try:
            verify_entry(entry, None, n=n, seed=1)
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[10 ** 6] < 8 * mib
    # 2**21 draws held at once would add 14 MiB
    assert peaks[1 << 21] < peaks[1 << 17] + 4 * mib


def test_verify_entry_fails_points_without_a_finite_estimate():
    # the draws overflow to inf, so mean and stderr are inf and nan
    entry = catalog.build("symmetric_stable", {"alpha": 0.02})
    with np.errstate(over="ignore", invalid="ignore"):
        report = verify_entry(entry, [0.005, 0.009], n=10 ** 6, seed=0)
    assert all(p.ci_valid and not p.passed and math.isnan(p.z)
               for p in report.points)
    assert not report.passed


@pytest.mark.parametrize("threads", [None, 2])
def test_overflowing_draws_raise_no_numpy_warning(threads):
    # at seed 4 one draw of the second chunk overflows to inf; each chunk
    # sets its own error state, so a caller's thread pool (numpy keeps that
    # state per thread) must stay as quiet as the main thread
    entry = catalog.build("symmetric_stable", {"alpha": 0.02})
    n = 2 * stochastics.CHUNK_SIZE

    def run():
        x = sample(entry.recipe, n, seed=4)
        return x, verify_entry(entry, [0.005, 0.009], n=n, seed=4)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if threads is None:
            results = [run()]
        else:
            with ThreadPoolExecutor(threads) as pool:
                futures = [pool.submit(run) for _ in range(threads)]
                results = [f.result() for f in futures]
    for x, report in results:
        assert not np.isfinite(x).all()
        assert all(math.isnan(p.z) and not p.passed for p in report.points)
        assert np.array_equal(x, results[0][0], equal_nan=True)


def test_verify_entry_excludes_invalid_ci_from_verdict():
    entry = catalog.build("max_exp", {"n": 5})
    report = verify_entry(entry, [-1.0, 0.5], n=200_000, seed=9)
    flags = {p.s: p.ci_valid for p in report.points}
    assert flags[-1.0] and not flags[0.5]
    assert report.passed


# --------------------------------------------------------------- Euler drift

def test_harmonic_drift_start_and_limit():
    table = harmonic_drift(10 ** 6)
    assert table[0, 1] == 1.0
    euler = 0.5772156649015329
    assert abs(table[-1, 1] - (euler + 0.5e-6)) < 1e-9
