"""Sampling determinism, recipe correctness, and the MC harness."""

import hashlib
import itertools
import math
import os
import sys
import threading
import time
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy import stats

from gammatype import catalog, recipes as rc, stochastics
from gammatype.errors import MomentRangeError, ValidationError
from gammatype.forms import make_form
from gammatype.stochastics import (
    MCEstimate, evaluate_recipe, harmonic_drift, mc_moment, sample,
    verify_entry,
)

from test_catalog import CASES


def _usable_cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(count)), raising=False)


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


# ------------------------------------------------------------------- threads

RECIPE_ENTRIES = [name for name, params in CASES.items()
                  if catalog.build(name, params).recipe is not None]


@pytest.mark.parametrize("name", RECIPE_ENTRIES)
def test_reports_and_draws_do_not_depend_on_the_thread_count(monkeypatch,
                                                              name):
    # one CPU draws on the caller's thread; eight draw on two threads
    entry = catalog.build(name, CASES[name])
    chunk = stochastics.CHUNK_SIZE
    runs = []
    for cpus in (1, 8):
        _usable_cpus(monkeypatch, cpus)
        runs.append([(sample(entry.recipe, n, seed=5).tobytes(),
                      verify_entry(entry, None, n=n, seed=5))
                     for n in (3, chunk + 1, 3 * chunk + 7)])
    assert runs[0] == runs[1]


@pytest.mark.parametrize("n", [
    stochastics.CHUNK_SIZE + 1, 10 ** 5, 10 ** 6,
    3 * stochastics.CHUNK_SIZE + 7, 1 << 21,
])
def test_chunk_lengths_differ_by_at_most_one(n):
    # the two threads draw pairs of chunks of one length, give or take one
    chunk = stochastics.CHUNK_SIZE
    lengths = [len(part)
               for part in stochastics.chunks(rc.exponential(), n, seed=1)]
    assert sum(lengths) == n
    assert len(lengths) == -(-n // chunk)
    assert max(lengths) - min(lengths) <= 1
    assert max(lengths) <= chunk


@pytest.mark.parametrize("cpus,n,threads", [
    (1, 5 * stochastics.CHUNK_SIZE, 0), (8, stochastics.CHUNK_SIZE, 0),
    (8, 5 * stochastics.CHUNK_SIZE, 1),
])
def test_threads_only_for_several_chunks_and_cpus(monkeypatch, cpus, n,
                                                  threads):
    _usable_cpus(monkeypatch, cpus)
    start = threading.active_count()
    parts = stochastics.chunks(rc.exponential(), n, seed=1)
    assert threading.active_count() == start  # nothing runs before next()
    next(parts)
    # the helper holds chunk 1, or draws it, until it is taken
    assert threading.active_count() == start + threads
    parts.close()
    assert threading.active_count() == start


def test_chunks_stay_in_order_under_rapid_thread_switches(monkeypatch):
    # a result handed over or taken out of turn would move a chunk
    chunk = stochastics.CHUNK_SIZE
    recipe = rc.Scale(rc.exponential(), 2.0)
    n = 40 * chunk + 3
    _usable_cpus(monkeypatch, 1)
    serial = sample(recipe, n, seed=2)
    _usable_cpus(monkeypatch, 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        start = time.monotonic()
        for _ in range(3):
            assert np.array_equal(sample(recipe, n, seed=2), serial)
        assert time.monotonic() - start < 60
    finally:
        sys.setswitchinterval(interval)


class _Boom(Exception):
    pass


@pytest.mark.parametrize("cpus", [1, 8])
@pytest.mark.parametrize("failing_chunk", [1, 2])
def test_a_failing_chunk_raises_its_own_error(monkeypatch, cpus,
                                              failing_chunk):
    # chunk 1 is drawn by the helper thread, chunk 2 by the caller's; each
    # is the last chunk, the only short one: of 32769 and 32768 draws, or
    # of 43692, 43692 and 43691
    _usable_cpus(monkeypatch, cpus)
    chunk = stochastics.CHUNK_SIZE
    n = {1: chunk + 1, 2: 2 * chunk + 3}[failing_chunk]
    short = n // (failing_chunk + 1)

    def failing(recipe, rngs, size):
        if size == short:  # the last chunk, the only short one
            raise _Boom
        return evaluate_recipe(recipe, rngs, size)

    monkeypatch.setattr(stochastics, "evaluate_recipe", failing)
    entry = catalog.build("gamma", {"a": 2.0})
    start = threading.active_count()
    with pytest.raises(_Boom):
        sample(entry.recipe, n, seed=1)
    assert threading.active_count() == start
    with pytest.raises(_Boom):
        verify_entry(entry, [0.5, 1.0], n=n, seed=1)
    assert threading.active_count() == start


def test_a_failing_chunk_on_the_caller_waits_for_the_helpers_chunk(
        monkeypatch):
    # chunk 0 fails on the caller's thread while the helper draws chunk 1
    _usable_cpus(monkeypatch, 8)
    caller_failed, helper_done = threading.Event(), threading.Event()

    def failing(recipe, rngs, size):
        if threading.current_thread() is threading.main_thread():
            caller_failed.set()
            raise _Boom
        caller_failed.wait(timeout=30)
        time.sleep(0.1)  # still drawing while the caller's error unwinds
        draws = evaluate_recipe(recipe, rngs, size)
        helper_done.set()
        return draws

    monkeypatch.setattr(stochastics, "evaluate_recipe", failing)
    start = threading.active_count()
    with pytest.raises(_Boom):
        sample(rc.exponential(), 2 * stochastics.CHUNK_SIZE, seed=1)
    assert helper_done.is_set()  # the helper ended its chunk and was joined
    assert threading.active_count() == start


# -------------------------------------------------------------- stable draws

def _half_angle_sin(x):
    t = np.tan(x / 2)
    return 2 * t / (1 + t * t)


def _half_angle_cos(x):
    return _half_angle_sin((np.pi / 2 - np.abs(x)) + 6.123233995736766e-17)


def _stable_formula(rng, alpha, size, lo, trig):
    # the draw written out of place, as one expression, with its sines and
    # cosines from tan(x/2)
    v = rng.uniform(lo, lo + np.pi, size)
    w = rng.standard_exponential(size)
    return (_half_angle_sin(alpha * v)
            * ((trig((1 - alpha) * v) / w) ** (1 - alpha) / trig(v))
            ** (1 / alpha))


def _symmetric_stable_formula(rng, alpha, size):
    return _stable_formula(rng, alpha, size, -np.pi / 2, _half_angle_cos)


def _positive_stable_formula(rng, alpha, size):
    if alpha == 1.0:
        return np.ones(size)
    return _stable_formula(rng, alpha, size, 0.0, _half_angle_sin)


STABLE_DRAWS = (
    [(stochastics._draw_symmetric_stable, _symmetric_stable_formula, alpha)
     for alpha in (0.5, 1.0, 1.5, 2.0)]
    + [(stochastics._draw_positive_stable, _positive_stable_formula, alpha)
       for alpha in (0.3, 0.7, 1.0)])


def _cms_reference(rng, alpha, size):
    # Chambers, Mallows & Stuck (1976) in their order of operations, which
    # raises cos(v) to 1/alpha on its own
    v = rng.uniform(-np.pi / 2, np.pi / 2, size)
    w = rng.standard_exponential(size)
    return (np.sin(alpha * v) / np.cos(v) ** (1 / alpha)
            * (np.cos((1 - alpha) * v) / w) ** ((1 - alpha) / alpha))


def _kanter_reference(rng, alpha, size):
    # Kanter (1975) in his order of operations, which raises the sines to
    # alpha/(1-alpha) and 1/(1-alpha) before it combines them
    theta = rng.uniform(0.0, np.pi, size)
    w = rng.standard_exponential(size)
    a = (np.sin(alpha * theta) ** (alpha / (1 - alpha))
         * np.sin((1 - alpha) * theta)
         / np.sin(theta) ** (1 / (1 - alpha)))
    return (a / w) ** ((1 - alpha) / alpha)


@pytest.mark.parametrize("draw,reference,alpha", (
    [(stochastics._draw_symmetric_stable, _cms_reference, alpha)
     for alpha in (0.05, 0.5, 1.5, 2.0)]
    + [(stochastics._draw_positive_stable, _kanter_reference, alpha)
       for alpha in (0.05, 0.3, 0.7, 0.95)]))
def test_stable_draws_are_the_published_constructions(draw, reference,
                                                      alpha):
    # the same law from the same uniform and exponential: the draws agree
    # wherever the published order of operations stays finite
    for seed in range(3):
        with np.errstate(all="ignore"):
            x = draw(np.random.default_rng((seed, 0, 0)), alpha,
                     stochastics.CHUNK_SIZE)
            ref = reference(np.random.default_rng((seed, 0, 0)), alpha,
                            stochastics.CHUNK_SIZE)
        finite = np.isfinite(ref)
        assert finite.mean() > 0.99
        assert np.allclose(x[finite], ref[finite], rtol=1e-12, atol=0)


@pytest.mark.parametrize("alpha", [0.99, 0.999, 0.99999])
def test_one_sided_draws_near_alpha_one_are_positive_and_finite(alpha):
    # _kanter_reference gives nan, inf or 0 here: its sines, raised to
    # alpha/(1-alpha) and 1/(1-alpha) on their own, underflow or overflow
    x = sample(rc.positive_stable(alpha), 10 ** 6, seed=1)
    assert np.isfinite(x).all() and (x > 0).all()


@pytest.mark.parametrize("name,params", [
    ("positive_stable", {"alpha": 0.999}),
    ("lamperti", {"alpha": 0.995}),
    ("kotz_ostrovskii", {"alpha": 1.99, "beta": 2.0}),
])
def test_one_sided_laws_near_alpha_one_pass_verification(name, params):
    assert verify_entry(catalog.build(name, params), n=10 ** 6, seed=1).passed


@pytest.mark.parametrize("draw,formula,alpha", STABLE_DRAWS)
def test_stable_draws_are_their_formula_bit_for_bit(draw, formula, alpha):
    # the in-place ufuncs run in the formula's order, with its scalar-power
    # fast paths (** 0.5 at alpha = 2); both run on this machine's numpy,
    # whose tan may differ in the last bit from another's
    digests = set()
    for f in (draw, formula):
        for seed in range(3):
            rng = np.random.default_rng((seed, 0, 0))
            x = f(rng, alpha, stochastics.CHUNK_SIZE + seed)
            digests.add((seed, hashlib.sha256(x.tobytes()).hexdigest()))
    assert len(digests) == 3


def test_half_angle_sine_and_cosine_are_within_four_ulp_of_libm():
    rng = np.random.default_rng(7)
    near = rng.uniform(0.0, 1e-12, 10 ** 4)  # the ends, where tan(x/2) grows
    for helper, libm, end in ((stochastics._sin_in_place, np.sin, np.pi),
                              (stochastics._cos_in_place, np.cos, np.pi / 2)):
        x = np.concatenate([rng.uniform(-end, end, 10 ** 5),
                            end - near, near - end, [-0.0, 0.0]])
        got, want = helper(x.copy()), libm(x)
        assert (np.abs(got - want) <= 4 * np.spacing(np.abs(want))).all()
    sines = stochastics._sin_in_place(np.array([0.0, -0.0]))
    assert (sines == 0).all() and list(np.signbit(sines)) == [False, True]
    assert (stochastics._cos_in_place(np.array([0.0, -0.0])) == 1.0).all()


# the CASES entries whose recipe holds a stable leaf
STABLE_CASES = [(name, CASES[name]) for name in (
    "positive_stable", "ise_density_zero", "symmetric_stable", "lamperti",
    "lamperti_power", "kotz_ostrovskii", "linnik")]


@pytest.mark.parametrize("name,params", STABLE_CASES)
def test_recipes_with_a_stable_leaf_pass_verification(name, params):
    assert verify_entry(catalog.build(name, params), n=10 ** 6, seed=1).passed


@pytest.mark.parametrize("draw,formula,alpha", STABLE_DRAWS)
def test_stable_draws_peak_within_four_chunk_buffers(draw, formula, alpha):
    # a chunk in flight costs this much on each thread; the formula's
    # temporaries peak at five buffers of 512 KiB
    tracemalloc.start()
    try:
        draw(np.random.default_rng(1), alpha, stochastics.CHUNK_SIZE)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * stochastics.CHUNK_SIZE * 8


# ---------------------------------------------------------- gamma and beta

ERLANG_SHAPES = range(1, stochastics.ERLANG_MAX_SHAPE + 1)
ERLANG_BETAS = [(2.0, 3.0), (1.0, 3.0), (4.0, 1.0)]


def _erlang_formula(rng, k, size):
    # -log prod_j (1 - U_j), one whole uniform array after another
    x = 1 - rng.random(size)
    for _ in range(int(k) - 1):
        x = x * (1 - rng.random(size))
    return -np.log(x)


def _erlang_beta_formula(rng, a, b, size):
    g = _erlang_formula(rng, a, size)
    return g / (g + _erlang_formula(rng, b, size))


@pytest.mark.parametrize("draw,formula,args", (
    [(stochastics._draw_gamma, _erlang_formula, (float(k),))
     for k in ERLANG_SHAPES]
    + [(stochastics._draw_beta, _erlang_beta_formula, ab)
       for ab in ERLANG_BETAS]))
@pytest.mark.parametrize("size", [1, stochastics.CHUNK_SIZE + 5, (20001, 3)])
def test_erlang_draws_are_their_formula_bit_for_bit(draw, formula, args, size):
    # the blocks of the scratch array take the formula's uniforms in its
    # order, and a discriminant's (n, m) draw is one flat run of them
    digests = set()
    for f in (draw, formula):
        for seed in range(2):
            x = f(np.random.default_rng((seed, 0, 0)), *args, size)
            assert x.shape == np.empty(size).shape
            digests.add((seed, hashlib.sha256(x.tobytes()).hexdigest()))
    assert len(digests) == 2


@pytest.mark.parametrize("kind,args,numpy_draw", [
    ("gamma", (float(stochastics.ERLANG_MAX_SHAPE + 1),),
     lambda rng, a, size: rng.gamma(a, 1.0, size)),
    ("gamma", (2.5,), lambda rng, a, size: rng.gamma(a, 1.0, size)),
    ("gamma", (0.5,), lambda rng, a, size: rng.gamma(a, 1.0, size)),
    ("beta", (1.0, 1.0), lambda rng, a, b, size: rng.beta(a, b, size)),
    ("beta", (0.5, 1.0), lambda rng, a, b, size: rng.beta(a, b, size)),
    ("beta", (2.0, 2.5), lambda rng, a, b, size: rng.beta(a, b, size)),
    ("beta", (2.0, float(stochastics.ERLANG_MAX_SHAPE + 1)),
     lambda rng, a, b, size: rng.beta(a, b, size)),
])
def test_other_shapes_are_numpys_draws(kind, args, numpy_draw):
    # non-integer shapes, shapes past ERLANG_MAX_SHAPE and Johnk's branch
    draws = [draw(np.random.default_rng(7), *args, 1000).tobytes()
             for draw in (stochastics._LEAF_DRAWS[kind], numpy_draw)]
    assert draws[0] == draws[1]


@pytest.mark.parametrize("recipe,cdf", (
    [(rc.gamma(float(k)), stats.gamma(k).cdf) for k in ERLANG_SHAPES]
    + [(rc.beta(a, b), stats.beta(a, b).cdf) for a, b in ERLANG_BETAS]))
def test_erlang_draws_follow_their_law(recipe, cdf):
    # two chunks of 50 000, each ending in a part block
    x = sample(recipe, 100_000, seed=6)
    assert stats.kstest(x, cdf).pvalue > 0.01


# -------------------------------------------------------------- recipe nodes

def _out_of_place(recipe, rngs, n):
    # evaluate_recipe with a fresh array for each node's result
    if isinstance(recipe, rc.Leaf):
        return stochastics._LEAF_DRAWS[recipe.kind](next(rngs), *recipe.args,
                                                    n)
    if isinstance(recipe, rc.Discriminant):
        draws = _out_of_place(recipe.leaf, rngs, (n, recipe.n))
        out = np.ones(n)
        for i, j in itertools.combinations(range(recipe.n), 2):
            out *= draws[:, j] - draws[:, i]
        return out ** 2
    if isinstance(recipe, rc.Product):
        out = (_out_of_place(recipe.parts[0], rngs, n) if recipe.parts
               else np.ones(n))
        for part in recipe.parts[1:]:
            out *= _out_of_place(part, rngs, n)
        return out
    if isinstance(recipe, rc.Sum):
        out = np.zeros(n)
        for part in recipe.parts:
            out = out + _out_of_place(part, rngs, n)
        return out
    if isinstance(recipe, rc.Power):
        return _out_of_place(recipe.base, rngs, n) ** recipe.exponent
    if isinstance(recipe, rc.Scale):
        return recipe.factor * _out_of_place(recipe.base, rngs, n)
    if isinstance(recipe, rc.NegLog):
        return -np.log(_out_of_place(recipe.base, rngs, n))
    assert isinstance(recipe, rc.Abs)
    return np.abs(_out_of_place(recipe.base, rngs, n))


# its one part is -0.0 everywhere, and the sum +0.0
NEGATIVE_ZERO_SUM = rc.Sum((rc.NegLog(rc.Power(rc.uniform(), 0.0)),))


@pytest.mark.parametrize("name", RECIPE_ENTRIES + ["negative_zero_sum"])
def test_in_place_nodes_draw_the_out_of_place_values_bit_for_bit(name):
    recipe = (NEGATIVE_ZERO_SUM if name == "negative_zero_sum"
              else catalog.build(name, CASES[name]).recipe)
    for n in (3, stochastics.CHUNK_SIZE + 1):
        draws = []
        for evaluate in (evaluate_recipe, _out_of_place):
            rngs = (np.random.default_rng((5, 0, i)) for i in itertools.count())
            with np.errstate(all="ignore"):
                draws.append(evaluate(recipe, rngs, n).tobytes())
        assert draws[0] == draws[1], n


def test_a_sum_of_negative_zeros_is_positive_zero():
    x = sample(NEGATIVE_ZERO_SUM, 5, seed=1)
    assert (x == 0).all() and not np.signbit(x).any()


def test_a_discriminant_of_one_draw_is_one():
    x = sample(rc.Discriminant(1, rc.normal()), 5, seed=1)
    assert np.array_equal(x, np.ones(5))


@pytest.mark.parametrize("name,params,buffers", [
    ("selberg_beta", {"n": 2, "alpha": 1, "beta": 1}, 3),
    ("type2_beta", {"alpha": 2, "beta": 3}, 2),
    ("beta", {"a": 2, "b": 3}, 2),
])
def test_a_chunk_in_flight_peaks_within_its_buffers(name, params, buffers):
    # the draw and the reduction at 3 points, in buffers of 512 KiB: two
    # leaf draws and the first difference, or a draw and the reduction's
    # work buffer (an Erlang beta's two gammas and its block of uniforms
    # before that); out-of-place nodes peak at one buffer more
    entry = catalog.build(name, params)
    chunk = stochastics.CHUNK_SIZE

    def draw_and_reduce(c):
        rngs = (np.random.default_rng((1, c, i)) for i in itertools.count())
        with np.errstate(all="ignore"):
            stochastics._chunk_moments(
                evaluate_recipe(entry.recipe, rngs, chunk), [0.2, 0.4, 0.6],
                entry.kind == "mgf")

    draw_and_reduce(0)  # allocations of a first call are not a chunk's
    tracemalloc.start()
    try:
        draw_and_reduce(1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (buffers + 0.5) * chunk * 8


@pytest.mark.parametrize("make,bad", [
    (lambda: rc.Scale(rc.uniform(), math.nan), "nan"),
    (lambda: rc.Scale(rc.uniform(), -math.inf), "-inf"),
    (lambda: rc.Scale(rc.uniform(), 0.0), "nonzero"),
    (lambda: rc.Scale(rc.uniform(), "2"), "'2'"),
    (lambda: rc.Power(rc.uniform(), "x"), "'x'"),
    (lambda: rc.Power(rc.uniform(), math.inf), "inf"),
    (lambda: rc.Power(rc.uniform(), 0.5j), "0.5j"),
    (lambda: rc.Leaf("gamma", ("x",)), "'x'"),
    (lambda: rc.Leaf("beta", (1.0, None)), "None"),
    (lambda: rc.Discriminant(0, rc.normal()), "got 0"),
    (lambda: rc.Discriminant(2.0, rc.normal()), "got 2.0"),
    (lambda: rc.Discriminant(2, rc.Power(rc.normal(), 2.0)), "Power"),
    (lambda: rc.Product(3), "got 3"),
    (lambda: rc.Product([rc.uniform()]), r"got \[Leaf"),
    (lambda: rc.Sum((1,)), "got 1"),
    (lambda: rc.Power("x", 1.0), "got 'x'"),
    (lambda: rc.Scale(None, 2.0), "got None"),
    (lambda: rc.NegLog(2.0), "got 2.0"),
    (lambda: rc.Abs((rc.normal(),)), r"got \(Leaf"),
    # each leaf law's parameter range
    (lambda: rc.gamma(-1.0), "requires a > 0"),
    (lambda: rc.gamma(0.0), "requires a > 0"),
    (lambda: rc.gamma(math.nan), "finite real, got nan"),
    (lambda: rc.gamma(math.inf), "finite real, got inf"),
    (lambda: rc.beta(0.0, 1.0), "requires a, b > 0"),
    (lambda: rc.beta(1.0, -2.0), "requires a, b > 0"),
    (lambda: rc.beta(1.0, math.nan), "finite real, got nan"),
    (lambda: rc.positive_stable(0.0), r"requires 0 < alpha <= 1"),
    (lambda: rc.positive_stable(1.0000001), r"requires 0 < alpha <= 1"),
    (lambda: rc.positive_stable(math.nan), "finite real, got nan"),
    (lambda: rc.symmetric_stable(-0.5), r"requires 0 < alpha <= 2"),
    (lambda: rc.symmetric_stable(2.0000001), r"requires 0 < alpha <= 2"),
    (lambda: rc.symmetric_stable(-math.inf), "finite real, got -inf"),
    (lambda: rc.Discriminant(2, rc.beta(0.5, 0.0)), "requires a, b > 0"),
    # integers past the float range
    (lambda: rc.gamma(10 ** 400), "finite real, got 1000"),
    (lambda: rc.Power(rc.uniform(), 10 ** 400), "finite real, got 1000"),
    (lambda: rc.Scale(rc.uniform(), 10 ** 400), "finite real, got 1000"),
    # bools are not numbers
    (lambda: rc.gamma(True), "finite real, got True"),
    (lambda: rc.Power(rc.uniform(), False), "finite real, got False"),
    (lambda: rc.Scale(rc.uniform(), True), "finite real, got True"),
    (lambda: rc.Discriminant(True, rc.normal()), "got True"),
    # laws and arities
    (lambda: rc.Leaf("cauchy"), "unknown leaf law 'cauchy'"),
    (lambda: rc.Leaf("gamma"), r"leaf 'gamma' takes 1 parameter"),
], ids=["scale-nan", "scale-inf", "scale-zero", "scale-str", "power-str",
        "power-inf", "power-complex", "leaf-str", "leaf-none",
        "discriminant-zero", "discriminant-float", "discriminant-node",
        "product-int", "product-list", "sum-int-part", "power-str-base",
        "scale-none-base", "neglog-float-base", "abs-tuple-base",
        "gamma-negative", "gamma-zero", "gamma-nan", "gamma-inf",
        "beta-a-zero", "beta-b-negative", "beta-b-nan",
        "positive-stable-zero", "positive-stable-above-1",
        "positive-stable-nan", "symmetric-stable-negative",
        "symmetric-stable-above-2", "symmetric-stable-minus-inf",
        "discriminant-beta-b-zero", "gamma-huge-int", "power-huge-int",
        "scale-huge-int", "gamma-bool", "power-bool", "scale-bool",
        "discriminant-bool", "leaf-unknown-law", "leaf-arity"])
def test_recipe_nodes_refuse_bad_numbers_at_construction(make, bad):
    with pytest.raises(ValidationError, match=bad):
        make()


@pytest.mark.parametrize("call,bad", [
    (lambda: sample(rc.uniform(), 2.5),
     "n must be an integer in the float range, got 2.5"),
    (lambda: sample(rc.uniform(), True),
     "n must be an integer in the float range, got True"),
    (lambda: sample(rc.uniform(), 3, None),
     "seed must be an integer in the float range, got None"),
    (lambda: verify_entry(catalog.build("rayleigh"), n=10, seed=1.5),
     "seed must be an integer in the float range, got 1.5"),
    (lambda: verify_entry(catalog.build("rayleigh"), n=10.0),
     "n must be an integer in the float range, got 10.0"),
    (lambda: harmonic_drift(2.5),
     "n_max must be an integer in the float range, got 2.5"),
    (lambda: harmonic_drift(0), "n_max must be at least 1"),
    (lambda: sample(rc.uniform(), 3, 2 ** 1024),
     f"seed must be an integer in the float range, got {2 ** 1024}"),
    # the moment orders are numbers too
    (lambda: verify_entry(catalog.build("rayleigh"), ["0.5"], n=10),
     "s must be a finite real, got '0.5'"),
    (lambda: mc_moment(catalog.build("rayleigh"), True, n=10),
     "s must be a finite real, got True"),
], ids=["sample-n-float", "sample-n-bool", "sample-seed-none",
        "verify-seed-float", "verify-n-float", "harmonic-float",
        "harmonic-zero", "seed-huge-int", "verify-s-str", "mc-moment-s-bool"])
def test_draw_counts_and_seeds_must_be_integers(call, bad):
    with pytest.raises(ValidationError) as exc:
        call()
    assert str(exc.value) == bad


def test_numpy_integers_count_as_integers():
    assert len(sample(rc.uniform(), np.int64(3), np.uint8(2))) == 3
    assert harmonic_drift(np.int32(2)).shape == (2, 2)
    assert rc.Discriminant(np.int64(2), rc.normal()).n == 2
    # and so do forms, as slopes, exponents and multiplication orders
    form = make_form(1, 0, [(np.int64(2), 1)])
    assert form == make_form(1, 0, [(2, 1)])
    assert form.power(np.int8(-1)) == form.power(-1)
    assert form.expand_multiplication(0, np.int64(2)) == (
        form.expand_multiplication(0, 2))


def test_leaf_count_counts_leaves_and_discriminants():
    recipe = rc.Sum((
        rc.NegLog(rc.uniform()),
        rc.Scale(rc.Product((rc.gamma(2.0), rc.Abs(rc.normal()))), 2.0),
        rc.Power(rc.Discriminant(3, rc.normal()), 0.5)))
    assert rc.leaf_count(recipe) == 4
    assert rc.leaf_count(rc.Product(())) == 0


def test_empty_product_draws_ones():
    assert sample(rc.Product(()), 3).tolist() == [1.0, 1.0, 1.0]


def test_sample_refuses_what_is_not_a_recipe():
    with pytest.raises(ValidationError, match="unknown recipe node 'junk'"):
        sample("junk", 3)


def test_draws_without_an_affinity_call(monkeypatch):
    # platforms without os.sched_getaffinity count CPUs with os.cpu_count
    recipe = rc.Scale(rc.exponential(), 2.0)
    n = 3 * stochastics.CHUNK_SIZE + 1
    want = sample(recipe, n, seed=5)
    monkeypatch.delattr(os, "sched_getaffinity")
    assert np.array_equal(sample(recipe, n, seed=5), want)


def test_recipe_node_numbers_are_floats():
    # so every node yields a float64 array to work in
    assert type(rc.Power(rc.uniform(), 2).exponent) is float
    assert type(rc.Scale(rc.uniform(), np.int64(3)).factor) is float
    assert type(rc.Discriminant(np.int64(2), rc.normal()).n) is int


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


def test_cauchy_recipe_is_cauchys_law():
    # symmetric stable at alpha = 1, through the general formula
    x = sample(rc.cauchy(), 100_000, seed=5)
    assert stats.kstest(x, stats.cauchy.cdf).pvalue > 0.01


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
    base = catalog.build("symmetric_stable", {"alpha": 0.01})
    entry = catalog.DistributionEntry(
        base.form, base.kind, rc.Product((rc.gamma(1e-3), base.recipe)),
        base.density, base.tabulated, base.name, base.params, base.symmetric)
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
    # each chunk is drawn once, for the whole grid: 200 000 draws make four
    # chunks of 50 000
    assert draws == [50_000] * 4
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
def test_verify_entry_memory_does_not_grow_with_n(monkeypatch, name, params):
    # numpy reports its buffers to tracemalloc, from every thread; one
    # sample of 1e6 draws alone would take 7.6 MiB, and 16 MiB at 2**21
    entry = catalog.build(name, params)
    mib = 1 << 20
    for cpus in (1, 8):  # one chunk in flight, and two
        _usable_cpus(monkeypatch, cpus)
        peaks = {}
        for n in (1 << 17, 10 ** 6, 1 << 21):
            tracemalloc.start()
            try:
                verify_entry(entry, None, n=n, seed=1)
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[10 ** 6] < 8 * mib, cpus
        # 2**21 draws held at once would add 14 MiB
        assert peaks[1 << 21] < peaks[1 << 17] + 4 * mib, cpus


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


def test_verify_entry_refuses_a_grid_without_a_valid_point(monkeypatch):
    # 2s = -3.8 lies outside gamma(2)'s strip (-2, inf): no point could
    # decide the verdict, which all() over no points would pass
    entry = catalog.build("gamma", {"a": 2.0})
    draws = []

    def counting_evaluate(recipe, rngs, n):
        draws.append(n)
        return evaluate_recipe(recipe, rngs, n)

    monkeypatch.setattr(stochastics, "evaluate_recipe", counting_evaluate)
    with pytest.raises(MomentRangeError, match="no s in the grid has 2s"):
        verify_entry(entry, [-1.9], n=100_000, seed=0)
    assert draws == []
    # a single estimate still reports such a point
    assert not mc_moment(entry, -1.9, n=1000).ci_valid


# --------------------------------------------------------------- Euler drift

def test_harmonic_drift_start_and_limit():
    table = harmonic_drift(10 ** 6)
    assert table[0, 1] == 1.0
    euler = 0.5772156649015329
    assert abs(table[-1, 1] - (euler + 0.5e-6)) < 1e-9
