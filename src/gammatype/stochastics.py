"""Seeded sampling of recipe trees and Monte Carlo moment verification.

The one module that draws.  Generation is chunked: n draws make
ceil(n / CHUNK_SIZE) chunks whose lengths differ by at most one, the
longer ones first, so a chunk's length comes from n alone.  Chunk ``c``
of a run with seed ``s`` hands leaf ``i`` (depth-first) the generator
seeded by ``SeedSequence((s, c, i))``, so a chunk's values depend only
on the seed, n, the chunk index and the recipe, not on the thread that
draws it: up to two chunks are drawn at once, and the caller takes them
in order.
"""

from __future__ import annotations

import itertools
import math
import os
import queue
import threading

import numpy as np

from . import recipes as rc
from .catalog import DistributionEntry
from .errors import MomentRangeError, ValidationError, integer, real
from .record import Record

__all__ = [
    "CHUNK_SIZE", "ERLANG_MAX_SHAPE", "evaluate_recipe", "recipe_of",
    "chunks", "sample", "MCEstimate", "mc_moment", "VerificationPoint",
    "VerificationReport", "verify_entry", "harmonic_drift",
]

# the longest chunk, which bounds the memory of a chunk in flight
CHUNK_SIZE = 1 << 16

# a Monte Carlo point passes when its z-score is at most this in size
Z_PASS = 5.0


# the scratch block of the in-place draws: the half-angle sine's
# denominators and the Erlang draw's later uniforms go through an array of
# this many values, an eighth of a chunk's buffer
_BLOCK = 1 << 13

# pi/2 - np.pi/2, so (np.pi/2 - |x|) + _HALF_PI_LO keeps its relative
# accuracy as |x| nears pi/2, where cos x is small
_HALF_PI_LO = 6.123233995736766e-17


# the stable draw's sines and cosines come from tan, which numpy vectorizes
# where its float64 sin and cos are scalar libm: on 65 536 values (2-vCPU
# AMD EPYC with AVX-512, numpy 2.4.6, best of 7) np.tan took 0.05 ms and
# np.sin or np.cos 0.45-0.61 ms, and the symmetric draw at alpha = 1.5 went
# from 2.0-2.3 to 1.0-1.1 ms; the helpers are within 4 ulp of libm
def _sin_in_place(x):
    """sin x = 2t / (1 + t^2) with t = tan(x/2), for |x| < pi, in place;
    the denominators go through one scratch block."""
    flat = x.reshape(-1)  # a view of a fresh array
    np.multiply(0.5, flat, out=flat)
    np.tan(flat, out=flat)
    scratch = np.empty(min(_BLOCK, flat.size))
    for lo in range(0, flat.size, _BLOCK):
        t = flat[lo:lo + _BLOCK]
        d = scratch[:len(t)]
        np.multiply(t, t, out=d)
        d += 1.0
        t *= 2.0
        t /= d
    return x


def _cos_in_place(x):
    """cos x = sin((pi/2 - |x|) + _HALF_PI_LO), for |x| < pi/2, in place."""
    np.abs(x, out=x)
    np.subtract(np.pi / 2, x, out=x)
    x += _HALF_PI_LO
    return _sin_in_place(x)


def _draw_stable(rng, alpha, size, lo, trig):
    """Chambers-Mallows-Stuck: sin(alpha v) ((trig((1-alpha) v) / w)^(1-alpha)
    / trig(v))^(1/alpha), v uniform on (lo, lo + pi), w standard exponential.

    lo = -pi/2 with cos is the symmetric law, lo = 0 with sin the one-sided
    one (Kanter's representation).  No power grows as alpha nears 1, and
    the one that grows as alpha nears 0, 1/alpha, comes after the factors
    are combined, so no factor overflows or underflows on its own.  Every
    argument of sin lies in (-pi, pi) and of cos in (-pi/2, pi/2), where
    the half-angle forms hold.
    """
    # in place, each ufunc in the order of the formula (**= keeps the
    # scalar-power fast paths of **); sin(alpha v) goes into w's buffer
    # once w is used up
    v = rng.uniform(lo, lo + np.pi, size)
    b = np.multiply(1 - alpha, v)
    trig(b)
    a = rng.standard_exponential(size)
    b /= a
    b **= 1 - alpha
    np.multiply(alpha, v, out=a)
    _sin_in_place(a)
    trig(v)
    b /= v
    b **= 1 / alpha
    a *= b
    return a


def _draw_positive_stable(rng, alpha, size):
    """Laplace transform exp(-t^alpha); alpha = 1 is the unit point mass."""
    if alpha == 1.0:
        return np.ones(size)
    return _draw_stable(rng, alpha, size, 0.0, _sin_in_place)


def _draw_symmetric_stable(rng, alpha, size):
    """Characteristic function exp(-|t|^alpha); alpha = 1 is Cauchy's law."""
    return _draw_stable(rng, alpha, size, -np.pi / 2, _cos_in_place)


# integer shapes 1 <= k <= ERLANG_MAX_SHAPE take _draw_erlang.  On 65 536
# values (2-vCPU AMD EPYC, numpy 2.4.6, best of 7, two sessions) it took
# 0.26-0.36 ms at k = 2, 0.57-0.63 at k = 5 and 0.70-0.73 at k = 6,
# against 0.85-0.94 ms for rng.gamma, whose Marsaglia-Tsang loop costs
# the same at any shape; the two cross between k = 7 and k = 8
ERLANG_MAX_SHAPE = 6

_ERLANG_SHAPES = frozenset(range(1, ERLANG_MAX_SHAPE + 1))


def _draw_erlang(rng, k, size):
    """Gamma(k) for an integer k >= 1 as -log of the product of k
    uniforms 1 - U in (0, 1] (Devroye 1986, IX.3).

    The product starts in the array of the first uniforms; each of the
    other k - 1 arrays is drawn and multiplied in a block at a time through
    one scratch array.  So the uniforms come in the order of the formula's
    k calls rng.random(size), and the draw holds one buffer and a block.
    """
    p = rng.random(size)
    np.subtract(1.0, p, out=p)
    flat = p.reshape(-1)  # a view of the fresh array
    scratch = np.empty(min(_BLOCK, flat.size))
    for _ in range(int(k) - 1):
        for lo in range(0, flat.size, _BLOCK):
            block = flat[lo:lo + _BLOCK]
            u = scratch[:len(block)]
            rng.random(out=u)
            np.subtract(1.0, u, out=u)
            block *= u
    np.log(p, out=p)
    np.negative(p, out=p)
    return p


def _draw_gamma(rng, a, size):
    if a in _ERLANG_SHAPES:
        return _draw_erlang(rng, a, size)
    return rng.gamma(a, 1.0, size)


def _draw_beta(rng, a, b, size):
    """numpy's beta: Johnk's draw for a, b <= 1, else G_a / (G_a + G_b),
    whose gammas are Erlang draws where both shapes are Erlang shapes."""
    if (a > 1 or b > 1) and a in _ERLANG_SHAPES and b in _ERLANG_SHAPES:
        g = _draw_erlang(rng, a, size)
        total = _draw_erlang(rng, b, size)
        total += g
        g /= total
        return g
    return rng.beta(a, b, size)


# law -> draw(rng, *args, size), one for each law of recipes.LEAF_ARITY
_LEAF_DRAWS = {
    "uniform": lambda rng, size: rng.uniform(0.0, 1.0, size),
    "exponential": lambda rng, size: _draw_erlang(rng, 1, size),
    "gamma": _draw_gamma,
    "beta": _draw_beta,
    "normal": lambda rng, size: rng.standard_normal(size),
    "positive_stable": _draw_positive_stable,
    "symmetric_stable": _draw_symmetric_stable,
}


def evaluate_recipe(recipe: rc.Recipe, rngs, n) -> np.ndarray:
    """Draw an array of shape n; the leaves, depth-first, take rngs in turn.

    A node works in place in the fresh array of its first child, with the
    ufuncs of the out-of-place formula in its order (**= keeps the fast
    paths of **), so every draw is that formula's to the bit.
    """
    if isinstance(recipe, rc.Leaf):
        return _LEAF_DRAWS[recipe.kind](next(rngs), *recipe.args, n)
    if isinstance(recipe, rc.Discriminant):
        draws = evaluate_recipe(recipe.leaf, rngs, (n, recipe.n))
        if recipe.n == 1:  # the empty product
            return np.ones(n)
        # the product starts at the first difference; one scratch array
        # holds each of the others in turn
        pairs = itertools.combinations(range(recipe.n), 2)
        i, j = next(pairs)
        out, scratch = draws[:, j] - draws[:, i], None
        for i, j in pairs:
            scratch = np.subtract(draws[:, j], draws[:, i], out=scratch)
            out *= scratch
        out **= 2
        return out
    if isinstance(recipe, rc.Product):
        out = (evaluate_recipe(recipe.parts[0], rngs, n) if recipe.parts
               else np.ones(n))
        for part in recipe.parts[1:]:
            out *= evaluate_recipe(part, rngs, n)
        return out
    if isinstance(recipe, rc.Sum):
        out = np.zeros(n)  # +0.0, so parts of -0.0 sum to +0.0
        for part in recipe.parts:
            out += evaluate_recipe(part, rngs, n)
        return out
    if not isinstance(recipe, (rc.Power, rc.Scale, rc.NegLog, rc.Abs)):
        raise ValidationError(f"unknown recipe node {recipe!r}")
    out = evaluate_recipe(recipe.base, rngs, n)
    if isinstance(recipe, rc.Power):
        out **= recipe.exponent
    elif isinstance(recipe, rc.Scale):
        out *= recipe.factor
    elif isinstance(recipe, rc.NegLog):
        np.negative(np.log(out, out=out), out=out)
    else:
        np.abs(out, out=out)
    return out


def recipe_of(entry: DistributionEntry) -> rc.Recipe:
    """The entry's sampling recipe; ValidationError if it has none."""
    if entry.recipe is None:
        raise ValidationError(f"{entry.name}: no sampling recipe available")
    return entry.recipe


def _in_order(task, count):
    """task(c) for c in range(count), yielded in order of c.

    With at least two tasks and two usable CPUs, a helper thread runs the
    odd tasks while the caller's thread runs the even ones, so two tasks
    run at once: the caller hands the helper task c + 1, runs task c and
    yields it, then takes the helper's (value, exception).  Two helpers,
    with the caller only taking results, measured 2 to 5 MiB more peak RSS
    (glibc keeps a malloc arena per thread).  A task's exception is raised
    here, at its turn.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    if min(cpus, count) < 2:
        yield from map(task, range(count))
        return
    todo, done = queue.SimpleQueue(), queue.SimpleQueue()

    def run():
        for c in iter(todo.get, None):
            try:
                done.put((task(c), None))
            except BaseException as exc:  # for the caller to raise
                done.put((None, exc))

    helper = threading.Thread(target=run, daemon=True)
    helper.start()
    try:
        for c in range(0, count, 2):
            if c + 1 < count:
                todo.put(c + 1)
            yield task(c)
            if c + 1 < count:
                value, exc = done.get()
                if exc is not None:
                    raise exc
                yield value
    finally:  # also when the caller stops early: the helper ends its task
        todo.put(None)
        helper.join()


def _per_chunk(recipe, n, seed, reduce):
    """reduce(draws) for each chunk of the n draws, in chunk order; n and
    seed are checked at the call, and the chunks are drawn lazily.  Their
    lengths differ by at most one, so the two threads of _in_order finish
    a pair of chunks together."""
    if integer(n, "n") < 1:
        raise ValidationError("n must be at least 1")
    if integer(seed, "seed") < 0:
        raise ValidationError(f"seed must be non-negative, got {seed}")
    count = -(-n // CHUNK_SIZE)
    size, longer = divmod(n, count)

    # numpy keeps the error state per thread, so each chunk sets its own
    @np.errstate(all="ignore")
    def task(c):
        rngs = (np.random.default_rng((seed, c, i)) for i in itertools.count())
        return reduce(evaluate_recipe(recipe, rngs, size + (c < longer)))

    return _in_order(task, count)


def chunks(recipe: rc.Recipe, n: int, seed: int):
    """The n draws as ceil(n / CHUNK_SIZE) chunks of nearly equal length,
    in chunk order; n and seed are checked at the call.  Two chunks are
    drawn at once where two CPUs are usable."""
    return _per_chunk(recipe, n, seed, lambda x: x)


def sample(recipe: rc.Recipe, n: int, seed: int = 0) -> np.ndarray:
    """Draw n values; the same seed gives the same values."""
    parts = chunks(recipe, n, seed)
    out = np.empty(n)
    start = 0
    for part in parts:
        out[start:start + len(part)] = part
        start += len(part)
    return out


class MCEstimate(Record):
    __slots__ = _fields = ("mean", "stderr", "n", "s", "ci_valid")


def _chunk_moments(x, grid, mgf):
    """(len(x), [(mean, M2) of X^s, or of e^{sX} if mgf, for s in grid]).

    M2 is the sum of squared deviations from the chunk's mean; x is
    overwritten with log|x| unless mgf.  It runs in the chunk's task,
    under the chunk's error state.
    """
    vals = np.empty(len(x))
    if not mgf:
        np.abs(x, out=x)
        np.log(x, out=x)
    moments = []
    for s in grid:
        if s == 0:  # as x ** 0.0, also where log|x| is inf or nan
            vals.fill(1.0)
        else:
            np.multiply(s, x, out=vals)
            np.exp(vals, out=vals)
        chunk_mean = float(vals.mean())
        vals -= chunk_mean
        moments.append((chunk_mean, float(np.einsum("i,i", vals, vals))))
    return len(x), moments


def _merge(parts, size):
    """(mean, M2) for each of size points from the chunks' _chunk_moments.

    The chunks are merged in order into the running (count, mean, M2) of
    every point by the pairwise update of Chan, Golub & LeVeque (Am. Stat.
    37(3), 1983), so memory is the chunks in flight whatever n.
    """
    count, stats = 0, [(0.0, 0.0)] * size
    for m, moments in parts:
        count += m
        for j, (chunk_mean, chunk_m2) in enumerate(moments):
            mean, m2 = stats[j]
            delta = chunk_mean - mean
            if math.isfinite(delta):
                mean += delta * (m / count)
            else:  # the values are >= 0: a mean is inf or nan; the sum keeps it
                mean += chunk_mean
            # the weight is 0 on the first chunk, where delta * delta may be
            # inf, so it goes first; a float's ** 2 raises OverflowError
            m2 += chunk_m2 + (count - m) * m / count * delta * delta
            stats[j] = mean, m2
    return stats


def _estimates(entry, s_grid, n, seed, verdict=False):
    """MCEstimates at every s of s_grid (default if None) from one sample.

    The confidence interval is only meaningful when the second moment of
    the estimator exists, i.e. when 2s also lies in the strip; otherwise
    the estimate is still returned but flagged ``ci_valid=False``.  With
    ``verdict``, a grid without such an s is a MomentRangeError, raised
    before anything is drawn.
    """
    if integer(n, "n") < 2:
        raise ValidationError(f"n must be at least 2 for a standard error, "
                              f"got {n}")
    recipe = recipe_of(entry)
    strip = entry.form.strip()
    grid = _default_grid(strip) if s_grid is None else [real(s, "s") for s in s_grid]
    for s in grid:
        if not strip.rho_minus < s < strip.rho_plus:
            raise MomentRangeError(
                f"{entry.name}: s={s} outside the open strip "
                f"({strip.rho_minus}, {strip.rho_plus})")
    valid = [strip.rho_minus < 2 * s < strip.rho_plus for s in grid]
    if verdict and not any(valid):
        raise MomentRangeError(
            f"{entry.name}: no s in the grid has 2s inside the open strip "
            f"({strip.rho_minus}, {strip.rho_plus}), so no point has a "
            f"confidence interval to decide the verdict")
    mgf = entry.kind == "mgf"
    stats = _merge(_per_chunk(recipe, n, seed,
                              lambda x: _chunk_moments(x, grid, mgf)),
                   len(grid))
    return [MCEstimate(mean, math.sqrt(m2 / (n - 1)) / math.sqrt(n), n, s, ok)
            for s, ok, (mean, m2) in zip(grid, valid, stats)]


def mc_moment(entry: DistributionEntry, s: float, n: int = 10 ** 6,
              seed: int = 0) -> MCEstimate:
    """Monte Carlo estimate of the entry's moment function at real s."""
    return _estimates(entry, [s], n, seed)[0]


class VerificationPoint(Record):
    __slots__ = _fields = ("s", "estimate", "stderr", "exact", "z",
                           "ci_valid", "passed")


class VerificationReport(Record):
    __slots__ = _fields = ("entry", "points", "passed")

    def to_json_dict(self):
        return {
            "entry": self.entry,
            "passed": self.passed,
            "points": [{name: getattr(p, name) for name in p._fields}
                       for p in self.points],
        }


def _default_grid(strip):
    lo = max(strip.rho_minus, -2.0)
    hi = min(strip.rho_plus, 2.0)
    return [lo + f * (hi - lo) for f in (0.2, 0.4, 0.6, 0.8)]


def verify_entry(entry: DistributionEntry, s_grid=None, n: int = 10 ** 6,
                 seed: int = 0) -> VerificationReport:
    """Check the sampler against the exact moment function on a grid of s.

    Points whose estimator has infinite variance (2s outside the strip)
    are reported for inspection but excluded from the overall verdict,
    since a z-score against an invalid stderr means nothing; a grid of
    such points only is a MomentRangeError.  A point passes when
    |z| <= Z_PASS; one whose estimate or stderr is not finite gets z = nan
    and fails.
    """
    points = []
    for est in _estimates(entry, s_grid, n, seed, verdict=True):
        exact = float(entry.form.evaluate(est.s).real)
        if not (math.isfinite(est.mean) and math.isfinite(est.stderr)):
            zscore = math.nan
        elif est.stderr > 0:
            zscore = (est.mean - exact) / est.stderr
        else:  # a point mass
            zscore = 0.0
        points.append(VerificationPoint(est.s, est.mean, est.stderr, exact,
                                        zscore, est.ci_valid,
                                        abs(zscore) <= Z_PASS))
    verdict = all(p.passed for p in points if p.ci_valid)
    return VerificationReport(entry.name, tuple(points), verdict)


def harmonic_drift(n_max: int) -> np.ndarray:
    """Partial harmonic sums minus log: rows (n, H_n - log n), n=1..n_max.

    The drift decreases to Euler's constant 0.5772156649...
    """
    if integer(n_max, "n_max") < 1:
        raise ValidationError("n_max must be at least 1")
    n = np.arange(1, n_max + 1, dtype=np.float64)
    drift = np.cumsum(1.0 / n) - np.log(n)
    return np.column_stack((n, drift))
