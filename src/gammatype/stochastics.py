"""Seeded sampling of recipe trees and Monte Carlo moment verification.

The one module that draws.  Generation is chunked: chunk ``c`` of a run
with seed ``s`` hands leaf ``i`` (depth-first) the generator seeded by
``SeedSequence((s, c, i))``.  Chunks are therefore independent of
execution order, so a thread pool produces exactly the same array as a
sequential loop, value for value.
"""

from __future__ import annotations

import itertools
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from . import recipes as rc
from .catalog import DistributionEntry
from .errors import MomentRangeError, ValidationError

__all__ = [
    "CHUNK_SIZE", "evaluate_recipe", "recipe_of", "sample", "save_samples",
    "MCEstimate", "mc_moment", "VerificationPoint", "VerificationReport",
    "verify_entry", "harmonic_drift",
]

CHUNK_SIZE = 1 << 16


def _draw_positive_stable(rng, alpha, size):
    """One-sided stable S_alpha with Laplace transform exp(-t^alpha).

    Kanter's representation via Zolotarev's integral, exact for
    0 < alpha < 1; alpha = 1 is the unit point mass.
    """
    if not 0 < alpha <= 1:
        raise ValidationError("positive_stable requires 0 < alpha <= 1")
    if alpha == 1.0:
        return np.ones(size)
    theta = rng.uniform(0.0, np.pi, size)
    w = rng.standard_exponential(size)
    a = (np.sin(alpha * theta) ** (alpha / (1 - alpha))
         * np.sin((1 - alpha) * theta)
         / np.sin(theta) ** (1 / (1 - alpha)))
    return (a / w) ** ((1 - alpha) / alpha)


def _draw_symmetric_stable(rng, alpha, size):
    """Symmetric stable with characteristic function exp(-|t|^alpha).

    Chambers-Mallows-Stuck construction; exact for 0 < alpha <= 2.
    """
    if not 0 < alpha <= 2:
        raise ValidationError("symmetric_stable requires 0 < alpha <= 2")
    v = rng.uniform(-np.pi / 2, np.pi / 2, size)
    if alpha == 1.0:
        return np.tan(v)
    w = rng.standard_exponential(size)
    return (np.sin(alpha * v) / np.cos(v) ** (1 / alpha)
            * (np.cos((1 - alpha) * v) / w) ** ((1 - alpha) / alpha))


# law -> draw(rng, *args, size), one for each law of recipes.LEAF_ARITY
_LEAF_DRAWS = {
    "uniform": lambda rng, size: rng.uniform(0.0, 1.0, size),
    "exponential": lambda rng, size: rng.standard_exponential(size),
    "gamma": lambda rng, a, size: rng.gamma(a, 1.0, size),
    "beta": lambda rng, a, b, size: rng.beta(a, b, size),
    "normal": lambda rng, size: rng.standard_normal(size),
    "positive_stable": _draw_positive_stable,
    "symmetric_stable": _draw_symmetric_stable,
    "gumbel": lambda rng, size: -np.log(rng.standard_exponential(size)),
    "cauchy": lambda rng, size: rng.standard_cauchy(size),
}


def evaluate_recipe(recipe: rc.Recipe, rngs, n) -> np.ndarray:
    """Draw an array of shape n; the leaves, depth-first, take rngs in turn."""
    if isinstance(recipe, rc.Leaf):
        return _LEAF_DRAWS[recipe.kind](next(rngs), *recipe.args, n)
    if isinstance(recipe, rc.Discriminant):
        draws = evaluate_recipe(recipe.leaf, rngs, (n, recipe.n))
        out = np.ones(n)
        for i, j in itertools.combinations(range(recipe.n), 2):
            out *= draws[:, j] - draws[:, i]
        return out ** 2
    if isinstance(recipe, rc.Product):
        out = np.ones(n)
        for part in recipe.parts:
            out = out * evaluate_recipe(part, rngs, n)
        return out
    if isinstance(recipe, rc.Sum):
        out = np.zeros(n)
        for part in recipe.parts:
            out = out + evaluate_recipe(part, rngs, n)
        return out
    if isinstance(recipe, rc.Power):
        return evaluate_recipe(recipe.base, rngs, n) ** recipe.exponent
    if isinstance(recipe, rc.Scale):
        return recipe.factor * evaluate_recipe(recipe.base, rngs, n)
    if isinstance(recipe, rc.NegLog):
        return -np.log(evaluate_recipe(recipe.base, rngs, n))
    if isinstance(recipe, rc.Abs):
        return np.abs(evaluate_recipe(recipe.base, rngs, n))
    raise ValidationError(f"unknown recipe node {recipe!r}")


def recipe_of(entry: DistributionEntry) -> rc.Recipe:
    """The entry's sampling recipe; ValidationError if it has none."""
    if entry.recipe is None:
        raise ValidationError(f"{entry.name}: no sampling recipe available")
    return entry.recipe


def sample(recipe: rc.Recipe, n: int, seed: int = 0,
           workers: int | None = None) -> np.ndarray:
    """Draw n values; identical output for any worker count."""
    if n < 1:
        raise ValidationError("n must be at least 1")
    if seed < 0:
        raise ValidationError(f"seed must be non-negative, got {seed}")

    # per chunk: numpy's error state does not carry into pool threads
    @np.errstate(all="ignore")
    def chunk(c):
        rngs = (np.random.default_rng((seed, c, i)) for i in itertools.count())
        return evaluate_recipe(recipe, rngs,
                               min(CHUNK_SIZE, n - c * CHUNK_SIZE))

    # each chunk is copied into one preallocated array as it arrives, so
    # the chunks are not all held beside a concatenated copy
    out = np.empty(n)
    chunks = range((n + CHUNK_SIZE - 1) // CHUNK_SIZE)
    if workers and workers > 1 and len(chunks) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for c, part in zip(chunks, pool.map(chunk, chunks)):
                out[c * CHUNK_SIZE:c * CHUNK_SIZE + len(part)] = part
    else:
        for c in chunks:
            out[c * CHUNK_SIZE:(c + 1) * CHUNK_SIZE] = chunk(c)
    return out


def save_samples(values: np.ndarray, path: str, fmt: str = "csv") -> None:
    """Write samples as bare CSV lines or as {"i":…, "x":…} JSON lines."""
    if fmt == "csv":
        with open(path, "w") as fh:
            for v in values:
                fh.write(repr(float(v)) + "\n")
    elif fmt == "jsonl":
        with open(path, "w") as fh:
            for i, v in enumerate(values):
                fh.write(json.dumps({"i": i, "x": float(v)}) + "\n")
    else:
        raise ValidationError(f"unknown sample format {fmt!r}")


@dataclass(frozen=True)
class MCEstimate:
    mean: float
    stderr: float
    n: int
    s: float
    ci_valid: bool


@np.errstate(all="ignore")
def _moment_mean(entry, x, s, buf):
    """Sample mean of X^s (e^{sX} for an MGF) and its standard error.

    Everything is computed in ``buf``, an array shaped like x, so one call
    allocates no array of the sample's size.  The steps are those of
    ``vals.mean()`` and ``vals.std(ddof=1)``, bit for bit.
    """
    if entry.kind == "mgf":
        np.multiply(s, x, out=buf)
        np.exp(buf, out=buf)
    else:
        np.abs(x, out=buf)
        buf **= s  # x ** 0.0 is 1.0 for every float, nan and inf included
    mean = float(buf.mean())
    buf -= mean
    np.square(buf, out=buf)
    var = float(np.add.reduce(buf)) / (len(x) - 1)
    return mean, math.sqrt(var) / math.sqrt(len(x))


def _estimates(entry, s_grid, n, seed, workers):
    """MCEstimates at every s of s_grid (default if None) from one sample.

    The confidence interval is only meaningful when the second moment of
    the estimator exists, i.e. when 2s also lies in the strip; otherwise
    the estimate is still returned but flagged ``ci_valid=False``.
    """
    if n < 2:
        raise ValidationError(f"n must be at least 2 for a standard error, "
                              f"got {n}")
    recipe = recipe_of(entry)
    strip = entry.form.strip()
    grid = _default_grid(strip) if s_grid is None else [float(s) for s in s_grid]
    for s in grid:
        if not strip.rho_minus < s < strip.rho_plus:
            raise MomentRangeError(
                f"{entry.name}: s={s} outside the open strip "
                f"({strip.rho_minus}, {strip.rho_plus})")
    x = sample(recipe, n, seed, workers=workers)
    buf = np.empty_like(x)
    return [MCEstimate(*_moment_mean(entry, x, s, buf), n, s,
                       strip.rho_minus < 2 * s < strip.rho_plus)
            for s in grid]


def mc_moment(entry: DistributionEntry, s: float, n: int = 10 ** 6,
              seed: int = 0, workers: int | None = None) -> MCEstimate:
    """Monte Carlo estimate of the entry's moment function at real s."""
    return _estimates(entry, [s], n, seed, workers)[0]


@dataclass(frozen=True)
class VerificationPoint:
    s: float
    estimate: float
    stderr: float
    exact: float
    z: float
    ci_valid: bool
    passed: bool


@dataclass(frozen=True)
class VerificationReport:
    entry: str
    points: tuple
    passed: bool

    def to_json_dict(self):
        return {
            "entry": self.entry,
            "passed": self.passed,
            "points": [asdict(p) for p in self.points],
        }


def _default_grid(strip):
    lo = max(strip.rho_minus, -2.0)
    hi = min(strip.rho_plus, 2.0)
    return [lo + f * (hi - lo) for f in (0.2, 0.4, 0.6, 0.8)]


def verify_entry(entry: DistributionEntry, s_grid=None, n: int = 10 ** 6,
                 seed: int = 0, z: float = 5.0,
                 workers: int | None = None) -> VerificationReport:
    """Check the sampler against the exact moment function on a grid of s.

    Points whose estimator has infinite variance (2s outside the strip)
    are reported for inspection but excluded from the overall verdict,
    since a z-score against an invalid stderr means nothing.  A point
    whose estimate or stderr is not finite gets z = nan and fails.
    """
    points = []
    for est in _estimates(entry, s_grid, n, seed, workers):
        exact = float(entry.form.evaluate(est.s).real)
        if not (math.isfinite(est.mean) and math.isfinite(est.stderr)):
            zscore = math.nan
        elif est.stderr > 0:
            zscore = (est.mean - exact) / est.stderr
        else:  # a point mass
            zscore = 0.0
        points.append(VerificationPoint(est.s, est.mean, est.stderr, exact,
                                        zscore, est.ci_valid,
                                        abs(zscore) <= z))
    verdict = all(p.passed for p in points if p.ci_valid)
    return VerificationReport(entry.name, tuple(points), verdict)


def harmonic_drift(n_max: int) -> np.ndarray:
    """Partial harmonic sums minus log: rows (n, H_n - log n), n=1..n_max.

    The drift decreases to Euler's constant 0.5772156649...
    """
    if n_max < 1:
        raise ValidationError("n_max must be at least 1")
    n = np.arange(1, n_max + 1, dtype=np.float64)
    drift = np.cumsum(1.0 / n) - np.log(n)
    return np.column_stack((n, drift))
