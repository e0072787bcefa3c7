"""Seeded sampling of recipe trees and Monte Carlo moment verification.

The one module that draws.  Generation is chunked: chunk ``c`` of a run
with seed ``s`` hands leaf ``i`` (depth-first) the generator seeded by
``SeedSequence((s, c, i))``, so a chunk's values depend only on the
seed, the chunk index and the recipe.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import recipes as rc
from .catalog import DistributionEntry
from .errors import MomentRangeError, ValidationError

__all__ = [
    "CHUNK_SIZE", "evaluate_recipe", "recipe_of", "chunks", "sample",
    "MCEstimate", "mc_moment", "VerificationPoint", "VerificationReport",
    "verify_entry", "harmonic_drift",
]

CHUNK_SIZE = 1 << 16

# a Monte Carlo point passes when its z-score is at most this in size
Z_PASS = 5.0


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
        # no array of ones beside the first part's draw and its temporaries
        out = (evaluate_recipe(recipe.parts[0], rngs, n) if recipe.parts
               else np.ones(n))
        for part in recipe.parts[1:]:
            out *= evaluate_recipe(part, rngs, n)
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


def chunks(recipe: rc.Recipe, n: int, seed: int):
    """The n draws as chunks, drawn lazily in chunk order; n and seed are
    checked at the call."""
    if n < 1:
        raise ValidationError("n must be at least 1")
    if seed < 0:
        raise ValidationError(f"seed must be non-negative, got {seed}")

    # per chunk, since sample() and the CLI consume the chunks outside _fold
    @np.errstate(all="ignore")
    def chunk(c):
        rngs = (np.random.default_rng((seed, c, i)) for i in itertools.count())
        return evaluate_recipe(recipe, rngs,
                               min(CHUNK_SIZE, n - c * CHUNK_SIZE))

    return map(chunk, range((n + CHUNK_SIZE - 1) // CHUNK_SIZE))


def sample(recipe: rc.Recipe, n: int, seed: int = 0) -> np.ndarray:
    """Draw n values; the same seed gives the same values."""
    parts = chunks(recipe, n, seed)
    out = np.empty(n)
    for c, part in enumerate(parts):
        out[c * CHUNK_SIZE:c * CHUNK_SIZE + len(part)] = part
    return out


@dataclass(frozen=True)
class MCEstimate:
    mean: float
    stderr: float
    n: int
    s: float
    ci_valid: bool


@np.errstate(all="ignore")
def _fold(chunks, grid, mgf):
    """(mean, M2) of X^s, or of e^{sX} if mgf, for every s of grid.

    M2 is the sum of squared deviations from the mean.  Each chunk is
    merged into the running (count, mean, M2) of every s by the pairwise
    update of Chan, Golub & LeVeque (Am. Stat. 37(3), 1983), so memory is
    one chunk-sized buffer whatever n.
    """
    buf = np.empty(CHUNK_SIZE)
    count, stats = 0, [(0.0, 0.0)] * len(grid)
    for x in chunks:
        m, vals = len(x), buf[:len(x)]
        count += m
        if not mgf:
            np.abs(x, out=x)
            np.log(x, out=x)
        for j, s in enumerate(grid):
            if s == 0:  # as x ** 0.0, also where log|x| is inf or nan
                vals.fill(1.0)
            else:
                np.multiply(s, x, out=vals)
                np.exp(vals, out=vals)
            chunk_mean = float(vals.mean())
            vals -= chunk_mean
            mean, m2 = stats[j]
            delta = chunk_mean - mean
            if math.isfinite(delta):
                mean += delta * (m / count)
            else:  # the values are >= 0: a mean is inf or nan; the sum keeps it
                mean += chunk_mean
            # the weight is 0 on the first chunk, where delta * delta may be
            # inf, so it goes first; a float's ** 2 raises OverflowError
            m2 += (float(np.einsum("i,i", vals, vals))
                   + (count - m) * m / count * delta * delta)
            stats[j] = mean, m2
    return stats


def _estimates(entry, s_grid, n, seed):
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
    stats = _fold(chunks(recipe, n, seed), grid, entry.kind == "mgf")
    return [MCEstimate(mean, math.sqrt(m2 / (n - 1)) / math.sqrt(n), n, s,
                       strip.rho_minus < 2 * s < strip.rho_plus)
            for s, (mean, m2) in zip(grid, stats)]


def mc_moment(entry: DistributionEntry, s: float, n: int = 10 ** 6,
              seed: int = 0) -> MCEstimate:
    """Monte Carlo estimate of the entry's moment function at real s."""
    return _estimates(entry, [s], n, seed)[0]


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
                 seed: int = 0) -> VerificationReport:
    """Check the sampler against the exact moment function on a grid of s.

    Points whose estimator has infinite variance (2s outside the strip)
    are reported for inspection but excluded from the overall verdict,
    since a z-score against an invalid stderr means nothing.  A point
    passes when |z| <= Z_PASS; one whose estimate or stderr is not finite
    gets z = nan and fails.
    """
    points = []
    for est in _estimates(entry, s_grid, n, seed):
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
    if n_max < 1:
        raise ValidationError("n_max must be at least 1")
    n = np.arange(1, n_max + 1, dtype=np.float64)
    drift = np.cumsum(1.0 / n) - np.log(n)
    return np.column_stack((n, drift))
