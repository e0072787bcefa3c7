"""Seeded sampling of recipe trees and Monte Carlo moment verification.

Generation is chunked: chunk ``c`` of a run with seed ``s`` hands leaf
``i`` the generator seeded by ``SeedSequence((s, c, i))``.  Chunks are
therefore independent of execution order, so a thread pool produces
exactly the same array as a sequential loop, value for value.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from .catalog import DistributionEntry
from .errors import MomentRangeError, ValidationError
from .recipes import Recipe, evaluate_recipe

__all__ = [
    "CHUNK_SIZE", "recipe_of", "sample", "save_samples", "MCEstimate",
    "mc_moment", "VerificationPoint", "VerificationReport", "verify_entry",
    "harmonic_drift",
]

CHUNK_SIZE = 1 << 16


def recipe_of(entry: DistributionEntry) -> Recipe:
    """The entry's sampling recipe; ValidationError if it has none."""
    if entry.recipe is None:
        raise ValidationError(f"{entry.name}: no sampling recipe available")
    return entry.recipe


def sample(recipe: Recipe, n: int, seed: int = 0,
           workers: int | None = None) -> np.ndarray:
    """Draw n values; identical output for any worker count."""
    if n < 1:
        raise ValidationError("n must be at least 1")
    if seed < 0:
        raise ValidationError(f"seed must be non-negative, got {seed}")

    def chunk(c):
        # leaf i gets SeedSequence((seed, c, i)); evaluate_recipe asks for
        # each leaf index once per chunk
        return evaluate_recipe(recipe,
                               lambda i: np.random.default_rng((seed, c, i)),
                               min(CHUNK_SIZE, n - c * CHUNK_SIZE))

    chunks = range((n + CHUNK_SIZE - 1) // CHUNK_SIZE)
    if workers and workers > 1 and len(chunks) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(chunk, chunks))
    else:
        parts = [chunk(c) for c in chunks]
    return np.concatenate(parts) if len(parts) > 1 else parts[0]


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


def _moment_mean(entry, x, s):
    """Sample mean of X^s (e^{sX} for an MGF) and its standard error."""
    if entry.kind == "mgf":
        vals = np.exp(s * x)
    else:
        vals = np.abs(x) ** s if s else np.ones_like(x)
    return float(vals.mean()), float(vals.std(ddof=1)) / math.sqrt(len(x))


def _estimates(entry, s_grid, n, seed, workers):
    """MCEstimates at every s of s_grid (default if None) from one sample.

    The confidence interval is only meaningful when the second moment of
    the estimator exists, i.e. when 2s also lies in the strip; otherwise
    the estimate is still returned but flagged ``ci_valid=False``.
    """
    recipe = recipe_of(entry)
    strip = entry.form.strip()
    grid = _default_grid(strip) if s_grid is None else [float(s) for s in s_grid]
    for s in grid:
        if not strip.rho_minus < s < strip.rho_plus:
            raise MomentRangeError(
                f"{entry.name}: s={s} outside the open strip "
                f"({strip.rho_minus}, {strip.rho_plus})")
    x = sample(recipe, n, seed, workers=workers)
    return [MCEstimate(*_moment_mean(entry, x, s), n, s,
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
    since a z-score against an invalid stderr means nothing.
    """
    points = []
    for est in _estimates(entry, s_grid, n, seed, workers):
        exact = float(entry.form.evaluate(est.s).real)
        zscore = (est.mean - exact) / est.stderr if est.stderr > 0 else 0.0
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
