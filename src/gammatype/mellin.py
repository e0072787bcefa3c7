"""Numerical recovery of densities from Gamma-type moment functions.

Mellin-kind forms are inverted along a vertical contour Re s = c inside
the strip; MGF-kind forms by Fourier inversion of the characteristic
function.  Both rely on the e^{-pi*gamma*|t|/2} decay of Gamma products
along vertical lines, which is also what fixes the truncation point, so
forms with gamma <= 0 are rejected outright.
"""

from __future__ import annotations

import math

import numpy as np

from .catalog import DistributionEntry
from .errors import InversionError, ValidationError, real
from .forms import AnalyticityStrip, GammaTypeForm

__all__ = ["density", "density_table", "check_normalization"]

# absolute accuracy; a tenth each goes to the truncated tail and the step
TARGET = 1e-8

# most nodes one trapezoid sum may take (16 MiB of F values); tables in
# ordinary use take a few hundred
MAX_NODES = 1 << 20

# grid points of check_normalization's trapezoid integral
NORMALIZATION_POINTS = 1200


def _resolve_abscissa(strip: AnalyticityStrip, kind: str,
                      abscissa: float | None) -> float:
    """The contour Re s = c: ``abscissa`` if given, else mid-strip."""
    if abscissa is not None:
        c = real(abscissa, "abscissa")
        if not strip.rho_minus < c < strip.rho_plus:
            raise InversionError(
                f"abscissa {c} outside strip "
                f"({strip.rho_minus}, {strip.rho_plus})")
        return c
    if kind == "mgf":
        return 0.0
    # midway between the finite edges, an infinite edge counting as 0
    return sum(e for e in (strip.rho_minus, strip.rho_plus)
               if not math.isinf(e)) / 2


def _truncation(form: GammaTypeForm, c: float) -> float:
    prof = form.asymptotic_profile()
    gamma = float(prof.gamma)
    if gamma <= 0:
        raise InversionError(
            "no vertical decay (gamma <= 0); inversion unsupported")
    # |F(c+it)| ~ C1' t^p e^{-pi gamma t / 2}; T brings it to TARGET / 10
    p = float(prof.gamma_prime) * c + prof.delta
    log_ratio = math.log(max(prof.c1, 1e-300) / (0.1 * TARGET))
    t = 50.0
    for _ in range(40):
        t_new = 2 / (math.pi * gamma) * (log_ratio + (
            p * math.log(max(t, 2.0)) if p > 0 else 0.0))
        t_new = max(t_new, 20.0)
        if abs(t_new - t) < 1e-9:
            break
        t = t_new
    return t


def _invert(form: GammaTypeForm, kind: str, xs,
            abscissa: float | None) -> np.ndarray:
    """Density at every x (x > 0 for the Mellin kind) from one trapezoid sum.

    F(c+it) is evaluated once per node t_k = (k + 1/2) h, k < K = ceil(T/h),
    and weighted by x^(-c-1-it) (Mellin kind) or e^(-itx) (MGF kind).  The
    integrand is analytic in |Im t| < d, so the rule errs by about
    e^(d|u| - 2 pi d/h), u = log x or x; h makes that TARGET / 10.  Horner's
    rule in e^(-iuh) rounds the sum by about (3K + 2) eps sum_k |F_k| before
    the scaling (Higham, Accuracy and Stability of Numerical Algorithms,
    5.1).  The half-step offset keeps nodes off t = 0, where a cancelled pole
    may sit.  InversionError if T is not finite or T/h exceeds MAX_NODES.
    """
    xs = np.asarray(xs, dtype=float)
    if not xs.size:
        return np.zeros(0)
    strip = form.strip()
    c = _resolve_abscissa(strip, kind, abscissa)
    big_t = _truncation(form, c)
    if not math.isfinite(big_t):  # C1 past the float range
        raise InversionError(f"no finite truncation point, T = {big_t}")
    u = np.log(xs) if kind == "mellin" else xs
    d = 0.5 * min(c - strip.rho_minus, strip.rho_plus - c, 2.0)
    # Python floats: an overflowing T/h becomes inf without a numpy warning
    h = 2 * math.pi * d / (math.log(10 / TARGET) + d * float(abs(u).max()))
    nodes = big_t / h
    if not nodes <= MAX_NODES:  # also nan, from a nan x
        raise InversionError(f"the trapezoid sum would need {nodes:.3g} "
                             f"nodes (at most {MAX_NODES})")
    t = (np.arange(math.ceil(nodes)) + 0.5) * h
    values = np.array([form.evaluate(complex(c, tk)) for tk in t])
    sums = np.polyval(values[::-1], np.exp(-1j * h * u)) * np.exp(-.5j * h * u)
    scale = xs ** (-c - 1) if kind == "mellin" else np.exp(-c * xs)
    return sums.real * scale * (h / math.pi)


def density(form: GammaTypeForm, kind: str, x: float,
            abscissa: float | None = None) -> float:
    """Density at x of the law whose moment function (or MGF) is ``form``.

    The contour runs along Re s = ``abscissa``, by default mid-strip.
    """
    if kind not in ("mellin", "mgf"):
        raise ValidationError(f"unknown kind {kind!r}")
    x = real(x, "x")
    if kind == "mellin" and x <= 0.0:
        return 0.0
    return float(_invert(form, kind, [x], abscissa)[0])


def _half_density_at_zero(form: GammaTypeForm) -> float:
    """Half of lim_{x->0+} f(x), where f is the density of |X| and F = E|X|^s.

    f ~ L x^(-rho-1) near 0 puts the first pole of F at s = rho, so the
    limit is 0 when that pole lies left of -1, L = Res_{s=-1} F when it is
    a simple pole at -1, and +inf otherwise.
    """
    return 0.5 * form._residue_at(-1.0)


def density_table(entry: DistributionEntry, xs,
                  abscissa: float | None = None) -> np.ndarray:
    """Rows (x, f(x)) over the grid, honoring support and symmetry.

    Symmetric entries model |X|, so the inverted density of |X| is split
    evenly between the two half-lines.  Each x is a real number (errors.real),
    nan and inf included: a table is 0 off the support, and a nan the
    inversion meets fails its node bound.
    """
    xs = np.array([real(x, "x", finite=False) for x in xs])
    sup = entry.support
    fs = np.zeros(xs.size)
    if sup.symmetric:
        inside = xs != 0.0
        if not inside.all():
            fs[~inside] = _half_density_at_zero(entry.form)
        fs[inside] = 0.5 * _invert(entry.form, entry.kind,
                                   np.abs(xs[inside]), abscissa)
    else:
        inside = (sup.lo < xs) & (xs < sup.hi)
        fs[inside] = _invert(entry.form, entry.kind, xs[inside], abscissa)
    return np.column_stack((xs, fs))


def _grid_upper(entry):
    hi = entry.support.hi
    if not math.isinf(hi):
        return hi
    probes = 8.0 * 2.0 ** np.arange(5)
    small = np.abs(_invert(entry.form, entry.kind, probes, None)) < 1e-9
    return float(probes[small.argmax()]) if small.any() else 256.0


def check_normalization(entry: DistributionEntry) -> float:
    """Trapezoid integral of the inverted density over a covering grid,
    along the mid-strip contour."""
    hi = _grid_upper(entry)
    if entry.support.symmetric or entry.support.lo == -math.inf:
        xs = np.linspace(-hi, hi, NORMALIZATION_POINTS)
    else:
        lo = entry.support.lo
        xs = np.linspace(lo + (hi - lo) * 1e-6, hi, NORMALIZATION_POINTS)
    table = density_table(entry, xs)
    return float(np.trapezoid(table[:, 1], table[:, 0]))

