"""Numerical recovery of densities from Gamma-type moment functions.

Mellin-kind forms are inverted along a vertical contour Re s = c inside
the strip; MGF-kind forms by Fourier inversion of the characteristic
function.  Both rely on the e^{-pi*gamma*|t|/2} decay of Gamma products
along vertical lines, which is also what fixes the truncation point, so
forms with gamma <= 0 are rejected outright.

One contour sum (_contour_sum) serves two paths.  density_table and
check_normalization take or return ndarrays, so they import numpy and run
the sum on arrays.  density and density_rows run it on one Python float
x at a time, without numpy, while the table's (x, node) count is at most
SCALAR_WORK, and on arrays above it.
"""

from __future__ import annotations

import cmath
import math

from .catalog import DistributionEntry
from .errors import InversionError, ValidationError, real
from .forms import AnalyticityStrip, GammaTypeForm
from .specfun import exp_or_inf

__all__ = ["density", "density_rows", "density_table", "check_normalization"]

# absolute accuracy; a tenth each goes to the truncated tail and the step
TARGET = 1e-8

# most nodes one trapezoid sum may take (16 MiB of F values); tables in
# ordinary use take a few hundred
MAX_NODES = 1 << 20

# most (x, node) pairs that density and density_rows sum on Python floats
# (about 35 ns each); above it the sum runs on arrays, and numpy's import
# pays for itself.  Fresh CLI processes, medians of 7 to 9 (2-vCPU Xeon,
# Python 3.11, numpy 2.4), floats against arrays: logistic (145 nodes)
# 313 against 337 ms at 6000 points, 367 against 363 ms at 8000;
# ise_density_zero (553 nodes) 198 against 226 ms at 1500 points, 268
# against 213 ms at 2000
SCALAR_WORK = 10 ** 6

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
    if prof.gamma <= 0:
        raise InversionError(
            "no vertical decay (gamma <= 0); inversion unsupported")
    # |F(c+it)| ~ C1' t^p e^{-pi gamma t / 2}; T brings it to TARGET / 10
    p = prof.gamma_prime * c + prof.delta
    log_ratio = math.log(max(prof.c1, 1e-300) / (0.1 * TARGET))
    t = 50.0
    for _ in range(40):
        t_new = 2 / (math.pi * prof.gamma) * (log_ratio + (
            p * math.log(max(t, 2.0)) if p > 0 else 0.0))
        t_new = max(t_new, 20.0)
        if abs(t_new - t) < 1e-9:
            break
        t = t_new
    return t


def _contour(form: GammaTypeForm, kind: str, umax: float,
             abscissa: float | None):
    """The abscissa c, the step h and F(c + i t_k) at the nodes t_k of the
    trapezoid sum that inverts form at every x with |u| <= umax (u = log x,
    or x for the MGF kind); see _invert."""
    strip = form.strip()
    c = _resolve_abscissa(strip, kind, abscissa)
    big_t = _truncation(form, c)
    if not math.isfinite(big_t):  # C1 past the float range
        raise InversionError(f"no finite truncation point, T = {big_t}")
    d = 0.5 * min(c - strip.rho_minus, strip.rho_plus - c, 2.0)
    # Python floats: an overflowing T/h becomes inf without a numpy warning
    h = 2 * math.pi * d / (math.log(10 / TARGET) + d * umax)
    nodes = big_t / h if h else math.inf  # h is 0 for an infinite x
    if not nodes <= MAX_NODES:  # also nan, from a nan x
        raise InversionError(f"the trapezoid sum would need {nodes:.3g} "
                             f"nodes (at most {MAX_NODES})")
    return c, h, [form.evaluate(complex(c, (k + 0.5) * h))
                  for k in range(math.ceil(nodes))]


class _Floats:
    """The exp, log and power of numpy that _contour_sum calls, on a Python
    float (exp on a complex too): past the float range they give inf, as
    numpy does, where math and float's ** raise OverflowError."""

    log = staticmethod(math.log)

    @staticmethod
    def exp(z):
        return cmath.exp(z) if isinstance(z, complex) else exp_or_inf(z)

    @staticmethod
    def power(x, p):
        try:
            return x ** p
        except OverflowError:
            return math.inf


def _horner(values, z):
    """sum_k values[k] z^k."""
    total = 0 * z
    for value in reversed(values):
        total = total * z + value
    return total


def _contour_sum(x, kind: str, c: float, h: float, values, xp):
    """Re sum_k F_k w_k(x) h / pi at x, a Python float (xp is _Floats) or a
    float ndarray (xp is numpy), by Horner's rule in e^(-iuh)."""
    u = xp.log(x) if kind == "mellin" else x
    # e^(-iuh) is freed before the next arrays are made
    sums = _horner(values, xp.exp(-1j * h * u)) * xp.exp(-.5j * h * u)
    scale = xp.power(x, -c - 1) if kind == "mellin" else xp.exp(-c * x)
    return sums.real * scale * (h / math.pi)


def _invert(form: GammaTypeForm, kind: str, xs, abscissa: float | None,
            array: bool = False):
    """Density at every x of xs (x > 0 for the Mellin kind) from one
    trapezoid sum: a float ndarray if array, for an ndarray xs, else a list
    of floats, for a list xs.

    F(c+it) is evaluated once per node t_k = (k + 1/2) h, k < K = ceil(T/h),
    and weighted by x^(-c-1-it) (Mellin kind) or e^(-itx) (MGF kind).  The
    integrand is analytic in |Im t| < d, so the rule errs by about
    e^(d|u| - 2 pi d/h), u = log x or x; h makes that TARGET / 10.  Horner's
    rule in e^(-iuh) rounds the sum by about (3K + 2) eps sum_k |F_k| before
    the scaling (Higham, Accuracy and Stability of Numerical Algorithms,
    5.1).  The half-step offset keeps nodes off t = 0, where a cancelled pole
    may sit.  InversionError if T is not finite or T/h exceeds MAX_NODES.

    The sum (_contour_sum) runs on the array if array, else on each Python
    float x while the (x, node) count is at most SCALAR_WORK, else on an
    array of xs; numpy is imported only for an array.
    """
    if not len(xs):
        return xs
    if array:
        import numpy as np
        umax = float(abs(np.log(xs) if kind == "mellin" else xs).max())
    else:
        abs_u = [abs(math.log(x) if kind == "mellin" else x) for x in xs]
        # a nan u makes the node count nan, wherever it sits in xs
        umax = math.nan if any(map(math.isnan, abs_u)) else max(abs_u)
    c, h, values = _contour(form, kind, umax, abscissa)
    if array:
        return _contour_sum(xs, kind, c, h, values, np)
    if len(xs) * len(values) > SCALAR_WORK:
        import numpy as np
        return _contour_sum(np.array(xs), kind, c, h, values, np).tolist()
    return [_contour_sum(x, kind, c, h, values, _Floats) for x in xs]


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
    return _invert(form, kind, [x], abscissa)[0]


def _split(entry: DistributionEntry):
    """How a table inverts: whether it inverts at x, a float or a float
    ndarray, the point it inverts at, and the weight of that inversion.

    Symmetric entries model |X|, so the inverted density of |X| is split
    evenly between the two half-lines, and f(0) is _at_zero; any other
    entry inverts inside its support and is 0 outside it.
    """
    if entry.symmetric:
        return (lambda x: x != 0.0), abs, 0.5
    sup = entry.support
    lo, hi = sup.lo, sup.hi
    return (lambda x: (lo < x) & (x < hi)), (lambda x: x), 1.0


def _at_zero(entry: DistributionEntry) -> float:
    """f(0) of a symmetric entry.

    f ~ L x^(-rho-1) near 0 puts the first pole of F = E|X|^s at s = rho,
    so lim_{x->0+} f(x) is 0 when that pole lies left of -1, L = Res_{s=-1}
    F when it is a simple pole at -1, else +inf.
    """
    return 0.5 * entry.form._residue_at(-1.0)


def density_rows(entry: DistributionEntry, xs,
                 abscissa: float | None = None) -> list:
    """density_table's rows as a list of (x, f(x)) float pairs, computed
    without numpy while the (x, node) count is at most SCALAR_WORK."""
    inside, at, weight = _split(entry)
    xs = [real(x, "x", finite=False) for x in xs]
    inverted = iter(_invert(entry.form, entry.kind,
                            [at(x) for x in xs if inside(x)], abscissa))
    outside = _at_zero(entry) if entry.symmetric and 0.0 in xs else 0.0
    return [(x, weight * next(inverted) if inside(x) else outside)
            for x in xs]


def density_table(entry: DistributionEntry, xs,
                  abscissa: float | None = None):
    """Rows (x, f(x)) over the grid as an ndarray, honoring support and
    symmetry (_split).

    Each x is a real number (errors.real), nan and inf included: a table is
    0 off the support, and a nan the inversion meets fails its node bound.
    """
    import numpy as np
    inside, at, weight = _split(entry)
    xs = np.array([real(x, "x", finite=False) for x in xs])
    fs = np.zeros(xs.size)
    mask = inside(xs)
    if entry.symmetric and not mask.all():
        fs[~mask] = _at_zero(entry)
    fs[mask] = weight * _invert(entry.form, entry.kind, at(xs[mask]),
                                abscissa, array=True)
    return np.column_stack((xs, fs))


def _grid_upper(entry):
    import numpy as np
    hi = entry.support.hi
    if not math.isinf(hi):
        return hi
    probes = 8.0 * 2.0 ** np.arange(5)
    small = np.abs(_invert(entry.form, entry.kind, probes, None,
                           array=True)) < 1e-9
    return float(probes[small.argmax()]) if small.any() else 256.0


def check_normalization(entry: DistributionEntry) -> float:
    """Trapezoid integral of the inverted density over a covering grid,
    along the mid-strip contour."""
    import numpy as np
    hi = _grid_upper(entry)
    lo = entry.support.lo
    if lo == -math.inf:
        xs = np.linspace(-hi, hi, NORMALIZATION_POINTS)
    else:
        xs = np.linspace(lo + (hi - lo) * 1e-6, hi, NORMALIZATION_POINTS)
    table = density_table(entry, xs)
    return float(np.trapezoid(table[:, 1], table[:, 0]))
