"""Numerical recovery of densities from Gamma-type moment functions.

Mellin-kind forms are inverted along a vertical contour Re s = c inside
the strip; MGF-kind forms by Fourier inversion of the characteristic
function.  Both rely on the e^{-pi*gamma*|t|/2} decay of Gamma products
along vertical lines, which is also what fixes the truncation point, so
forms with gamma <= 0 are rejected outright.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .catalog import DistributionEntry
from .errors import InversionError, ValidationError
from .forms import OFFSET_TOL, AnalyticityStrip, GammaTypeForm, pole_index
from .specfun import gamma_real

__all__ = [
    "InversionSpec", "density", "density_table", "check_normalization",
    "save_density_table",
]

# absolute accuracy; a tenth each goes to the truncated tail and the step
TARGET = 1e-8


class InversionSpec:
    """Contour choice; the default abscissa sits mid-strip."""

    def __init__(self, abscissa=None):
        self.abscissa = abscissa

    def resolve_abscissa(self, strip: AnalyticityStrip, kind: str) -> float:
        if self.abscissa is not None:
            c = float(self.abscissa)
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
    # |F(c+it)| ~ C1' t^p e^{-pi gamma t / 2}; solve for the tail bound
    p = float(prof.gamma_prime) * c + prof.delta
    budget = 0.1 * TARGET
    c1 = max(prof.c1, 1e-300)
    t = 50.0
    for _ in range(40):
        t_new = 2 / (math.pi * gamma) * (
            math.log(c1 / budget) + max(p, 0.0) * math.log(max(t, 2.0)))
        t_new = max(t_new, 20.0)
        if abs(t_new - t) < 1e-9:
            break
        t = t_new
    return t


def _invert(form: GammaTypeForm, kind: str, xs,
            spec: InversionSpec) -> np.ndarray:
    """Density at every x (x > 0 for the Mellin kind) from one trapezoid sum.

    F(c+it) is evaluated once per node t_k = (k + 1/2) h, k < ceil(T/h),
    and weighted by x^(-c-1-it) (Mellin kind) or e^(-itx) (MGF kind).  The
    integrand is analytic in |Im t| < d, so the rule errs by about
    e^(d|u| - 2 pi d/h), u = log x or x; h makes that TARGET / 10.  The
    half-step offset keeps nodes off t = 0, where a cancelled pole may sit.
    """
    xs = np.asarray(xs, dtype=float)
    if not xs.size:
        return np.zeros(0)
    strip = form.strip()
    c = spec.resolve_abscissa(strip, kind)
    big_t = _truncation(form, c)
    u = np.log(xs) if kind == "mellin" else xs
    d = 0.5 * min(c - strip.rho_minus, strip.rho_plus - c, 2.0)
    h = 2 * math.pi * d / (math.log(10 / TARGET) + d * np.abs(u).max())
    t = (np.arange(math.ceil(big_t / h)) + 0.5) * h
    values = np.array([form.evaluate(complex(c, tk)) for tk in t])
    rows = max(1, (1 << 20) // t.size)  # phase matrix blocks of <= 16 MiB
    sums = np.concatenate([np.exp(-1j * np.outer(u[i:i + rows], t)) @ values
                           for i in range(0, u.size, rows)])
    scale = xs ** (-c - 1) if kind == "mellin" else np.exp(-c * xs)
    return sums.real * scale * (h / math.pi)


def density(form: GammaTypeForm, kind: str, x: float,
            spec: InversionSpec | None = None) -> float:
    """Density at x of the law whose moment function (or MGF) is ``form``."""
    if kind not in ("mellin", "mgf"):
        raise ValidationError(f"unknown kind {kind!r}")
    x = float(x)
    if kind == "mellin" and x <= 0.0:
        return 0.0
    return float(_invert(form, kind, [x], spec or InversionSpec())[0])


def _half_density_at_zero(form: GammaTypeForm) -> float:
    """Half of lim_{x->0+} f(x), where f is the density of |X| and F = E|X|^s.

    f ~ L x^(-rho-1) near 0 puts the first pole of F at s = rho, so the
    limit is 0 when that pole lies left of -1, L = Res_{s=-1} F when it is
    a simple pole at -1, and +inf otherwise.
    """
    rho = form.strip().rho_minus
    if rho < -1.0 - OFFSET_TOL:
        return 0.0
    if rho > -1.0 + OFFSET_TOL:
        return math.inf
    # Gamma(a s + b) has residue (-1)^n / (n! a) where a s + b = -n
    order, res = 0, form.constant * math.exp(-form.log_scale)
    for factors, side in ((form.num, 1), (form.den, -1)):
        for f in factors:
            a = float(f.slope)
            n = pole_index(a, f.offset, -1.0)
            if n is not None:
                order += side
                res *= ((-1) ** n / (math.factorial(n) * a)) ** side
            else:
                res *= gamma_real(f.offset - a) ** side
    return 0.5 * res if order == 1 else math.inf


def density_table(entry: DistributionEntry, xs,
                  spec: InversionSpec | None = None) -> np.ndarray:
    """Rows (x, f(x)) over the grid, honoring support and symmetry.

    Symmetric entries model |X|, so the inverted density of |X| is split
    evenly between the two half-lines.
    """
    spec = spec or InversionSpec()
    xs = np.array([float(x) for x in xs])
    sup = entry.support
    fs = np.zeros(xs.size)
    if sup.symmetric:
        inside = xs != 0.0
        if not inside.all():
            fs[~inside] = _half_density_at_zero(entry.form)
        fs[inside] = 0.5 * _invert(entry.form, entry.kind,
                                   np.abs(xs[inside]), spec)
    else:
        inside = (sup.lo < xs) & (xs < sup.hi)
        fs[inside] = _invert(entry.form, entry.kind, xs[inside], spec)
    return np.column_stack((xs, fs))


def _grid_upper(entry, spec):
    hi = entry.support.hi
    if not math.isinf(hi):
        return hi
    probes = 8.0 * 2.0 ** np.arange(5)
    small = np.abs(_invert(entry.form, entry.kind, probes, spec)) < 1e-9
    return float(probes[small.argmax()]) if small.any() else 256.0


def check_normalization(entry: DistributionEntry,
                        spec: InversionSpec | None = None,
                        points: int = 1200) -> float:
    """Trapezoid integral of the inverted density over a covering grid."""
    spec = spec or InversionSpec()
    hi = _grid_upper(entry, spec)
    if entry.support.symmetric or entry.support.lo == -math.inf:
        xs = np.linspace(-hi, hi, points)
    else:
        lo = entry.support.lo
        xs = np.linspace(lo + (hi - lo) * 1e-6, hi, points)
    table = density_table(entry, xs, spec)
    return float(np.trapezoid(table[:, 1], table[:, 0]))


def save_density_table(table: np.ndarray, path: str, fmt: str = "csv") -> None:
    if fmt == "csv":
        with open(path, "w") as fh:
            fh.write("x,density\n")
            for x, f in table:
                fh.write(f"{float(x)!r},{float(f)!r}\n")
    elif fmt == "json":
        with open(path, "w") as fh:
            json.dump([{"x": float(x), "density": float(f)}
                       for x, f in table], fh, indent=2)
            fh.write("\n")
    else:
        raise ValidationError(f"unknown density format {fmt!r}")
