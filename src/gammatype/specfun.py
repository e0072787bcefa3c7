"""Self-contained log-Gamma kernel on the complex plane.

Everything else in the package funnels its Gamma evaluations through
``log_gamma`` so accuracy is controlled in exactly one place.  The kernel
uses a 15-term Lanczos approximation (g = 607/128) for Re z >= 1/2,
a Stirling series far from the real axis, and the downward recurrence
otherwise.  All work happens in log space; exponentiation saturates to an
infinite sentinel once the exponent passes the float64 range.
"""

from __future__ import annotations

import cmath
import math

from .errors import PoleError, ValidationError

__all__ = ["log_gamma", "gamma_real", "log_gamma_real", "OVERFLOW_EXPONENT"]

# exp() overflows just above this; used as the saturation threshold
OVERFLOW_EXPONENT = 709.0

_LOG_SQRT_TWO_PI = 0.5 * math.log(2.0 * math.pi)
_LOG_PI = math.log(math.pi)

# Lanczos coefficients for g = 607/128, n = 15 (Godfrey's set, good to
# ~1e-15 relative in the half-plane Re z >= 1/2).
_LANCZOS_G = 607.0 / 128.0
_LANCZOS_C = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    0.33994649984811888699e-4,
    0.46523628927048575665e-4,
    -0.98374475304879564677e-4,
    0.15808870322491248884e-3,
    -0.21026444172410488319e-3,
    0.21743961811521264320e-3,
    -0.16431810653676389022e-3,
    0.84418223983852743293e-4,
    -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
)

# Bernoulli quotients B_{2k} / (2k (2k-1)) for the Stirling series.
_STIRLING_COEF = (
    1.0 / 12.0,
    -1.0 / 360.0,
    1.0 / 1260.0,
    -1.0 / 1680.0,
    1.0 / 1188.0,
    -691.0 / 360360.0,
    1.0 / 156.0,
    -3617.0 / 122400.0,
)


def _is_nonpositive_integer(z: complex) -> bool:
    return z.imag == 0.0 and z.real <= 0.0 and z.real == round(z.real)


def _lanczos(z: complex) -> complex:
    # valid for Re z >= 0.5
    zm1 = z - 1.0
    acc = _LANCZOS_C[0]
    for k in range(1, len(_LANCZOS_C)):
        acc += _LANCZOS_C[k] / (zm1 + k)
    t = zm1 + _LANCZOS_G + 0.5
    return (zm1 + 0.5) * cmath.log(t) - t + _LOG_SQRT_TWO_PI + cmath.log(acc)


def _stirling(z: complex) -> complex:
    # asymptotic series; requires |z| large and |arg z| bounded away from pi
    out = (z - 0.5) * cmath.log(z) - z + _LOG_SQRT_TWO_PI
    zpow = z
    z2 = z * z
    for c in _STIRLING_COEF:
        out += c / zpow
        zpow *= z2
    return out


def log_gamma(z: complex) -> complex:
    """Principal branch of log Gamma(z).

    Raises :class:`PoleError` at the nonpositive integers and
    :class:`ValidationError` at non-finite z.  For negative real ``z`` the
    branch is the limit from the upper half plane (the same convention as
    the principal complex logarithm on the negative axis).
    """
    z = complex(z)
    if not cmath.isfinite(z):
        raise ValidationError(f"log_gamma needs a finite argument, got {z!r}")
    if _is_nonpositive_integer(z):
        raise PoleError(z)
    if z.real >= 0.5:
        return _lanczos(z)
    if abs(z.imag) >= 10.0:
        # Stirling is valid here and avoids reflection branch bookkeeping
        return _stirling(z)
    # shift into the Lanczos half-plane; the recurrence with the principal
    # log is exact off the negative real axis and matches the upper-limit
    # convention on it
    shift = int(math.ceil(0.5 - z.real))
    acc = 0.0 + 0.0j
    for k in range(shift):
        acc += cmath.log(z + k)
    return _lanczos(z + shift) - acc


def log_gamma_real(x: float) -> tuple[float, int]:
    """Return ``(log |Gamma(x)|, sign of Gamma(x))`` for real non-pole x."""
    if _is_nonpositive_integer(complex(x)):
        raise PoleError(x)
    if x > 0.0:
        return log_gamma(x).real, 1
    # reflection: Gamma(x) = pi / (sin(pi x) Gamma(1 - x))
    s = math.sin(math.pi * x)
    mag = _LOG_PI - math.log(abs(s)) - log_gamma(1.0 - x).real
    return mag, (1 if s > 0.0 else -1)


def gamma_real(x: float) -> float:
    """Gamma(x) for real x, with reflection sign handling below zero.

    Saturates to a signed infinity once log |Gamma| exceeds the float64
    exponent range.
    """
    mag, sign = log_gamma_real(x)
    if mag > OVERFLOW_EXPONENT:
        return sign * math.inf
    return sign * math.exp(mag)
