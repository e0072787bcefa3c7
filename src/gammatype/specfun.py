"""Self-contained log-Gamma kernel on the complex plane.

Everything else in the package funnels its Gamma evaluations through
``log_gamma`` so accuracy is controlled in exactly one place.  The kernel
uses a 15-term Lanczos approximation (g = 607/128) for Re z >= 1/2 and
one reflection onto that half-plane otherwise, with no loop whose length
depends on z.  All work happens in log space; exponentiation saturates to
an infinite sentinel once the exponent passes the float64 range.
"""

from __future__ import annotations

import cmath
import math

from .errors import PoleError, number

__all__ = ["log_gamma", "gamma_real", "log_gamma_real", "OVERFLOW_EXPONENT"]

# exp() overflows just above this; used as the saturation threshold
OVERFLOW_EXPONENT = 709.0

_LOG_SQRT_TWO_PI = 0.5 * math.log(2.0 * math.pi)
_LOG_TWO_PI = math.log(2.0 * math.pi)
_LOG_TWO = math.log(2.0)

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


def log_gamma(z: complex) -> complex:
    """Principal branch of log Gamma(z).

    Raises :class:`PoleError` at the nonpositive integers and
    :class:`ValidationError` where z is not a finite number.  For negative
    real ``z`` the branch is the limit from the upper half plane (the same
    convention as the principal complex logarithm on the negative axis).
    """
    z = number(z, "log_gamma argument")
    if _is_nonpositive_integer(z):
        raise PoleError(z)
    if z.real >= 0.5:
        return _lanczos(z)
    # reflection (Hare 1997), worked with y = |Im z| and conjugated back:
    # log Gamma(z) = log 2pi - pi y + i pi k - log S - log Gamma(1 - z),
    # S = 2 e^(-pi y) sin(pi (r + i y)), z = k + r + i y, k = round(Re z).
    # S has the argument of sin(pi (r + i y)), within [0, pi], so no branch
    # correction is needed; built from the exactly reduced r, it neither
    # overflows for large y nor cancels near the poles.  On the real axis
    # y is +0.0 for either sign of Im z, so Im S is +0.0 and the negative
    # axis gets the limit from above.
    x, y = z.real, abs(z.imag)
    k = round(x)
    r = x - k
    # S is linear in r and y near 0; below 2^-900 both are scaled by 2^300
    # so that sin and expm1 see normal floats, and 300 log 2 is taken back
    m = 300 if max(abs(r), y) < 2.0 ** -900 else 0
    rm, ym = math.ldexp(r, m), math.ldexp(y, m)
    e = math.expm1(-2.0 * math.pi * ym)
    s = complex(math.sin(math.pi * rm) * (2.0 + e),
                -math.cos(math.pi * rm) * e)
    out = (complex(_LOG_TWO_PI - math.pi * y + m * _LOG_TWO, math.pi * k)
           - cmath.log(s) - _lanczos(complex(1.0 - x, -y)))
    return out.conjugate() if z.imag < 0.0 else out


def log_gamma_real(x: float) -> tuple[float, int]:
    """Return ``(log |Gamma(x)|, sign of Gamma(x))`` for real non-pole x."""
    mag = log_gamma(x).real
    return mag, (-1 if x < 0.0 and math.ceil(-x) % 2 else 1)


def gamma_real(x: float) -> float:
    """Gamma(x) for real x, with reflection sign handling below zero.

    Saturates to a signed infinity once log |Gamma| exceeds the float64
    exponent range.
    """
    mag, sign = log_gamma_real(x)
    if mag > OVERFLOW_EXPONENT:
        return sign * math.inf
    return sign * math.exp(mag)
