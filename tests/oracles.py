"""Independent numerical oracles used by the test suite.

Nothing here imports the package's own special-function kernel: Gamma
evaluations go through mpmath, and asymptotic profiles are recovered by
least-squares fits to high-|t| samples of log F along a vertical line.
That keeps every comparison a genuine cross-check rather than the
library agreeing with itself.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction

import mpmath as mp
import numpy as np
from scipy.integrate import quad


def mp_log_gamma(z: complex) -> complex:
    return complex(mp.loggamma(mp.mpc(z)))


def mp_form_log(form, s: complex) -> complex:
    """log F(s) summed factor by factor with mpmath loggamma."""
    total = mp.log(mp.mpf(form.constant)) + mp.mpf(form.log_scale) * mp.mpc(s)
    for f in form.num:
        total += mp.loggamma(float(f.slope) * mp.mpc(s) + f.offset)
    for f in form.den:
        total -= mp.loggamma(float(f.slope) * mp.mpc(s) + f.offset)
    return complex(total)


def fit_profile(form, t_lo: float = 300.0, t_hi: float = 6000.0,
                points: int = 14):
    """Recover (gamma, gamma_prime, delta, kappa, log C1) from log F(it).

    Along the upper imaginary axis the expansion
        log F(it) = i gamma' t log t + i (kappa - gamma') t
                    - (pi gamma / 2) t + delta log t + log C1
                    + i const + O(1/t)
    holds, so the real and imaginary parts are fitted separately against
    small bases including 1/t correction terms.
    """
    ts = np.geomspace(t_lo, t_hi, points)
    vals = np.array([mp_form_log(form, complex(0.0, t)) for t in ts])

    re_basis = np.column_stack([ts, np.log(ts), np.ones_like(ts),
                                1 / ts, 1 / ts ** 2])
    re_coef, *_ = np.linalg.lstsq(re_basis, vals.real, rcond=None)
    gamma = -2 * re_coef[0] / math.pi
    delta = re_coef[1]
    log_c1 = re_coef[2]

    im_basis = np.column_stack([ts * np.log(ts), ts, np.ones_like(ts),
                                1 / ts, 1 / ts ** 2])
    im_coef, *_ = np.linalg.lstsq(im_basis, vals.imag, rcond=None)
    gamma_prime = im_coef[0]
    kappa = im_coef[1] + gamma_prime

    return gamma, gamma_prime, delta, kappa, log_c1


def moment_by_quadrature(entry, s: float) -> float:
    """E X^s (or E e^{sX}) directly from the entry's closed-form density."""
    if entry.density is None:
        raise ValueError(f"{entry.name} has no closed-form density")
    lo, hi = entry.support.lo, entry.support.hi
    if entry.kind == "mgf":
        def integrand(x):
            f = entry.density(x)
            if f <= 0.0:
                return 0.0
            log_val = s * x + math.log(f)
            return math.exp(log_val) if log_val > -745.0 else 0.0
    elif entry.symmetric:
        integrand = lambda x: 2 * abs(x) ** s * entry.density(x)
        lo = 0.0
    else:
        integrand = lambda x: x ** s * entry.density(x)
    val, _ = quad(integrand, lo, hi, limit=400)
    return val


def harmonic_number_highprec(n: int) -> float:
    """H_n by direct mpmath summation (slow; keep n modest)."""
    with mp.workdps(40):
        return float(mp.fsum(mp.mpf(1) / k for k in range(1, n + 1)))


def pole_walk(num, den):
    """(rho_minus, rho_plus, zero) of prod Gamma(a s + b) over num / den.

    num and den hold (a, b) pairs of exact Fractions.  On each side of 0
    every pole out to t0 + 2P is listed exactly (t0 the last start -b/a
    there, P the lcm of the spacings 1/|a| of the progressions running that
    way), with sign +1 for num and -1 for den, and the signs are summed per
    location.  The edge is the first positive sum, the zero the nearest
    negative sum inside the strip (the negative one on a tie, None if
    there is none).  Returns ("InvalidFormError",) for a net pole at s = 0.
    """
    factors = [(a, b, 1) for a, b in num] + [(a, b, -1) for a, b in den]
    at_zero = sum(sign for a, b, sign in factors
                  if b <= 0 and b.denominator == 1)
    if at_zero > 0:
        return ("InvalidFormError",)
    edges, zeros = [], []
    for d in (-1, 1):
        endless = [a for a, b, sign in factors if d * a < 0]
        period = (Fraction(math.lcm(*(a.denominator for a in endless)),
                           math.gcd(*(a.numerator for a in endless)))
                  if endless else 0)
        reach = max([d * -b / a for a, b, sign in factors] + [0]) + 2 * period
        sums = Counter()
        for a, b, sign in factors:
            n = 0
            while True:
                t = d * (-n - b) / a
                if d * a < 0 and t > reach or d * a > 0 and t <= 0:
                    break
                if t > 0:
                    sums[t] += sign
                n += 1
        edge, zero = math.inf, math.inf
        for t in sorted(sums):
            if sums[t] > 0:
                edge = t
                break
            if sums[t] < 0 and zero == math.inf:
                zero = t
        edges.append(d * float(edge))
        zeros.append(d * float(zero))
    if at_zero < 0:
        zero = 0.0
    else:
        zero = zeros[1] if zeros[1] < -zeros[0] else zeros[0]
    return edges[0], edges[1], None if math.isinf(zero) else zero
