"""Accuracy and identity tests for the log-Gamma kernel."""

import cmath
import math

import mpmath
import numpy as np
import pytest

from gammatype.errors import PoleError, ValidationError
from gammatype.specfun import gamma_real, log_gamma, log_gamma_real

from oracles import mp_log_gamma

TWO_PI = 2 * math.pi


def _mod_two_pi(x):
    return abs((x + math.pi) % TWO_PI - math.pi)


def _random_points(n, seed=0):
    rng = np.random.default_rng(seed)
    re = rng.uniform(-30, 30, n)
    im = rng.uniform(-30, 30, n)
    pts = re + 1j * im
    # keep away from the poles so identities are well conditioned
    mask = np.abs(im) > 1e-3
    return pts[mask]


def test_matches_mpmath_across_the_plane():
    worst = 0.0
    for z in _random_points(500, seed=1):
        got = log_gamma(complex(z))
        want = mp_log_gamma(complex(z))
        worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    assert worst < 1e-13


def test_recurrence_identity():
    for z in _random_points(10 ** 4, seed=2):
        z = complex(z)
        lhs = log_gamma(z + 1)
        rhs = log_gamma(z) + cmath.log(z)
        assert abs((lhs - rhs).real) < 1e-10
        assert _mod_two_pi((lhs - rhs).imag) < 1e-10


def test_reflection_identity():
    for z in _random_points(10 ** 4, seed=3):
        z = complex(z)
        lhs = log_gamma(z) + log_gamma(1 - z)
        rhs = cmath.log(math.pi) - cmath.log(cmath.sin(math.pi * z))
        if abs(z.imag) > 25:
            continue  # sin overflows the identity's float range
        assert abs((lhs - rhs).real) < 1e-9 * max(1, abs(rhs))
        assert _mod_two_pi((lhs - rhs).imag) < 1e-9


def test_duplication_identity():
    half_log_2pi = 0.5 * math.log(TWO_PI)
    for z in _random_points(10 ** 4, seed=4):
        z = complex(z)
        lhs = log_gamma(2 * z)
        rhs = (log_gamma(z) + log_gamma(z + 0.5)
               + (2 * z - 0.5) * math.log(2) - half_log_2pi)
        assert abs((lhs - rhs).real) < 1e-9 * max(1, abs(rhs))
        assert _mod_two_pi((lhs - rhs).imag) < 1e-9


def test_real_axis_values():
    assert gamma_real(1.0) == pytest.approx(1.0, rel=1e-15)
    assert gamma_real(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)
    assert gamma_real(6.0) == pytest.approx(120.0, rel=1e-13)
    # reflection below zero, including the sign flips between poles
    assert gamma_real(-0.5) == pytest.approx(-2 * math.sqrt(math.pi),
                                             rel=1e-13)
    assert gamma_real(-1.5) == pytest.approx(4 * math.sqrt(math.pi) / 3,
                                             rel=1e-13)


def test_real_log_form():
    mag, sign = log_gamma_real(-2.5)
    assert sign == -1
    assert math.exp(mag) * sign == pytest.approx(gamma_real(-2.5), rel=1e-12)


def test_overflow_saturates():
    assert gamma_real(200.0) == math.inf
    assert math.isfinite(log_gamma_real(200.0)[0])


def test_poles_raise():
    for bad in (0.0, -1.0, -7.0):
        with pytest.raises(PoleError):
            log_gamma(bad)
        with pytest.raises(PoleError):
            gamma_real(bad)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf,
                                 complex(1, math.inf),
                                 complex(math.nan, 1),
                                 pytest.param(10 ** 400, id="huge-int"),
                                 pytest.param("2", id="str"),
                                 pytest.param(True, id="bool")])
def test_non_finite_arguments_raise(bad):
    with pytest.raises(ValidationError):
        log_gamma(bad)


def test_real_values_next_to_the_poles():
    worst_log = worst = 0.0
    with mpmath.workdps(30):
        for n in range(51):
            for k in range(2, 13):
                for x in (-n - 10.0 ** -k, -n + 10.0 ** -k):
                    want = mpmath.gamma(x)
                    mag, sign = log_gamma_real(x)
                    assert sign == int(mpmath.sign(want))
                    want_log = float(mpmath.log(abs(want)))
                    worst_log = max(worst_log, abs(mag - want_log)
                                    / max(1.0, abs(want_log)))
                    worst = max(worst,
                                abs(gamma_real(x) - float(want)) / abs(want))
    assert worst_log < 1e-13
    assert worst < 1e-13


def test_subnormal_arguments():
    with mpmath.workdps(40):
        for x in (1e-310, 1e-315, 1e-320, 5e-324):
            for z in (x, -x):
                got = log_gamma(z)
                want = complex(mpmath.loggamma(z))
                assert abs(got - want) <= 1e-13 * abs(want)


def _left_half_plane_points():
    rng = np.random.default_rng(5)
    # near the poles: offsets 1e-1 .. 1e-12 in every direction
    n = rng.integers(0, 50, 1500)
    r = 10.0 ** -rng.uniform(1, 12, 1500)
    t = rng.uniform(0, TWO_PI, 1500)
    near = -n + r * np.exp(1j * t)
    # tall: |Im z| up to 300
    tall = rng.uniform(-30, 0.5, 1000) + 1j * rng.uniform(-300, 300, 1000)
    # far left: Re z down to -1e5
    far = -10.0 ** rng.uniform(1, 5, 500) + 1j * rng.uniform(-20, 20, 500)
    return np.concatenate([near, tall, far])


def test_left_half_plane_matches_mpmath():
    worst = 0.0
    with mpmath.workdps(30):
        for z in _left_half_plane_points():
            z = complex(z)
            got = log_gamma(z)
            want = complex(mpmath.loggamma(z))
            worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    assert worst < 1e-13


def test_branch_on_the_real_axis():
    rng = np.random.default_rng(6)
    for x in rng.uniform(0, 0.5, 200):
        im = log_gamma(complex(x, 0.0)).imag
        assert im == 0.0 and math.copysign(1.0, im) == 1.0
    # the negative axis takes the limit from above, whatever the zero's sign
    for x in (-0.3, -1.5, -2.5, -5 + 1e-10, -49.75, -1e4 - 0.25):
        for zero in (0.0, -0.0):
            got = log_gamma(complex(x, zero)).imag
            assert got == pytest.approx(-math.pi * math.ceil(-x), rel=1e-15)
    assert log_gamma_real(-2.5)[1] == -1
