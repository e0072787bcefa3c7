"""Density inversion: reference values, invariants, error paths."""

import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from gammatype import catalog, mellin
from gammatype.errors import InversionError
from gammatype.forms import make_form
from gammatype.mellin import check_normalization, density, density_table

HALF = Fraction(1, 2)


def test_logistic_at_zero():
    form = catalog.build("logistic", {}).form
    assert density(form, "mgf", 0.0) == pytest.approx(0.25, abs=1e-6)


def test_hyperbolic_secant_two_at_one():
    form = catalog.build("hyperbolic_secant", {"t": 2}).form
    target = 1.0 / (2 * math.sinh(math.pi / 2))
    assert density(form, "mgf", 1.0) == pytest.approx(target, abs=1e-6)


def test_rayleigh_at_one():
    form = catalog.build("rayleigh", {}).form
    assert density(form, "mellin", 1.0) == pytest.approx(math.exp(-0.5),
                                                         abs=1e-6)


def test_cauchy_product_table_value():
    entry = catalog.build("cauchy_product", {"k": 2})
    table = density_table(entry, [2.0])
    target = 2 * math.log(2) / (3 * math.pi ** 2)
    assert table[0, 1] == pytest.approx(target, abs=1e-8)


def test_contour_independence():
    form = catalog.build("stirling_blocks", {"k": 2}).form
    for x in (0.5, 1.5, 3.0):
        f1 = density(form, "mellin", x, abscissa=-0.8)
        f2 = density(form, "mellin", x, abscissa=1.1)
        assert abs(f1 - f2) < 2e-8


def test_mgf_symmetry():
    form = catalog.build("hyperbolic_secant", {"t": 1}).form
    for x in (0.3, 1.0, 2.5):
        assert abs(density(form, "mgf", x)
                   - density(form, "mgf", -x)) < 1e-8


def test_closed_form_agreement_grid():
    entry = catalog.build("lamperti", {"alpha": 1 / 3})
    xs = np.linspace(0.08, 4.0, 50)
    table = density_table(entry, xs)
    err = max(abs(f - entry.density(x)) for x, f in table)
    assert err < 1e-6


def test_symmetric_entry_splits_density():
    entry = catalog.build("symmetric_stable", {"alpha": 1.0})  # Cauchy
    table = density_table(entry, [-1.0, 1.0])
    target = 1 / (2 * math.pi)  # f(1) of the standard Cauchy law
    assert table[0, 1] == pytest.approx(target, abs=1e-7)
    assert table[0, 1] == table[1, 1]


@pytest.mark.parametrize("name, params", [
    ("symmetric_stable", {"alpha": 1.0}),
    ("symmetric_stable", {"alpha": 2.0}),
    ("linnik", {"alpha": 2.0}),
    ("cauchy_product", {"k": 1}),
])
def test_symmetric_entry_at_zero(name, params):
    entry = catalog.build(name, params)
    table = density_table(entry, [-0.5, 0.0, 0.5])
    assert table[1, 1] == pytest.approx(entry.density(0.0), abs=1e-6)


def test_symmetric_entry_unbounded_at_zero():
    entry = catalog.build("cauchy_product", {"k": 2})
    assert density_table(entry, [0.0])[0, 1] == entry.density(0.0) == math.inf


def _half_epsilon_f(form, eps="1e-25"):
    """eps F(-1 + eps) / 2 with mpmath at 40 digits: half the residue at a
    simple pole at -1, to a relative eps."""
    with mp.workdps(40):
        eps = mp.mpf(eps)
        s = -1 + eps
        value = mp.mpf(form.constant) * mp.exp(form.log_scale * s)
        for factors, sign in ((form.num, 1), (form.den, -1)):
            for f in factors:
                a = mp.mpf(f.slope.numerator) / f.slope.denominator
                value *= mp.gamma(a * s + f.offset) ** sign
        return float(value * eps / 2)


@pytest.mark.parametrize("form", [
    # Gamma(s/2 + 1/2) Gamma(s + 1) / Gamma(2s + 2): a simple net pole at
    # -1, where a numerator pole and a denominator pole meet it
    make_form(1, 0, [(HALF, 0.5), (1, 1)], [(2, 2)]),
    make_form(1.7, 0.3, [(HALF, 0.5), (3, 3.25)], [(Fraction(1, 3), 0.75)]),
])
def test_density_at_zero_is_half_the_residue_at_minus_one(form):
    assert mellin._half_density_at_zero(form) == pytest.approx(
        _half_epsilon_f(form), rel=1e-13)


@pytest.mark.parametrize("num, want", [
    ([(HALF, 0.5), (1, 1)], math.inf),  # a double pole at -1
    ([(1, 2)], 0.0),  # the left edge at -2
    ([(2, 1)], math.inf),  # the left edge at -1/2
])
def test_density_at_zero_off_a_simple_pole_at_minus_one(num, want):
    assert mellin._half_density_at_zero(make_form(1, 0, num)) == want


def test_no_decay_is_rejected():
    form = catalog.build("beta", {"a": 2.0, "b": 3.0}).form  # gamma = 0
    with pytest.raises(InversionError):
        density(form, "mellin", 0.5)


def test_abscissa_must_sit_in_strip():
    form = catalog.build("rayleigh", {}).form
    with pytest.raises(InversionError):
        density(form, "mellin", 1.0, abscissa=-5.0)


@pytest.mark.parametrize("name, params, x", [
    ("logistic", {}, 1e12),  # e^(-itx) needs a step below 1e-11
    ("symmetric_stable", {"alpha": 1.5}, math.nan),  # a nan node count
])
def test_node_count_is_bounded(name, params, x):
    with pytest.raises(InversionError, match="nodes"):
        density_table(catalog.build(name, params), [x])


def test_outside_support_is_zero():
    form = catalog.build("rayleigh", {}).form
    assert density(form, "mellin", -2.0) == 0.0
    entry = catalog.build("rayleigh", {})
    table = density_table(entry, [-1.0, 1.0])
    assert table[0, 1] == 0.0 and table[1, 1] > 0


def test_normalization_check():
    entry = catalog.build("pref_attach", {"alpha": 1.0})
    assert check_normalization(entry) == pytest.approx(1.0, abs=1e-4)
