"""Density inversion: reference values, invariants, error paths."""

import math
import tracemalloc
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from gammatype import catalog, forms, mellin
from gammatype.errors import InversionError, ValidationError
from gammatype.forms import make_form
from gammatype.mellin import (check_normalization, density, density_rows,
                              density_table)

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


def test_table_with_zero_walks_the_poles_once(monkeypatch):
    # one walk per side of s = 0 gives both the strip of the inversion and
    # the residue at -1 behind the value at x = 0
    calls = []
    walk = forms._walk

    def counting(*args):
        calls.append(args[1])
        return walk(*args)

    monkeypatch.setattr(forms, "_walk", counting)
    entry = catalog.build("symmetric_stable", {"alpha": 1.5})
    density_table(entry, [-1.0, 0.0, 1.0])
    assert sorted(calls) == [-1, 1]


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
    assert 0.5 * form._residue_at(-1.0) == pytest.approx(
        _half_epsilon_f(form), rel=1e-13)


@pytest.mark.parametrize("num, want", [
    ([(HALF, 0.5), (1, 1)], math.inf),  # a double pole at -1
    ([(1, 2)], 0.0),  # the left edge at -2
    ([(2, 1)], math.inf),  # the left edge at -1/2
])
def test_density_at_zero_off_a_simple_pole_at_minus_one(num, want):
    assert 0.5 * make_form(1, 0, num)._residue_at(-1.0) == want


def test_no_decay_is_rejected():
    form = catalog.build("beta", {"a": 2.0, "b": 3.0}).form  # gamma = 0
    with pytest.raises(InversionError):
        density(form, "mellin", 0.5)


def test_abscissa_must_sit_in_strip():
    form = catalog.build("rayleigh", {}).form
    with pytest.raises(InversionError):
        density(form, "mellin", 1.0, abscissa=-5.0)
    # x and the abscissa are numbers (errors.real), not text
    for x, abscissa in (("1", None), (1.0, "0.5")):
        with pytest.raises(ValidationError, match="must be a finite real"):
            density(form, "mellin", x, abscissa)


# the two tables: an ndarray, and a list of float pairs without numpy
TABLES_BY_PATH = [density_table, density_rows]


@pytest.mark.parametrize("table", TABLES_BY_PATH)
@pytest.mark.parametrize("name, params, xs, nodes", [
    ("logistic", {}, [1e12], "3.18e+12"),  # e^(-itx) needs a step below 1e-11
    # a nan x, wherever it sits (Python's max is not numpy's there)
    ("symmetric_stable", {"alpha": 1.5}, [math.nan, 1.0, math.inf], "nan"),
    ("symmetric_stable", {"alpha": 1.5}, [1.0, math.inf, math.nan], "nan"),
    # an infinite |x|, which takes a step of 0
    ("symmetric_stable", {"alpha": 1.5}, [-math.inf, 1.0], "inf"),
])
def test_node_count_is_bounded(table, name, params, xs, nodes):
    with pytest.raises(InversionError) as info:
        table(catalog.build(name, params), xs)
    assert f"would need {nodes} nodes" in str(info.value)


def test_table_grid_is_real_numbers():
    # as for density, text and bools are no x; an inf x is a number, off
    # the support
    entry = catalog.build("rayleigh", {})
    for x in ("1", True, np.True_, 10 ** 400):
        with pytest.raises(ValidationError, match="x must be a real"):
            density_table(entry, [x])
    assert density_table(entry, [math.inf]).tolist() == [[math.inf, 0.0]]


def _spy_on_evaluate(monkeypatch):
    """The list that each GammaTypeForm.evaluate call appends (s, F(s)) to."""
    calls = []
    evaluate = forms.GammaTypeForm.evaluate

    def spy(self, s):
        value = evaluate(self, s)
        calls.append((s, value))
        return value

    monkeypatch.setattr(forms.GammaTypeForm, "evaluate", spy)
    return calls


TABLES = [("logistic", {}, -4.0, 4.0), ("ise_density_zero", {}, 0.05, 3.0),
          ("linnik", {"alpha": 1.5}, -4.0, 4.0), ("rayleigh", {}, 0.05, 3.5)]


@pytest.mark.parametrize("table", TABLES_BY_PATH)
@pytest.mark.parametrize("name, params, xs", [
    pytest.param(name, params, np.linspace(lo, hi, points),
                 id=f"{name}-{points}")
    for name, params, lo, hi in TABLES for points in (1, 81, 1200)
] + [pytest.param("logistic", {}, [3e4], id="logistic-3e4")])  # 95 625 nodes
def test_table_is_the_direct_contour_sum(monkeypatch, table, name, params,
                                         xs):
    # Re sum_k F(s_k) w_k(x) h / pi, with w_k = x^(-s_k-1) (Mellin kind) or
    # e^(-s_k x) (MGF kind), as one dense sum per x, within the rounding
    # bound that _invert states for its Horner sum; density_rows sums
    # these tables on floats
    entry = catalog.build(name, params)
    calls = _spy_on_evaluate(monkeypatch)
    table = np.array(table(entry, list(xs)))
    s = np.array([s for s, _ in calls])
    values = np.array([value for _, value in calls])
    h = 2 * s[0].imag
    assert np.allclose(s.imag, (np.arange(s.size) + 0.5) * h, rtol=1e-15)
    half = 0.5 if entry.symmetric else 1.0
    x = np.abs(table[:, 0]) if entry.symmetric else table[:, 0]
    inverted = x != 0.0  # a symmetric entry's x = 0 is a residue
    x, got = x[inverted], table[inverted, 1]
    if entry.kind == "mellin":
        weights = np.exp(np.outer(np.log(x), -s - 1))
        scale = x ** (-s[0].real - 1)
    else:
        weights = np.exp(np.outer(x, -s))
        scale = np.exp(-s[0].real * x)
    want = half * (weights @ values).real * h / math.pi
    bound = ((3 * s.size + 2) * np.finfo(float).eps * np.abs(values).sum()
             * half * scale * h / math.pi)
    assert np.all(np.abs(got - want) <= bound)


def most_float_points():
    """The most x of a logistic table on [-4, 4] whose (x, node) count
    mellin.SCALAR_WORK lets density_rows sum on floats."""
    form = catalog.build("logistic", {}).form
    nodes = len(mellin._contour(form, "mgf", 4.0, None)[2])
    return mellin.SCALAR_WORK // nodes


@pytest.mark.parametrize("more, kinds", [(0, {float}), (1, {np.ndarray})])
def test_rows_sum_on_floats_up_to_the_scalar_work(monkeypatch, more, kinds):
    points = most_float_points() + more
    seen = []
    contour_sum = mellin._contour_sum

    def spy(x, *args):
        seen.append(type(x))
        return contour_sum(x, *args)

    monkeypatch.setattr(mellin, "_contour_sum", spy)
    entry = catalog.build("logistic", {})
    xs = np.linspace(-4, 4, points).tolist()
    rows = density_rows(entry, xs)
    assert set(seen) == kinds
    assert [type(f) for _, f in rows] == [float] * points
    if kinds == {np.ndarray}:  # density_table's sum, bit for bit
        assert np.array(rows).tobytes() == density_table(entry, xs).tobytes()


def test_a_large_table_holds_no_node_by_x_array():
    # 200 000 x and 145 nodes: a complex (x, node) array would take 442 MiB,
    # and one built in blocks of 16 MiB peaks near 40 MiB
    entry = catalog.build("logistic", {})
    xs = np.linspace(-4, 4, 200_000)
    tracemalloc.start()
    try:
        density_table(entry, xs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * (1 << 20)


def test_outside_support_is_zero():
    form = catalog.build("rayleigh", {}).form
    assert density(form, "mellin", -2.0) == 0.0
    entry = catalog.build("rayleigh", {})
    table = density_table(entry, [-1.0, 1.0])
    assert table[0, 1] == 0.0 and table[1, 1] > 0
    # selberg_beta at n = 3 lies below e^kappa = 1/16, where its form (with
    # gamma = 0) could not be inverted
    entry = catalog.build("selberg_beta", {"n": 3, "alpha": 1.5, "beta": 2.5})
    assert density_table(entry, [0.1]).tolist() == [[0.1, 0.0]]


def test_normalization_check():
    entry = catalog.build("pref_attach", {"alpha": 1.0})
    assert check_normalization(entry) == pytest.approx(1.0, abs=1e-4)


@pytest.mark.parametrize("name, params", [
    ("logistic", {}),  # MGF kind
    ("symmetric_stable", {"alpha": 2.0}),
    ("average_ise", {}),
])
def test_normalization_over_the_whole_line(name, params):
    entry = catalog.build(name, params)
    assert entry.support.lo == -math.inf
    assert check_normalization(entry) == pytest.approx(1.0, abs=1e-6)


def test_normalization_on_a_bounded_hull_needs_vertical_decay():
    entry = catalog.build("beta", {"a": 2.0, "b": 3.0})  # gamma = 0
    with pytest.raises(InversionError, match="no vertical decay"):
        check_normalization(entry)


def test_unknown_kind_is_refused():
    form = catalog.build("rayleigh", {}).form
    with pytest.raises(ValidationError, match="unknown kind 'cdf'"):
        density(form, "cdf", 1.0)
