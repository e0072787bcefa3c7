"""Form algebra: construction, strips, profiles, identities, serialization."""

import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gammatype.catalog import build, pref_attach_candidate_form
from gammatype.errors import (
    EmptyStripError, InvalidFormError, PoleError, ValidationError,
)
from gammatype.forms import (
    AnalyticityStrip, ConsistencyReport, GammaTypeForm, make_form,
    moments_equal,
)

from oracles import mp_form_log


def rayleigh_form():
    return make_form(1, 0.5 * math.log(2), [(Fraction(1, 2), 1)])


# ------------------------------------------------------------- construction

def test_rejects_zero_slope():
    with pytest.raises(ValidationError):
        make_form(1, 0, [(0, 1)])


def test_rejects_nonpositive_constant():
    with pytest.raises(ValidationError):
        make_form(-2.0, 0, [(1, 1)])


def test_evaluate_matches_mpmath():
    form = build("linnik", {"alpha": 1.5}).form
    for s in (0.3, -0.4, 0.25 + 1.5j, -0.5 - 2j):
        got = form.evaluate_log(s)
        want = mp_form_log(form, s)
        assert abs(got - want) < 1e-11 * max(1, abs(want))


def test_evaluate_pole_and_zero():
    form = make_form(1, 0, [(1, 0.5)], [(1, 3)])
    with pytest.raises(PoleError):
        form.evaluate_log(-0.5)
    # denominator pole: the form is exactly zero there
    assert form.evaluate(-3.0) == 0.0


# --------------------------------------------------------------------- strip

def test_strip_simple():
    strip = rayleigh_form().strip()
    assert strip.rho_minus == -2.0
    assert strip.rho_plus == math.inf


def test_strip_pole_cancellation():
    # Gamma(s+1)/Gamma(s/2+alpha): at alpha=1/2 the pole at -1 cancels
    assert pref_attach_candidate_form(0.75).strip().rho_minus == -1.0
    assert pref_attach_candidate_form(0.5).strip().rho_minus == -2.0


def test_strip_net_pole_at_zero_invalid():
    form = make_form(1, 0, [(1, 0.0)])  # Gamma(s) alone
    with pytest.raises(InvalidFormError):
        form.strip()


def test_strip_of_entire_form_is_unbounded():
    # Gamma(s+1)/Gamma(2s+1): every pole of the numerator is one of the
    # denominator's, out to any distance
    form = make_form(1, 0, [(1, 1)], [(2, 1)])
    assert form.strip() == AnalyticityStrip(-math.inf, math.inf)


def test_entire_form_equals_its_expansion_near_zero(monkeypatch):
    form = make_form(1, 0, [(1, 1)], [(2, 1)])
    reals = []
    evaluate_log = GammaTypeForm.evaluate_log

    def spy(self, s):
        reals.append(complex(s).real)
        return evaluate_log(self, s)

    monkeypatch.setattr(GammaTypeForm, "evaluate_log", spy)
    assert moments_equal(form, form.expand_multiplication(0, 2, "den"))
    assert reals and all(-3.0 <= re <= 3.0 for re in reals)


def test_empty_strip_intersection():
    with pytest.raises(EmptyStripError):
        AnalyticityStrip(-2.0, -1.0).intersect(AnalyticityStrip(1.0, 3.0))


# --------------------------------------------------------------- consistency

@pytest.mark.parametrize("alpha", [0.1, 0.3, 0.45])
def test_consistency_fails_below_half(alpha):
    report = pref_attach_candidate_form(alpha).check_positive_consistency()
    assert not report.passed
    assert report.zero_location == pytest.approx(-2 * alpha, abs=1e-12)


@pytest.mark.parametrize("alpha", [0.5, 0.7, 1.0, 2.0])
def test_consistency_passes_at_and_above_half(alpha):
    assert pref_attach_candidate_form(alpha).check_positive_consistency().passed


def test_net_zero_at_origin_fails():
    form = make_form(1, 0, [(1, 1)], [(1, 0.0)])  # Gamma(s+1)/Gamma(s) = s
    assert form.check_positive_consistency() == ConsistencyReport(
        False, AnalyticityStrip(-math.inf, math.inf), 0.0)


# ---------------------------------------------------------------- operations

def test_power_strip_relation():
    form = rayleigh_form()
    halved = form.power(Fraction(1, 2))
    assert halved.strip().rho_minus == -4.0
    inv = form.power(-1)
    strip = inv.strip()
    assert strip.rho_plus == 2.0 and strip.rho_minus == -math.inf


def test_reflect_evaluates_mirrored():
    form = build("gumbel", {}).form
    refl = form.reflect()
    for s in (0.3, -0.7, 0.2 + 1j):
        assert abs(refl.evaluate(s) - form.evaluate(-s)) < 1e-12


def test_scale_requires_positive():
    with pytest.raises(ValidationError):
        rayleigh_form().scale(-1.0)


def test_expand_multiplication_pointwise():
    form = build("max_exp", {"n": 3}).form
    expanded = form.expand_multiplication(0, 3, side="num")
    for s in (0.4, -1.3, 0.1 + 2j, -0.5 - 1j):
        a, b = form.evaluate(s), expanded.evaluate(s)
        assert abs(a - b) < 1e-11 * max(1, abs(a))


def test_expand_multiplication_denominator_side():
    form = make_form(1, 0, [(1, 1)], [(Fraction(1, 2), 1.25)])
    expanded = form.expand_multiplication(0, 2, side="den")
    for s in (0.6, -0.4):
        a, b = form.evaluate(s), expanded.evaluate(s)
        assert abs(a - b) < 1e-11 * max(1, abs(a))


# ------------------------------------------------------------- serialization

def test_json_round_trip_bit_exact():
    form = build("stirling_blocks", {"k": 3}).form
    data = json.loads(json.dumps(form.to_json_dict()))
    back = GammaTypeForm.from_json_dict(data)
    assert back.constant == form.constant
    assert back.log_scale == form.log_scale
    assert back.num == form.num and back.den == form.den


# ------------------------------------------------------------- moments_equal

def test_identity_k_half_vs_rayleigh():
    k_half = build("pref_attach", {"alpha": 0.5}).form
    scaled = rayleigh_form().scale(2 ** -0.5)
    assert moments_equal(k_half, scaled)


def test_perturbed_constant_fails():
    k_half = build("pref_attach", {"alpha": 0.5}).form
    f = rayleigh_form().scale(2 ** -0.5)
    scaled = GammaTypeForm(f.constant * 1.001, f.log_scale, f.num, f.den)
    assert not moments_equal(k_half, scaled)


def test_gumbel_symmetrization_is_logistic():
    gum = build("gumbel", {}).form
    assert moments_equal(gum.product(gum.reflect()),
                         build("logistic", {}).form)


# ------------------------------------------------------- property-based tests

small_fraction = st.fractions(
    min_value=Fraction(-3), max_value=Fraction(3),
    max_denominator=4).filter(lambda f: f != 0)
offsets = st.floats(min_value=0.25, max_value=3.0,
                    allow_nan=False, allow_infinity=False)


@st.composite
def simple_forms(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    num = [(draw(small_fraction), draw(offsets)) for _ in range(n)]
    constant = draw(st.floats(min_value=0.1, max_value=10.0))
    log_scale = draw(st.floats(min_value=-2.0, max_value=2.0))
    return make_form(constant, log_scale, num)


@settings(max_examples=60, deadline=None)
@given(simple_forms(), simple_forms())
def test_product_is_pointwise_multiplication(f, g):
    s = 0.1 + 0.7j
    lhs = f.product(g).evaluate(s)
    rhs = f.evaluate(s) * g.evaluate(s)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


@settings(max_examples=60, deadline=None)
@given(simple_forms(), simple_forms())
def test_profile_is_additive_under_product(f, g):
    pf, pg = f.asymptotic_profile(), g.asymptotic_profile()
    pp = f.product(g).asymptotic_profile()
    assert pp.gamma == pytest.approx(pf.gamma + pg.gamma, abs=1e-12)
    assert pp.gamma_prime == pytest.approx(pf.gamma_prime + pg.gamma_prime,
                                           abs=1e-12)
    assert pp.delta == pytest.approx(pf.delta + pg.delta, abs=1e-12)
    assert pp.kappa == pytest.approx(pf.kappa + pg.kappa, abs=1e-12)
    assert pp.c1 == pytest.approx(pf.c1 * pg.c1, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(simple_forms())
def test_serialization_round_trip_property(f):
    back = GammaTypeForm.from_json_dict(
        json.loads(json.dumps(f.to_json_dict())))
    assert back == f


@settings(max_examples=60, deadline=None)
@given(simple_forms())
def test_form_equals_itself_on_grid(f):
    assert moments_equal(f, f)


# small slopes keep the walks short: a side free of net poles is walked
# out to |s| = 1e4, about 1e4 * |slope| poles per factor
pole_slopes = st.sampled_from([Fraction(k, q) for k in (-1, 1)
                               for q in (1, 2, 3)])
pole_offsets = st.builds(Fraction, st.integers(-4, 8),
                         st.sampled_from([1, 2, 3, 4]))


@st.composite
def cancelling_forms(draw):
    """Forms whose denominator often holds every pole of a numerator factor."""
    num = draw(st.lists(st.tuples(pole_slopes, pole_offsets),
                        min_size=1, max_size=2))
    den = draw(st.lists(st.tuples(pole_slopes, pole_offsets), max_size=1))
    for a, b in num:
        if draw(st.booleans()):  # Gamma(2as+2b) has every pole of Gamma(as+b)
            den.append((2 * a, 2 * b))
    return make_form(1, 0, [(a, float(b)) for a, b in num],
                     [(a, float(b)) for a, b in den])


def _pole_answers(form):
    try:
        strip = form.strip()
    except InvalidFormError:
        return ("InvalidFormError",)
    report = form.check_positive_consistency()
    zero = report.zero_location
    # zeros at -z and z tie, and the last bit of each location decides
    # which one is reported: keep its distance from 0
    return (strip.rho_minus, strip.rho_plus, report.passed,
            None if zero is None else abs(zero))


@settings(max_examples=60, deadline=None)
@given(cancelling_forms(), st.data())
def test_strip_and_zeros_survive_gauss_expansion(f, data):
    side = data.draw(st.sampled_from(["num", "den"] if f.den else ["num"]))
    index = data.draw(st.integers(0, len(getattr(f, side)) - 1))
    g = f.expand_multiplication(index, data.draw(st.integers(2, 3)), side)
    assert _pole_answers(g) == pytest.approx(_pole_answers(f), rel=1e-12,
                                             abs=1e-12)
