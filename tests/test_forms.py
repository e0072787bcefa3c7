"""Form algebra: construction, strips, profiles, identities, serialization."""

import json
import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

from gammatype import forms
from gammatype.catalog import build, pref_attach_candidate_form
from gammatype.errors import (
    InvalidFormError, PoleError, UndecidedStripError, ValidationError,
)
from gammatype.forms import (
    MAX_SLOPE, VISIT_BUDGET, AnalyticityStrip, ConsistencyReport, GammaFactor,
    GammaTypeForm, make_form, moments_equal,
)

from oracles import mp_form_log, pole_walk
from test_catalog import CASES


def rayleigh_form():
    return make_form(1, 0.5 * math.log(2), [(Fraction(1, 2), 1)])


# ------------------------------------------------------------- construction

def test_rejects_zero_slope():
    with pytest.raises(ValidationError):
        make_form(1, 0, [(0, 1)])
    # a float slope below 1/(2 10**12) rounds to 0
    with pytest.raises(ValidationError, match="nonzero"):
        make_form(1, 0, [(4e-13, 1)])


def test_float_slopes_follow_one_rule():
    # a float slope is the nearest fraction with denominator <= 10**12,
    # wherever it is written: power(1/alpha) meets the catalog's 1/alpha
    power = build("exponential", {}).form.power(1 / 1.234)
    assert power.num[0].slope == Fraction(500, 617)
    assert power.num[0].slope in {f.slope for f in
                                  build("linnik", {"alpha": 1.234}).form.num}


def test_rejects_slopes_too_steep_to_resolve():
    # poles 1/|slope| apart must stay more than 2 * OFFSET_TOL apart
    with pytest.raises(ValidationError, match="slope"):
        make_form(1, 0, [(-1e12, 1)])
    with pytest.raises(ValidationError, match="slope"):
        make_form(1, 0, [(1, 1)]).power(10 ** 12)
    steepest = make_form(1, 0, [(-MAX_SLOPE, 1)])
    assert steepest.strip().rho_plus == pytest.approx(2e-12, rel=1e-12)


@pytest.mark.parametrize("sign", [1, -1])
def test_slope_bound_is_exact_at_max_slope(sign):
    # the bound is compared in integers; MAX_SLOPE itself is allowed
    edge = sign * Fraction(5 * 10 ** 11)
    assert edge == sign * MAX_SLOPE
    assert GammaFactor(edge, 1).slope == edge
    message = (f"|slope| {sign * 500000000000.0!r} above 5e+11: "
               "poles too close to resolve")
    with pytest.raises(ValidationError) as exc:
        GammaFactor(edge + sign * Fraction(1, 10 ** 12), 1)
    assert str(exc.value) == message


def test_rejects_nonpositive_constant():
    with pytest.raises(ValidationError):
        make_form(-2.0, 0, [(1, 1)])


@pytest.mark.parametrize("args,bad", [
    ((1, 0, [(1, 1 + 2j)]), "(1+2j)"),  # complex offsets wait for their strip
    ((1, 0, [(1, None)]), "None"),
    ((1, 0, [], [(1, "x")]), "'x'"),
    ((1 + 2j, 0), "(1+2j)"),
    ((1, 1j), "1j"),
    ((None, 0), "None"),
    ((1, 0, [(1,)]), "(1,)"),
    ((1, 0, [(1, 2, 3)]), "(1, 2, 3)"),
    ((1, 0, [], [1]), "got 1"),
    # integers past the float range
    ((10 ** 400, 0), "constant must be a finite real, got 1000"),
    ((1, 10 ** 400), "log_scale must be a finite real, got 1000"),
    ((1, 0, [(1, 10 ** 400)]), "offset must be a finite real, got 1000"),
    # numbers written as text, and bools, are not numbers
    (("2", 0.5, [(1, 1)]), "constant must be a finite real, got '2'"),
    ((2, "0.5"), "log_scale must be a finite real, got '0.5'"),
    ((1, 0, [(1, "1")]), "offset must be a finite real, got '1'"),
    ((True, 0), "constant must be a finite real, got True"),
    ((1, 0, [(True, 1)]), "slope must be an integer in the float range"),
    ((1, 0, [(1, False)]), "offset must be a finite real, got False"),
    # subnormal constants keep fewer than 53 bits
    ((1e-310, 0), "constant must be a positive real of at least "
                  "2.2250738585072014e-308, got 1e-310"),
    ((5e-324, 0), "constant must be a positive real of at least "
                  "2.2250738585072014e-308, got 5e-324"),
    # an int too long to repr is named by its bit length
    ((10 ** 5000, 0),
     "constant must be a finite real, got an integer of 16610 bits"),
])
def test_make_form_names_the_value_it_cannot_take(args, bad):
    assert make_form is GammaTypeForm  # one constructor under two names
    for construct in (make_form, GammaTypeForm):
        with pytest.raises(ValidationError) as exc:
            construct(*args)
        assert bad in str(exc.value)


@pytest.mark.parametrize("call,bad", [
    (lambda f: f.power(10 ** 400), "power exponent must be a finite real"),
    (lambda f: f.scale("2"), "got '2'"),
    (lambda f: f.expand_multiplication(0, 10 ** 400), "in the float range"),
    (lambda f: f.evaluate(10 ** 400), "s must be a finite number"),
    (lambda f: f.power(True), "power exponent must be a finite real, got True"),
    (lambda f: f.scale(True), "scale factor must be a finite real, got True"),
    (lambda f: f.scale(10 ** 400), "scale factor must be a finite real"),
    (lambda f: f.evaluate("0.5"), "s must be a finite number, got '0.5'"),
    (lambda f: f.evaluate(True), "s must be a finite number, got True"),
    (lambda f: f.expand_multiplication(0, VISIT_BUDGET + 1),
     "must be 2 to 250000, got 250001"),
    (lambda f: (f * make_form(1, 0, [(1, 500)])).expand_multiplication(1, 150),
     r"expanded constant exp\(2365.89.*\) is past the float range"),
    (lambda f: f.expand_multiplication(0, 800), "constant must be a positive "
     "real of at least 2.2250738585072014e-308, got 3.79042e-318"),
    (lambda f: f.expand_multiplication(0, VISIT_BUDGET), "constant must be a "
     "positive real of at least 2.2250738585072014e-308, got 0.0"),
    (lambda f: f.scale(10 ** 5000),
     "scale factor must be a finite real, got an integer of 16610 bits"),
], ids=["power", "scale", "expand-multiplication", "evaluate", "power-bool",
        "scale-bool", "scale-huge-int", "evaluate-str", "evaluate-bool",
        "expand-multiplication-past-visit-budget",
        "expand-multiplication-overflow", "expand-multiplication-subnormal",
        "expand-multiplication-underflow",
        "scale-int-past-repr"])
def test_form_operations_name_the_value_they_cannot_take(call, bad):
    with pytest.raises(ValidationError, match=bad):
        call(make_form(1, 0, [(1, 1)]))


def test_an_underflowing_expansion_builds_no_piece(monkeypatch):
    form = make_form(1, 0, [(1, 1)])
    monkeypatch.setattr(forms, "GammaFactor", None)  # a piece would fail
    with pytest.raises(ValidationError, match="got 0.0"):
        form.expand_multiplication(0, VISIT_BUDGET)


def test_raw_pairs_build_a_checked_form():
    form = GammaTypeForm(1, 0, ((1, 1),), ())
    assert form.num == (GammaFactor(1, 1.0),)
    assert type(form.constant) is float
    assert form.strip() == AnalyticityStrip(-1.0, math.inf)
    assert form == GammaTypeForm(1.0, 0.0, (GammaFactor(1, 1),))
    with pytest.raises(ValidationError, match=r"\(1,\)"):
        GammaTypeForm(1, 0, ((1,),), ())


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


def test_strip_edges_far_from_zero():
    # the first pole lies beyond |s| = 1e4
    power = build("exponential", {}).form.power(1e-5)
    assert power.strip().rho_minus == pytest.approx(-1e5, rel=1e-12)
    assert make_form(1, 0, [(1, 20000)]).strip() == AnalyticityStrip(
        -20000.0, math.inf)


def test_poles_apart_by_more_than_rounding_stay_apart():
    # far from 0 the walk merges only poles within 64 eps |s|, so a pole
    # 1e-7 or 1e-11 short of a zero is a strip edge, as the identity says
    far = make_form(1, 0, [(1, 1e6)], [(1, 1e6 + 1e-7)])
    assert far.strip() == AnalyticityStrip(-1e6, math.inf)
    assert not moments_equal(far, make_form(1, 0))
    near = make_form(1, 0, [(1, 150)], [(1, 150 + 1e-11)])
    assert near.strip().rho_minus == -150.0


def test_a_repeated_factor_is_walked_once(monkeypatch):
    # cauchy_product(600) holds each of its two factors 600 times
    monkeypatch.setattr("gammatype.forms.VISIT_BUDGET", 50)
    strip = build("cauchy_product", {"k": 600}).form.strip()
    assert strip == AnalyticityStrip(-1.0, 1.0)


def test_residues_past_the_float_range_saturate():
    # Gamma(171)^2 is past the float range, as is the product of its two
    # factors Gamma(171)
    form = make_form(1, 0, [(1, 1), (-1, 170), (-1, 170)])
    assert form._residue_at(-1.0) == math.inf
    # 1 / Gamma(-201.5), with Gamma(-201.5) below the subnormals
    form = make_form(1, 0, [(1, 1)], [(1, -200.5)])
    assert form._residue_at(-1.0) == math.inf


def test_dense_denominator_exceeds_the_visit_budget():
    # 1e7 denominator poles per unit of s around each numerator pole
    form = make_form(1, 0, [(1, 1)], [(10 ** 7, 10 ** 7)])
    with pytest.raises(UndecidedStripError):
        form.strip()


def test_period_beyond_the_float_range_exceeds_the_visit_budget():
    # 30 slopes with coprime denominators near 1e12: the zeros of the
    # denominator repeat with a period of about 3e349
    slopes = [Fraction(10 ** 12 + 3 * k, 10 ** 12 + 39 + 6 * k)
              for k in range(30)]
    with pytest.raises(UndecidedStripError):
        make_form(1, 0, [], [(a, 1) for a in slopes]).strip()


def test_entire_form_equals_its_expansion_near_zero(monkeypatch):
    form = make_form(1, 0, [(1, 1)], [(2, 1)])
    calls = []
    evaluate_log = GammaTypeForm.evaluate_log

    def spy(self, s):
        calls.append(s)
        return evaluate_log(self, s)

    monkeypatch.setattr(GammaTypeForm, "evaluate_log", spy)
    assert moments_equal(form, form.expand_multiplication(0, 2, "den"))
    assert calls == []


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


# A location is the poles within OFFSET_TOL of its start (the pole nearest
# 0), so it can reach 2 * OFFSET_TOL; the one at s = 0 starts within
# OFFSET_TOL, wherever it ends.  None: InvalidFormError.
@pytest.mark.parametrize("num, den, want", [
    # num poles at -1e-12 and -2e-12: one net double pole at 0
    ([(Fraction(1, 2), 1e-12), (-1, -1e-12)], [], None),
    # the same two poles, one of them in den, cancel at 0
    ([(Fraction(1, 2), 1e-12)], [(-1, -1e-12)],
     ConsistencyReport(False, AnalyticityStrip(-2.000000000002, math.inf),
                       0.999999999999)),
    ([(Fraction(1, 2), 1e-12), (-1, -1e-12), (-1, 4.0)],
     [(Fraction(1, 2), 1.7435787380581385)], None),
    # den poles at -6.7e-13 and -1.2e-12: a net double zero at 0
    ([(4, 5e-13)], [(Fraction(-1, 4), -3e-13), (Fraction(4, 3), 2.0),
                    (Fraction(-3, 2), -1e-12), (4, 5e-13)],
     ConsistencyReport(False, AnalyticityStrip(-math.inf, math.inf), 0.0)),
])
def test_the_location_at_zero_is_decided_by_its_start(num, den, want):
    form = make_form(1, 0, num, den)
    if want is None:
        with pytest.raises(InvalidFormError):
            form.check_positive_consistency()
    else:
        assert form.check_positive_consistency() == want


def test_tied_zeros_report_the_negative_one():
    # Gamma(s-1)/Gamma(2s-2) vanishes at every half-integer; the nearest
    # zeros are -1/2 and 1/2, in either representation
    form = make_form(1, 0, [(1, -1)], [(2, -2)])
    for f in (form, form.expand_multiplication(0, 3, "den")):
        report = f.check_positive_consistency()
        assert not report.passed
        assert report.zero_location == pytest.approx(-0.5, rel=1e-12)


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
    # F(-s) is the moment function of 1/X: one reparametrization
    for name, params in CASES.items():
        form = build(name, params).form
        assert form.reflect() == form.power(-1), name


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


@pytest.mark.parametrize("name,params", CASES.items())
def test_every_catalog_form_round_trips_through_json(name, params):
    form = build(name, params).form
    assert GammaTypeForm.from_json_dict(
        json.loads(json.dumps(form.to_json_dict()))) == form


@pytest.mark.parametrize("data,named", [
    ({}, "'constant'"),
    ({"constant": 1, "log_scale": 0, "num": [[1, 0, 1]], "den": []},
     "[1, 0, 1]"),
    ({"constant": 1, "log_scale": 0, "num": [], "den": [["x", 1, 0.5]]},
     "['x', 1, 0.5]"),
    ({"constant": "2", "log_scale": 0, "num": [], "den": []}, "'2'"),
    ({"constant": 1, "log_scale": True, "num": [], "den": []}, "True"),
], ids=["no-keys", "zero-denominator", "non-numeric", "constant-str",
        "log-scale-bool"])
def test_malformed_form_json_is_a_validation_error(data, named):
    with pytest.raises(ValidationError) as exc:
        GammaTypeForm.from_json_dict(data)
    assert named in str(exc.value)


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


def test_expansion_keeps_the_digits_of_its_constant():
    # 1e10 / ((2 pi)^(149/2) 150^-(172.2)): a normal float, though the
    # prefactor alone, exp(-725.9), is subnormal
    b, m = 172.7, 150
    g = make_form(1e10, 0, [], [(1, b)]).expand_multiplication(0, m, "den")
    want = mpmath.mpf(10) ** 10 * (2 * mpmath.pi) ** ((m - 1) / 2) \
        * mpmath.mpf(m) ** (0.5 - mpmath.mpf(b))
    assert g.constant == pytest.approx(float(want), rel=1e-12, abs=0)


def test_shared_factors_compare_without_evaluation(monkeypatch):
    f = make_form(2, 0.5, [(1, 1)], [(Fraction(1, 2), 0.75)])
    g = make_form(2, 0.5, [(1, 1), (3, 0.25)],
                  [(3, 0.25), (Fraction(1, 2), 0.75)])

    def no_grid(self, s):
        raise AssertionError("evaluated on the grid")

    monkeypatch.setattr(GammaTypeForm, "evaluate_log", no_grid)
    assert moments_equal(f, g) and moments_equal(g, f)


def test_gumbel_symmetrization_is_logistic():
    gum = build("gumbel", {}).form
    assert moments_equal(gum.product(gum.reflect()),
                         build("logistic", {}).form)


def test_entire_zero_free_quotient_of_sign_minus_one():
    # with u = s + 1/2, Gamma(u) Gamma(1-u) / (Gamma(u+1) Gamma(-u)) is
    # (1/u) (-u) = -1: no pole, no zero, and still not 1
    minus_one = make_form(1, 0, [(1, 0.5), (-1, 0.5)], [(1, 1.5), (-1, -0.5)])
    one = make_form(1, 0)
    assert not moments_equal(minus_one, one)
    assert moments_equal(minus_one.product(minus_one), one)


def test_a_pole_or_zero_of_the_quotient_decides_unequal(monkeypatch):
    def no_evaluation(self, s):
        raise AssertionError("evaluated")

    monkeypatch.setattr(GammaTypeForm, "evaluate_log", no_evaluation)
    gamma = make_form(1, 0, [(1, 1)])
    # F/G is Gamma(1-2s) (poles right of 0), 1/Gamma(2s+1) (zeros left of
    # 0) and 1/Gamma(s) (a zero at 0): the walk decides each unequal
    assert not moments_equal(gamma, make_form(1, 0, [(1, 1)], [(-2, 1)]))
    assert not moments_equal(gamma, make_form(1, 0, [(1, 1), (2, 1)]))
    assert not moments_equal(gamma, make_form(1, 0, [(1, 1), (1, 0.0)]))


def test_identity_across_slope_classes_walks_each_class_alone(monkeypatch):
    # the quotient's slopes are a, a/2, c, c/2 with denominators near 1e12:
    # one period of all four progressions spans about 4e23, while the
    # classes {a, a/2} and {c, c/2} each cancel within a period under 4
    monkeypatch.setattr("gammatype.forms.VISIT_BUDGET", 50)
    f = build("kotz_ostrovskii", {"alpha": 1.47831, "beta": 1.88913}).form
    g = f.expand_multiplication(0, 2, "num").expand_multiplication(0, 2, "den")
    assert moments_equal(f, g)
    assert not moments_equal(f, g.scale(1 + 1e-7))
    # Gamma(s + 1) against Gamma(s + 1/2) leaves a third class uncancelled,
    # and the walk stops at its first location, a zero at -1/2
    assert not moments_equal(f * make_form(1, 0, [(1, 1)]),
                             g * make_form(1, 0, [(1, 0.5)]))


def test_classes_cancel_across_their_period_boundary(monkeypatch):
    # offsets 1 and 1 - 2**-53 are one offset, but modulo 1 they sit at the
    # two ends of a class's period; each class must still cancel, or the
    # walk would cover the common period of both slopes, about 9.3e4
    monkeypatch.setattr("gammatype.forms.VISIT_BUDGET", 50)
    below_one = 1 - 2 ** -53
    a, c = Fraction(100000, 147831), Fraction(100000, 188913)
    f = make_form(1, 0, [(a, 1), (c, 1)])
    g = make_form(1, 0, [(a, below_one), (c, below_one)])
    assert moments_equal(f, g)


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


@pytest.mark.parametrize("k", [3, 600])
def test_profile_terms_that_cancel_sum_to_zero(k):
    # cauchy_product(k) has k factors Gamma(1/2 + s/2) and k factors
    # Gamma(1/2 - s/2): their kappa terms +-(1/2) log(1/2) cancel exactly,
    # so a sum rounded once is 0 (term by term it was 1.1e-16 at k = 3)
    prof = build("cauchy_product", {"k": k}).form.asymptotic_profile()
    assert (prof.kappa, prof.delta) == (0.0, 0.0)


def test_profile_past_the_float_range_is_inf():
    # the offsets' sum overflows: inf, as a float sum gives, not an error
    prof = make_form(1, 0, [(1, 1e308), (1, 1e308)]).asymptotic_profile()
    assert prof.delta == math.inf


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


@st.composite
def rewritten_pairs(draw):
    """A form and the same function after Gauss expansions and shuffles."""
    factor = st.tuples(small_fraction, st.floats(-2.0, 3.0))
    num = draw(st.lists(factor, min_size=1, max_size=3))
    den = draw(st.lists(factor, max_size=2))
    f = make_form(draw(st.floats(0.1, 10.0)), draw(st.floats(-2.0, 2.0)),
                  num, den)
    g = f
    for _ in range(draw(st.integers(1, 2))):
        side = draw(st.sampled_from(["num", "den"] if g.den else ["num"]))
        index = draw(st.integers(0, len(getattr(g, side)) - 1))
        g = g.expand_multiplication(index, draw(st.integers(2, 3)), side)
    g = GammaTypeForm(g.constant, g.log_scale, draw(st.permutations(g.num)),
                      draw(st.permutations(g.den)))
    return f, g


_near_zero = make_form(1, 0, [(1, 1e-12)])
_steep = make_form(1, 0, [(100, 1)])


@settings(max_examples=300, deadline=None)
@given(rewritten_pairs(), st.floats(-7.0, -3.0), st.sampled_from([-1, 1]))
# a pole OFFSET_TOL from 0, which the expansion moves by one ulp past it
@example((_near_zero, _near_zero.expand_multiplication(0, 3)), -3.0, -1)
# |log F(i)| = 393: a tolerance relative to it let a constant off by 1e-9 pass
@example((_steep, _steep.expand_multiplication(0, 100)), -9.0, 1)
@example((_steep, _steep.expand_multiplication(0, 100)), -9.0, -1)
def test_rewrites_compare_equal_and_perturbed_constants_do_not(pair, e, sign):
    f, g = pair
    assert moments_equal(f, g) and moments_equal(g, f)
    perturbed = GammaTypeForm(g.constant * (1 + sign * 10 ** e), g.log_scale,
                              g.num, g.den)
    assert not moments_equal(f, perturbed)


# small slopes keep the walks short: a side free of net poles is walked
# one period of the pole pattern past the last progression start
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
    return (strip.rho_minus, strip.rho_plus, report.passed,
            report.zero_location)


@settings(max_examples=60, deadline=None)
@given(cancelling_forms(), st.data())
def test_strip_and_zeros_survive_gauss_expansion(f, data):
    side = data.draw(st.sampled_from(["num", "den"] if f.den else ["num"]))
    index = data.draw(st.integers(0, len(getattr(f, side)) - 1))
    g = f.expand_multiplication(index, data.draw(st.integers(2, 3)), side)
    assert _pole_answers(g) == pytest.approx(_pole_answers(f), rel=1e-12,
                                             abs=1e-12)


exact_slopes = st.sampled_from([Fraction(p, q) for p in range(-4, 5) if p
                                for q in range(1, 5)])
exact_offsets = st.builds(Fraction, st.integers(-8, 8), st.integers(1, 4))


@st.composite
def exact_factor_lists(draw):
    """(num, den) lists of exact (slope, offset) pairs, often sharing one.

    Gamma(k a s + k b) in den holds every pole of Gamma(a s + b) in num.
    """
    factor = st.tuples(exact_slopes, exact_offsets)
    num = draw(st.lists(factor, min_size=1, max_size=3))
    den = draw(st.lists(factor, max_size=2))
    for a, b in num:
        k = draw(st.integers(1, 3))
        if k > 1:
            den.append((k * a, k * b))
    if draw(st.integers(0, 4)) < 2:
        shared = draw(factor)
        num.append(shared)
        den.append(shared)
    return num, den


# slopes in two classes, k / 7 and k / 11, that share only sparse poles
class_slopes = st.sampled_from([Fraction(p * k, q) for p in (-1, 1)
                                for k in (1, 2, 3) for q in (7, 11)])


@st.composite
def expanded_factor_lists(draw):
    """(num, den) lists of exact (slope, offset) pairs where den holds the
    Gauss pieces Gamma((a s + b + i) / m), i < m, of most num factors, one
    piece sometimes left out."""
    num = draw(st.lists(st.tuples(class_slopes, exact_offsets),
                        min_size=1, max_size=4))
    den = []
    for a, b in num:
        m = draw(st.integers(1, 3))
        pieces = [(a / m, (b + i) / m) for i in range(m)]
        if draw(st.integers(0, 5)) == 0:
            pieces.pop(draw(st.integers(0, m - 1)))
        den.extend(pieces)
    return num, den


@settings(max_examples=700, deadline=None)
@given(st.one_of(exact_factor_lists(), expanded_factor_lists()))
def test_walk_matches_brute_force_enumeration(lists):
    num, den = lists
    form = make_form(1, 0, [(a, float(b)) for a, b in num],
                     [(a, float(b)) for a, b in den])
    want = pole_walk(num, den)
    if len(want) == 3:
        lo, hi, zero = want
        want = (lo, hi, zero is None, zero)
    assert _pole_answers(form) == pytest.approx(want, rel=1e-12, abs=1e-12)
