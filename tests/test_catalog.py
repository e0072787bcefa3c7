"""Catalog entries: stored expectations, densities, parameter validation."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from gammatype import catalog
from gammatype.stochastics import sample
from gammatype.errors import (
    GammaTypeError, ParameterError, UnknownEntryError, UnrepresentableError,
)
from gammatype.forms import make_form, moments_equal

from oracles import fit_profile, moment_by_quadrature

INF = math.inf

# one representative parameter set per entry; used by the sweep tests
CASES = {
    "exponential": {}, "gamma": {"a": 2.7}, "beta": {"a": 2.0, "b": 3.0},
    "positive_stable": {"alpha": 0.6}, "rayleigh": {}, "maxwell": {},
    "type2_beta": {"alpha": 1.3, "beta": 2.7}, "half_cauchy": {},
    "beta_product": {"a": 2.0, "b": 5.0, "c": 8.0, "d": -1.0},
    "ise_density_zero": {}, "average_ise": {},
    "stirling_blocks": {"k": 3}, "ball_distance": {"n": 3, "a": 0.5},
    "pref_attach": {"alpha": 0.75}, "max_exp": {"n": 5},
    "mth_max_exp": {"n": 5, "m": 2}, "gumbel": {}, "mth_gumbel": {"m": 2},
    "logistic": {}, "selberg_beta": {"n": 3, "alpha": 1.5, "beta": 2.5},
    "selberg_gamma": {"n": 3, "alpha": 1.5}, "selberg_normal": {"n": 3},
    "symmetric_stable": {"alpha": 1.5}, "cauchy_product": {"k": 3},
    "hyperbolic_secant": {"t": 2}, "lamperti": {"alpha": 1 / 3},
    "lamperti_power": {"alpha": 1 / 3},
    "kotz_ostrovskii": {"alpha": 0.8, "beta": 1.7},
    "tilted_stable": {"alpha": 0.5, "theta": 1.0},
    "gen_exponential": {"beta": 2.0}, "linnik": {"alpha": 1.5},
}


def entries():
    return [(name, catalog.build(name, params))
            for name, params in CASES.items()]


def test_case_table_covers_registry():
    assert set(CASES) == set(catalog.entry_names())


@pytest.mark.parametrize("name,params", CASES.items())
def test_moment_function_is_one_at_zero(name, params):
    entry = catalog.build(name, params)
    assert entry.form.evaluate(0.0) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("name,params", CASES.items())
def test_strip_and_profile_match_stored_values(name, params):
    entry = catalog.build(name, params)
    strip = entry.form.strip()
    prof = entry.form.asymptotic_profile()
    computed = {
        "rho_minus": strip.rho_minus, "rho_plus": strip.rho_plus,
        "gamma": float(prof.gamma), "gamma_prime": float(prof.gamma_prime),
        "delta": prof.delta, "kappa": prof.kappa, "c1": prof.c1,
    }
    for key, want in entry.tabulated.items():
        got = computed[key]
        if math.isinf(want):
            assert got == want, (name, key)
        else:
            assert got == pytest.approx(want, abs=1e-9, rel=1e-9), (name, key)


@pytest.mark.parametrize("name,params", CASES.items())
def test_profile_against_numeric_fit(name, params):
    """Asymptotics recovered independently from high-|t| samples."""
    entry = catalog.build(name, params)
    g, gp, d, k, lc1 = fit_profile(entry.form)
    prof = entry.form.asymptotic_profile()
    assert g == pytest.approx(float(prof.gamma), abs=1e-6)
    assert gp == pytest.approx(float(prof.gamma_prime), abs=1e-6)
    assert d == pytest.approx(prof.delta, abs=1e-6)
    assert k == pytest.approx(prof.kappa, abs=1e-6)
    assert lc1 == pytest.approx(math.log(prof.c1), abs=1e-6)


# the bounded hulls of the CASES entries: E X^s ~ C1 s^delta e^(kappa s) with
# gamma' = 0 and no pole on the right puts the top at e^kappa, 1/16 for
# selberg_beta at n = 3 (the largest squared Vandermonde of three points in
# [0, 1]); every other positive Mellin law is (0, inf), every MGF or
# symmetric law (-inf, inf)
BOUNDED_HULLS = {"beta": (0, 1), "beta_product": (0, 1),
                 "ball_distance": (0, 1), "selberg_beta": (0, 1 / 16),
                 "max_exp": (0, INF), "mth_max_exp": (0, INF)}


SYMMETRIC = {"average_ise", "symmetric_stable", "cauchy_product", "linnik"}


@pytest.mark.parametrize("name,params", CASES.items())
def test_support_is_the_hull_the_form_gives(name, params):
    entry = catalog.build(name, params)
    support = entry.support
    assert support.symmetric is (name in SYMMETRIC)
    positive = entry.kind == "mellin" and not support.symmetric
    lo, hi = BOUNDED_HULLS.get(name, (0, INF) if positive else (-INF, INF))
    assert support.lo == lo
    assert support.hi == pytest.approx(hi, rel=1e-15, abs=0)
    if entry.recipe is not None:
        x = sample(entry.recipe, 1 << 14, seed=7)
        assert ((support.lo <= x) & (x <= support.hi)).all(), x.max()


def _density_cases():
    return [(name, e) for name, e in entries() if e.density is not None]


@pytest.mark.parametrize("name,entry", _density_cases())
def test_closed_form_density_normalizes(name, entry):
    lo, hi = entry.support.lo, entry.support.hi
    if entry.support.symmetric or lo == -INF:
        total, _ = quad(entry.density, -INF, INF, limit=400)
    else:
        total, _ = quad(entry.density, lo, hi, limit=400)
    assert total == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("name,entry", _density_cases())
def test_closed_form_density_reproduces_moments(name, entry):
    strip = entry.form.strip()
    lo = max(strip.rho_minus, -1.5)
    hi = min(strip.rho_plus, 1.5)
    for frac in (0.35, 0.7):
        s = lo + frac * (hi - lo)
        want = float(entry.form.evaluate(s).real)
        got = moment_by_quadrature(entry, s)
        assert got == pytest.approx(want, rel=1e-7, abs=1e-7), (name, s)


# ------------------------------------------------------- parameter validation

def test_unknown_entry():
    with pytest.raises(KeyError) as exc:
        catalog.build("no_such_law")
    assert isinstance(exc.value, UnknownEntryError)
    assert isinstance(exc.value, GammaTypeError)
    assert str(exc.value) == "unknown distribution 'no_such_law'"


def test_unknown_and_missing_params():
    with pytest.raises(ParameterError):
        catalog.build("gamma", {"b": 1.0})
    with pytest.raises(ParameterError):
        catalog.build("gamma", {})


SCHEMA = {row["name"]: row["params"] for row in catalog.catalog_to_json()}


@pytest.mark.parametrize("name,params", CASES.items())
def test_build_records_name_and_coerced_params(name, params):
    entry = catalog.build(name, params)
    assert entry.name == name
    assert list(entry.params) == [p["name"] for p in SCHEMA[name]]
    for p in SCHEMA[name]:
        kind = int if p["kind"] == "int" else float
        got = entry.params[p["name"]]
        assert type(got) is kind and got == params[p["name"]], (name, p)


@pytest.mark.parametrize("name,param", [
    (name, p["name"]) for name, specs in SCHEMA.items()
    for p in specs if p["kind"] == "int"])
@pytest.mark.parametrize("value", [2.5, math.nan])
def test_non_integer_value_names_the_entry(name, param, value):
    params = dict(CASES[name], **{param: value})
    with pytest.raises(ParameterError) as info:
        catalog.build(name, params)
    assert str(info.value).startswith(f"{name}: ")
    assert "must be an integer" in str(info.value)


@pytest.mark.parametrize("value", ["x", None, 1j, "2", True])
def test_non_numeric_value_is_a_parameter_error(value):
    with pytest.raises(ParameterError) as info:
        catalog.build("gamma", {"a": value})
    assert str(info.value).startswith("gamma: ")
    assert "a must be a finite real" in str(info.value)


def test_integer_params_enforced():
    for n in (2.5, math.inf, -math.inf, math.nan):
        with pytest.raises(ParameterError, match="must be an integer"):
            catalog.build("max_exp", {"n": n})


@pytest.mark.parametrize("name, params", [
    ("beta", {"a": 1e300, "b": 1e300}),
    ("beta", {"a": 1e-300, "b": 1e300}),
    ("gamma", {"a": 1e300}),
    ("ball_distance", {"n": 1e300, "a": 1.0}),
    # a constant of 2^-640, subnormal
    ("cauchy_product", {"k": 640}),
    ("hyperbolic_secant", {"t": 640}),
])
def test_unrepresentable_parameters_are_parameter_errors(name, params):
    # each passes the entry's conditions, but its form constant leaves
    # the normal floats
    with pytest.raises(ParameterError, match="representable range"):
        catalog.build(name, params)


def test_pref_attach_needs_alpha_at_least_half():
    with pytest.raises(ParameterError):
        catalog.build("pref_attach", {"alpha": 0.3})


def test_hyperbolic_secant_non_integer_time():
    with pytest.raises(UnrepresentableError):
        catalog.build("hyperbolic_secant", {"t": 1.5})


def test_density_closed_form_api():
    ray = catalog.build("rayleigh", {})
    assert ray.density(1.0) == pytest.approx(math.exp(-0.5))
    ise = catalog.build("ise_density_zero", {})
    assert ise.density is None


# --------------------------------------------------------- beta product rules

def test_beta_product_degenerate_reduces_to_beta():
    entry = catalog.build("beta_product", {"a": 2.0, "b": 0.0,
                                           "c": 1.5, "d": 2.5})
    plain = catalog.build("beta", {"a": 1.5, "b": 2.5})
    assert moments_equal(entry.form, plain.form)


def test_beta_product_point_mass_case():
    entry = catalog.build("beta_product", {"a": 2.0, "b": 0.0,
                                           "c": 2.0, "d": 0.0})
    assert entry.form.evaluate(3.7) == pytest.approx(1.0)
    assert entry.support == catalog.Support(1, 1)


def test_beta_product_condition_messages():
    with pytest.raises(ParameterError, match=r"\(i\)"):
        catalog.build("beta_product", {"a": 1.0, "b": -0.2,
                                       "c": 1.0, "d": 0.1})
    with pytest.raises(ParameterError, match=r"\(ii\)"):
        catalog.build("beta_product", {"a": 2.0, "b": 0.0,
                                       "c": -1.0, "d": 0.5})


def test_beta_product_random_sweep():
    """Accepted parameter sets must actually yield a moment function that
    is positive, equals 1 at 0, and is log-convex on a small grid;
    rejected ones must violate a stated condition."""
    rng = np.random.default_rng(42)
    accepted = rejected = 0
    for _ in range(1000):
        a, c = rng.uniform(0.1, 5, 2)
        b, d = rng.uniform(-2, 5, 2)
        try:
            entry = catalog.build("beta_product",
                                  {"a": a, "b": b, "c": c, "d": d})
        except ParameterError as exc:
            rejected += 1
            assert "(i)" in str(exc) or "(ii)" in str(exc)
            continue
        accepted += 1
        vals = [float(entry.form.evaluate(s).real) for s in (0.0, 0.7, 1.4)]
        assert vals[0] == pytest.approx(1.0, abs=1e-9)
        assert all(v > 0 for v in vals)
        # log-convexity of a Mellin transform on the real axis
        assert math.log(vals[1]) <= 0.5 * (math.log(vals[0] + 1e-300)
                                           + math.log(vals[2])) + 1e-9
    assert accepted > 100 and rejected > 100


# ------------------------------------------------------- explicit products

@pytest.mark.parametrize("n", [2, 3, 4])
def test_selberg_gamma_matches_explicit_product(n):
    """Entry form vs the product written out factor by factor."""
    alpha = 1.25
    entry = catalog.build("selberg_gamma", {"n": n, "alpha": alpha})
    from gammatype.specfun import gamma_real
    num, den = [], []
    const = 1.0
    for j in range(2, n + 1):
        num += [(j - 1, alpha), (j, 1.0)]
        den += [(1, 1.0)]
        const /= gamma_real(alpha)
    explicit = make_form(const, 0, num, den)
    assert moments_equal(entry.form, explicit)


def test_catalog_json_snapshot():
    snap = catalog.catalog_to_json()
    assert len(snap) == len(catalog.entry_names())
    names = [row["name"] for row in snap]
    assert names == catalog.entry_names()
    for row in snap:
        for p in row["params"]:
            assert set(p) == {"name", "kind", "constraint"}
