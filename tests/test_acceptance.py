"""Acceptance gate: one test per criterion, each printing PASS or FAIL.

Run with -s to see the per-criterion lines.
"""

import cmath
import json
import math

import numpy as np
import pytest

from gammatype import catalog
from gammatype.catalog import build, pref_attach_candidate_form
from gammatype.cli import main as cli_main
from gammatype.forms import GammaTypeForm, make_form, moments_equal
from gammatype.mellin import density, density_table
from gammatype.specfun import gamma_real, log_gamma
from gammatype.stochastics import harmonic_drift, mc_moment, verify_entry

PI = math.pi
SQRT_2PI = math.sqrt(2 * PI)


def report(num, label, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {label}"
    if detail and not ok:
        line += f" ({detail})"
    print(line)
    assert ok, detail


# --------------------------------------------------------------- criterion 1

PROFILE_TABLE = [
    # name, params, rho-, rho+, gamma, gamma', delta, kappa, c1
    ("rayleigh", {}, -2, math.inf, 0.5, 0.5, 0.5, 0.0, math.sqrt(PI)),
    ("maxwell", {}, -3, math.inf, 0.5, 0.5, 1.0, 0.0, math.sqrt(2)),
    ("type2_beta", {"alpha": 1.3, "beta": 2.7}, -1.3, 2.7, 2.0, 0.0, 3.0,
     0.0, 2 * PI / (gamma_real(1.3) * gamma_real(2.7))),
    ("half_cauchy", {}, -1, 1, 1.0, 0.0, 0.0, 0.0, 2.0),
    ("beta_product", {"a": 2, "b": 5, "c": 8, "d": -1}, -2, math.inf,
     0.0, 0.0, -4.0, 0.0, 720.0 / 7.0),
    ("ise_density_zero", {}, -4 / 3, math.inf, 0.25, 0.25, 0.0,
     -0.75 * math.log(2) - 0.25 * math.log(3), math.sqrt(1.5)),
    ("average_ise", {}, -1, math.inf, 0.75, 0.75, 0.5,
     -0.25 * math.log(2), math.sqrt(PI)),
    ("stirling_blocks", {"k": 3}, -2, math.inf, 2 / 3, 2 / 3, 2 / 3,
     math.log(3) / 3, 3 ** (5 / 6) * gamma_real(4 / 3)),
    ("ball_distance", {"n": 3, "a": 0.5}, -3, math.inf, 0.0, 0.0, -3.0,
     0.0, 72.0),
    ("pref_attach", {"alpha": 0.5}, -2, math.inf, 0.5, 0.5, 0.5,
     0.5 * math.log(0.5), math.sqrt(PI)),
    ("pref_attach", {"alpha": 0.75}, -1, math.inf, 0.5, 0.5, 0.25,
     0.5 * math.log(0.75), 2 ** 0.25 * gamma_real(0.75)),
    ("pref_attach", {"alpha": 2.0}, -1, math.inf, 0.5, 0.5, -1.0,
     0.5 * math.log(2.0), 2 ** 1.5),
    ("max_exp", {"n": 5}, -math.inf, 1, 0.0, 0.0, -5.0, 0.0, 120.0),
    ("mth_max_exp", {"n": 5, "m": 2}, -math.inf, 2, 0.0, 0.0, -4.0, 0.0,
     120.0),
    ("gumbel", {}, -math.inf, 1, 1.0, -1.0, 0.5, 0.0, SQRT_2PI),
    ("mth_gumbel", {"m": 2}, -math.inf, 2, 1.0, -1.0, 1.5, 0.0, SQRT_2PI),
    ("logistic", {}, -1, 1, 2.0, 0.0, 1.0, 0.0, 2 * PI),
    ("selberg_beta", {"n": 3, "alpha": 1.5, "beta": 2.5}, -1 / 3, math.inf,
     0.0, 0.0, -4.5, None, None),
    ("selberg_gamma", {"n": 3, "alpha": 1.5}, -1 / 3, math.inf, 6.0, 6.0,
     2.0, None, None),
    ("selberg_normal", {"n": 3}, -1 / 3, math.inf, 3.0, 3.0, 0.0,
     2 * math.log(2) + 3 * math.log(3), math.sqrt(6)),
    ("symmetric_stable", {"alpha": 1.5}, -1, 1.5, 2 / 3, 1 / 3, 0.0,
     math.log(1.5) / 1.5, math.sqrt(8 / 3)),
    ("cauchy_product", {"k": 3}, -1, 1, 3.0, 0.0, 0.0, 0.0, 8.0),
    ("hyperbolic_secant", {"t": 2}, -PI / 2, PI / 2, 4 / PI, 0.0, 0.0,
     0.0, 4.0),
    ("lamperti", {"alpha": 1 / 3}, -1 / 3, 1 / 3, 4.0, 0.0, 0.0, 0.0, 3.0),
    ("gen_exponential", {"beta": 2.0}, -1, math.inf, 0.5, 0.5, 0.0,
     -0.5 * math.log(2), math.sqrt(2)),
    ("linnik", {"alpha": 1.5}, -1, 1.5, 4 / 3, 1.0, 0.5, 0.0,
     2 * SQRT_2PI / 1.5),
]


def _close(got, want):
    if want is None:
        return True
    if math.isinf(want):
        return got == want
    return got == want or abs(got - want) <= 1e-10 * max(1.0, abs(want))


def test_criterion_1_profile_regression():
    failures = []
    for name, params, rm, rp, g, gp, d, k, c1 in PROFILE_TABLE:
        entry = build(name, params)
        strip = entry.form.strip()
        prof = entry.form.asymptotic_profile()
        checks = [
            ("rho_minus", strip.rho_minus, rm),
            ("rho_plus", strip.rho_plus, rp),
            ("gamma", float(prof.gamma), g),
            ("gamma_prime", float(prof.gamma_prime), gp),
            ("delta", prof.delta, d),
            ("kappa", prof.kappa, k),
            ("c1", prof.c1, c1),
        ]
        for key, got, want in checks:
            if not _close(got, want):
                failures.append(f"{name}{params} {key}: {got} != {want}")
    report(1, f"profile regression over {len(PROFILE_TABLE)} entries",
           not failures, "; ".join(failures[:4]))


def test_criterion_2_strip_exception():
    ok = (pref_attach_candidate_form(0.75).strip().rho_minus == -1.0
          and pref_attach_candidate_form(0.5).strip().rho_minus == -2.0)
    report(2, "strip pole cancellation at alpha=1/2", ok)


def test_criterion_3_consistency_boundary():
    failures = []
    for alpha in (0.1, 0.3, 0.45):
        rep = pref_attach_candidate_form(alpha).check_positive_consistency()
        if rep.passed or abs(rep.zero_location + 2 * alpha) > 1e-12:
            failures.append(f"alpha={alpha}")
    for alpha in (0.5, 0.7, 1.0, 2.0):
        if not pref_attach_candidate_form(alpha) \
                .check_positive_consistency().passed:
            failures.append(f"alpha={alpha} should pass")
    report(3, "consistency fails exactly at s=-2*alpha", not failures,
           "; ".join(failures))


def test_criterion_4_ball_distance_values():
    targets = {
        1: (1 / 3, 1 / 6),
        2: (64 / (45 * PI), 1 / 4),
        3: (18 / 35, 3 / 10),
    }
    failures = []
    for n, (ed, ed2) in targets.items():
        form = build("ball_distance", {"n": n, "a": 0.5}).form
        for s, want in ((1.0, ed), (2.0, ed2)):
            got = float(form.evaluate(s).real)
            if abs(got - want) > 1e-12:
                failures.append(f"n={n} s={s}: {got} vs {want}")
    report(4, "ball-distance moments at s=1,2 for n=1,2,3", not failures,
           "; ".join(failures))


def test_criterion_5_identity_suite():
    gum = build("gumbel", {}).form
    gamma_form = lambda a: build("gamma", {"a": a}).form
    checks = {}

    checks["a: K_1/2 = rayleigh/sqrt(2)"] = moments_equal(
        build("pref_attach", {"alpha": 0.5}).form,
        build("rayleigh", {}).form.scale(2 ** -0.5))
    checks["b: logistic = gumbel symmetrization"] = moments_equal(
        build("logistic", {}).form, gum.product(gum.reflect()))
    checks["c: half-cauchy = |stable(1)|"] = moments_equal(
        build("half_cauchy", {}).form,
        build("symmetric_stable", {"alpha": 1.0}).form)
    checks["d: lamperti^1/2 = half-cauchy"] = moments_equal(
        build("lamperti_power", {"alpha": 0.5}).form,
        build("half_cauchy", {}).form)
    for n in (1, 2, 3):
        lhs = build("ball_distance", {"n": n, "a": 0.5}).form
        rhs = (build("beta", {"a": n, "b": 1}).form
               .product(build("beta", {"a": (n + 1) / 2,
                                       "b": (n + 1) / 2}).form.power(0.5)))
        checks[f"e: ball-distance factorization n={n}"] = moments_equal(
            lhs, rhs)
    pieces = None
    for j in (2, 3):
        for i in range(1, j):
            f = gamma_form(i / j)
            pieces = f if pieces is None else pieces.product(f)
    checks["f: selberg-normal factorization n=3"] = moments_equal(
        build("selberg_normal", {"n": 3}).form,
        pieces.scale(4 * 27))
    checks["g: linnik product construction"] = moments_equal(
        build("linnik", {"alpha": 1.2}).form,
        build("symmetric_stable", {"alpha": 1.2}).form.product(
            build("exponential", {}).form.power(1 / 1.2)))
    checks["h: type-2 beta = gamma ratio"] = moments_equal(
        build("type2_beta", {"alpha": 1.4, "beta": 2.2}).form,
        gamma_form(1.4).product(gamma_form(2.2).power(-1)))
    cauchy = build("symmetric_stable", {"alpha": 1.0}).form
    checks["perturbed constant rejected"] = not moments_equal(
        build("half_cauchy", {}).form,
        GammaTypeForm(cauchy.constant * 1.001, cauchy.log_scale,
                      cauchy.num, cauchy.den))
    failures = [k for k, ok in checks.items() if not ok]
    report(5, f"identity suite ({len(checks)} checks)", not failures,
           "; ".join(failures))


def test_criterion_6_monte_carlo():
    failures = []
    grid = [-0.5, 0.5, 1.0, 2.0]
    for name, params in (("rayleigh", {}), ("maxwell", {}),
                         ("beta", {"a": 2, "b": 3}),
                         ("type2_beta", {"alpha": 2, "beta": 3})):
        rep = verify_entry(build(name, params), grid, n=10 ** 6, seed=101)
        if not rep.passed:
            failures.append(name)
    bd = build("ball_distance", {"n": 2, "a": 0.5})
    est = mc_moment(bd, 1.0, n=10 ** 6, seed=102)
    if abs(est.mean - 64 / (45 * PI)) > 5 * est.stderr:
        failures.append("ball_distance(2) mean distance")
    rep = verify_entry(build("selberg_beta",
                             {"n": 2, "alpha": 1, "beta": 1}),
                       [0.5, 1.0], n=10 ** 6, seed=103)
    if not rep.passed:
        failures.append("selberg_beta(2,1,1)")
    rep = verify_entry(build("max_exp", {"n": 5}), [-1.0, 0.5],
                       n=10 ** 6, seed=104)
    if not rep.passed:
        failures.append("max_exp(5) mgf")
    report(6, "MC verification at n=1e6, z=5", not failures,
           "; ".join(failures))


def test_criterion_7_euler_drift():
    final = harmonic_drift(10 ** 6)[-1, 1]
    target = 0.57721566 + 0.5e-6
    ok = abs(final - target) < 1e-6
    report(7, "harmonic drift approaches Euler's constant", ok,
           f"{final} vs {target}")


def test_criterion_8_density_cross_checks():
    cases = [
        ("logistic", {}, np.linspace(-4, 4, 50)),
        ("hyperbolic_secant", {"t": 1}, np.linspace(-3, 3, 50)),
        ("hyperbolic_secant", {"t": 2}, np.linspace(-3, 3, 50)),
        ("rayleigh", {}, np.linspace(0.05, 3.5, 50)),
        ("pref_attach", {"alpha": 0.5}, np.linspace(0.05, 3, 50)),
        ("lamperti_power", {"alpha": 1 / 3}, np.linspace(0.05, 4, 50)),
        ("lamperti_power", {"alpha": 0.5}, np.linspace(0.05, 4, 50)),
        ("cauchy_product", {"k": 2}, np.linspace(-4, 4, 50)),
    ]
    failures = []
    for name, params, xs in cases:
        entry = build(name, params)
        table = density_table(entry, xs)
        err = max(abs(f - entry.density(x)) for x, f in table)
        if err > 1e-6:
            failures.append(f"{name}{params}: {err:.2e}")
    form = build("rayleigh", {}).form
    for x in (0.7, 1.8):
        f1 = density(form, "mellin", x, abscissa=-0.5)
        f2 = density(form, "mellin", x, abscissa=1.0)
        if abs(f1 - f2) > 2e-8:
            failures.append(f"contour dependence at x={x}")
    report(8, "density inversion vs closed forms (50-point grids)",
           not failures, "; ".join(failures))


def test_criterion_9_special_function_identities():
    rng = np.random.default_rng(2024)
    pts = rng.uniform(-30, 30, (10 ** 4, 2))
    pts = pts[np.abs(pts[:, 1]) > 1e-3]
    worst = 0.0
    for re, im in pts:
        z = complex(re, im)
        r = log_gamma(z + 1) - log_gamma(z) - cmath.log(z)
        worst = max(worst, abs(r.real),
                    abs((r.imag + PI) % (2 * PI) - PI))
        d = (log_gamma(2 * z) - log_gamma(z) - log_gamma(z + 0.5)
             - (2 * z - 0.5) * math.log(2) + 0.5 * math.log(2 * PI))
        scale = max(1.0, abs(log_gamma(2 * z)))
        worst = max(worst, abs(d.real) / scale,
                    abs((d.imag + PI) % (2 * PI) - PI))
        refl = (log_gamma(z) + log_gamma(1 - z)
                - math.log(PI) + cmath.log(cmath.sin(PI * z)))
        worst = max(worst, abs(refl.real) / max(1.0, abs(PI * z.imag)),
                    abs((refl.imag + PI) % (2 * PI) - PI))
    ok = worst < 1e-8
    report(9, "log-gamma recurrence/duplication/reflection at 1e4 points",
           ok, f"worst residual {worst:.2e}")


def test_criterion_10_cli_determinism(capsys):
    outputs = []
    for _ in range(2):
        cli_main(["verify-mc", "linnik", "--params", "alpha=1.5",
                  "--s-grid", "0.5,1", "--n", "50000", "--seed", "7"])
        outputs.append(capsys.readouterr().out)
    same_verify = outputs[0] == outputs[1]
    outputs = []
    for _ in range(2):
        cli_main(["sample", "maxwell", "--n", "20", "--seed", "7",
                  "--format", "jsonl"])
        outputs.append(capsys.readouterr().out)
    same_sample = outputs[0] == outputs[1]
    json.loads(outputs[0].splitlines()[0])  # stream is valid JSONL
    with capsys.disabled():
        report(10, "byte-identical CLI output for fixed seed",
               same_verify and same_sample)
