"""Seeded inputs, operations and answer checks for the benchmark workloads.

Each workload is a closed loop: one client sends the next operation only
after the previous one returned.  ``generate(seed)`` builds the operations
from ``numpy.random.default_rng(seed)`` alone, so one seed always gives the
same inputs; the program sees only those inputs.  An operation is run by the
callable from ``make_runner`` and its answer is judged by ``score`` outside
the timed region.

Operations come in decks.  A deck's composition (which entry at which size)
is the same in every deck and for every seed; the seed picks the order inside
a deck and the continuous inputs (parameters, grids, s points, constants).
Runs measure whole decks, so per-call percentiles compare between seeds.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass

import numpy as np

from gammatype import catalog, cli, forms, mellin, stochastics

WORKLOADS = ("cli", "density", "montecarlo", "algebra")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# relative tolerance for strip/profile values against the catalog's table
TABULATED_TOL = 1e-9
# criterion-8 gate: inverted density against the closed form, absolute
DENSITY_TOL = 1e-6
# fraction of the (clipped) strip used for Monte Carlo s points, so that
# 4s also lies in the strip and the z-score's stderr is itself well behaved
MC_STRIP_FRACTION = 0.2


@dataclass(frozen=True)
class Op:
    """One operation: what it does, its inputs, and the answer it must give."""

    kind: str
    args: tuple
    expect: object = None
    work: int = 1


# ------------------------------------------------------------ parameter sweeps

def _u(rng, lo, hi):
    return round(float(rng.uniform(lo, hi)), 3)


def _i(rng, lo, hi):
    return int(rng.integers(lo, hi + 1))


def _mth_max_exp(rng):
    n = _i(rng, 1, 8)
    return {"n": n, "m": _i(rng, 1, n)}


def _kotz(rng):
    alpha = _u(rng, 0.1, 1.8)
    return {"alpha": alpha, "beta": _u(rng, alpha + 0.05, 2.0)}


def _tilted(rng):
    alpha = _u(rng, 0.1, 0.95)
    return {"alpha": alpha, "theta": _u(rng, 0.05 - alpha, 3.0)}


# valid parameter draws for every catalog entry; closed ends of a range that
# take a slow path (BOUNDARY_PARAMS) are left out here and put in one algebra
# deck of every seed instead, so every run meets them at the same rate
PARAM_SWEEPS = {
    "exponential": lambda r: {},
    "gamma": lambda r: {"a": _u(r, 0.2, 6.0)},
    "beta": lambda r: {"a": _u(r, 0.2, 6.0), "b": _u(r, 0.2, 6.0)},
    "positive_stable": lambda r: {"alpha": _u(r, 0.1, 0.95)},
    "rayleigh": lambda r: {},
    "maxwell": lambda r: {},
    "type2_beta": lambda r: {"alpha": _u(r, 0.2, 6.0),
                             "beta": _u(r, 0.2, 6.0)},
    "half_cauchy": lambda r: {},
    "beta_product": lambda r: {k: _u(r, 0.2, 6.0) for k in "abcd"},
    "ise_density_zero": lambda r: {},
    "average_ise": lambda r: {},
    "stirling_blocks": lambda r: {"k": _i(r, 2, 6)},
    "ball_distance": lambda r: {"n": _i(r, 1, 5), "a": _u(r, 0.1, 3.0)},
    "pref_attach": lambda r: {"alpha": _u(r, 0.5, 4.0)},
    "max_exp": lambda r: {"n": _i(r, 1, 8)},
    "mth_max_exp": _mth_max_exp,
    "gumbel": lambda r: {},
    "mth_gumbel": lambda r: {"m": _i(r, 1, 5)},
    "logistic": lambda r: {},
    "selberg_beta": lambda r: {"n": _i(r, 2, 4), "alpha": _u(r, 0.2, 4.0),
                               "beta": _u(r, 0.2, 4.0)},
    "selberg_gamma": lambda r: {"n": _i(r, 2, 4), "alpha": _u(r, 0.2, 4.0)},
    "selberg_normal": lambda r: {"n": _i(r, 2, 5)},
    "symmetric_stable": lambda r: {"alpha": _u(r, 0.1, 1.999)},
    "cauchy_product": lambda r: {"k": _i(r, 1, 4)},
    "hyperbolic_secant": lambda r: {"t": _i(r, 1, 3)},
    "lamperti": lambda r: {"alpha": _u(r, 0.05, 0.95)},
    "lamperti_power": lambda r: {"alpha": _u(r, 0.05, 0.95)},
    "kotz_ostrovskii": _kotz,
    "tilted_stable": _tilted,
    "gen_exponential": lambda r: {"beta": _u(r, 0.2, 4.0)},
    "linnik": lambda r: {"alpha": _u(r, 0.1, 1.999)},
}

# alpha = 2 leaves the strip unbounded above, and strip() then scans for
# poles out to its limit: ~100 ms against ~0.3 ms for any other alpha
BOUNDARY_PARAMS = {"symmetric_stable": {"alpha": 2.0},
                   "linnik": {"alpha": 2.0}}

PROFILE_KEYS = ("rho_minus", "rho_plus", "gamma", "gamma_prime", "delta",
                "kappa", "c1")


def _close(got, want, tol=TABULATED_TOL):
    if isinstance(want, float) and math.isinf(want):
        return got == want
    return abs(got - want) <= tol * max(1.0, abs(want))


def _matches_table(values: dict, tabulated: dict) -> bool:
    return all(_close(values[k], want) for k, want in tabulated.items())


def _shuffled(rng, deck):
    return [deck[int(i)] for i in rng.permutation(len(deck))]


# ------------------------------------------------------------------------ cli

CLI_DECKS = 8
IDENTITY_LHS = "scale(power(exponential,0.5),{c!r})"


def _params_arg(params):
    return ",".join(f"{k}={v!r}" for k, v in params.items())


def _cli_deck(rng):
    """The nine README commands, each with seeded arguments."""
    names = catalog.entry_names()
    name = names[_i(rng, 0, len(names) - 1)]
    params = PARAM_SWEEPS[name](rng)
    prof_args = ["profile", name] + (["--params", _params_arg(params)]
                                     if params else [])
    s = _u(rng, -0.9, 0.9)
    alpha = _u(rng, 0.5, 4.0)
    holds = bool(rng.integers(2))
    c = math.sqrt(2.0) if holds else _u(rng, 1.5, 2.5)
    a = _u(rng, 0.5, 5.0)
    s_grid = sorted({_u(rng, -a * MC_STRIP_FRACTION, 1.0) for _ in range(2)})
    lo, hi = _u(rng, -5.0, -3.0), _u(rng, 3.0, 5.0)
    cname = names[_i(rng, 0, len(names) - 1)]
    cparams = PARAM_SWEEPS[cname](rng)
    return [
        Op("list", ["list"]),
        Op("profile", prof_args, (name, params)),
        Op("moment", ["moment", "half_cauchy", f"--s={s!r}"], s),
        Op("strip", ["strip", "pref_attach", "--params", f"alpha={alpha!r}"],
           ("pref_attach", {"alpha": alpha})),
        Op("check-identity", ["check-identity", IDENTITY_LHS.format(c=c),
                              "rayleigh"], holds),
        Op("verify-mc", ["verify-mc", "gamma", "--params", f"a={a!r}",
                         "--s-grid=" + ",".join(map(repr, s_grid)),
                         "--n", "1000000",
                         "--seed", str(_i(rng, 0, 2 ** 31 - 1))]),
        Op("sample", ["sample", "maxwell", "--n", "1000",
                      "--seed", str(_i(rng, 0, 2 ** 31 - 1)),
                      "--format", "jsonl"]),
        Op("density", ["density", "logistic", f"--x={lo!r}:{hi!r}:81"]),
        Op("consistency", ["consistency", cname]
           + (["--params", _params_arg(cparams)] if cparams else []),
           (cname, cparams)),
    ]


def _cli_decks(rng):
    return [_shuffled(rng, _cli_deck(rng)) for _ in range(CLI_DECKS)]


def cli_env():
    """Environment with this checkout's ``src`` first on ``PYTHONPATH``."""
    src = os.path.join(ROOT, "src")
    old = os.environ.get("PYTHONPATH")
    return dict(os.environ,
                PYTHONPATH=src + (os.pathsep + old if old else ""))


def _run_cli_process(op, env):
    proc = subprocess.run([sys.executable, "-m", "gammatype.cli", *op.args],
                          env=env, capture_output=True, text=True,
                          check=False)
    return proc.returncode, proc.stdout


def _run_cli_inprocess(op):
    """The same command through ``cli.main`` in this process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(op.args))
    return code, out.getvalue()


def _table_values(entry):
    strip = entry.form.strip()
    prof = entry.form.asymptotic_profile()
    return dict(rho_minus=strip.rho_minus, rho_plus=strip.rho_plus,
                gamma=float(prof.gamma), gamma_prime=float(prof.gamma_prime),
                delta=prof.delta, kappa=prof.kappa, c1=prof.c1)


def _from_json(v):
    return {"inf": math.inf, "-inf": -math.inf}.get(v, v)


def _check_cli(op, answer):
    code, out = answer
    if op.kind == "sample":
        lines = out.splitlines()
        if code != 0 or len(lines) != 1000:
            return False
        rows = [json.loads(line) for line in lines]
        return all(r["i"] == i and 0 < r["x"] < math.inf
                   for i, r in enumerate(rows))
    lines = out.splitlines()
    if len(lines) != 1:
        return False
    data = json.loads(lines[0])
    if op.kind == "list":
        return code == 0 and [d["name"] for d in data] == catalog.entry_names()
    if op.kind in ("profile", "strip"):
        name, params = op.expect
        tab = catalog.build(name, params).tabulated
        keys = PROFILE_KEYS if op.kind == "profile" else PROFILE_KEYS[:2]
        got = {k: _from_json(data[k]) for k in keys}
        return code == 0 and _matches_table(
            got, {k: tab[k] for k in keys if k in tab})
    if op.kind == "moment":
        want = 1.0 / math.cos(math.pi * op.expect / 2)
        re, im = data["value"]
        return code == 0 and _close(re, want) and abs(im) <= TABULATED_TOL
    if op.kind == "check-identity":
        return data["equal"] is op.expect and code == (0 if op.expect else 1)
    if op.kind == "verify-mc":
        return code == 0 and data["passed"] is True
    if op.kind == "density":
        entry = catalog.build("logistic", {})
        rows = data["table"]
        return code == 0 and len(rows) == 81 and all(
            abs(r["density"] - entry.density(r["x"])) <= DENSITY_TOL
            for r in rows)
    if op.kind == "consistency":
        return code == 0 and data["passed"] is True
    raise ValueError(f"unknown cli operation {op.kind!r}")


# -------------------------------------------------------------------- density

# the criterion-8 entries: closed-form densities, both kinds, symmetric
# support, decay rates gamma from 1/2 to 2; with the x range checked there
DENSITY_ENTRIES = (
    ("logistic", {}, (-4.0, 4.0)),
    ("hyperbolic_secant", {"t": 1}, (-3.0, 3.0)),
    ("hyperbolic_secant", {"t": 2}, (-3.0, 3.0)),
    ("rayleigh", {}, (0.05, 3.5)),
    ("pref_attach", {"alpha": 0.5}, (0.05, 3.0)),
    ("lamperti_power", {"alpha": 1 / 3}, (0.05, 4.0)),
    ("lamperti_power", {"alpha": 0.5}, (0.05, 4.0)),
    ("cauchy_product", {"k": 2}, (-4.0, 4.0)),
)
# every entry at every size in each deck: single points, the CLI's 81 and a
# wide table; the median call is an 81-point table
DENSITY_SIZES = (1, 81, 200)
DENSITY_DECKS = 6


def _density_decks(rng):
    entries = [catalog.build(n, p) for n, p, _ in DENSITY_ENTRIES]
    decks = []
    for _ in range(DENSITY_DECKS):
        deck = []
        for entry, (_, _, (lo, hi)) in zip(entries, DENSITY_ENTRIES):
            for size in DENSITY_SIZES:
                xs = np.sort(rng.uniform(lo, hi, size))
                deck.append(Op("table", (entry, xs), work=size))
        decks.append(_shuffled(rng, deck))
    return decks


def _run_density(op):
    entry, xs = op.args
    return mellin.density_table(entry, xs)[:, 1]


def _density_passing(op, answer):
    entry = op.args[0]
    return sum(bool(abs(f - entry.density(float(x))) <= DENSITY_TOL)
               for x, f in zip(op.args[1], answer))


# ----------------------------------------------------------------- montecarlo

# the criterion-6 entries (max_exp is of MGF kind) plus two heavy-tailed
# symmetric laws
MC_ENTRIES = (
    ("rayleigh", {}), ("maxwell", {}), ("beta", {"a": 2, "b": 3}),
    ("type2_beta", {"alpha": 2, "beta": 3}),
    ("selberg_beta", {"n": 2, "alpha": 1, "beta": 1}),
    ("max_exp", {"n": 5}), ("symmetric_stable", {"alpha": 1.5}),
    ("linnik", {"alpha": 1.5}),
)
MC_SIZES = (10 ** 4, 10 ** 5, 10 ** 6)
MC_DECKS = 8


def _s_grid(rng, entry, points):
    strip = entry.form.strip()
    lo = max(strip.rho_minus, -2.0) * MC_STRIP_FRACTION
    hi = min(strip.rho_plus, 2.0) * MC_STRIP_FRACTION
    return sorted(round(float(s), 4) for s in rng.uniform(lo, hi, points))


def _mc_decks(rng):
    entries = [catalog.build(n, p) for n, p in MC_ENTRIES]
    decks = []
    for _ in range(MC_DECKS):
        deck = []
        for k, entry in enumerate(entries):
            for c, n in enumerate(MC_SIZES):
                # 2 to 4 s points, balanced over entries and sizes
                points = 2 + (k + c) % 3
                grid = _s_grid(rng, entry, points)
                seed = _i(rng, 0, 2 ** 31 - 1)
                deck.append(Op("verify", (entry, grid, n, seed),
                               work=n * points))
        decks.append(_shuffled(rng, deck))
    return decks


def _run_mc(op):
    entry, grid, n, seed = op.args
    return stochastics.verify_entry(entry, grid, n=n, seed=seed).to_json_dict()


# -------------------------------------------------------------------- algebra

ALGEBRA_DECKS = 16


def _criterion5_pairs(rng):
    """The criterion-5 identities with seeded parameters, and one rejection."""
    b = lambda name, params=None: catalog.build(name, params or {}).form
    gum = b("gumbel")
    n = _i(rng, 1, 5)
    alpha = _u(rng, 0.2, 2.0)
    p, q = _u(rng, 0.2, 5.0), _u(rng, 0.2, 5.0)
    pieces = b("gamma", {"a": 1 / 2}).product(b("gamma", {"a": 1 / 3})) \
        .product(b("gamma", {"a": 2 / 3}))
    cauchy = b("half_cauchy")
    stable1 = b("symmetric_stable", {"alpha": 1.0})
    eps = _u(rng, 1e-3, 0.1) * (1 if rng.integers(2) else -1)
    return [
        (b("pref_attach", {"alpha": 0.5}), b("rayleigh").scale(2 ** -0.5), True),
        (b("logistic"), gum.product(gum.reflect()), True),
        (cauchy, stable1, True),
        (b("lamperti_power", {"alpha": 0.5}), cauchy, True),
        (b("ball_distance", {"n": n, "a": 0.5}),
         b("beta", {"a": n, "b": 1}).product(
             b("beta", {"a": (n + 1) / 2, "b": (n + 1) / 2}).power(0.5)), True),
        (b("selberg_normal", {"n": 3}), pieces.scale(4 * 27), True),
        (b("linnik", {"alpha": alpha}),
         b("symmetric_stable", {"alpha": alpha}).product(
             b("exponential").power(1 / alpha)), True),
        (b("type2_beta", {"alpha": p, "beta": q}),
         b("gamma", {"a": p}).product(b("gamma", {"a": q}).power(-1)), True),
        (cauchy, _with_constant(stable1, 1 + eps), False),
    ]


def _with_constant(form, factor):
    return forms.GammaTypeForm(form.constant * factor, form.log_scale,
                         form.num, form.den)


def _random_form(rng, name=None):
    names = catalog.entry_names()
    name = name or names[_i(rng, 0, len(names) - 1)]
    return catalog.build(name, PARAM_SWEEPS[name](rng)).form


def _gauss_variant(rng, form):
    sides = [s for s in ("num", "den") if getattr(form, s)]
    side = sides[_i(rng, 0, len(sides) - 1)]
    index = _i(rng, 0, len(getattr(form, side)) - 1)
    return form.expand_multiplication(index, _i(rng, 2, 3), side)


def _algebra_deck(rng, boundary=False):
    deck = []
    for name in catalog.entry_names():
        params = PARAM_SWEEPS[name](rng)
        if boundary:
            params = BOUNDARY_PARAMS.get(name, params)
        deck.append(Op("query", (name, params)))
    pairs = _criterion5_pairs(rng)
    # Gauss-expanded variants compare equal, perturbed constants unequal;
    # one of each is always on hyperbolic_secant's approximate 1/pi slope
    for name in ("hyperbolic_secant", None):
        form = _random_form(rng, name)
        pairs.append((form, _gauss_variant(rng, form), True))
        form = _random_form(rng, name)
        eps = _u(rng, 1e-3, 0.1) * (1 if rng.integers(2) else -1)
        pairs.append((form, _with_constant(form, 1 + eps), False))
    deck.extend(Op("identity", (f, g), holds) for f, g, holds in pairs)
    return _shuffled(rng, deck)


def _run_algebra(op):
    if op.kind == "identity":
        return forms.moments_equal(*op.args)
    entry = catalog.build(*op.args)
    values = _table_values(entry)
    report = entry.form.check_positive_consistency()
    return values, report.passed, report.zero_location


def _check_algebra(op, answer):
    if op.kind == "identity":
        return answer is op.expect
    values, passed, _zero = answer
    tab = catalog.build(*op.args).tabulated
    return passed and _matches_table(values, tab)


# ---------------------------------------------------------------- entry points

def generate(workload: str, seed: int) -> list[list[Op]]:
    """The decks of one workload; the same seed gives the same decks."""
    rng = np.random.default_rng(seed)
    if workload == "algebra":
        return [_algebra_deck(rng, boundary=d == 0)
                for d in range(ALGEBRA_DECKS)]
    return {"cli": _cli_decks, "density": _density_decks,
            "montecarlo": _mc_decks}[workload](rng)


def make_runner(workload: str, inprocess: bool = False):
    """Callable that runs one operation and returns its answer.

    ``inprocess`` sends CLI commands through ``cli.main`` in this process
    instead of a fresh interpreter; the other workloads run in-process anyway.
    """
    if workload == "cli":
        if inprocess:
            return _run_cli_inprocess
        env = cli_env()
        return lambda op: _run_cli_process(op, env)
    return {"density": _run_density, "montecarlo": _run_mc,
            "algebra": _run_algebra}[workload]


def score(workload: str, op: Op, answer) -> int:
    """Work units of one answer that pass its check; ``op.work`` if all do.

    Density counts the values within the gate; an answer of any other
    workload is right or wrong as a whole.  ``None`` (the operation raised)
    and output that does not parse score 0.
    """
    if answer is None:
        return 0
    if workload == "density":
        return _density_passing(op, answer)
    judge = {"cli": _check_cli, "montecarlo": lambda op, a: a["passed"] is True,
             "algebra": _check_algebra}[workload]
    try:
        ok = judge(op, answer)
    except (ValueError, KeyError, TypeError, IndexError):
        ok = False
    return op.work if ok else 0


def check(workload: str, op: Op, answer) -> bool:
    return score(workload, op, answer) == op.work


def same_answer(a, b) -> bool:
    """Exact equality of two answers, arrays included."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    return a == b
