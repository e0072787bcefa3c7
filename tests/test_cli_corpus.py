"""CLI outputs against the checked-in corpus cli_corpus.jsonl.

Each line of the corpus holds one invocation: its argv, the environment it
sets (GML_SEED only), its exit code, its stdout and, under --human, its
stderr.  The invocations are commands whose output is pure Python: the
README's commands but verify-mc, sample and density; info, strip,
profile, consistency and moment of every test_catalog.CASES entry;
--human on each of them; the error payloads of all ten commands and of
argparse and a few answers at the precision of a float, compared byte for
byte; and a few successful density tables (the README's first), whose
values are compared within the rounding bound that mellin._invert states.
Every other invocation leaves stderr empty.  sample and verify-mc are left out: their
output follows numpy's Generator streams, which numpy does not promise
across versions.

Run this module as a script (with src on the path) to rewrite the corpus
from the current code; an intended output change then shows as a diff of
the corpus.  replay(_load(), console_script) checks every case, by the same
rules, through the installed gammatype script instead of in-process.
argparse's messages are those of the Python version the corpus was written
with (3.11).
"""

import contextlib
import io
import json
import math
import os
import subprocess
from pathlib import Path

import numpy as np
import pytest

from gammatype import catalog, mellin
from gammatype.cli import main

from test_catalog import CASES

CORPUS = Path(__file__).with_name("cli_corpus.jsonl")

IDENTITY = "scale(power(exponential,0.5),1.4142135623730951)"

# the README's commands, in its order
README_COMMANDS = [
    ["list"],
    ["profile", "rayleigh"],
    ["moment", "half_cauchy", "--s", "0"],
    ["strip", "pref_attach", "--params", "alpha=0.5"],
    ["check-identity", IDENTITY, "rayleigh"],
    ["verify-mc", "gamma", "--params", "a=2", "--s-grid", "0.5,1",
     "--n", "1000000", "--seed", "1"],
    ["sample", "maxwell", "--n", "1000", "--seed", "7", "--format", "jsonl"],
    ["density", "logistic", "--x=-4:4:81"],
    ["consistency", "half_cauchy"],
]

# those whose stdout the corpus holds byte for byte: verify-mc and sample
# follow numpy's streams, and the density table is DENSITY's first
README = [argv for argv in README_COMMANDS
          if argv[0] not in ("verify-mc", "sample", "density")]

HUMAN = [
    ["--human", *argv] for argv in README + [
        ["info", "beta"],
        ["check-identity", IDENTITY, "maxwell"],
        ["profile", "nope"],
    ]
]

ERRORS = [
    # an unknown name, given to each command that takes one
    ["info", "nope"],
    ["moment", "nope", "--s=1"],
    ["profile", "nope"],
    ["strip", "nope"],
    ["check-identity", "nope", "rayleigh"],
    ["check-identity", "rayleigh", "nope"],
    ["verify-mc", "nope"],
    ["sample", "nope"],
    ["density", "nope", "--x=1:2:3"],
    ["consistency", "nope"],
    # bad --params
    ["profile", "gamma", "--params", "q=2"],
    ["profile", "gamma", "--params", "a=abc"],
    ["profile", "gamma", "--params", "a=inf"],
    ["profile", "gamma", "--params", "a=nan"],
    ["profile", "max_exp", "--params", "n=inf"],
    ["profile", "beta", "--params", "a"],
    ["profile", "beta", "--params", "a=2,b=3,a=4"],
    ["profile", "stirling_blocks", "--params", "k=2.5"],
    ["profile", "hyperbolic_secant", "--params", "t=-1"],
    ["profile", "selberg_gamma", "--params", "n=6000,alpha=1.5"],
    # a constant pi^-k that underflows to 0
    ["profile", "cauchy_product", "--params", "k=1e300"],
    ["profile", "hyperbolic_secant", "--params", "t=1e300"],
    ["strip", "positive_stable", "--params", "alpha=1e-13"],
    ["moment", "gamma", "--params", "a=-1", "--s=1"],
    ["consistency", "beta", "--params", "a=0,b=1"],
    ["verify-mc", "gamma", "--params", "a=-1"],
    ["sample", "gamma", "--params", "a=0"],
    ["density", "gamma", "--params", "a=0", "--x=1:2:3"],
    ["check-identity", "gamma:a=x", "rayleigh"],
    ["check-identity", "gamma:a=2,a=3", "gamma:a=2"],
    ["profile", "gamma", "--params", ",a=2,,"],
    ["check-identity", "gamma:a=2,", "gamma:a=2"],
    # moment orders
    ["moment", "rayleigh", "--s=1,2,3"],
    ["moment", "rayleigh", "--s=abc"],
    ["moment", "rayleigh", "--s=inf"],
    ["moment", "rayleigh", "--s=1,nan"],
    ["moment", "gumbel", "--s", "1"],
    ["moment", "rayleigh", "--s=1,1e306"],
    ["moment", "logistic", "--s=0.1,1e306"],
    # identity expressions
    ["check-identity", "product()", "rayleigh"],
    ["check-identity", "recip(rayleigh,gamma:a=2)", "rayleigh"],
    ["check-identity", "power(rayleigh)", "rayleigh"],
    # an exponent below the slope resolution
    ["check-identity", "power(rayleigh,1e-300)", "rayleigh"],
    ["check-identity", "product(rayleigh,)", "rayleigh"],
    ["check-identity", "scale(rayleigh,1e-3,)", "rayleigh"],
    ["check-identity", "scale(rayleigh)", "rayleigh"],
    # nested deeper than the parser's recursion goes
    ["check-identity", "recip(" * 2000 + "rayleigh" + ")" * 2000, "rayleigh"],
    # density grids, contours and forms
    ["density", "logistic", "--x=1:2"],
    ["density", "logistic", "--x=a:b:c"],
    ["density", "logistic", "--x=1:2:0"],
    ["density", "logistic", "--x=nan:1:3"],
    ["density", "logistic", "--x=-1.7e308:1.7e308:2"],
    ["density", "logistic", "--x=0:1:3", "--abscissa", "nan"],
    ["density", "logistic", "--x=0:1:3", "--abscissa", "inf"],
    ["density", "logistic", "--x=0:1:3", "--abscissa", "5"],
    ["density", "beta", "--params", "a=2,b=3", "--x=0.1:0.9:3"],
    # C1 past the float range: no finite truncation point, T = inf
    ["density", "selberg_gamma", "--params", "n=150,alpha=1", "--x=1:2:2"],
    ["density", "selberg_gamma", "--params", "n=200,alpha=1", "--x=0.1:1:3"],
    # the profile saturates that C1 to inf, with exit 0
    ["profile", "selberg_gamma", "--params", "n=150,alpha=1"],
    # more nodes than mellin.MAX_NODES
    ["density", "gumbel", "--x=1e10:1e10:1"],
    ["density", "logistic", "--x=-1e15:1e15:3"],
    ["density", "exponential", "--x=0:1:3", "--abscissa", "-0.999999999999"],
    # tables off the hull that the form gives: zeros, exit 0
    ["density", "selberg_beta", "--params", "n=3,alpha=1.5,beta=2.5",
     "--x=0.1:0.5:3"],
    ["density", "beta_product", "--params", "a=1,b=0,c=1,d=0", "--x=0.5:1.5:3"],
    # no sampling recipe, and bad draw counts, seeds and grids
    ["sample", "tilted_stable", "--params", "alpha=0.5,theta=1"],
    ["verify-mc", "tilted_stable", "--params", "alpha=0.5,theta=1"],
    ["sample", "rayleigh", "--seed", "-1"],
    ["sample", "rayleigh", "--n", "0"],
    ["sample", "rayleigh", "--n", "1.5"],
    ["verify-mc", "rayleigh", "--n", "1000", "--seed", "-3"],
    ["verify-mc", "gamma", "--params", "a=2", "--s-grid=nan"],
    ["verify-mc", "gamma", "--params", "a=2", "--s-grid", "5,x"],
    ["verify-mc", "gamma", "--params", "a=2", "--s-grid="],
    ["verify-mc", "gamma", "--params", "a=2", "--s-grid", "0.5", "--n", "1"],
    ["verify-mc", "gamma", "--params", "a=2", "--s-grid=-1.9", "--n", "1000"],
    # argparse's usage errors
    [],
    ["nope"],
    ["--bogus", "list"],
    ["list", "extra"],
    ["info"],
    ["info", "beta", "--params", "a=2"],
    ["moment", "rayleigh"],
    ["check-identity", "rayleigh"],
    ["check-identity", "rayleigh", "rayleigh", "--tol", "x"],
    ["sample", "rayleigh", "--n", "abc"],
    ["sample", "rayleigh", "--format", "xml"],
    ["verify-mc", "rayleigh", "--seed", "1.5"],
    ["density", "logistic"],
    ["density", "logistic", "--x=-1:1:3", "--abscissa", "x"],
]

SELBERG_PIECES = ("product(gamma:a=0.5,gamma:a=0.3333333333333333,"
                  "gamma:a=0.6666666666666666)")

# answers at the precision of a float: the n = 3 Selberg factorization to
# the 30th power, exact and with its scale off by 1e-9 (a factor
# (1 + 9.3e-10)^(30 s)), and a constant of 2^-649, below the normal floats
PRECISION = [
    ["check-identity", "power(selberg_normal:n=3,30)",
     f"power(scale({SELBERG_PIECES},108.0000001),30)"],
    ["check-identity", "power(selberg_normal:n=3,30)",
     f"power(scale({SELBERG_PIECES},108),30)"],
    ["profile", "cauchy_product", "--params", "k=649"],
    # a pole 1e-11 short of a zero at s = -150, 300 eps apart: beta's strip
    # is (-a, inf), and b = 1e-11 and b = 2e-11 give two laws
    ["strip", "beta", "--params", "a=150,b=1e-11"],
    ["check-identity", "beta:a=150,b=1e-11", "beta:a=150,b=2e-11"],
]

# successful density tables as (name, params, grid), the README's first
DENSITY = [
    ("logistic", {}, "-4:4:81"),
    ("exponential", {}, "0.05:6:60"),
    ("gumbel", {}, "-3:6:91"),
    ("half_cauchy", {}, "0.05:8:80"),
    ("positive_stable", {"alpha": 0.5}, "0.05:5:50"),
]


def _params_words(params):
    """The --params words of a catalog entry's parameters, none if it
    has none."""
    if not params:
        return []
    return ["--params", ",".join(f"{k}={v!r}" for k, v in params.items())]


DENSITY_ARGV = {
    ("density", name, *_params_words(params), f"--x={grid}"): (name, params)
    for name, params, grid in DENSITY
}

# GML_SEED is read before the entry is built
SEEDED = [
    ({"GML_SEED": "abc"}, ["sample", "nope"]),
    ({"GML_SEED": "abc"}, ["sample", "rayleigh"]),
    ({"GML_SEED": "-2"}, ["sample", "rayleigh"]),
    ({"GML_SEED": "abc"}, ["verify-mc", "gamma", "--params", "a=-1"]),
]


def entry_commands():
    for name, params in CASES.items():
        extra = _params_words(params)
        yield ["info", name]
        for command in ("strip", "profile", "consistency"):
            yield [command, name, *extra]
        yield ["moment", name, *extra, "--s=0.25"]


def invocations():
    """(env, argv) of every corpus line, in file order."""
    seen = []
    for argv in (README + list(entry_commands()) + HUMAN + ERRORS
                 + PRECISION):
        if argv not in seen:  # the README repeats two entry commands
            seen.append(argv)
            yield {}, argv
    yield from SEEDED
    for argv in DENSITY_ARGV:
        yield {}, list(argv)


def run(argv):
    """Exit code, stdout and stderr of cli.main(argv), in-process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _load():
    """The corpus cases; none before the file is first written."""
    if not CORPUS.exists():
        return []
    return [json.loads(line) for line in CORPUS.read_text().splitlines()]


def _case_id(case):
    env = " ".join(f"{k}={v}" for k, v in case["env"].items())
    argv = [word if len(word) <= 200 else f"{word[:20]}...({len(word)} chars)"
            for word in case["argv"]]
    return " ".join([env, *argv]).strip() or "<no arguments>"


def _is_table(case):
    return tuple(case["argv"]) in DENSITY_ARGV


def _x_column(stdout):
    """The x column of a density table's JSON, or stdout if it holds none."""
    try:
        return [row["x"] for row in json.loads(stdout)["table"]]
    except (ValueError, KeyError, TypeError):
        return stdout


def check_case(case, got):
    """Assert that got, the exit code, stdout and stderr of a case's
    invocation, is what the corpus holds: stdout byte for byte, but of a
    density table only the x column (its values are compared within
    rounding by test_density_tables_match_corpus_within_rounding)."""
    want = (case["exit"], case["stdout"], case.get("stderr", ""))
    if _is_table(case):
        got, want = [(code, _x_column(out), err) for code, out, err
                     in (got, want)]
    assert got == want, _case_id(case)


def console_script(env, argv):
    """Exit code, stdout and stderr of the installed gammatype script run on
    argv, with GML_SEED taken from env only."""
    base = {k: v for k, v in os.environ.items() if k != "GML_SEED"}
    proc = subprocess.run(["gammatype", *argv], env={**base, **env},
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def replay(cases, runner):
    """check_case on each case against runner(env, argv); the count."""
    for case in cases:
        check_case(case, runner(case["env"], case["argv"]))
    return len(cases)


@pytest.mark.parametrize("case", [case for case in _load()
                                  if not _is_table(case)], ids=_case_id)
def test_cli_output_matches_corpus(monkeypatch, case):
    monkeypatch.delenv("GML_SEED", raising=False)
    for key, value in case["env"].items():
        monkeypatch.setenv(key, value)
    check_case(case, run(case["argv"]))


def _rounding_bound(entry, xs):
    """mellin._invert's stated rounding bound at each x of a table along
    the default contour, for an entry that is not symmetric and a grid
    inside its support: (3K + 2) eps sum_k |F_k|, times h / pi and the
    scaling of x."""
    form, mgf, support = entry.form, entry.kind == "mgf", entry.support
    xs = np.array(xs)
    assert not entry.symmetric
    assert support.lo < xs.min() and xs.max() < support.hi
    strip = form.strip()
    c = mellin._resolve_abscissa(strip, entry.kind, None)
    d = 0.5 * min(c - strip.rho_minus, strip.rho_plus - c, 2.0)
    u = xs if mgf else np.log(xs)
    h = 2 * math.pi * d / (math.log(10 / mellin.TARGET) + d * abs(u).max())
    k = math.ceil(mellin._truncation(form, c) / h)
    total = sum(abs(form.evaluate(complex(c, (j + 0.5) * h)))
                for j in range(k))
    scale = np.exp(-c * xs) if mgf else xs ** (-c - 1)
    return (3 * k + 2) * np.finfo(float).eps * total * h / math.pi * scale


@pytest.mark.parametrize("case", [case for case in _load()
                                  if _is_table(case)], ids=_case_id)
def test_density_tables_match_corpus_within_rounding(case):
    code, out, err = run(case["argv"])
    check_case(case, (code, out, err))
    got, want = json.loads(out), json.loads(case["stdout"])
    assert got["name"] == want["name"]
    xs = _x_column(case["stdout"])
    name, params = DENSITY_ARGV[tuple(case["argv"])]
    bound = _rounding_bound(catalog.build(name, params), xs)
    error = np.array([abs(g["density"] - w["density"])
                      for g, w in zip(got["table"], want["table"])])
    assert (error <= bound).all()


def test_corpus_holds_every_invocation():
    assert [(case["env"], case["argv"]) for case in _load()] == list(
        invocations())


def _write():
    lines = []
    for env, argv in invocations():
        os.environ.pop("GML_SEED", None)
        os.environ.update(env)
        code, out, err = run(argv)
        case = {"argv": argv, "env": env, "exit": code, "stdout": out}
        if "--human" in argv:
            case["stderr"] = err
        elif err:
            raise SystemExit(f"stderr without --human: {argv}: {err!r}")
        lines.append(json.dumps(case) + "\n")
    CORPUS.write_text("".join(lines))
    print(f"wrote {len(lines)} cases to {CORPUS}")


if __name__ == "__main__":
    _write()
