"""CLI behavior: payload schemas, exit codes, seeding, determinism."""

import json
import math
import os
import resource
import subprocess
import sys

import pytest

import gammatype
from gammatype import catalog, forms, mellin, recipes as rc, stochastics
from gammatype.cli import IDENTITY_GRAMMAR, main, parse_identity_spec
from gammatype.forms import moments_equal
from gammatype.stochastics import sample


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_list_round_trips_through_info(capsys):
    code, out, _ = run(capsys, "list")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) > 25
    for row in rows:
        code, out, _ = run(capsys, "info", row["name"])
        assert code == 0
        assert json.loads(out)["name"] == row["name"]


def test_profile_payload(capsys):
    code, out, _ = run(capsys, "profile", "rayleigh")
    assert code == 0
    data = json.loads(out)
    assert data["rho_minus"] == -2.0
    assert data["rho_plus"] == "inf"
    assert data["gamma"] == 0.5
    assert data["gamma_prime"] == 0.5
    assert data["delta"] == 0.5
    assert data["kappa"] == 0.0
    assert data["c1"] == pytest.approx(1.7724538509055159, rel=1e-12)


def test_moment_trivial_value(capsys):
    code, out, _ = run(capsys, "moment", "half_cauchy", "--s", "0")
    assert code == 0
    data = json.loads(out)
    assert data["value"][0] == pytest.approx(1.0, abs=1e-12)
    assert data["value"][1] == pytest.approx(0.0, abs=1e-12)
    # a value past the float range saturates to inf with exit 0
    assert run(capsys, "moment", "gamma", "--params", "a=2", "--s=800")[:2] == (
        0, '{"name": "gamma", "kind": "mellin", "s": [800.0, 0.0], '
           '"value": ["inf", 0.0]}\n')


def test_moment_complex_order(capsys):
    code, out, _ = run(capsys, "moment", "rayleigh", "--s", "0.5,1.25")
    assert code == 0
    data = json.loads(out)
    assert data["s"] == [0.5, 1.25]


def test_strip_command(capsys):
    code, out, _ = run(capsys, "strip", "pref_attach", "--params", "alpha=0.5")
    assert json.loads(out)["rho_minus"] == -2.0
    code, out, _ = run(capsys, "strip", "pref_attach", "--params", "alpha=0.75")
    assert json.loads(out)["rho_minus"] == -1.0


def test_check_identity_pass_and_fail(capsys):
    spec = "scale(power(exponential,0.5),1.4142135623730951)"
    code, out, _ = run(capsys, "check-identity", spec, "rayleigh")
    assert code == 0 and json.loads(out)["equal"] is True
    code, out, _ = run(capsys, "check-identity", spec, "maxwell")
    assert code == 1 and json.loads(out)["equal"] is False


def test_check_identity_mixes_slope_classes(capsys):
    # two identities that are not factor rearrangements, raised to powers
    # with seven decimals: their slope classes share poles only sparsely
    lhs = ("product(power(pref_attach:alpha=0.5,1.2345671),"
           "power(exponential,2.7182819))")
    duplication = "scale(product(power(gamma:a=0.5,0.5),power(exponential,0.5)),2)"
    rhs = (f"product(power(scale(rayleigh,0.7071067811865476),1.2345671),"
           f"power({duplication},2.7182819))")
    code, out, _ = run(capsys, "check-identity", lhs, rhs)
    assert code == 0 and json.loads(out)["equal"] is True
    code, out, _ = run(capsys, "check-identity", lhs, f"scale({rhs},1.0001)")
    assert code == 1 and json.loads(out)["equal"] is False


def test_identity_spec_grammar():
    lhs = parse_identity_spec(
        "scale(product(beta:a=3,b=1,power(beta:a=2,b=2,0.5)),1.0)")
    rhs = parse_identity_spec("ball_distance:n=3,a=0.5")
    assert moments_equal(lhs, rhs)
    recip = parse_identity_spec("recip(exponential)")
    direct = parse_identity_spec("power(exponential,-1)")
    assert moments_equal(recip, direct)
    # a name:k=v argument after a parenthesised one is an argument of its own
    lhs = parse_identity_spec("product(power(gamma:a=2,3),gamma:a=2)")
    rhs = parse_identity_spec("product(gamma:a=2,power(gamma:a=2,3))")
    assert moments_equal(lhs, rhs)


UNKNOWN_NAME_PAYLOAD = {"error": "unknown distribution 'zeta_magic'",
                        "hint": "try `gammatype list`"}


def test_unknown_entry_exits_2(capsys):
    # every command that takes a name prints the one payload
    for argv in (["info"], ["moment", "--s=1"], ["profile"], ["strip"],
                 ["verify-mc"], ["sample"], ["density", "--x=1:2:3"],
                 ["consistency"]):
        code, out, _ = run(capsys, argv[0], "zeta_magic", *argv[1:])
        assert code == 2, argv
        assert json.loads(out) == UNKNOWN_NAME_PAYLOAD, argv
    code, out, _ = run(capsys, "check-identity", "zeta_magic", "rayleigh")
    assert code == 2
    assert json.loads(out) == UNKNOWN_NAME_PAYLOAD


def test_params_may_repeat_the_flag_but_not_a_key(capsys):
    want = run(capsys, "profile", "beta", "--params", "a=2,b=3")
    assert want[0] == 0
    assert run(capsys, "profile", "beta", "--params", "a=2",
               "--params", "b=3") == want
    for argv in (("profile", "beta", "--params", "a=2,b=3,a=4"),
                 ("check-identity", "gamma:a=2,a=3", "gamma:a=2")):
        code, out, _ = run(capsys, *argv)
        assert code == 2
        assert "parameter 'a' given twice" in json.loads(out)["error"]


def test_bad_params_exit_2_with_schema_hint(capsys):
    code, out, _ = run(capsys, "profile", "gamma", "--params", "q=2")
    assert code == 2
    assert "a (float" in json.loads(out)["hint"]


@pytest.mark.parametrize("argv", [
    ("profile", "gamma", "--params", "a=abc"),
    ("moment", "gamma", "--params", "a=2", "--s", "abc"),
    ("moment", "gamma", "--params", "a=2", "--s", "nan"),
    ("density", "logistic", "--x", "a:b:c"),
    ("density", "logistic", "--x", "1:2:0"),
    ("density", "logistic", "--x", "nan:1:3"),
    # a span that overflows, and more steps than mellin.MAX_NODES
    ("density", "logistic", "--x=-1.7e308:1.7e308:2"),
    ("density", "gamma", "--params", "a=2", "--x=1:2:99999999999"),
    ("verify-mc", "gamma", "--params", "a=2", "--s-grid", "5,x"),
    # an empty grid is not the default grid
    ("verify-mc", "gamma", "--params", "a=2", "--s-grid=", "--n", "100"),
    ("verify-mc", "gamma", "--params", "a=2", "--s-grid=,", "--n", "100"),
    ("check-identity", "gamma:a=x", "rayleigh"),
])
@pytest.mark.filterwarnings("error")  # a numpy warning would reach stderr
def test_bad_numbers_exit_2_with_json(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert len(out.splitlines()) == 1
    assert "error" in json.loads(out)
    assert err == ""


@pytest.mark.parametrize("env, argv, name", [
    ({}, ("sample", "rayleigh", "--n", "abc"), "--n"),
    # check-identity compares within forms.IDENTITY_TOL and takes no --tol
    ({}, ("check-identity", "rayleigh", "rayleigh", "--tol", "x"), "--tol"),
    ({}, ("density", "logistic", "--x=-1:1:3", "--abscissa", "x"),
     "--abscissa"),
    ({}, ("moment", "rayleigh"), "--s"),
    ({}, ("moment", "rayleigh", "--s", "-0.2,0.7"), "--s"),
    ({}, ("sample", "rayleigh", "--seed", "-1"), "seed"),
    ({}, ("verify-mc", "rayleigh", "--n", "1000", "--seed", "-3"), "seed"),
    ({"GML_SEED": "abc"}, ("sample", "rayleigh"), "GML_SEED"),
    ({"GML_SEED": "-2"}, ("sample", "rayleigh"), "seed"),
    ({}, ("check-identity", "exponential", "gamma:a=2", "--tol", "nan"),
     "tol"),
    ({}, ("verify-mc", "gamma", "--params", "a=2", "--s-grid", "0.5",
          "--n", "1"), "n must be at least 2"),
    # the seed is read before the name is looked up
    ({"GML_SEED": "abc"}, ("sample", "nope"), "GML_SEED"),
    # a moment order, grid point or abscissa that is not finite names its
    # flag
    ({}, ("moment", "rayleigh", "--s=inf"), "--s"),
    ({}, ("moment", "rayleigh", "--s=1,nan"), "--s"),
    ({}, ("moment", "rayleigh", "--s=0.5,inf"), "--s"),
    ({}, ("verify-mc", "gamma", "--params", "a=2", "--s-grid=nan"),
     "--s-grid"),
    ({}, ("density", "logistic", "--x=0:1:3", "--abscissa", "nan"),
     "--abscissa must be a finite real"),
    ({}, ("density", "logistic", "--x=0:1:3", "--abscissa", "inf"),
     "--abscissa must be a finite real"),
    ({}, ("density", "logistic", "--x=0:1:3", "--abscissa=-inf"),
     "--abscissa must be a finite real"),
    # every typed number is read by one rule: text that spells none, and a
    # real that is not finite, name the flag
    ({}, ("sample", "rayleigh", "--n", "1.5"), "--n: not an integer: '1.5'"),
    ({}, ("verify-mc", "rayleigh", "--n", "inf"),
     "--n must be an integer in the float range, got inf"),
    ({}, ("verify-mc", "rayleigh", "--seed", "1.5"), "--seed: not an integer"),
    ({}, ("sample", "rayleigh", "--seed", "abc"), "--seed: not a number"),
    ({"GML_SEED": "inf"}, ("sample", "rayleigh"),
     "GML_SEED must be an integer in the float range, got inf"),
    # an integer past int's 4300 digits is one past the float range
    ({}, ("sample", "rayleigh", "--n", "1" * 5000),
     "--n must be an integer in the float range, got inf"),
    # the text echoed is cut after 40 characters
    ({}, ("sample", "rayleigh", "--n", "0" * 5000 + "1.5"),
     "--n: not an integer: '" + "0" * 40 + "...'"),
    ({}, ("moment", "rayleigh", "--s=abc"), "--s: not a number: 'abc'"),
    ({}, ("verify-mc", "gamma", "--params", "a=2", "--s-grid", "5,x"),
     "--s-grid: not a number: 'x'"),
    ({}, ("verify-mc", "gamma", "--params", "a=2", "--s-grid=1,inf"),
     "--s-grid must be a finite real, got inf"),
    ({}, ("density", "logistic", "--x=a:1:3"), "--x: not a number: 'a'"),
    ({}, ("density", "logistic", "--x=0:1:x"), "--x: not a number: 'x'"),
    ({}, ("density", "logistic", "--x=0:1:2.5"), "--x: not an integer: '2.5'"),
    ({}, ("density", "logistic", "--x=0:inf:3"),
     "--x must be a finite real, got inf"),
    ({}, ("density", "logistic", "--x=nan:1:3"),
     "--x must be a finite real, got nan"),
    # a malformed --params word, --s, --x or identity expression names
    # what it expected
    ({}, ("profile", "beta", "--params", "a"), "expected k=v, got 'a'"),
    ({}, ("moment", "rayleigh", "--s=1,2,3"), "'re' or 're,im'"),
    ({}, ("density", "logistic", "--x=1:2"), "a:b:steps"),
    ({}, ("check-identity", "product()", "rayleigh"), "at least one term"),
    ({}, ("check-identity", "recip(rayleigh,gamma:a=2)", "rayleigh"),
     "recip() takes one expression"),
    ({}, ("check-identity", "power(rayleigh)", "rayleigh"),
     "power() takes (expression, number)"),
    # an empty argument is not dropped
    ({}, ("check-identity", "product(rayleigh,)", "rayleigh"),
     "unknown distribution ''"),
    ({}, ("check-identity", "scale(rayleigh,1e-3,)", "rayleigh"),
     "scale() takes (expression, number)"),
    ({}, ("check-identity", "scale(rayleigh)", "rayleigh"),
     "scale() takes (expression, number)"),
    # nor is an empty k=v piece
    ({}, ("profile", "gamma", "--params", ",a=2,,"), "expected k=v, got ''"),
    ({}, ("profile", "gamma", "--params", ""), "expected k=v, got ''"),
    ({}, ("check-identity", "gamma:a=2,", "gamma:a=2"),
     "expected k=v, got ''"),
])
def test_usage_errors_exit_2_with_json(capsys, monkeypatch, env, argv, name):
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    code, out, _ = run(capsys, *argv)
    assert code == 2
    assert len(out.splitlines()) == 1
    payload = json.loads(out)
    assert name in payload["error"]
    if "nope" in argv or "unknown distribution" in payload["error"]:
        # an unknown name gets its one hint
        assert payload["hint"] == UNKNOWN_NAME_PAYLOAD["hint"]
    elif not any(shape in payload["error"] for shape in (
            "required", "unrecognized", "expected one argument")):
        # past the shape of the command line, an entry's command gets the
        # entry's hint, a bad number included, and check-identity the
        # grammar of its expressions
        assert payload["hint"] is not None
        if argv[0] == "check-identity":
            assert payload["hint"] == IDENTITY_GRAMMAR


@pytest.mark.parametrize("name, params", [
    ("beta", "a=1e300,b=1e300"),
    ("ball_distance", "n=1e300,a=1"),
    ("max_exp", "n=inf"),
    # an overflowing constant, and pi^-k underflowing to 0
    ("selberg_gamma", "n=6000,alpha=1.5"),
    ("cauchy_product", "k=1e300"),
    ("hyperbolic_secant", "t=1e300"),
    # slopes 1/beta = 0, and 1/alpha >= 1e12 (poles too close to resolve)
    ("gen_exponential", "beta=inf"),
    ("linnik", "alpha=5e-13"),
    ("positive_stable", "alpha=1e-12"),
    ("positive_stable", "alpha=1e-13"),
])
def test_out_of_range_parameters_exit_2(capsys, name, params):
    code, out, _ = run(capsys, "strip", name, "--params", params)
    assert code == 2
    assert len(out.splitlines()) == 1
    data = json.loads(out)
    assert "violated condition" in data["error"]
    assert data["hint"].startswith(f"{name} parameters")


SWEEP_VALUES = ("-1", "0", "1e-300", "5e-13", "0.5", "3", "nan", "inf")


@pytest.mark.parametrize("entry", catalog.catalog_to_json(),
                         ids=lambda entry: entry["name"])
def test_every_entry_keeps_the_cli_contract(capsys, entry):
    # all parameters of the entry set to one of SWEEP_VALUES in turn
    name, params = entry["name"], [p["name"] for p in entry["params"]]
    for value in SWEEP_VALUES if params else ("",):
        extra = (["--params", ",".join(f"{p}={value}" for p in params)]
                 if params else [])
        for command, *tail in (["profile"], ["consistency"],
                               ["moment", "--s=0.25"]):
            code, out, _ = run(capsys, command, name, *extra, *tail)
            assert code in (0, 1, 2, 3), (command, value)
            assert len(out.splitlines()) == 1, (command, value)
            json.loads(out)


@pytest.mark.parametrize("argv", [
    # C1 = inf, so no finite truncation point
    ("density", "selberg_gamma", "--params", "n=200,alpha=1", "--x=0.1:1:3"),
    # more than mellin.MAX_NODES nodes
    ("density", "gumbel", "--x=1e10:1e10:1"),
    ("density", "logistic", "--x=-1e15:1e15:3"),
    ("density", "exponential", "--x=0:1:3", "--abscissa", "-0.999999999999"),
    # log F(s) with a phase of inf or nan
    ("moment", "rayleigh", "--s=1,1e306"),
    ("moment", "logistic", "--s=0.1,1e306"),
])
def test_unanswerable_inputs_exit_3(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 3
    assert len(out.splitlines()) == 1
    assert "error" in json.loads(out)
    if argv[1] == "selberg_gamma":  # T is inf, not nan
        assert "nan" not in json.loads(out)["error"]


@pytest.mark.parametrize("name, params", [("selberg_gamma", "n=150,alpha=1"),
                                          ("selberg_normal", "n=1000")])
def test_overflowing_c1_saturates(capsys, name, params):
    code, out, _ = run(capsys, "profile", name, "--params", params)
    assert code == 0
    assert len(out.splitlines()) == 1
    assert json.loads(out)["c1"] == "inf"


def test_undecided_strip_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(forms, "VISIT_BUDGET", 0)
    code, out, _ = run(capsys, "strip", "exponential")
    assert code == 3
    assert "undecided" in json.loads(out)["error"]


def test_far_left_moment_returns_promptly():
    # the log-Gamma kernel has no loop whose length grows with |Re s|
    src = os.path.dirname(os.path.dirname(gammatype.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "gammatype.cli", "moment", "gamma",
         "--params", "a=1", "--s=-1e300,1"],
        env=env, capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0
    assert len(proc.stdout.splitlines()) == 1
    assert json.loads(proc.stdout)["s"] == [-1e300, 1.0]


def test_huge_stirling_k_gets_a_strip_promptly(capsys):
    # the form does not grow with k; only the recipe (k-1 nodes) would
    src = os.path.dirname(os.path.dirname(gammatype.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "gammatype.cli", "strip", "stirling_blocks",
         "--params", "k=1e300"],
        env=env, capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["rho_minus"] == -2.0
    code, out, _ = run(capsys, "sample", "stirling_blocks", "--params",
                       "k=1001")
    assert code == 2 and "no sampling recipe" in json.loads(out)["error"]


def _cli_in_1gb(*argv):
    """The CLI in a fresh process whose address space is limited to 1 GiB.

    The limit turns a regression that builds a huge form into a
    MemoryError.
    """
    src = os.path.dirname(os.path.dirname(gammatype.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    limit = lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
    return subprocess.run(
        [sys.executable, "-m", "gammatype.cli", *argv],
        env=env, capture_output=True, text=True, timeout=30, preexec_fn=limit)


@pytest.mark.parametrize("name, params", [("cauchy_product", "k=1e9"),
                                          ("hyperbolic_secant", "t=1e9")])
def test_huge_factor_counts_are_refused_before_they_are_built(name, params):
    # 2e9 factors would take 16 GB; the constant pi^-k is 0 first
    proc = _cli_in_1gb("profile", name, "--params", params)
    assert proc.returncode == 2
    assert "representable range" in json.loads(proc.stdout)["error"]


@pytest.mark.parametrize("name, params", [
    ("selberg_normal", "n=100001"),
    ("selberg_beta", "n=1e8,alpha=1,beta=1"),
    ("selberg_gamma", "n=1e8,alpha=1.5"),
])
def test_selberg_counts_are_refused_before_the_form_is_built(name, params):
    # the forms have O(n) factors: n = 1e5 takes 2.5 s and 127 MiB
    proc = _cli_in_1gb("strip", name, "--params", params)
    assert proc.returncode == 2
    assert len(proc.stdout.splitlines()) == 1
    error = json.loads(proc.stdout)["error"]
    assert f"n <= {catalog.SELBERG_MAX_N}" in error


def test_missing_recipe_same_error_from_sample_and_verify(capsys):
    params = ("--params", "alpha=0.5,theta=1")
    results = [run(capsys, cmd, "tilted_stable", *params)[:2]
               for cmd in ("sample", "verify-mc")]
    assert results[0] == results[1]
    assert results[0][0] == 2
    assert "no sampling recipe" in json.loads(results[0][1])["error"]


def test_pole_exits_3_with_location(capsys):
    code, out, _ = run(capsys, "moment", "gumbel", "--s", "1")
    assert code == 3
    assert json.loads(out)["location"] == [1.0, 0.0]


def test_consistency_command(capsys):
    code, out, _ = run(capsys, "consistency", "half_cauchy")
    assert code == 0 and json.loads(out)["passed"] is True


def test_verify_mc_deterministic_bytes(capsys):
    argv = ("verify-mc", "gamma", "--params", "a=2", "--s-grid", "0.5,1",
            "--n", "20000", "--seed", "3")
    _, out1, _ = run(capsys, *argv)
    _, out2, _ = run(capsys, *argv)
    assert out1 == out2


def test_sample_deterministic_bytes_and_formats(capsys):
    argv = ("sample", "rayleigh", "--n", "5", "--seed", "42")
    _, out1, _ = run(capsys, *argv)
    _, out2, _ = run(capsys, *argv)
    assert out1 == out2
    code, out, _ = run(capsys, "sample", "rayleigh", "--n", "3",
                       "--seed", "42", "--format", "jsonl")
    rows = [json.loads(line) for line in out.splitlines()]
    assert [r["i"] for r in rows] == [0, 1, 2]
    assert [r["x"] for r in rows] == [float(v) for v in
                                      out1.splitlines()[:3]]


def test_long_integer_flags_are_read_past_leading_zeros(capsys):
    # int refuses more than 4300 digits, so the reader drops leading zeros
    _, one, _ = run(capsys, "sample", "rayleigh", "--n", "1", "--seed", "7")
    code, out, _ = run(capsys, "sample", "rayleigh", "--n", "0" * 5000 + "1",
                       "--seed", "7")
    assert (code, out) == (0, one)
    # a 20-digit seed is read exactly, with its leading zeros or without
    seed = 12345678901234567890
    outs = [run(capsys, "sample", "rayleigh", "--n", "3", "--seed", text)[1]
            for text in (str(seed), "000" + str(seed), str(seed + 1))]
    assert outs[0] == outs[1] != outs[2]


def test_seed_from_environment(capsys, monkeypatch):
    monkeypatch.setenv("GML_SEED", "42")
    _, out_env, _ = run(capsys, "sample", "rayleigh", "--n", "4")
    _, out_explicit, _ = run(capsys, "sample", "rayleigh", "--n", "4",
                             "--seed", "42")
    assert out_env == out_explicit


def test_density_command(capsys):
    code, out, _ = run(capsys, "density", "logistic", "--x=-1:1:3")
    assert code == 0
    table = json.loads(out)["table"]
    assert table[1]["x"] == 0.0
    assert table[1]["density"] == pytest.approx(0.25, abs=1e-6)


def test_sample_output_formats(capsys, tmp_path):
    values = sample(rc.exponential(), 5, seed=1)
    argv = ("sample", "exponential", "--n", "5", "--seed", "1")
    csv_path = tmp_path / "x.csv"
    assert run(capsys, *argv, "--output", str(csv_path))[0] == 0
    lines = csv_path.read_text().strip().split("\n")
    assert [float(v) for v in lines] == [float(v) for v in values]
    jl_path = tmp_path / "x.jsonl"
    assert run(capsys, *argv, "--format", "jsonl",
               "--output", str(jl_path))[0] == 0
    rows = [json.loads(line) for line in jl_path.read_text().splitlines()]
    assert rows[2]["i"] == 2
    assert rows[2]["x"] == float(values[2])


def test_density_output_formats(capsys, tmp_path):
    argv = ("density", "rayleigh", "--x=0.5:1:2")
    csv_path = tmp_path / "d.csv"
    assert run(capsys, *argv, "--output", str(csv_path))[0] == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "x,density"
    assert float(lines[2].split(",")[0]) == 1.0
    json_path = tmp_path / "d.json"
    assert run(capsys, *argv, "--format", "json",
               "--output", str(json_path))[0] == 0
    rows = json.loads(json_path.read_text())
    assert rows[1]["x"] == 1.0
    assert rows[1]["density"] == pytest.approx(math.exp(-0.5), abs=1e-6)


def _strict_json(text):
    """json.loads, refusing the Infinity and NaN that JSON does not have."""
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=refuse)


def test_json_writers_spell_inf_as_stdout_does(capsys, tmp_path):
    # beta = 1e-300 makes the type-2 beta draws overflow
    _, out, _ = run(capsys, "sample", "type2_beta", "--params",
                    "alpha=2,beta=1e-300", "--n", "3", "--seed", "1",
                    "--format", "jsonl")
    assert {"i": 0, "x": "inf"} in map(_strict_json, out.splitlines())
    # the product of two Cauchy variables has an infinite density at 0
    argv = ("density", "cauchy_product", "--params", "k=2", "--x=0:1:2")
    _, out, _ = run(capsys, *argv)
    path = tmp_path / "d.json"
    assert run(capsys, *argv, "--format", "json",
               "--output", str(path))[0] == 0
    rows = _strict_json(path.read_text())
    assert rows == _strict_json(out)["table"]
    assert rows[0]["density"] == "inf"


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_sample_output_file_holds_the_stdout_bytes(capsys, tmp_path, fmt):
    # two chunks, so the file and stdout both join chunks in order
    argv = ("sample", "linnik", "--params", "alpha=1.5", "--n",
            str(stochastics.CHUNK_SIZE + 5), "--seed", "5", "--format", fmt)
    code, out, _ = run(capsys, *argv)
    assert code == 0
    path = tmp_path / "x"
    code, receipt, _ = run(capsys, *argv, "--output", str(path))
    assert code == 0
    assert path.read_bytes() == out.encode()
    assert json.loads(receipt) == {
        "name": "linnik", "n": stochastics.CHUNK_SIZE + 5, "seed": 5,
        "path": str(path), "format": fmt}


def test_a_failing_command_keeps_an_existing_output_file(capsys, tmp_path):
    path = tmp_path / "f"
    path.write_text("old\n" * 1000)
    code, out, _ = run(capsys, "density", "beta", "--params", "a=2,b=3",
                       "--x=0.1:0.9:3", "--output", str(path))
    assert code == 3
    assert len(out.splitlines()) == 1
    assert path.read_text() == "old\n" * 1000
    # a command that succeeds replaces the whole file
    argv = ("sample", "maxwell", "--n", "3", "--seed", "7")
    _, want, _ = run(capsys, *argv)
    assert run(capsys, *argv, "--output", str(path))[0] == 0
    assert path.read_text() == want


def test_output_to_a_device_is_written_not_truncated(capsys):
    argv = ("sample", "maxwell", "--n", "3", "--output", os.devnull)
    assert run(capsys, *argv)[0] == 0


def _refuse(*args, **kwargs):
    raise AssertionError("work started before --output was opened")


@pytest.mark.parametrize("argv", [
    ("sample", "gamma", "--params", "a=2", "--n", "3"),
    ("density", "gamma", "--params", "a=2", "--x=1:2:3"),
])
def test_unwritable_output_exits_2_before_any_work(capsys, monkeypatch,
                                                   tmp_path, argv):
    monkeypatch.setattr(stochastics, "evaluate_recipe", _refuse)
    monkeypatch.setattr(mellin, "density_table", _refuse)
    code, out, err = run(capsys, *argv, "--output",
                         str(tmp_path / "missing" / "x"))
    assert code == 2
    assert len(out.splitlines()) == 1
    assert "--output" in json.loads(out)["error"]
    assert err == ""


@pytest.mark.parametrize("argv, read", [
    (("sample", "maxwell", "--n", "200000"), "readline"),
    (("density", "logistic", "--x=-4:4:20000"), "read10"),
    # a draw of n values would not fit in memory; the stream stops early
    (("sample", "maxwell", "--n", "99999999999999999999", "--seed", "7"),
     "readline"),
])
def test_closed_stdout_exits_0_without_a_traceback(argv, read):
    src = os.path.dirname(os.path.dirname(gammatype.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.Popen([sys.executable, "-m", "gammatype.cli", *argv],
                            env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    try:
        first = (proc.stdout.readline() if read == "readline"
                 else proc.stdout.read(10))
        proc.stdout.close()  # the reader stops, as `head` does
        assert proc.wait(timeout=30) == 0
        assert first and proc.stderr.read() == b""
    finally:
        proc.kill()
        proc.stderr.close()


def test_human_summary_goes_to_stderr(capsys):
    code, out, err = run(capsys, "--human", "profile", "rayleigh")
    assert code == 0
    json.loads(out)  # stdout stays pure JSON
    assert "rayleigh" in err


def test_import_path_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(gammatype.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, gammatype, gammatype.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_algebra_commands_load_no_numpy():
    src = os.path.dirname(os.path.dirname(gammatype.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    commands = [
        ["list"], ["info", "beta"], ["profile", "rayleigh"],
        ["moment", "half_cauchy", "--s", "0"],
        ["strip", "pref_attach", "--params", "alpha=0.5"],
        ["check-identity", "scale(power(exponential,0.5),1.4142135623730951)",
         "rayleigh"],
        ["consistency", "half_cauchy"],
    ]
    code = ("import contextlib, io, sys, gammatype, gammatype.cli\n"
            f"for argv in {commands!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert gammatype.cli.main(argv) == 0, argv\n"
            "print(sorted(m for m in sys.modules if m.startswith('numpy')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_algebra_commands_import_no_dataclasses_inspect_or_numpy():
    # modules loaded beyond those of a bare interpreter in this environment
    src = os.path.dirname(os.path.dirname(gammatype.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    commands = [
        ["list"], ["profile", "rayleigh"],
        ["check-identity", "scale(power(exponential,0.5),1.4142135623730951)",
         "rayleigh"],
    ]
    code = ("import contextlib, io, sys, gammatype.cli\n"
            f"for argv in {commands!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert gammatype.cli.main(argv) == 0, argv\n"
            "print(' '.join(sys.modules))")
    modules = {}
    for program in ("import sys; print(' '.join(sys.modules))", code):
        modules[program] = set(subprocess.run(
            [sys.executable, "-c", program], env=env, check=True,
            capture_output=True, text=True).stdout.split())
    bare, loaded = modules.values()
    imported = {name.partition(".")[0] for name in loaded - bare}
    assert "gammatype" in imported
    assert not imported & {"dataclasses", "inspect", "numpy"}


def test_sampling_names_resolve_after_bare_import():
    src = os.path.dirname(os.path.dirname(gammatype.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import gammatype\n"
            "for name in ('mc_moment', 'density', 'stochastics', 'mellin',"
            " 'recipes'):\n"
            "    print(name, getattr(gammatype, name).__name__)\n"
            "from gammatype import build, moments_equal, mc_moment\n"
            "print(mc_moment(build('rayleigh', {}), s=1.0, n=1000).n)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == [
        "mc_moment", "mc_moment", "density", "density",
        "stochastics", "gammatype.stochastics", "mellin", "gammatype.mellin",
        "recipes", "gammatype.recipes", "1000"]
