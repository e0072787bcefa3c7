"""CLI behavior: payload schemas, exit codes, seeding, determinism."""

import json
import os
import subprocess
import sys

import pytest

import gammatype
from gammatype.cli import main, parse_identity_spec
from gammatype.forms import moments_equal


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


def test_identity_spec_grammar():
    lhs = parse_identity_spec(
        "scale(product(beta:a=3,b=1,power(beta:a=2,b=2,0.5)),1.0)")
    rhs = parse_identity_spec("ball_distance:n=3,a=0.5")
    assert moments_equal(lhs, rhs)
    recip = parse_identity_spec("recip(exponential)")
    direct = parse_identity_spec("power(exponential,-1)")
    assert moments_equal(recip, direct)


def test_unknown_entry_exits_2(capsys):
    code, out, _ = run(capsys, "profile", "zeta_magic")
    assert code == 2
    assert "hint" in json.loads(out)


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
    ("verify-mc", "gamma", "--params", "a=2", "--s-grid", "5,x"),
    ("check-identity", "gamma:a=x", "rayleigh"),
])
def test_bad_numbers_exit_2_with_json(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 2
    assert len(out.splitlines()) == 1
    assert "error" in json.loads(out)


@pytest.mark.parametrize("env, argv, name", [
    ({}, ("sample", "rayleigh", "--n", "abc"), "--n"),
    ({}, ("check-identity", "rayleigh", "rayleigh", "--tol", "x"), "--tol"),
    ({}, ("density", "logistic", "--x=-1:1:3", "--abscissa", "x"),
     "--abscissa"),
    ({}, ("moment", "rayleigh"), "--s"),
    ({}, ("moment", "rayleigh", "--s", "-0.2,0.7"), "--s"),
    ({}, ("sample", "rayleigh", "--seed", "-1"), "seed"),
    ({}, ("verify-mc", "rayleigh", "--n", "1000", "--seed", "-3"), "seed"),
    ({"GML_SEED": "abc"}, ("sample", "rayleigh"), "GML_SEED"),
    ({"GML_SEED": "-2"}, ("sample", "rayleigh"), "seed"),
])
def test_usage_errors_exit_2_with_json(capsys, monkeypatch, env, argv, name):
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    code, out, _ = run(capsys, *argv)
    assert code == 2
    assert len(out.splitlines()) == 1
    assert name in json.loads(out)["error"]


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
