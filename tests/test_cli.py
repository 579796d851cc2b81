import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import czorb
from czorb import cli, cz_paths, numeric_verify
from czorb.cli import FLAG, INT, INTS, NUMBER, OPERATIONS, RATIONAL, REQUIRED, dumps, main, run
from czorb.errors import ConvergenceError, CzorbError, DomainError, NonCoprimeError, UncoveredCaseError


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--json")
    return code, json.loads(out) if out else None, err


def test_weights_human(capsys):
    code, out, _ = run_cli(capsys, "weights", "4,4,5,14")
    assert code == 0
    assert "sum              27" in out
    assert "product          1120" in out
    assert "a_w              2" in out
    assert "reduced          2,2,5,7" in out
    assert "well-formed      no" in out


def test_weights_json(capsys):
    code, payload, _ = run_json(capsys, "weights", "4,4,5,14")
    assert code == 0
    assert payload["sum"] == 27
    assert payload["product"] == 1120
    assert payload["d"] == [1, 1, 2, 1]
    assert payload["e"] == [2, 2, 1, 2]
    assert payload["a_w"] == 2
    assert payload["reduced"] == [2, 2, 5, 7]
    assert payload["well_formed"] is False
    assert payload["symplectic_area"] == {"den": 1120, "num": -1}


def test_json_round_trip_is_byte_identical(capsys):
    code, out, _ = run_cli(capsys, "weights", "4,4,5,14", "--json")
    assert code == 0
    line = out.strip()
    assert dumps(json.loads(line)) == line
    code, out, _ = run_cli(capsys, "cz", "orbit", "--wps", "4,4,5,14", "--support", "0,1", "--json")
    line = out.strip()
    assert dumps(json.loads(line)) == line


def test_cz_orbit_worked_example(capsys):
    code, payload, _ = run_json(capsys, "cz", "orbit", "--wps", "4,4,5,14", "--support", "0,1")
    assert code == 0
    assert payload["index"] == 8
    assert payload["branch"] == "nonprincipal-wps"
    assert payload["extrapolated"] is False
    assert "formula" in payload


def test_cz_principal_variants(capsys):
    code, payload, _ = run_json(capsys, "cz", "principal", "--brieskorn", "2,2,2,5")
    assert code == 0 and payload["index"] == 14
    code, payload, _ = run_json(capsys, "cz", "principal", "--wps", "4,4,5,14")
    assert code == 0 and payload["index"] == 54 and payload["b_constant"] == 27
    code, payload, _ = run_json(
        capsys, "cz", "principal", "--wci", "5,5,5,2", "--degrees", "10"
    )
    assert code == 0 and payload["index"] == 14


def test_cz_orbit_brieskorn(capsys):
    code, payload, _ = run_json(
        capsys, "cz", "orbit", "--brieskorn", "2,2,2,5", "--support", "0,1,2"
    )
    assert code == 0
    assert payload["index"] == 3
    assert payload["branch"] == "nonprincipal-brieskorn"


def test_domain_error_exit_code(capsys):
    code, out, err = run_cli(capsys, "weights", "2,4,6")
    assert code == 2
    assert "gcd=2" in err


def test_domain_error_json_payload(capsys):
    code, payload, err = run_json(capsys, "weights", "2,4,6")
    assert code == 2
    assert payload["error"]["type"] == "non-coprime"
    assert payload["error"]["gcd"] == 2


def test_uncovered_case_exit_code(capsys):
    code, _, err = run_cli(capsys, "cz", "orbit", "--wps", "4,4,5,14", "--support", "2")
    assert code == 3
    assert "allow_extrapolation" in err or "extrapolation" in err


def test_extrapolation_flag(capsys):
    code, payload, _ = run_json(
        capsys, "cz", "orbit", "--wps", "4,4,5,14", "--support", "2", "--allow-extrapolation"
    )
    assert code == 0
    assert payload["extrapolated"] is True
    assert payload["index"] == 7


def test_convergence_error_exit_code(capsys, monkeypatch):
    monkeypatch.setenv("CZORB_EVAL_BUDGET", "21")
    code, _, err = run_cli(capsys, "verify", "lemma42", "--w0", "29", "--w1", "17")
    assert code == 4


def test_usage_error_exit_code(capsys):
    code, _, _ = run_cli(capsys, "weights")
    assert code == 1
    code, _, _ = run_cli(capsys, "cz", "principal")
    assert code == 1
    code, _, _ = run_cli(capsys, "weights", "4,x,5")
    assert code == 1
    code, _, _ = run_cli(capsys, "nope")
    assert code == 1
    code, _, err = run_cli(capsys, "cz", "principal", "--wci", "5,5,5,2")
    assert code == 1
    assert "--degrees" in err


def test_verify_winding(capsys):
    code, payload, _ = run_json(capsys, "verify", "winding", "--rates", "4,4,5,14")
    assert code == 0
    assert payload["winding"] == 27
    assert payload["ok"] is True
    assert payload["residual"] < 0.01


def test_verify_scalar(capsys):
    code, payload, _ = run_json(capsys, "verify", "scalar-cz", "--T", "7/2")
    assert code == 0
    assert payload["closed_form"] == 3
    assert payload["crossing_oracle"] == 3
    assert payload["ok"] is True


def test_verify_lemma42(capsys):
    code, payload, _ = run_json(capsys, "verify", "lemma42", "--w0", "2", "--w1", "3")
    assert code == 0
    assert payload["ok"] is True
    assert abs(payload["value"] + 0.5) <= 1e-8


def test_failed_verify_check_exits_5(capsys, tmp_path, monkeypatch):
    # A kernel that reports convergence on half the true value.
    monkeypatch.setattr(numeric_verify, "chart_radial", lambda w0, w1, tol, max_evals: (0.25 / w0, 0.0, 63, True))
    code, payload, _ = run_json(capsys, "verify", "lemma42", "--w0", "2", "--w1", "3")
    assert code == 5
    assert payload["ok"] is False
    code, out, _ = run_cli(capsys, "verify", "lemma42", "--w0", "2", "--w1", "3")
    assert code == 5
    assert "ok              no" in out
    records = [
        {"id": "wrong", "kind": "verify", "check": "lemma42", "w0": 2, "w1": 3},
        {"id": "bad", "kind": "wps", "weights": [2, 4]},
        {"id": "good", "kind": "verify", "check": "winding", "rates": [4, 4, 5, 14]},
    ]
    path = tmp_path / "wrong.ndjson"
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    code, out, _ = run_cli(capsys, "batch", str(path), "--json")
    assert code == 5
    recs = [json.loads(line) for line in out.strip().splitlines()]
    assert [rec["status"] for rec in recs] == ["ok", "error", "ok"]
    assert recs[0]["result"]["ok"] is False
    assert recs[2]["result"]["ok"] is True


def test_teardrop_table(capsys):
    code, payload, _ = run_json(capsys, "teardrop", "3")
    assert code == 0
    assert payload["chern"] == {"den": 3, "num": 4}
    assert payload["p_star"] == {"den": 3, "num": 1}
    assert len(payload["table"]) == 13
    assert payload["table"][5] == {"cohomology": "0", "degree": 5, "homology": "Z_3"}


def test_batch_worked_examples(capsys, tmp_path):
    records = [
        {"id": "wps-orbit", "kind": "orbit-wps", "weights": [4, 4, 5, 14], "support": [0, 1]},
        {"id": "bk-orbit", "kind": "orbit-brieskorn", "exponents": [2, 2, 2, 5], "support": [0, 1, 2]},
    ]
    path = tmp_path / "batch.ndjson"
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    code, out, _ = run_cli(capsys, "batch", str(path), "--json")
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert [rec["id"] for rec in lines] == ["wps-orbit", "bk-orbit"]
    assert [rec["result"]["index"] for rec in lines] == [8, 3]
    assert all(rec["status"] == "ok" for rec in lines)
    # canonical round trip per line
    for raw in out.strip().splitlines():
        assert dumps(json.loads(raw)) == raw


def test_batch_text_prints_an_id_that_is_not_a_string_as_json(capsys, tmp_path):
    ids = [7, True, {"a": "x"}, [1, 2], None, "x"]
    path = tmp_path / "ids.ndjson"
    path.write_text("".join(json.dumps({"id": i, "kind": "teardrop", "m": 3}) + "\n" for i in ids))
    code, out, _ = run_cli(capsys, "batch", str(path))
    assert code == 0
    tags = [line.partition(": ok ")[0] for line in out.splitlines()]
    assert tags == ["7", "true", '{"a":"x"}', "[1,2]", "-", "x"]


def test_batch_text_writes_a_string_id_that_is_not_printable_as_json(tmp_path):
    # "\udc80" is a lone surrogate, which a strict UTF-8 stdout cannot write,
    # and "a\nb" would split its record over two lines.
    ids = ["\udc80", "a\nb", "next"]
    path = tmp_path / "ids.ndjson"
    path.write_text("".join(json.dumps({"id": i, "kind": "teardrop", "m": 3}) + "\n" for i in ids))
    env = dict(_child_env(), PYTHONIOENCODING="utf-8")
    out = subprocess.run(
        [sys.executable, "-m", "czorb.cli", "batch", str(path)], capture_output=True, env=env, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stderr == b""
    tags = [line.partition(": ok ")[0] for line in out.stdout.decode("utf-8").splitlines()]
    assert tags == ['"\\udc80"', '"a\\nb"', "next"]


def test_batch_empty_file(capsys, tmp_path):
    path = tmp_path / "empty.ndjson"
    path.write_text("")
    code, out, _ = run_cli(capsys, "batch", str(path), "--json")
    assert code == 0
    assert out == ""


def test_batch_continues_after_errors(capsys, tmp_path):
    lines = [
        "this is not json",
        json.dumps({"id": "bad", "kind": "wps", "weights": [2, 4, 6]}),
        # num and den of a rational must be integers, as every integer field
        json.dumps({"id": "bool-num", "kind": "verify", "check": "scalar-cz", "T": {"num": True, "den": 1}}),
        json.dumps({"id": "bool-den", "kind": "verify", "check": "scalar-cz", "T": {"num": 3, "den": True}}),
        json.dumps({"id": "null-den", "kind": "verify", "check": "scalar-cz", "T": {"num": 7, "den": None}}),
        json.dumps({"id": "good", "kind": "wps", "weights": [4, 4, 5, 14]}),
    ]
    path = tmp_path / "mixed.ndjson"
    path.write_text("\n".join(lines) + "\n")
    code, out, _ = run_cli(capsys, "batch", str(path), "--json")
    assert code == 2
    recs = [json.loads(line) for line in out.strip().splitlines()]
    assert len(recs) == 6
    assert recs[0]["status"] == "error"
    assert recs[0]["error"]["type"] == "malformed"
    assert recs[1]["status"] == "error"
    assert recs[1]["error"]["gcd"] == 2
    assert [rec["error"]["type"] for rec in recs[2:5]] == ["domain"] * 3
    assert recs[5]["status"] == "ok"
    assert recs[5]["result"]["index"] == 54


def test_batch_reports_an_internal_error_and_runs_the_next_record(capsys, tmp_path, monkeypatch):
    def boom(m, degree):
        raise ZeroDivisionError("division by zero")

    teardrop = cli._OPERATIONS["teardrop"]
    monkeypatch.setitem(cli._OPERATIONS, "teardrop", teardrop._replace(compute=boom))
    lines = [
        json.dumps({"id": "boom", "kind": "teardrop", "m": 3}),
        json.dumps({"id": "good", "kind": "wps", "weights": [4, 4, 5, 14]}),
    ]
    path = tmp_path / "internal.ndjson"
    path.write_text("\n".join(lines) + "\n")
    code, out, err = run_cli(capsys, "batch", str(path), "--json")
    assert code == 6
    recs = [json.loads(line) for line in out.strip().splitlines()]
    assert len(recs) == 2
    assert recs[0]["id"] == "boom"
    assert recs[0]["status"] == "error"
    assert recs[0]["error"] == {"type": "internal", "message": "line 1: ZeroDivisionError: division by zero"}
    assert "ZeroDivisionError" in err
    assert recs[1]["status"] == "ok"
    assert recs[1]["result"]["index"] == 54
    with pytest.raises(ZeroDivisionError):
        run({"kind": "teardrop", "m": 3})


@pytest.mark.parametrize("as_json", [False, True])
def test_argv_reports_an_internal_error_and_exits_6(capsys, monkeypatch, as_json):
    def boom(space):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "mu_principal", boom)
    code, out, err = run_cli(capsys, "cz", "principal", "--wps", "1,2,3", *(["--json"] if as_json else []))
    assert code == 6
    error = {"type": "internal", "message": "RuntimeError: boom"}
    assert out == (dumps({"error": error}) + "\n" if as_json else "")
    assert "Traceback" in err
    assert err.endswith("czorb: RuntimeError: boom\n")


def test_batch_refuses_values_outside_the_float_range(capsys, tmp_path):
    records = [
        {"id": "rate", "kind": "verify", "check": "winding", "rates": [10**400]},
        {"id": "w0", "kind": "verify", "check": "lemma42", "w0": 10**400, "w1": 3},
        {"id": "tol", "kind": "verify", "check": "lemma42", "w0": 2, "w1": 3, "tol": 10**400},
        {"id": "good", "kind": "verify", "check": "scalar-cz", "T": "7/2"},
    ]
    path = tmp_path / "huge.ndjson"
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    code, out, _ = run_cli(capsys, "batch", str(path), "--json")
    assert code == 2
    recs = [json.loads(line) for line in out.strip().splitlines()]
    assert [rec["id"] for rec in recs] == ["rate", "w0", "tol", "good"]
    assert [rec["error"]["type"] for rec in recs[:3]] == ["domain"] * 3
    assert recs[3]["status"] == "ok"


@pytest.mark.parametrize("text", ["1_000", "7 / 2"])
def test_argv_refuses_a_rational_that_python_versions_read_differently(capsys, text):
    # Fraction reads "_" digit separators from Python 3.11 and spaces around
    # "/" from 3.12; czorb refuses both on every version.
    code, out, err = run_cli(capsys, "verify", "scalar-cz", "--T", text)
    assert code == 1
    assert out == ""
    assert err.splitlines()[-1] == (
        f"czorb verify scalar-cz: error: --T must be a rational ('p/q', integer, or num/den), got {text!r}"
    )


def test_batch_refuses_a_rational_that_python_versions_read_differently(capsys, tmp_path):
    records = [
        {"id": "sep", "kind": "verify", "check": "scalar-cz", "T": "1_000"},
        {"id": "space", "kind": "verify", "check": "scalar-cz", "T": "7 / 2"},
        {"id": "good", "kind": "verify", "check": "scalar-cz", "T": " 1e3 "},
    ]
    path = tmp_path / "rationals.ndjson"
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    code, out, _ = run_cli(capsys, "batch", str(path), "--json")
    assert code == 2
    recs = [json.loads(line) for line in out.strip().splitlines()]
    assert [rec["status"] for rec in recs] == ["error", "error", "ok"]
    assert recs[0]["error"] == {
        "type": "domain",
        "message": "batch field 'T' must be a rational ('p/q', integer, or num/den), got '1_000'",
    }
    assert recs[1]["error"]["type"] == "domain"
    assert recs[2]["result"]["closed_form"] == 1000


@pytest.mark.parametrize("record", [[1, 2], "x", None])
def test_run_refuses_a_record_that_is_not_an_object(record):
    with pytest.raises(DomainError, match="^record must be a JSON object$"):
        run(record)


@pytest.mark.parametrize(
    "argv, last_err",
    [
        (["cz", "principal", "--wci", "5,5,5,2"], "--wci requires --degrees"),
        (["cz", "principal", "--wps", "1,2", "--degrees", "3"], "--wps does not take --degrees"),
        (["cz", "principal", "--brieskorn", "2,2,2,5", "--degrees", "3"], "--brieskorn does not take --degrees"),
    ],
)
def test_argv_usage_errors_go_through_the_command_parser(capsys, argv, last_err):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("usage: czorb cz principal ")
    assert err.splitlines()[-1] == f"czorb cz principal: error: {last_err}"


@pytest.mark.parametrize(
    "exc, error_type, code, extra",
    [
        (DomainError("bad input"), "domain", 2, {}),
        (NonCoprimeError(2, (2, 4)), "non-coprime", 2, {"gcd": 2}),
        (UncoveredCaseError("no branch"), "uncovered-case", 3, {}),
        (ConvergenceError("no convergence", achieved_error=0.5), "convergence", 4, {"achieved_error": 0.5}),
    ],
)
def test_each_error_class_names_its_record_type(exc, error_type, code, extra):
    out, got_code = cli._error(exc)
    assert got_code == code
    assert out == {"status": "error", "error": {"type": error_type, "message": str(exc), **extra}}


def test_argv_takes_a_value_that_starts_with_a_dash_after_an_equals_sign(capsys, tmp_path):
    path = tmp_path / "rates.ndjson"
    path.write_text(json.dumps({"kind": "verify", "check": "winding", "rates": [-1, 2]}) + "\n")
    argv_code, argv_out, _ = run_cli(capsys, "verify", "winding", "--rates=-1,2", "--json")
    batch_code, batch_out, _ = run_cli(capsys, "batch", str(path), "--json")
    result = json.loads(argv_out)
    assert (argv_code, batch_code) == (0, 0)
    assert json.loads(batch_out)["result"] == result
    assert (result["winding"], result["ok"]) == (1, True)


def test_argv_reads_a_value_that_starts_with_a_dash_as_an_option(capsys):
    # argparse reads only -<digits> and -<digits>.<digits> as negative numbers.
    code, out, err = run_cli(capsys, "verify", "winding", "--rates", "-1,2")
    assert (code, out) == (1, "")
    assert err.splitlines()[-1] == "czorb verify winding: error: argument --rates: expected one argument"


def _run_child(*argv):
    return subprocess.run(
        [sys.executable, "-m", "czorb.cli", *argv], capture_output=True, text=True, env=_child_env(), timeout=20
    )


def test_argv_refuses_a_duration_with_a_huge_exponent_before_reading_it():
    # Fraction would build 10**100000000 first: over 120 s, where 1e10000000 took 23 s.
    out = _run_child("verify", "scalar-cz", "--T", "1e100000000")
    assert (out.returncode, out.stdout) == (1, "")
    assert out.stderr.splitlines()[-1] == (
        "czorb verify scalar-cz: error: --T has an exponent past 4300 in magnitude, got '1e100000000'"
    )


def test_batch_refuses_a_duration_with_a_huge_exponent_before_reading_it(tmp_path):
    path = tmp_path / "huge_t.ndjson"
    records = [{"kind": "verify", "check": "scalar-cz", "T": t} for t in ("1e10000000", "-1e-100000000", "2")]
    path.write_text("".join(json.dumps(rec) + "\n" for rec in records))
    out = _run_child("batch", str(path), "--json")
    assert out.returncode == 2, out.stderr
    recs = [json.loads(line) for line in out.stdout.splitlines()]
    assert [rec["error"] for rec in recs[:2]] == [
        {"type": "domain", "message": "batch field 'T' has an exponent past 4300 in magnitude, got '1e10000000'"},
        {"type": "domain", "message": "batch field 'T' has an exponent past 4300 in magnitude, got '-1e-100000000'"},
    ]
    assert recs[2]["status"] == "ok"


@pytest.mark.parametrize("text", ["1/0", "abc", "1_000", "7 / 2", "1e10000000"])
def test_argv_and_batch_refuse_a_duration_for_the_same_reason(tmp_path, text):
    # In a child with a timeout: Fraction would take seconds to build 10**10000000.
    path = tmp_path / "t.ndjson"
    path.write_text(json.dumps({"kind": "verify", "check": "scalar-cz", "T": text}) + "\n")
    argv, batch = _run_child("verify", "scalar-cz", "--T", text), _run_child("batch", str(path), "--json")
    assert (argv.returncode, argv.stdout, batch.returncode) == (1, "", 2)
    argv_line = argv.stderr.splitlines()[-1]
    batch_message = json.loads(batch.stdout)["error"]["message"]
    argv_prefix, batch_prefix = "czorb verify scalar-cz: error: --T ", "batch field 'T' "
    assert argv_line.startswith(argv_prefix) and batch_message.startswith(batch_prefix)
    assert argv_line[len(argv_prefix):] == batch_message[len(batch_prefix):]


def test_a_duration_at_the_exponent_bound_meets_the_crossing_budget():
    with pytest.raises(DomainError, match="needs more crossings than the evaluation budget"):
        run({"kind": "verify", "check": "scalar-cz", "T": "1e4300"})


def test_a_duration_whose_exponent_is_too_long_for_int_is_refused():
    T = "1e" + "9" * 5000
    with pytest.raises(DomainError, match=r"batch field 'T' must be a rational .*, got '1e999"):
        run({"kind": "verify", "check": "scalar-cz", "T": T})


def test_a_duration_exponent_is_unbounded_without_an_int_string_limit():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert run({"kind": "verify", "check": "scalar-cz", "T": "1e3"})["closed_form"] == 1000
    finally:
        sys.set_int_max_str_digits(limit)


def test_run_refuses_a_rational_that_no_batch_line_holds():
    with pytest.raises(DomainError, match=r"batch field 'T' must be a rational .*, got Fraction\(7, 2\)"):
        run({"kind": "verify", "check": "scalar-cz", "T": Fraction(7, 2)})


def test_batch_reports_a_winding_unwrap_fault_and_runs_the_next_record(capsys, tmp_path, monkeypatch):
    # A kernel 0.2*pi off the true phase: a convergence error (exit 4), not a wrong winding.
    monkeypatch.setattr(cz_paths, "unwrapped_winding_phase", lambda rates, samples: 2 * math.pi * (sum(rates) + 0.1))
    records = [
        {"id": "fault", "kind": "verify", "check": "winding", "rates": [4, 4, 5, 14]},
        {"id": "good", "kind": "verify", "check": "scalar-cz", "T": "7/2"},
    ]
    path = tmp_path / "fault.ndjson"
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    code, out, _ = run_cli(capsys, "batch", str(path), "--json")
    assert code == 4
    recs = [json.loads(line) for line in out.strip().splitlines()]
    assert [rec["status"] for rec in recs] == ["error", "ok"]
    assert recs[0]["error"]["type"] == "convergence"
    assert recs[0]["error"]["message"] == "phase unwrap residual 0.1000 exceeds 0.01"
    assert recs[0]["error"]["achieved_error"] == pytest.approx(0.1)
    assert recs[1]["result"]["ok"] is True


def test_batch_refuses_winding_over_the_budget(capsys, tmp_path, monkeypatch):
    # 4e20 samples: refused before sampling, and the next record runs.
    monkeypatch.delenv("CZORB_EVAL_BUDGET", raising=False)
    records = [
        {"id": "huge", "kind": "verify", "check": "winding", "rates": [10**20]},
        {"id": "good", "kind": "verify", "check": "winding", "rates": [4, 4, 5, 14]},
    ]
    path = tmp_path / "budget.ndjson"
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    code, out, _ = run_cli(capsys, "batch", str(path), "--json")
    assert code == 2
    recs = [json.loads(line) for line in out.strip().splitlines()]
    assert [rec["status"] for rec in recs] == ["error", "ok"]
    assert recs[0]["error"]["type"] == "domain"
    assert "budget 1000000" in recs[0]["error"]["message"]
    assert recs[1]["result"]["winding"] == 27


def test_verify_winding_samples_at_the_unwrap_safe_minimum(capsys, tmp_path):
    # The count is 4 * sum(|r|) + 16 on argv and in batch; no input sets it.
    code, payload, _ = run_json(capsys, "verify", "winding", "--rates", "4,-4,5,14")
    assert (code, payload["samples"], payload["winding"]) == (0, 4 * 27 + 16, 19)
    code, _, err = run_cli(capsys, "verify", "winding", "--rates", "4,-4,5,14", "--samples", "200")
    assert code == 1
    assert "unrecognized arguments: --samples 200" in err
    path = tmp_path / "samples.ndjson"
    # An unknown field, ignored as every unknown field is.
    path.write_text('{"id":"w","kind":"verify","check":"winding","rates":[1,-2,3],"samples":1}\n')
    code, out, _ = run_cli(capsys, "batch", str(path), "--json")
    assert code == 0
    assert json.loads(out)["result"]["samples"] == 4 * 6 + 16


def test_winding_budget_comes_from_the_environment(capsys, monkeypatch):
    monkeypatch.setenv("CZORB_EVAL_BUDGET", "495")
    code, _, err = run_cli(capsys, "verify", "winding", "--rates", "4,4,5,14")
    assert code == 2
    assert "budget 495" in err
    monkeypatch.setenv("CZORB_EVAL_BUDGET", "496")
    code, payload, _ = run_json(capsys, "verify", "winding", "--rates", "4,4,5,14")
    assert code == 0
    assert payload["winding"] == 27


def test_batch_refuses_a_budget_that_is_not_an_integer(capsys, tmp_path, monkeypatch):
    # The budget is read per verify record: a domain error, and the next record runs.
    monkeypatch.setenv("CZORB_EVAL_BUDGET", "abc")
    records = [
        {"id": "bad-budget", "kind": "verify", "check": "winding", "rates": [4, 4, 5, 14]},
        {"id": "good", "kind": "wps", "weights": [4, 4, 5, 14]},
    ]
    path = tmp_path / "budget.ndjson"
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    code, out, _ = run_cli(capsys, "batch", str(path), "--json")
    assert code == 2
    recs = [json.loads(line) for line in out.strip().splitlines()]
    assert [rec["status"] for rec in recs] == ["error", "ok"]
    assert recs[0]["error"]["type"] == "domain"
    assert recs[0]["error"]["message"] == "CZORB_EVAL_BUDGET must be an integer, got 'abc'"
    assert recs[1]["result"]["index"] == 54


def test_batch_refuses_crossings_over_the_budget(capsys, tmp_path, monkeypatch):
    # 5e99 crossings: refused before the first is visited, and the next record runs.
    monkeypatch.delenv("CZORB_EVAL_BUDGET", raising=False)
    records = [
        {"id": "huge", "kind": "verify", "check": "scalar-cz", "T": "1e100"},
        {"id": "good", "kind": "verify", "check": "scalar-cz", "T": "7/2"},
    ]
    path = tmp_path / "crossings.ndjson"
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    code, out, _ = run_cli(capsys, "batch", str(path), "--json")
    assert code == 2
    recs = [json.loads(line) for line in out.strip().splitlines()]
    assert [rec["status"] for rec in recs] == ["error", "ok"]
    assert recs[0]["error"]["type"] == "domain"
    assert "budget 1000000" in recs[0]["error"]["message"]
    assert recs[1]["result"]["crossing_oracle"] == 3


def test_crossing_budget_comes_from_the_environment(capsys, monkeypatch):
    # T = 2000 has 1001 crossings.
    monkeypatch.setenv("CZORB_EVAL_BUDGET", "1001")
    code, payload, _ = run_json(capsys, "verify", "scalar-cz", "--T", "2000")
    assert code == 0
    assert payload["crossing_oracle"] == 2000
    monkeypatch.setenv("CZORB_EVAL_BUDGET", "1000")
    code, _, err = run_cli(capsys, "verify", "scalar-cz", "--T", "2000")
    assert code == 2
    assert "budget 1000" in err


def test_batch_line_that_is_not_utf8_is_malformed(capsys, tmp_path):
    # The lines around the bad byte run as before.
    path = tmp_path / "latin1.ndjson"
    record = b'{"id":"%s","kind":"teardrop","m":3}\n'
    path.write_bytes(record % b"a" + record % b"\xe9" + record % b"b")
    code, out, _ = run_cli(capsys, "batch", str(path), "--json")
    assert code == 2
    recs = [json.loads(line) for line in out.strip().splitlines()]
    assert [rec["status"] for rec in recs] == ["ok", "error", "ok"]
    assert recs[1] == {
        "id": None,
        "kind": None,
        "status": "error",
        "error": {"type": "malformed", "message": "line 2: not valid UTF-8"},
    }
    assert [recs[0]["id"], recs[2]["id"]] == ["a", "b"]


def test_batch_drops_a_byte_order_mark_only_at_the_start_of_the_file(capsys, tmp_path):
    # RFC 8259 lets a parser ignore a leading BOM; one later in the file, and a
    # byte that is not UTF-8, stay malformed lines.
    path = tmp_path / "bom.ndjson"
    record = b'{"kind":"wps","weights":[1,2]}\n'
    path.write_bytes(b"\xef\xbb\xbf" + record + b"\xef\xbb\xbf" + record + record.replace(b"wps", b"\xe9"))
    code, out, _ = run_cli(capsys, "batch", str(path), "--json")
    assert code == 2
    recs = [json.loads(line) for line in out.strip().splitlines()]
    assert recs[0] == {"id": None, "kind": "wps", "status": "ok", "result": run(json.loads(record))}
    assert [rec["error"] for rec in recs[1:]] == [
        {"type": "malformed", "message": "line 2: not valid JSON"},
        {"type": "malformed", "message": "line 3: not valid UTF-8"},
    ]


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e400", "-1e400"])
def test_batch_line_with_a_nan_or_infinity_token_is_malformed(capsys, tmp_path, token):
    # json.loads reads these tokens, but they are not JSON and must not be
    # echoed in the id of a canonical JSON answer. A number past the float
    # range is JSON, but reads as the same infinity.
    path = tmp_path / "constants.ndjson"
    path.write_text(
        f'{{"id":{token},"kind":"wps","weights":[1,2]}}\n'
        f'{{"id":"x","kind":"verify","check":"lemma42","w0":2,"w1":3,"tol":{token}}}\n'
        '{"id":"good","kind":"teardrop","m":3}\n'
    )
    code, out, _ = run_cli(capsys, "batch", str(path), "--json")
    assert code == 2
    lines = out.splitlines()
    for lineno in (1, 2):
        error = {"type": "malformed", "message": f"line {lineno}: not valid JSON"}
        assert lines[lineno - 1] == dumps({"id": None, "kind": None, "status": "error", "error": error})
    assert json.loads(lines[2])["status"] == "ok"


def test_batch_line_over_the_int_digit_limit_is_malformed(capsys, tmp_path):
    # json.loads raises a plain ValueError, not a JSONDecodeError, for an
    # integer of more than 4300 digits; the record after it must still run.
    huge = '{"id":"huge","kind":"verify","check":"winding","rates":[' + "1" * 5000 + "]}"
    good = '{"id":"good","kind":"teardrop","m":3}'
    path = tmp_path / "digits.ndjson"
    path.write_text(huge + "\n" + good + "\n")
    code, out, _ = run_cli(capsys, "batch", str(path), "--json")
    assert code == 2
    recs = [json.loads(line) for line in out.strip().splitlines()]
    assert len(recs) == 2
    assert recs[0]["status"] == "error"
    assert recs[0]["error"] == {"type": "malformed", "message": "line 1: integer of more than 4300 digits"}
    assert recs[1]["id"] == "good"
    assert recs[1]["status"] == "ok"


# Each exponent has 4001 digits, within the input limit, but l = lcm(a) and
# the principal index have about 12 000.
LONG_ANSWER_EXPONENTS = [10**4000 + 1, 10**4000 + 3, 10**4000 + 7, 3]
LONG_ANSWER_ERROR = {
    "type": "domain",
    "message": f"result has an integer of more than {sys.get_int_max_str_digits()} digits",
}


def write_long_answer_batch(tmp_path):
    path = tmp_path / "long.ndjson"
    long = dumps({"id": "long", "kind": "brieskorn", "exponents": LONG_ANSWER_EXPONENTS})
    path.write_text(long + "\n" + '{"id":"good","kind":"wps","weights":[1,2]}\n')
    return path


def test_batch_json_refuses_an_answer_too_long_to_print(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "batch", str(write_long_answer_batch(tmp_path)), "--json")
    assert code == 2
    recs = [json.loads(line) for line in out.strip().splitlines()]
    assert recs[0] == {"id": "long", "kind": "brieskorn", "status": "error", "error": LONG_ANSWER_ERROR}
    assert (recs[1]["id"], recs[1]["status"], recs[1]["result"]["index"]) == ("good", "ok", 6)


def test_batch_human_refuses_an_answer_too_long_to_print(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "batch", str(write_long_answer_batch(tmp_path)))
    assert code == 2
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert lines[0] == "long: error " + dumps(LONG_ANSWER_ERROR)
    assert lines[1].startswith("good: ok ")


def test_argv_json_refuses_an_answer_too_long_to_print(capsys):
    exponents = ",".join(map(str, LONG_ANSWER_EXPONENTS))
    code, out, err = run_cli(capsys, "cz", "principal", "--brieskorn", exponents, "--json")
    assert code == 2
    assert json.loads(out) == {"error": LONG_ANSWER_ERROR}
    assert err == f"czorb: {LONG_ANSWER_ERROR['message']}\n"


def test_argv_human_refuses_an_answer_too_long_to_print(capsys):
    exponents = ",".join(map(str, LONG_ANSWER_EXPONENTS))
    code, out, err = run_cli(capsys, "cz", "principal", "--brieskorn", exponents)
    assert code == 2
    assert out == ""
    assert err == f"czorb: {LONG_ANSWER_ERROR['message']}\n"


def test_batch_line_nested_past_the_recursion_limit_is_malformed(capsys, tmp_path):
    # json.loads raises RecursionError, not ValueError, on deep nesting; the
    # record after it must still run.
    path = tmp_path / "nested.ndjson"
    path.write_text("[" * 100_000 + "\n" + '{"id":"good","kind":"teardrop","m":3}\n')
    code, out, _ = run_cli(capsys, "batch", str(path), "--json")
    assert code == 2
    recs = [json.loads(line) for line in out.strip().splitlines()]
    assert [rec["status"] for rec in recs] == ["error", "ok"]
    assert recs[0]["error"] == {"type": "malformed", "message": "line 1: nested too deeply"}
    assert recs[1]["id"] == "good"


@pytest.mark.parametrize("as_json", [True, False])
def test_batch_id_too_deep_to_encode_is_malformed(capsys, tmp_path, monkeypatch, as_json):
    # An id can parse and still be nested too deeply for its output line to
    # encode. How deep that is depends on the Python version, so the
    # RecursionError is raised here for one chosen id.
    batch_text = cli._batch_text

    def too_deep_for_one_id(out, json_mode):
        if out["id"] == "deep":
            raise RecursionError("maximum recursion depth exceeded")
        return batch_text(out, json_mode)

    monkeypatch.setattr(cli, "_batch_text", too_deep_for_one_id)
    path = tmp_path / "deep_id.ndjson"
    path.write_text(
        '{"id":"first","kind":"teardrop","m":2,"degree":1}\n'
        '{"id":"deep","kind":"teardrop","m":2,"degree":1}\n'
        '{"id":"good","kind":"teardrop","m":3}\n'
    )
    code, out, _ = run_cli(capsys, "batch", str(path), *(["--json"] if as_json else []))
    assert code == 2
    out_lines = out.splitlines()
    assert len(out_lines) == 3
    error = {"type": "malformed", "message": "line 2: nested too deeply"}
    if as_json:
        assert out_lines[1] == dumps({"error": error, "id": None, "kind": None, "status": "error"})
    else:
        assert out_lines[1] == "-: error " + dumps(error)
    assert out_lines[0].startswith('{"id":"first"' if as_json else "first: ok ")
    assert out_lines[2].startswith('{"id":"good"' if as_json else "good: ok ")


@pytest.mark.parametrize("as_json", [True, False])
def test_batch_ids_nested_near_the_recursion_limit_give_one_line_each(capsys, tmp_path, as_json):
    # Every line gives one output line, ok or malformed, and the run goes on.
    # Up to Python 3.11 the json C code and list repr share the recursion
    # limit, so the deepest ids here parse but cannot be encoded; from 3.12
    # on they run under a higher C limit and may all be ok.
    limit = sys.getrecursionlimit()
    depths = range(limit - 150, limit + 3)
    lines = [f'{{"id":{"[" * depth}{"]" * depth},"kind":"teardrop","m":2,"degree":1}}' for depth in depths]
    path = tmp_path / "deep_id.ndjson"
    path.write_text("\n".join([*lines, '{"id":"good","kind":"teardrop","m":3}']) + "\n")
    code, out, _ = run_cli(capsys, "batch", str(path), *(["--json"] if as_json else []))
    out_lines = out.splitlines()
    assert len(out_lines) == len(depths) + 1
    ok = '"status":"ok"}' if as_json else "]: ok "
    for lineno, text in enumerate(out_lines[:-1], 1):
        error = {"type": "malformed", "message": f"line {lineno}: nested too deeply"}
        if as_json:
            malformed = dumps({"error": error, "id": None, "kind": None, "status": "error"})
        else:
            malformed = "-: error " + dumps(error)
        assert text == malformed or ok in text
    assert ok in out_lines[0]
    assert out_lines[-1].startswith('{"id":"good"' if as_json else "good: ok ")
    if sys.version_info < (3, 12):
        assert code == 2 and out_lines[-2] == malformed
    else:
        assert code in (0, 2)


def test_batch_unreadable_file(capsys):
    code, _, err = run_cli(capsys, "batch", "/no/such/file.ndjson")
    assert code == 1
    assert "cannot read" in err


@pytest.mark.parametrize(
    "record, message",
    [
        ({"kind": "lemma42"}, "unknown batch record kind 'lemma42'"),
        ({"kind": "verify", "check": "weights"}, "unknown verify check 'weights'"),
    ],
)
def test_a_check_is_not_a_kind_and_a_kind_is_not_a_check(record, message):
    with pytest.raises(DomainError) as info:
        run(record)
    assert str(info.value) == message


def test_batch_verify_records(capsys, tmp_path):
    records = [
        {"id": "v1", "kind": "verify", "check": "scalar-cz", "T": "5/4"},
        {"id": "v2", "kind": "verify", "check": "winding", "rates": [3, -3]},
        {"id": "v3", "kind": "teardrop", "m": 5, "degree": 4},
        {"id": "v4", "kind": "weights", "weights": [4, 4, 5, 14]},
    ]
    path = tmp_path / "verify.ndjson"
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    code, out, _ = run_cli(capsys, "batch", str(path), "--json")
    assert code == 0
    recs = [json.loads(line) for line in out.strip().splitlines()]
    assert recs[0]["result"]["closed_form"] == 1
    assert recs[1]["result"]["winding"] == 0
    assert recs[2]["result"]["cohomology"] == "Z_5"
    assert recs[3]["result"]["a_w"] == 2


def _child_env():
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(czorb.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_batch_into_a_closed_pipe_exits_1_quietly(tmp_path):
    # 20000 records print far more than a pipe buffer holds, so the batch is
    # still writing when the reader closes its end.
    path = tmp_path / "big.ndjson"
    path.write_text((json.dumps({"kind": "wps", "weights": [4, 4, 5, 14]}) + "\n") * 20000)
    err = tmp_path / "stderr"
    with open(err, "wb") as stderr:
        child = subprocess.Popen(
            [sys.executable, "-m", "czorb.cli", "batch", str(path), "--json"],
            stdout=subprocess.PIPE,
            stderr=stderr,
            env=_child_env(),
        )
        first = child.stdout.readline()
        child.stdout.close()
        code = child.wait(timeout=120)
    assert json.loads(first)["status"] == "ok"
    assert code == 1
    assert err.read_bytes() == b""


def test_module_entry_point_lists_every_subcommand(capsys):
    out = subprocess.run(
        [sys.executable, "-m", "czorb.cli", "--help"], capture_output=True, text=True, env=_child_env(), timeout=60
    )
    assert out.returncode == 0, out.stderr
    for command in ("weights", "cz", "teardrop", "verify", "batch"):
        assert f"\n    {command} " in out.stdout
    for group, commands in (("cz", ("principal", "orbit")), ("verify", ("lemma42", "winding", "scalar-cz"))):
        code, out, _ = run_cli(capsys, group, "--help")
        assert code == 0
        for command in commands:
            assert f"\n    {command} " in out


def test_principal_help_keeps_the_space_group(capsys):
    code, out, _ = run_cli(capsys, "cz", "principal", "--help")
    assert code == 0
    assert "(--wps WPS | --wci WCI | --brieskorn BRIESKORN)" in out


def test_import_czorb_leaves_the_cli_out():
    probe = "import sys, czorb; print([m for m in ('czorb.cli', 'argparse') if m in sys.modules])"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=_child_env(), timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("module", ["czorb.cli", "czorb"])
def test_import_adds_no_module_that_only_introspection_or_an_error_path_needs(module):
    # -S: a site that preloads typing would hide it. The baseline is what
    # the CLI needs from the standard library anyway.
    probe = (
        "import sys\n"
        "import argparse, json, fractions, cmath, collections.abc\n"
        "baseline = set(sys.modules)\n"
        f"import {module}\n"
        "print([m for m in ('dataclasses', 'inspect', 'typing', 'traceback') if m in set(sys.modules) - baseline])"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe], capture_output=True, text=True, env=_child_env(), timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


# Values each field is drawn from, as (argv text, record value). The ranges
# keep every oracle call small and give both answers and refusals; a
# positional list starts with no "-", which argparse would read as an option.
_LISTS = {
    "support": st.lists(st.integers(0, 5), min_size=1, max_size=4),
    "rates": st.lists(st.integers(-9, 9), min_size=1, max_size=5),
}
_RECORD_RATIONAL = st.sampled_from(
    [lambda x: f"{x.numerator}/{x.denominator}", lambda x: {"num": x.numerator, "den": x.denominator}]
)


@st.composite
def _field_value(draw, field):
    if field.type is INTS:
        value = draw(_LISTS.get(field.name, st.lists(st.integers(1, 24), min_size=1, max_size=6)))
        return ",".join(map(str, value)), value
    if field.type is INT:
        value = draw(st.integers(-1, 40))
        return str(value), value
    if field.type is NUMBER:
        value = draw(st.sampled_from([1e-4, 3e-6, 1e-8]))
        return repr(value), value
    if field.type is RATIONAL:
        value = Fraction(draw(st.integers(-5, 300)), draw(st.integers(1, 6)))
        return f"{value.numerator}/{value.denominator}", draw(_RECORD_RATIONAL)(value)
    assert field.type is FLAG
    return None, True


@pytest.mark.parametrize("op", OPERATIONS, ids=lambda op: op.check or op.kind)
@given(data=st.data())
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_argv_batch_and_run_agree(capsys, tmp_path, op, data):
    argv = op.command.split()
    record = {"kind": op.kind, **({"check": op.check} if op.check else {})}
    for field in op.fields:
        if field.default is not REQUIRED and not data.draw(st.booleans()):
            continue
        text, value = data.draw(_field_value(field))
        record[field.name] = value
        if text is None:
            argv.append(field.spelling)
        elif field.spelling.startswith("-"):
            argv.append(f"{field.spelling}={text}")
        else:
            argv.append(text)
    path = tmp_path / "one.ndjson"
    path.write_text(json.dumps(record) + "\n")
    argv_code, argv_out, _ = run_cli(capsys, *argv, "--json")
    batch_code, batch_out, _ = run_cli(capsys, "batch", str(path), "--json")
    batch = json.loads(batch_out)
    try:
        result = run(record)
    except CzorbError as exc:
        assert argv_code == batch_code == exc.exit_code
        argv_error = json.loads(argv_out)["error"]
        assert argv_error == batch["error"]
        assert argv_error["message"] == str(exc)
    else:
        assert argv_code == batch_code == 0
        assert argv_out.strip() == dumps(batch["result"]) == dumps(result)


# ---------------------------------------------------------------------------
# the lemma42 verdict in integers, and JSON in and out of a batch


def check_lemma42_verdict(w0, tol, value):
    """compute_verify_lemma42's verdict on a quadrature that returns `value`,
    checked against the rule in Fractions."""
    quadrature = numeric_verify.QuadratureResult(value=value, estimated_error=0.0, evaluations=16)
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(cli, "chart_integral", lambda *args: quadrature)
        payload = cli.compute_verify_lemma42(w0, 3, tol)
    assert payload["ok"] is (abs(Fraction(value) - Fraction(-1, w0)) <= Fraction(tol) / w0)
    assert payload["expected"] == cli._rational_json(Fraction(-1, w0))
    return payload["ok"]


@given(
    w0=st.one_of(st.integers(1, 1000), st.integers(1, 10**308)),
    tol=st.floats(min_value=0.0, max_value=1e-4, exclude_min=True),
    offset=st.floats(min_value=-3.0, max_value=3.0),
)
@settings(max_examples=300, deadline=None)
def test_lemma42_verdict_in_integers_is_the_fraction_rule(w0, tol, offset):
    # Values spread over the band [-1/w0 - tol/w0, -1/w0 + tol/w0] and past it.
    check_lemma42_verdict(w0, tol, -(1 + offset * tol) / w0)


@given(k=st.integers(0, 1000), j=st.integers(14, 52), sign=st.sampled_from([-1, 1]))
@settings(max_examples=200, deadline=None)
def test_lemma42_verdict_at_the_exact_band_edges(k, j, sign):
    # w0 = 2**k and tol = 2**-j make v = -(1 ± tol)/w0 an exact float on the
    # edge of the band; its neighbours lie one ulp inside and outside.
    w0, tol = 2**k, 2.0**-j
    edge = -(1 + sign * tol) / w0
    assert Fraction(edge) == -(1 + sign * Fraction(tol)) / w0
    assert check_lemma42_verdict(w0, tol, edge) is True
    inside, outside = math.nextafter(edge, -1 / w0), math.nextafter(edge, sign * -math.inf)
    assert check_lemma42_verdict(w0, tol, inside) is True
    assert check_lemma42_verdict(w0, tol, outside) is False


@pytest.mark.parametrize("line", ['{"kind":"wps","weights":[1,2]} x', "{}{}", "[1] 2", '{"id":1}\t{}'])
def test_batch_line_with_data_after_its_value_is_malformed(capsys, tmp_path, line):
    path = tmp_path / "extra.ndjson"
    path.write_text(line + "\n")
    code, out, _ = run_cli(capsys, "batch", str(path), "--json")
    assert code == 2
    error = {"type": "malformed", "message": "line 1: not valid JSON"}
    assert out == dumps({"id": None, "kind": None, "status": "error", "error": error}) + "\n"


def test_batch_reads_every_reference_line_as_json_decode_does(monkeypatch):
    decoder = json.JSONDecoder(parse_float=cli._finite_float, parse_constant=cli._refuse_constant)
    records = []
    monkeypatch.setattr(cli, "run", lambda record: records.append(record) or {})
    path = os.path.join(os.path.dirname(__file__), "data", "reference.ndjson")
    with open(path, encoding="utf-8") as fh:
        lines = [line.strip() for line in fh if line.strip()]
    for lineno, line in enumerate(lines, 1):
        records.clear()
        out, _ = cli._run_line(lineno, line)
        try:
            expected = decoder.decode(line)
        except (ValueError, RecursionError):
            assert out["error"]["type"] == "malformed" and records == []
            continue
        assert repr(records) == repr([expected] if isinstance(expected, dict) else [])


_JSON_TREES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children) | st.dictionaries(st.text(), children),
    max_leaves=30,
)


@given(tree=_JSON_TREES)
@settings(max_examples=300, deadline=None)
def test_dumps_is_json_dumps_with_sorted_keys_and_compact_separators(tree):
    assert dumps(tree) == json.dumps(tree, sort_keys=True, separators=(",", ":"))


def deep_list(depth):
    tree = []
    for _ in range(depth):
        tree = [tree]
    return tree


@pytest.mark.parametrize(
    "tree, error",
    [(10**5000, ValueError), ({"a": [1, 10**5000]}, ValueError), (deep_list(100_000), RecursionError)],
    ids=["long-int", "nested-long-int", "too-deep"],
)
def test_dumps_raises_what_json_dumps_raises(tree, error):
    # _run_batch catches these two errors from an output line.
    with pytest.raises(error):
        json.dumps(tree, sort_keys=True, separators=(",", ":"))
    with pytest.raises(error):
        dumps(tree)
