import json

import pytest

from czorb.cli import dumps, main


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
        json.dumps({"id": "good", "kind": "wps", "weights": [4, 4, 5, 14]}),
    ]
    path = tmp_path / "mixed.ndjson"
    path.write_text("\n".join(lines) + "\n")
    code, out, _ = run_cli(capsys, "batch", str(path), "--json")
    assert code == 2
    recs = [json.loads(line) for line in out.strip().splitlines()]
    assert len(recs) == 3
    assert recs[0]["status"] == "error"
    assert recs[0]["error"]["type"] == "malformed"
    assert recs[1]["status"] == "error"
    assert recs[1]["error"]["gcd"] == 2
    assert recs[2]["status"] == "ok"
    assert recs[2]["result"]["index"] == 54


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
    assert recs[0]["error"]["type"] == "malformed"
    assert recs[0]["error"]["message"].startswith("line 1: ")
    assert recs[1]["id"] == "good"
    assert recs[1]["status"] == "ok"


def test_batch_unreadable_file(capsys):
    code, _, err = run_cli(capsys, "batch", "/no/such/file.ndjson")
    assert code == 1
    assert "cannot read" in err


def test_batch_verify_records(capsys, tmp_path):
    records = [
        {"id": "v1", "kind": "verify", "check": "scalar-cz", "T": "5/4"},
        {"id": "v2", "kind": "verify", "check": "winding", "rates": [3, -3]},
        {"id": "v3", "kind": "teardrop", "m": 5, "degree": 4},
    ]
    path = tmp_path / "verify.ndjson"
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    code, out, _ = run_cli(capsys, "batch", str(path), "--json")
    assert code == 0
    recs = [json.loads(line) for line in out.strip().splitlines()]
    assert recs[0]["result"]["closed_form"] == 1
    assert recs[1]["result"]["winding"] == 0
    assert recs[2]["result"]["cohomology"] == "Z_5"
