"""Command-line surface.

Subcommands mirror the library operations one for one:

    czorb weights 4,4,5,14
    czorb cz principal --brieskorn 2,2,2,5
    czorb cz orbit --wps 4,4,5,14 --support 0,1
    czorb teardrop 3 --degree 5
    czorb verify lemma42 --w0 2 --w1 3
    czorb verify winding --rates 4,4,5,14
    czorb verify scalar-cz --T 7/2
    czorb batch records.ndjson --json

Exit codes: 0 success, 1 usage, 2 domain/validation, 3 uncovered case,
4 numeric convergence. Rationals are written p/q on input and serialized as
{"num": p, "den": q} in JSON output; all JSON is emitted with sorted keys and
compact separators so records round-trip byte for byte.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .cz_indices import (
    BRANCH_FORMULAS,
    CZReport,
    mu_orbit_brieskorn,
    mu_orbit_wps,
    mu_principal,
    mu_principal_brieskorn,
)
from .cz_paths import crossing_oracle_scalar, det_winding, scalar_cz
from .errors import ConvergenceError, CzorbError, DomainError, NonCoprimeError
from .numeric_verify import DEFAULT_EVAL_BUDGET, chart_integral
from .orbifold_topology import (
    p_star_factor,
    teardrop_cohomology,
    teardrop_homology,
    teardrop_orbifold_chern,
)
from .spaces import WPSpace, make_brieskorn_exponents, make_wci_space
from .weights import invariants, make_weight_vector, symplectic_area

TEARDROP_TABLE_MAX_DEGREE = 12


class UsageError(Exception):
    """Bad argv combination that argparse alone cannot express."""


# ---------------------------------------------------------------------------
# serialization helpers

def dumps(obj) -> str:
    """Canonical JSON: sorted keys, compact separators."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _rational_json(x: Fraction) -> dict:
    return {"num": x.numerator, "den": x.denominator}


def _rational_str(x: Fraction) -> str:
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def _error_payload(exc: CzorbError) -> dict:
    if isinstance(exc, NonCoprimeError):
        return {"type": "non-coprime", "gcd": exc.gcd, "message": str(exc)}
    if isinstance(exc, ConvergenceError):
        payload = {"type": "convergence", "message": str(exc)}
        if exc.achieved_error is not None:
            payload["achieved_error"] = exc.achieved_error
        return payload
    if exc.exit_code == 3:
        return {"type": "uncovered-case", "message": str(exc)}
    return {"type": "domain", "message": str(exc)}


# ---------------------------------------------------------------------------
# argv parsing helpers

def _csv_ints(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a comma-separated list of integers, got {text!r}")


def _rational_arg(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"expected a rational p/q or an integer, got {text!r}")


class _Parser(argparse.ArgumentParser):
    """ArgumentParser with usage failures mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


# ---------------------------------------------------------------------------
# computations shared by argv handlers and batch records

def compute_weights(raw: list[int]) -> dict:
    wv = make_weight_vector(raw)
    inv = invariants(wv)
    return {
        "weights": list(wv.w),
        "sum": inv.sum,
        "product": inv.product,
        "d": list(inv.d),
        "e": list(inv.e),
        "a_w": inv.a_w,
        "reduced": list(inv.reduced.w),
        "well_formed": inv.well_formed,
        "symplectic_area": _rational_json(symplectic_area(wv)),
    }


def _report_payload(report: CZReport) -> dict:
    return {
        "index": report.index,
        "branch": report.branch.value,
        "extrapolated": report.extrapolated,
        "b_constant": report.b_constant,
        "notes": list(report.notes),
        "formula": BRANCH_FORMULAS[report.branch],
    }


def compute_principal_wps(raw: list[int]) -> dict:
    report = mu_principal(WPSpace(make_weight_vector(raw)))
    return {"weights": list(raw), **_report_payload(report)}


def compute_principal_wci(raw: list[int], degrees: list[int]) -> dict:
    report = mu_principal(make_wci_space(raw, degrees))
    return {"weights": list(raw), "degrees": list(degrees), **_report_payload(report)}


def compute_principal_brieskorn(exponents: list[int]) -> dict:
    report = mu_principal_brieskorn(make_brieskorn_exponents(exponents))
    return {"exponents": list(exponents), **_report_payload(report)}


def compute_orbit_wps(raw: list[int], support: list[int], allow_extrapolation: bool) -> dict:
    report = mu_orbit_wps(raw, support, allow_extrapolation)
    return {"weights": list(raw), "support": sorted(set(support)), **_report_payload(report)}


def compute_orbit_brieskorn(exponents: list[int], support: list[int], allow_extrapolation: bool) -> dict:
    be = make_brieskorn_exponents(exponents)
    report = mu_orbit_brieskorn(be, support, allow_extrapolation)
    return {"exponents": list(exponents), "support": sorted(set(support)), **_report_payload(report)}


def compute_teardrop(m: int, degree: int | None) -> dict:
    payload = {
        "m": m,
        "chern": _rational_json(teardrop_orbifold_chern(m)),
        "p_star": _rational_json(p_star_factor(m)),
    }
    if degree is not None:
        payload["degree"] = degree
        payload["homology"] = str(teardrop_homology(m, degree))
        payload["cohomology"] = str(teardrop_cohomology(m, degree))
    else:
        payload["table"] = [
            {
                "degree": q,
                "homology": str(teardrop_homology(m, q)),
                "cohomology": str(teardrop_cohomology(m, q)),
            }
            for q in range(TEARDROP_TABLE_MAX_DEGREE + 1)
        ]
    return payload


def compute_verify_lemma42(w0: int, w1: int, tol: float, eval_budget: int) -> dict:
    result = chart_integral(w0, w1, tol, eval_budget)
    expected = Fraction(-1, w0)
    return {
        "check": "lemma42",
        "w0": w0,
        "w1": w1,
        "tol": tol,
        "value": result.value,
        "expected": _rational_json(expected),
        "error_estimate": result.estimated_error,
        "evaluations": result.evaluations,
        "ok": abs(result.value - float(expected)) <= tol,
    }


def compute_verify_winding(rates: list[int], samples: int | None) -> dict:
    result = det_winding(rates, samples)
    return {
        "check": "winding",
        "rates": list(rates),
        "winding": result.winding,
        "sum_rates": sum(rates),
        "residual": result.residual,
        "samples": result.samples,
        "ok": result.winding == sum(rates),
    }


def compute_verify_scalar(T: Fraction) -> dict:
    closed = scalar_cz(T)
    oracle = crossing_oracle_scalar(T)
    return {
        "check": "scalar-cz",
        "T": _rational_json(T),
        "closed_form": closed,
        "crossing_oracle": oracle,
        "ok": closed == oracle,
    }


# ---------------------------------------------------------------------------
# human rendering

def _kv_lines(pairs) -> list[str]:
    width = max(len(key) for key, _ in pairs)
    return [f"{key.ljust(width)}  {value}" for key, value in pairs]


def _render_weights(payload: dict) -> list[str]:
    area = payload["symplectic_area"]
    return _kv_lines(
        [
            ("weights", ",".join(map(str, payload["weights"]))),
            ("sum", payload["sum"]),
            ("product", payload["product"]),
            ("d", ",".join(map(str, payload["d"]))),
            ("e", ",".join(map(str, payload["e"]))),
            ("a_w", payload["a_w"]),
            ("reduced", ",".join(map(str, payload["reduced"]))),
            ("well-formed", "yes" if payload["well_formed"] else "no"),
            ("symplectic-area", _rational_str(Fraction(area["num"], area["den"]))),
        ]
    )


def _render_cz(payload: dict) -> list[str]:
    pairs = []
    if "weights" in payload:
        pairs.append(("weights", ",".join(map(str, payload["weights"]))))
    if "degrees" in payload:
        pairs.append(("degrees", ",".join(map(str, payload["degrees"]))))
    if "exponents" in payload:
        pairs.append(("exponents", ",".join(map(str, payload["exponents"]))))
    if "support" in payload:
        pairs.append(("support", ",".join(map(str, payload["support"]))))
    pairs.append(("index", payload["index"]))
    pairs.append(("branch", payload["branch"]))
    pairs.append(("extrapolated", "yes" if payload["extrapolated"] else "no"))
    if payload["b_constant"] is not None:
        pairs.append(("b", payload["b_constant"]))
    pairs.append(("formula", payload["formula"]))
    for note in payload["notes"]:
        pairs.append(("note", note))
    return _kv_lines(pairs)


def _render_teardrop(payload: dict) -> list[str]:
    chern = payload["chern"]
    p_star = payload["p_star"]
    lines = _kv_lines(
        [
            ("m", payload["m"]),
            ("chern", _rational_str(Fraction(chern["num"], chern["den"]))),
            ("p_star", _rational_str(Fraction(p_star["num"], p_star["den"]))),
        ]
    )
    if "table" in payload:
        lines.append("q   homology  cohomology")
        for row in payload["table"]:
            lines.append(f"{row['degree']:<3} {row['homology']:<9} {row['cohomology']}")
    else:
        lines.append(f"H_{payload['degree']}   = {payload['homology']}")
        lines.append(f"H^{payload['degree']}   = {payload['cohomology']}")
    return lines


def _render_verify(payload: dict) -> list[str]:
    pairs = []
    for key in sorted(payload):
        value = payload[key]
        if isinstance(value, dict):
            value = _rational_str(Fraction(value["num"], value["den"]))
        elif isinstance(value, list):
            value = ",".join(map(str, value))
        elif isinstance(value, bool):
            value = "yes" if value else "no"
        pairs.append((key, value))
    return _kv_lines(pairs)


# ---------------------------------------------------------------------------
# batch mode

_MISSING = object()


def _record_field(rec: dict, key: str, default=_MISSING):
    if key in rec:
        return rec[key]
    if default is _MISSING:
        raise DomainError(f"batch record is missing the {key!r} field")
    return default


def _record_int(rec: dict, key: str, default=_MISSING) -> int:
    value = _record_field(rec, key, default)
    if not isinstance(value, int) or isinstance(value, bool):
        raise DomainError(f"batch field {key!r} must be an integer, got {value!r}")
    return value


def _record_int_list(rec: dict, key: str) -> list[int]:
    value = _record_field(rec, key)
    if not isinstance(value, list) or not all(
        isinstance(x, int) and not isinstance(x, bool) for x in value
    ):
        raise DomainError(f"batch field {key!r} must be a list of integers, got {value!r}")
    return value


def _record_bool(rec: dict, key: str, default: bool) -> bool:
    value = _record_field(rec, key, default)
    if not isinstance(value, bool):
        raise DomainError(f"batch field {key!r} must be a boolean, got {value!r}")
    return value


def _record_rational(rec: dict, key: str) -> Fraction:
    value = _record_field(rec, key)
    try:
        if isinstance(value, str):
            return Fraction(value)
        if isinstance(value, dict):
            return Fraction(value["num"], value["den"])
        if isinstance(value, int) and not isinstance(value, bool):
            return Fraction(value)
    except (ValueError, ZeroDivisionError, KeyError, TypeError):
        pass
    raise DomainError(f"batch field {key!r} must be a rational ('p/q', integer, or num/den), got {value!r}")


def _dispatch_record(kind, rec: dict) -> dict:
    if kind == "wps":
        return compute_principal_wps(_record_int_list(rec, "weights"))
    if kind == "wci":
        return compute_principal_wci(_record_int_list(rec, "weights"), _record_int_list(rec, "degrees"))
    if kind == "brieskorn":
        return compute_principal_brieskorn(_record_int_list(rec, "exponents"))
    if kind == "orbit-wps":
        return compute_orbit_wps(
            _record_int_list(rec, "weights"),
            _record_int_list(rec, "support"),
            _record_bool(rec, "allow_extrapolation", False),
        )
    if kind == "orbit-brieskorn":
        return compute_orbit_brieskorn(
            _record_int_list(rec, "exponents"),
            _record_int_list(rec, "support"),
            _record_bool(rec, "allow_extrapolation", False),
        )
    if kind == "teardrop":
        degree = _record_int(rec, "degree", None) if "degree" in rec else None
        return compute_teardrop(_record_int(rec, "m"), degree)
    if kind == "verify":
        check = _record_field(rec, "check")
        if check == "lemma42":
            tol = _record_field(rec, "tol", 1e-8)
            if not isinstance(tol, (int, float)) or isinstance(tol, bool):
                raise DomainError(f"batch field 'tol' must be a number, got {tol!r}")
            try:
                tol = float(tol)
            except OverflowError:
                raise DomainError(
                    f"batch field 'tol' of {tol.bit_length()} bits is outside the float range"
                ) from None
            return compute_verify_lemma42(
                _record_int(rec, "w0"), _record_int(rec, "w1"), tol, _eval_budget()
            )
        if check == "winding":
            samples = _record_int(rec, "samples", None) if "samples" in rec else None
            return compute_verify_winding(_record_int_list(rec, "rates"), samples)
        if check == "scalar-cz":
            return compute_verify_scalar(_record_rational(rec, "T"))
        raise DomainError(f"unknown verify check {check!r}")
    raise DomainError(f"unknown batch record kind {kind!r}")


def _run_batch(args) -> int:
    try:
        fh = open(args.file, encoding="utf-8")
    except OSError as exc:
        print(f"czorb: cannot read batch file: {exc}", file=sys.stderr)
        return 1
    worst = 0
    with fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            rec_id = None
            kind = None
            try:
                rec = json.loads(line)
            except ValueError as exc:
                # JSONDecodeError, or the int-string digit limit, which json
                # raises as a plain ValueError.
                msg = exc.msg if isinstance(exc, json.JSONDecodeError) else str(exc)
                out = {
                    "id": rec_id,
                    "kind": kind,
                    "status": "error",
                    "error": {"type": "malformed", "message": f"line {lineno}: {msg}"},
                }
                worst = max(worst, 2)
            else:
                try:
                    if not isinstance(rec, dict):
                        raise DomainError(f"line {lineno}: record must be a JSON object")
                    rec_id = rec.get("id")
                    kind = rec.get("kind")
                    result = _dispatch_record(kind, rec)
                    out = {"id": rec_id, "kind": kind, "status": "ok", "result": result}
                except CzorbError as exc:
                    out = {
                        "id": rec_id,
                        "kind": kind,
                        "status": "error",
                        "error": _error_payload(exc),
                    }
                    worst = max(worst, exc.exit_code)
            if args.json:
                print(dumps(out))
            else:
                tag = out["id"] if out["id"] is not None else "-"
                if out["status"] == "ok":
                    print(f"{tag}: ok {dumps(out['result'])}")
                else:
                    print(f"{tag}: error {dumps(out['error'])}")
    return worst


# ---------------------------------------------------------------------------
# argv handlers

def _eval_budget() -> int:
    raw = os.environ.get("CZORB_EVAL_BUDGET")
    if raw is None:
        return DEFAULT_EVAL_BUDGET
    try:
        return int(raw)
    except ValueError:
        raise DomainError(f"CZORB_EVAL_BUDGET must be an integer, got {raw!r}")


def _handle_weights(args):
    payload = compute_weights(args.weights)
    return payload, _render_weights(payload)


def _handle_cz_principal(args):
    if args.wps is not None:
        payload = compute_principal_wps(args.wps)
    elif args.wci is not None:
        if args.degrees is None:
            raise UsageError("--wci requires --degrees")
        payload = compute_principal_wci(args.wci, args.degrees)
    else:
        payload = compute_principal_brieskorn(args.brieskorn)
    return payload, _render_cz(payload)


def _handle_cz_orbit(args):
    if args.wps is not None:
        payload = compute_orbit_wps(args.wps, args.support, args.allow_extrapolation)
    else:
        payload = compute_orbit_brieskorn(args.brieskorn, args.support, args.allow_extrapolation)
    return payload, _render_cz(payload)


def _handle_teardrop(args):
    payload = compute_teardrop(args.m, args.degree)
    return payload, _render_teardrop(payload)


def _handle_verify_lemma42(args):
    payload = compute_verify_lemma42(args.w0, args.w1, args.tol, _eval_budget())
    return payload, _render_verify(payload)


def _handle_verify_winding(args):
    payload = compute_verify_winding(args.rates, args.samples)
    return payload, _render_verify(payload)


def _handle_verify_scalar(args):
    payload = compute_verify_scalar(args.T)
    return payload, _render_verify(payload)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="czorb", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_json_flag(p):
        p.add_argument("--json", action="store_true", help="emit a canonical JSON object")

    p = sub.add_parser("weights", help="weight-vector invariants")
    p.add_argument("weights", type=_csv_ints, help="comma-separated weights, e.g. 4,4,5,14")
    add_json_flag(p)
    p.set_defaults(handler=_handle_weights)

    cz = sub.add_parser("cz", help="Conley-Zehnder indices")
    cz_sub = cz.add_subparsers(dest="cz_command", required=True, parser_class=_Parser)

    p = cz_sub.add_parser("principal", help="principal-orbit index")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--wps", type=_csv_ints, help="weighted projective space weights")
    group.add_argument("--wci", type=_csv_ints, help="complete-intersection ambient weights")
    group.add_argument("--brieskorn", type=_csv_ints, help="Brieskorn exponents")
    p.add_argument("--degrees", type=_csv_ints, help="complete-intersection multidegree (with --wci)")
    add_json_flag(p)
    p.set_defaults(handler=_handle_cz_principal)

    p = cz_sub.add_parser("orbit", help="orbit index for a coordinate support set")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--wps", type=_csv_ints, help="weighted projective space weights")
    group.add_argument("--brieskorn", type=_csv_ints, help="Brieskorn exponents")
    p.add_argument("--support", type=_csv_ints, required=True, help="indices of nonzero coordinates")
    p.add_argument(
        "--allow-extrapolation",
        action="store_true",
        help="apply the reduction formula beyond the covered cases (labeled in the output)",
    )
    add_json_flag(p)
    p.set_defaults(handler=_handle_cz_orbit)

    p = sub.add_parser("teardrop", help="teardrop orbifold (co)homology and Chern number")
    p.add_argument("m", type=int, help="cone point order, m >= 2")
    p.add_argument("--degree", type=int, default=None, help="single degree instead of the full table")
    add_json_flag(p)
    p.set_defaults(handler=_handle_teardrop)

    verify = sub.add_parser("verify", help="numeric cross-checks")
    verify_sub = verify.add_subparsers(dest="verify_command", required=True, parser_class=_Parser)

    p = verify_sub.add_parser("lemma42", help="quadrature of the two-weight chart integral")
    p.add_argument("--w0", type=int, required=True)
    p.add_argument("--w1", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-8)
    add_json_flag(p)
    p.set_defaults(handler=_handle_verify_lemma42)

    p = verify_sub.add_parser("winding", help="determinant winding of a diagonal loop")
    p.add_argument("--rates", type=_csv_ints, required=True)
    p.add_argument("--samples", type=int, default=None)
    add_json_flag(p)
    p.set_defaults(handler=_handle_verify_winding)

    p = verify_sub.add_parser("scalar-cz", help="closed form vs crossing enumeration")
    p.add_argument("--T", type=_rational_arg, required=True, help="duration, e.g. 7/2")
    add_json_flag(p)
    p.set_defaults(handler=_handle_verify_scalar)

    p = sub.add_parser("batch", help="run newline-delimited JSON records")
    p.add_argument("file", help="path to an NDJSON batch file")
    add_json_flag(p)
    p.set_defaults(handler=None)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    if args.command == "batch":
        return _run_batch(args)

    try:
        payload, lines = args.handler(args)
    except UsageError as exc:
        print(f"czorb: error: {exc}", file=sys.stderr)
        return 1
    except CzorbError as exc:
        if args.json:
            print(dumps({"error": _error_payload(exc)}))
        print(f"czorb: {exc}", file=sys.stderr)
        return exc.exit_code

    if args.json:
        print(dumps(payload))
    else:
        for line in lines:
            print(line)
    return 0


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
