"""Command-line surface, NDJSON batch runner and library entry point.

Every subcommand is also a batch record kind with the same fields:

    command                   kind             fields
    weights                   weights          weights
    cz principal --wps        wps              weights
    cz principal --wci        wci              weights, degrees
    cz principal --brieskorn  brieskorn        exponents
    cz orbit --wps            orbit-wps        weights, support, allow_extrapolation
    cz orbit --brieskorn      orbit-brieskorn  exponents, support, allow_extrapolation
    teardrop                  teardrop         m, degree
    verify lemma42            verify           check, w0, w1, tol
    verify winding            verify           check, rates, samples
    verify scalar-cz          verify           check, T

On argv a field is spelled `--` and its name with `-` for `_`
(allow_extrapolation is --allow-extrapolation), except the options named
above and the positional weights and m: `czorb verify scalar-cz --T 7/2` is
{"kind": "verify", "check": "scalar-cz", "T": "7/2"}. `czorb batch FILE`
runs one record per line, and czorb.cli.run(record) one record in Python.

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
from typing import Callable, NamedTuple

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
# field types: how a value is read from argv and checked in a record

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


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_int(name: str, value) -> int:
    if not _is_int(value):
        raise DomainError(f"batch field {name!r} must be an integer, got {value!r}")
    return value


def _check_int_list(name: str, value) -> list[int]:
    if not isinstance(value, list) or not all(map(_is_int, value)):
        raise DomainError(f"batch field {name!r} must be a list of integers, got {value!r}")
    return value


def _check_bool(name: str, value) -> bool:
    if not isinstance(value, bool):
        raise DomainError(f"batch field {name!r} must be a boolean, got {value!r}")
    return value


def _check_rational(name: str, value) -> Fraction:
    if isinstance(value, dict):
        parts = (value.get("num"), value.get("den"))
        usable = all(map(_is_int, parts))
    else:
        parts = (value,)
        usable = isinstance(value, (str, Fraction)) or _is_int(value)
    if usable:
        try:
            return Fraction(*parts)
        except (ValueError, ZeroDivisionError):
            pass
    raise DomainError(f"batch field {name!r} must be a rational ('p/q', integer, or num/den), got {value!r}")


def _check_number(name: str, value) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise DomainError(f"batch field {name!r} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise DomainError(f"batch field {name!r} of {value.bit_length()} bits is outside the float range") from None


class FieldType(NamedTuple):
    add_argument: dict  # its keyword arguments to ArgumentParser.add_argument
    check: Callable  # (field name, record value) -> value, or DomainError


INTS = FieldType({"type": _csv_ints}, _check_int_list)
INT = FieldType({"type": int}, _check_int)
FLAG = FieldType({"action": "store_true"}, _check_bool)
RATIONAL = FieldType({"type": _rational_arg}, _check_rational)
NUMBER = FieldType({"type": float}, _check_number)

REQUIRED = object()


class Field(NamedTuple):
    name: str
    type: FieldType
    default: object = REQUIRED
    argv: str = ""  # argv spelling when it is not `--` and the name with `-` for `_`
    help: str | None = None

    @property
    def spelling(self) -> str:
        return self.argv or "--" + self.name.replace("_", "-")


# ---------------------------------------------------------------------------
# computations: one per operation, called with the fields by name

def _eval_budget() -> int:
    raw = os.environ.get("CZORB_EVAL_BUDGET")
    if raw is None:
        return DEFAULT_EVAL_BUDGET
    try:
        return int(raw)
    except ValueError:
        raise DomainError(f"CZORB_EVAL_BUDGET must be an integer, got {raw!r}")


def compute_weights(weights: list[int]) -> dict:
    wv = make_weight_vector(weights)
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


def compute_principal_wps(weights: list[int]) -> dict:
    report = mu_principal(WPSpace(make_weight_vector(weights)))
    return {"weights": list(weights), **_report_payload(report)}


def compute_principal_wci(weights: list[int], degrees: list[int]) -> dict:
    report = mu_principal(make_wci_space(weights, degrees))
    return {"weights": list(weights), "degrees": list(degrees), **_report_payload(report)}


def compute_principal_brieskorn(exponents: list[int]) -> dict:
    report = mu_principal_brieskorn(make_brieskorn_exponents(exponents))
    return {"exponents": list(exponents), **_report_payload(report)}


def compute_orbit_wps(weights: list[int], support: list[int], allow_extrapolation: bool) -> dict:
    report = mu_orbit_wps(weights, support, allow_extrapolation)
    return {"weights": list(weights), "support": sorted(set(support)), **_report_payload(report)}


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


def compute_verify_lemma42(w0: int, w1: int, tol: float) -> dict:
    result = chart_integral(w0, w1, tol, _eval_budget())
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
    result = det_winding(rates, samples, _eval_budget())
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
    oracle = crossing_oracle_scalar(T, _eval_budget())
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


def _text(value):
    """A payload value as the human renderers print it."""
    if isinstance(value, dict):
        return _rational_str(Fraction(value["num"], value["den"]))
    if isinstance(value, list):
        return ",".join(map(str, value))
    if isinstance(value, bool):
        return "yes" if value else "no"
    return value


def _render_weights(payload: dict) -> list[str]:
    keys = ("weights", "sum", "product", "d", "e", "a_w", "reduced", "well_formed", "symplectic_area")
    labels = {"well_formed": "well-formed", "symplectic_area": "symplectic-area"}
    return _kv_lines([(labels.get(key, key), _text(payload[key])) for key in keys])


def _render_cz(payload: dict) -> list[str]:
    keys = ("weights", "degrees", "exponents", "support", "index", "branch", "extrapolated")
    pairs = [(key, _text(payload[key])) for key in keys if key in payload]
    if payload["b_constant"] is not None:
        pairs.append(("b", payload["b_constant"]))
    pairs.append(("formula", payload["formula"]))
    pairs += [("note", note) for note in payload["notes"]]
    return _kv_lines(pairs)


def _render_teardrop(payload: dict) -> list[str]:
    lines = _kv_lines([(key, _text(payload[key])) for key in ("m", "chern", "p_star")])
    if "table" in payload:
        lines.append("q   homology  cohomology")
        for row in payload["table"]:
            lines.append(f"{row['degree']:<3} {row['homology']:<9} {row['cohomology']}")
    else:
        lines.append(f"H_{payload['degree']}   = {payload['homology']}")
        lines.append(f"H^{payload['degree']}   = {payload['cohomology']}")
    return lines


def _render_verify(payload: dict) -> list[str]:
    return _kv_lines([(key, _text(payload[key])) for key in sorted(payload)])


# ---------------------------------------------------------------------------
# the operation table

class Operation(NamedTuple):
    kind: str
    check: str | None  # the `check` of a verify record
    command: str  # argv command path
    compute: Callable[..., dict]
    render: Callable[[dict], list[str]]
    fields: tuple[Field, ...]  # checked in this order; argv lists the required ones first


_WPS = Field("weights", INTS, argv="--wps", help="weighted projective space weights")
_WCI = Field("weights", INTS, argv="--wci", help="complete-intersection ambient weights")
_BRIESKORN = Field("exponents", INTS, argv="--brieskorn", help="Brieskorn exponents")
_SUPPORT = Field("support", INTS, help="indices of nonzero coordinates")
_ALLOW = Field(
    "allow_extrapolation", FLAG, False, help="apply the reduction formula beyond the covered cases (labeled in the output)"
)

OPERATIONS = (
    Operation("weights", None, "weights", compute_weights, _render_weights, (
        Field("weights", INTS, argv="weights", help="comma-separated weights, e.g. 4,4,5,14"),
    )),
    Operation("wps", None, "cz principal", compute_principal_wps, _render_cz, (_WPS,)),
    Operation("wci", None, "cz principal", compute_principal_wci, _render_cz, (
        _WCI, Field("degrees", INTS, help="complete-intersection multidegree (with --wci)"),
    )),
    Operation("brieskorn", None, "cz principal", compute_principal_brieskorn, _render_cz, (_BRIESKORN,)),
    Operation("orbit-wps", None, "cz orbit", compute_orbit_wps, _render_cz, (_WPS, _SUPPORT, _ALLOW)),
    Operation("orbit-brieskorn", None, "cz orbit", compute_orbit_brieskorn, _render_cz, (_BRIESKORN, _SUPPORT, _ALLOW)),
    Operation("teardrop", None, "teardrop", compute_teardrop, _render_teardrop, (
        Field("degree", INT, None, help="single degree instead of the full table"),
        Field("m", INT, argv="m", help="cone point order, m >= 2"),
    )),
    Operation("verify", "lemma42", "verify lemma42", compute_verify_lemma42, _render_verify, (
        Field("tol", NUMBER, 1e-8), Field("w0", INT), Field("w1", INT),
    )),
    Operation("verify", "winding", "verify winding", compute_verify_winding, _render_verify, (
        Field("samples", INT, None), Field("rates", INTS),
    )),
    Operation("verify", "scalar-cz", "verify scalar-cz", compute_verify_scalar, _render_verify, (
        Field("T", RATIONAL, help="duration, e.g. 7/2"),
    )),
)

# argv commands in help order; a command with no operation groups others.
COMMAND_HELP = {
    "weights": "weight-vector invariants",
    "cz": "Conley-Zehnder indices",
    "cz principal": "principal-orbit index",
    "cz orbit": "orbit index for a coordinate support set",
    "teardrop": "teardrop orbifold (co)homology and Chern number",
    "verify": "numeric cross-checks",
    "verify lemma42": "quadrature of the two-weight chart integral",
    "verify winding": "determinant winding of a diagonal loop",
    "verify scalar-cz": "closed form vs crossing enumeration",
    "batch": "run newline-delimited JSON records",
}

_KINDS = {op.kind: op for op in OPERATIONS if op.check is None}
_CHECKS = {op.check: op for op in OPERATIONS if op.check is not None}


def _missing(name: str) -> DomainError:
    return DomainError(f"batch record is missing the {name!r} field")


def _operation(record: dict) -> Operation:
    kind = record.get("kind")
    if kind != "verify":
        # A kind may be any JSON value, including an unhashable one.
        op = _KINDS.get(kind) if isinstance(kind, str) else None
        if op is None:
            raise DomainError(f"unknown batch record kind {kind!r}")
        return op
    if "check" not in record:
        raise _missing("check")
    check = record["check"]
    op = _CHECKS.get(check) if isinstance(check, str) else None
    if op is None:
        raise DomainError(f"unknown verify check {check!r}")
    return op


def run(record: dict) -> dict:
    """Compute one batch record and return its `result` payload.

    `record` is a dict as a batch line holds it, e.g.
    `{"kind": "orbit-wps", "weights": [4, 4, 5, 14], "support": [0, 1]}`.
    A refused record raises the CzorbError that batch mode reports.
    """
    op = _operation(record)
    values = {}
    for field in op.fields:
        if field.name in record:
            values[field.name] = field.type.check(field.name, record[field.name])
        elif field.default is REQUIRED:
            raise _missing(field.name)
        else:
            values[field.name] = field.default
    return op.compute(**values)


# ---------------------------------------------------------------------------
# batch mode

def _run_line(lineno: int, line: str) -> tuple[dict, int]:
    """The output record of one batch line, and its exit code."""
    rec_id = kind = None
    try:
        line.encode("utf-8")  # a byte the file's decoding escaped fails here
        rec = json.loads(line)
    except (ValueError, RecursionError) as exc:
        # Python's own wording of these errors differs between versions, so
        # the message is czorb's. json raises the int-string digit limit as a
        # plain ValueError, and nesting past the recursion limit as
        # RecursionError.
        if isinstance(exc, json.JSONDecodeError):
            msg = "not valid JSON"
        elif isinstance(exc, UnicodeError):
            msg = "not valid UTF-8"
        elif isinstance(exc, ValueError):
            msg = f"integer of more than {sys.get_int_max_str_digits()} digits"
        else:
            msg = "nested too deeply"
        error = {"type": "malformed", "message": f"line {lineno}: {msg}"}
        return {"id": rec_id, "kind": kind, "status": "error", "error": error}, 2
    try:
        if not isinstance(rec, dict):
            raise DomainError(f"line {lineno}: record must be a JSON object")
        rec_id, kind = rec.get("id"), rec.get("kind")
        return {"id": rec_id, "kind": kind, "status": "ok", "result": run(rec)}, 0
    except CzorbError as exc:
        return {"id": rec_id, "kind": kind, "status": "error", "error": _error_payload(exc)}, exc.exit_code


def _run_batch(args) -> int:
    try:
        # Bytes that are not UTF-8 become lone surrogates, so one bad line is
        # a malformed record and the lines keep text mode's newline rules.
        fh = open(args.file, encoding="utf-8", errors="surrogateescape")
    except OSError as exc:
        print(f"czorb: cannot read batch file: {exc}", file=sys.stderr)
        return 1
    worst = 0
    with fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            out, code = _run_line(lineno, line)
            worst = max(worst, code)
            if args.json:
                print(dumps(out))
            else:
                tag = out["id"] if out["id"] is not None else "-"
                print(f"{tag}: {out['status']} {dumps(out.get('result', out.get('error')))}")
    return worst


# ---------------------------------------------------------------------------
# argv

class _Parser(argparse.ArgumentParser):
    """ArgumentParser with usage failures mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _dest(field: Field) -> str:
    return field.spelling.lstrip("-").replace("-", "_")


def _add_field(parser, field: Field, required: bool) -> None:
    kwargs = dict(field.type.add_argument, help=field.help)
    if field.spelling.startswith("-"):
        kwargs["required"] = required
    parser.add_argument(field.spelling, **kwargs)


def _add_operations(parser: argparse.ArgumentParser, ops: list[Operation]) -> None:
    """Arguments of the command that runs `ops`. Several operations on one
    command are told apart by their first field, one of a required group."""
    fields = [field for op in ops for field in op.fields]
    if len(ops) > 1:
        group = parser.add_mutually_exclusive_group(required=True)
        for op in ops:
            _add_field(group, op.fields[0], False)
        fields = [field for op in ops for field in op.fields[1:]]
    seen = set()
    for field in sorted(fields, key=lambda f: f.default is not REQUIRED):
        if field.spelling not in seen:
            seen.add(field.spelling)
            required = field.default is REQUIRED and all(field in op.fields for op in ops)
            _add_field(parser, field, required)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="czorb", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    groups = {"": parser.add_subparsers(dest="command", required=True, parser_class=_Parser)}
    for command, help in COMMAND_HELP.items():
        group, _, name = command.rpartition(" ")
        p = groups[group].add_parser(name, help=help)
        ops = [op for op in OPERATIONS if op.command == command]
        if ops:
            _add_operations(p, ops)
        elif command == "batch":
            p.add_argument("file", help="path to an NDJSON batch file")
        else:
            groups[command] = p.add_subparsers(dest=f"{name}_command", required=True, parser_class=_Parser)
            continue
        p.add_argument("--json", action="store_true", help="emit a canonical JSON object")
        p.set_defaults(ops=ops)
    return parser


def _argv_record(args) -> tuple[Operation, dict]:
    """The operation that argv selects, and its batch record."""
    ops = args.ops
    op = ops[0] if len(ops) == 1 else next(op for op in ops if getattr(args, _dest(op.fields[0])) is not None)
    record = {"kind": op.kind, "check": op.check} if op.check else {"kind": op.kind}
    for field in op.fields:
        value = getattr(args, _dest(field))
        if value is not None:
            record[field.name] = value
        elif field.default is REQUIRED:
            raise UsageError(f"{op.fields[0].spelling} requires {field.spelling}")
    return op, record


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    if args.command == "batch":
        return _run_batch(args)

    try:
        op, record = _argv_record(args)
        payload = run(record)
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
        for line in op.render(payload):
            print(line)
    return 0


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
