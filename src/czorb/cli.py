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
    verify winding            verify           check, rates
    verify scalar-cz          verify           check, T

On argv a field is spelled `--` and its name with `-` for `_`
(allow_extrapolation is --allow-extrapolation), except the options named
above and the positional weights and m: `czorb verify scalar-cz --T 7/2` is
{"kind": "verify", "check": "scalar-cz", "T": "7/2"}. `czorb batch FILE`
runs one record per line, and czorb.cli.run(record) one record in Python.

Exit codes: 0 success, 1 usage, 2 domain/validation, 3 uncovered case,
4 numeric convergence, 5 failed verify check, 6 internal error. A verify
result with "ok": false is printed as usual and exits 5; in a batch the
records after it still run. A computation that raises an exception that is
not a czorb error is an `internal` error naming the exception type, with
its traceback on stderr: on argv it exits 6, and in a batch it is the
record's error and the next record runs. A batch line that is not JSON,
including the NaN and Infinity tokens that Python's json reads and a
number past the float range such as 1e400, is a `malformed` record. A
batch run exits with the highest code among its records. Rationals are
written p/q on input and serialized as {"num": p, "den": q} in JSON output;
all JSON is emitted with sorted keys and compact separators so records
round-trip byte for byte.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections import namedtuple
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
from .errors import (
    DEFAULT_EVAL_BUDGET, ConvergenceError, CzorbError, DomainError, NonCoprimeError, check_int, is_int, to_float
)
from .numeric_verify import chart_integral
from .orbifold_topology import (
    p_star_factor,
    teardrop_cohomology,
    teardrop_homology,
    teardrop_orbifold_chern,
)
from .spaces import make_brieskorn_exponents, make_wci_space
from .weights import invariants, make_weight_vector, symplectic_area

TEARDROP_TABLE_MAX_DEGREE = 12
EXIT_CHECK_FAILED = 5
EXIT_INTERNAL = 6


# ---------------------------------------------------------------------------
# serialization helpers

# Each object encoded is a tree (decoded JSON or a fresh payload): no cycle check.
_ENCODE = json.JSONEncoder(sort_keys=True, separators=(",", ":"), check_circular=False).encode


def dumps(obj) -> str:
    """Canonical JSON: sorted keys, compact separators."""
    return _ENCODE(obj)


def _rational_json(x: Fraction) -> dict:
    return {"num": x.numerator, "den": x.denominator}


def _too_long() -> DomainError:
    """The refusal of an answer that holds an integer too long for str()."""
    return DomainError(f"result has an integer of more than {sys.get_int_max_str_digits()} digits")


# ---------------------------------------------------------------------------
# field types: how a value is read from argv and checked in a record

def _csv_ints(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a comma-separated list of integers, got {text!r}")


def _check_int_list(what: str, value) -> list[int]:
    if not isinstance(value, list) or not all(map(is_int, value)):
        raise DomainError(f"{what} must be a list of integers, got {value!r}")
    return value


def _check_bool(what: str, value) -> bool:
    if not isinstance(value, bool):
        raise DomainError(f"{what} must be a boolean, got {value!r}")
    return value


def _check_rational(what: str, value) -> Fraction:
    if isinstance(value, dict):
        parts = (value.get("num"), value.get("den"))
        usable = all(map(is_int, parts))
    else:
        parts = (value,)
        # Fraction reads a string alike on every supported Python only without
        # the `_` digit separators of 3.11 and the spaces around `/` of 3.12.
        portable = isinstance(value, str) and "_" not in value and not any(map(str.isspace, value.strip()))
        usable = portable or is_int(value)
        if portable:
            # Fraction builds 10**exponent, so an exponent past the int-string
            # digit limit, the bound JSON puts on a num or den, is refused first.
            limit = sys.get_int_max_str_digits()
            try:
                exponent = abs(int(value.lower().partition("e")[2] or 0))
            except ValueError:  # not an integer, or too long for int()
                exponent, usable = 0, False
            if 0 < limit < exponent:
                raise DomainError(f"{what} has an exponent past {limit} in magnitude, got {value!r}")
    if usable:
        try:
            return Fraction(*parts)
        except (ValueError, ZeroDivisionError):
            pass
    raise DomainError(f"{what} must be a rational ('p/q', integer, or num/den), got {value!r}")


class FieldType(namedtuple("FieldType", "add_argument check")):
    """`add_argument`: its keyword arguments to ArgumentParser.add_argument;
    `check`: (what, record value) -> value, or DomainError naming `what`."""

    __slots__ = ()


INTS = FieldType({"type": _csv_ints}, _check_int_list)
INT = FieldType({"type": int}, check_int)
FLAG = FieldType({"action": "store_true"}, _check_bool)
RATIONAL = FieldType({}, _check_rational)
NUMBER = FieldType({"type": float}, to_float)

REQUIRED = object()


class Field(namedtuple("Field", "name type default argv help", defaults=(REQUIRED, "", None))):
    """A field of a batch record: its name, FieldType and default; `argv`,
    its argv spelling when it is not `--` and the name with `-` for `_`; and
    its argv help text."""

    __slots__ = ()

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
        "formula": BRANCH_FORMULAS[report.branch],
        "notes": list(report.notes),
    }


def compute_principal_wps(weights: list[int]) -> dict:
    report = mu_principal(weights)
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
    # chern and p_star first: they refuse a cone order below 1.
    payload = {
        "m": m,
        "chern": _rational_json(teardrop_orbifold_chern(m)),
        "p_star": _rational_json(p_star_factor(m)),
    }
    degrees = range(TEARDROP_TABLE_MAX_DEGREE + 1) if degree is None else (degree,)
    rows = [
        {"degree": q, "homology": str(teardrop_homology(m, q)), "cohomology": str(teardrop_cohomology(m, q))}
        for q in degrees
    ]
    if degree is None:
        payload["table"] = rows
    else:
        payload.update(rows[0])
    return payload


def compute_verify_lemma42(w0: int, w1: int, tol: float) -> dict:
    result = chart_integral(w0, w1, tol, _eval_budget())
    # |value + 1/w0| <= tol/w0 exactly: value = p/q and tol = s/t, multiplied
    # through by q*t*w0 > 0 (chart_integral refuses w0 < 1).
    p, q = result.value.as_integer_ratio()
    s, t = tol.as_integer_ratio()
    return {
        "check": "lemma42",
        "error_estimate": result.estimated_error,
        "evaluations": result.evaluations,
        "expected": {"num": -1, "den": w0},
        "ok": abs(p * w0 + q) * t <= s * q,
        "tol": tol,
        "value": result.value,
        "w0": w0,
        "w1": w1,
    }


def compute_verify_winding(rates: list[int]) -> dict:
    result = det_winding(rates, _eval_budget())
    return {
        "check": "winding",
        "ok": result.winding == sum(rates),
        "rates": list(rates),
        "residual": result.residual,
        "samples": result.samples,
        "sum_rates": sum(rates),
        "winding": result.winding,
    }


def compute_verify_scalar(T: Fraction) -> dict:
    closed = scalar_cz(T)
    oracle = crossing_oracle_scalar(T, _eval_budget())
    return {
        "T": _rational_json(T),
        "check": "scalar-cz",
        "closed_form": closed,
        "crossing_oracle": oracle,
        "ok": closed == oracle,
    }


# ---------------------------------------------------------------------------
# human rendering

def _text(value):
    """A payload value as `_render` prints it."""
    if isinstance(value, dict):
        return str(Fraction(value["num"], value["den"]))
    if isinstance(value, list):
        return ",".join(map(str, value))
    if isinstance(value, bool):
        return "yes" if value else "no"
    return value


_LABELS = {"well_formed": "well-formed", "symplectic_area": "symplectic-area", "b_constant": "b"}


def _render(payload: dict) -> list[str]:
    """Aligned key/value lines of a payload, in insertion order. A None
    value is skipped, and each note gets its own `note` line."""
    pairs = []
    for key, value in payload.items():
        if key == "notes":
            pairs += [("note", note) for note in value]
        elif value is not None:
            pairs.append((_LABELS.get(key, key), _text(value)))
    width = max(len(key) for key, _ in pairs)
    return [f"{key.ljust(width)}  {value}" for key, value in pairs]


def _render_teardrop(payload: dict) -> list[str]:
    lines = _render({key: payload[key] for key in ("m", "chern", "p_star")})
    if "table" in payload:
        lines.append("q   homology  cohomology")
        for row in payload["table"]:
            lines.append(f"{row['degree']:<3} {row['homology']:<9} {row['cohomology']}")
    else:
        lines.append(f"H_{payload['degree']}   = {payload['homology']}")
        lines.append(f"H^{payload['degree']}   = {payload['cohomology']}")
    return lines


# ---------------------------------------------------------------------------
# the operation table

class Operation(namedtuple("Operation", "kind check command compute render fields")):
    """One batch record kind: `kind`, and `check` for a verify record (else
    None); `command`, its argv command path; `compute`, called with the
    fields by name, returns the payload that `render` turns into lines; and
    `fields`, checked in this order (argv lists the required ones first)."""

    __slots__ = ()


_WPS = Field("weights", INTS, argv="--wps", help="weighted projective space weights")
_WCI = Field("weights", INTS, argv="--wci", help="complete-intersection ambient weights")
_BRIESKORN = Field("exponents", INTS, argv="--brieskorn", help="Brieskorn exponents")
_SUPPORT = Field("support", INTS, help="indices of nonzero coordinates")
_ALLOW = Field(
    "allow_extrapolation", FLAG, False, help="apply the reduction formula beyond the covered cases (labeled in the output)"
)

OPERATIONS = (
    Operation("weights", None, "weights", compute_weights, _render, (
        Field("weights", INTS, argv="weights", help="comma-separated weights, e.g. 4,4,5,14"),
    )),
    Operation("wps", None, "cz principal", compute_principal_wps, _render, (_WPS,)),
    Operation("wci", None, "cz principal", compute_principal_wci, _render, (
        _WCI, Field("degrees", INTS, help="complete-intersection multidegree (with --wci)"),
    )),
    Operation("brieskorn", None, "cz principal", compute_principal_brieskorn, _render, (_BRIESKORN,)),
    Operation("orbit-wps", None, "cz orbit", compute_orbit_wps, _render, (_WPS, _SUPPORT, _ALLOW)),
    Operation("orbit-brieskorn", None, "cz orbit", compute_orbit_brieskorn, _render, (_BRIESKORN, _SUPPORT, _ALLOW)),
    Operation("teardrop", None, "teardrop", compute_teardrop, _render_teardrop, (
        Field("degree", INT, None, help="single degree instead of the full table"),
        Field("m", INT, argv="m", help="cone point order, m >= 2"),
    )),
    Operation("verify", "lemma42", "verify lemma42", compute_verify_lemma42, _render, (
        Field("tol", NUMBER, 1e-8), Field("w0", INT), Field("w1", INT),
    )),
    Operation("verify", "winding", "verify winding", compute_verify_winding, _render, (Field("rates", INTS),)),
    Operation("verify", "scalar-cz", "verify scalar-cz", compute_verify_scalar, _render, (
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

# A verify record's operation is keyed by its check, any other by its kind.
_OPERATIONS = {op.check or op.kind: op for op in OPERATIONS}


def _missing(name: str) -> DomainError:
    return DomainError(f"batch record is missing the {name!r} field")


def _operation(record: dict) -> Operation:
    kind = record.get("kind")
    key, unknown = kind, "batch record kind"
    if kind == "verify":
        if "check" not in record:
            raise _missing("check")
        key, unknown = record["check"], "verify check"
    # A kind or check may be any JSON value, including an unhashable one.
    op = _OPERATIONS.get(key) if isinstance(key, str) else None
    if op is None or op.kind != kind:
        raise DomainError(f"unknown {unknown} {key!r}")
    return op


def run(record: dict) -> dict:
    """Compute one batch record and return its `result` payload.

    `record` is a dict as a batch line holds it, e.g.
    `{"kind": "orbit-wps", "weights": [4, 4, 5, 14], "support": [0, 1]}`.
    A refused record raises the CzorbError that batch mode reports.
    """
    if not isinstance(record, dict):
        raise DomainError("record must be a JSON object")
    op = _operation(record)
    values = {}
    for field in op.fields:
        if field.name in record:
            values[field.name] = field.type.check(f"batch field {field.name!r}", record[field.name])
        elif field.default is REQUIRED:
            raise _missing(field.name)
        else:
            values[field.name] = field.default
    return op.compute(**values)


# ---------------------------------------------------------------------------
# batch mode

def _refuse_constant(token: str):
    # json reads NaN, Infinity and -Infinity, which are not JSON (RFC 8259)
    # and would be echoed in an id; refused as invalid JSON.
    raise json.JSONDecodeError(f"{token} is not JSON", token, 0)


def _finite_float(literal: str) -> float:
    # A literal past the float range, such as 1e400, reads as the same inf
    # that the Infinity token gives, and is refused the same way.
    value = float(literal)
    if math.isinf(value):
        raise json.JSONDecodeError(f"{literal} is past the float range", literal, 0)
    return value


_DECODER = json.JSONDecoder(parse_float=_finite_float, parse_constant=_refuse_constant)


def _malformed(lineno: int, msg: str) -> tuple[dict, int]:
    error = {"type": "malformed", "message": f"line {lineno}: {msg}"}
    return {"id": None, "kind": None, "status": "error", "error": error}, 2


def _error(exc: CzorbError) -> tuple[dict, int]:
    error = {"type": exc.error_type, "message": str(exc)}
    if isinstance(exc, NonCoprimeError):
        error["gcd"] = exc.gcd
    elif isinstance(exc, ConvergenceError):
        error["achieved_error"] = exc.achieved_error
    return {"status": "error", "error": error}, exc.exit_code


def _outcome(record: dict, where: str) -> tuple[dict, int]:
    """Compute one record: {"status": "ok", "result": payload} and exit code
    0, or 5 when the payload holds "ok": false; or {"status": "error",
    "error": payload} and the error's exit code. An exception that is not a
    czorb error is a fault in czorb, not in the record: it is reported as an
    `internal` error (exit 6), with its traceback on stderr. `where` begins
    that error's message, "line N: " in a batch.
    """
    try:
        result = run(record)
    except CzorbError as exc:
        return _error(exc)
    except Exception as exc:
        # Imported here: only this branch needs traceback, which would add
        # linecache and tokenize to every import of czorb.cli.
        import traceback

        traceback.print_exception(type(exc), exc, exc.__traceback__, file=sys.stderr)
        error = {"type": "internal", "message": f"{where}{type(exc).__name__}: {exc}"}
        return {"status": "error", "error": error}, EXIT_INTERNAL
    return {"status": "ok", "result": result}, EXIT_CHECK_FAILED if result.get("ok") is False else 0


def _run_line(lineno: int, line: str) -> tuple[dict, int]:
    """The output record of one batch line, and its exit code."""
    try:
        line.encode("utf-8")  # a byte the file's decoding escaped fails here
        # The line is stripped, so only data after the value can be left.
        rec, end = _DECODER.raw_decode(line)
        if end != len(line):
            raise json.JSONDecodeError("Extra data", line, end)
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
        return _malformed(lineno, msg)
    if not isinstance(rec, dict):
        error, code = _error(DomainError(f"line {lineno}: record must be a JSON object"))
        return {"id": None, "kind": None, **error}, code
    out, code = _outcome(rec, f"line {lineno}: ")
    return {"id": rec.get("id"), "kind": rec.get("kind"), **out}, code


def _batch_text(out: dict, as_json: bool) -> str:
    if as_json:
        return dumps(out)
    tag = out["id"]
    # A string id that cannot print on one line is written as JSON.
    if not (isinstance(tag, str) and tag.isprintable()):
        tag = "-" if tag is None else dumps(tag)
    return f"{tag}: {out['status']} {dumps(out.get('result', out.get('error')))}"


def _run_batch(args) -> int:
    try:
        # A byte that is not UTF-8 becomes a lone surrogate, so a bad line is a
        # malformed record in text mode; a leading byte-order mark is dropped.
        fh = open(args.file, encoding="utf-8-sig", errors="surrogateescape")
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
            try:
                text = _batch_text(out, args.json)
            except RecursionError:
                # The id parsed but is nested too deeply to encode.
                out, code = _malformed(lineno, "nested too deeply")
                text = _batch_text(out, args.json)
            except ValueError:
                # The answer holds an integer too long for str(); json
                # raises that as a plain ValueError.
                error, code = _error(_too_long())
                out = {"id": out["id"], "kind": out["kind"], **error}
                text = _batch_text(out, args.json)
            worst = max(worst, code)
            print(text)
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
        p.set_defaults(ops=ops, parser=p)
    return parser


def _argv_record(args) -> tuple[Operation, dict]:
    """The operation that argv selects, and its batch record, or a usage error;
    each value is judged by its batch field rule and kept as a batch line holds it."""
    ops = args.ops
    op = ops[0] if len(ops) == 1 else next(op for op in ops if getattr(args, _dest(op.fields[0])) is not None)
    record = {"kind": op.kind, "check": op.check} if op.check else {"kind": op.kind}
    for field in op.fields:
        value = getattr(args, _dest(field))
        if value is not None:
            try:
                field.type.check(field.spelling, value)
            except DomainError as exc:
                args.parser.error(str(exc))
            record[field.name] = value
        elif field.default is REQUIRED:
            args.parser.error(f"{op.fields[0].spelling} requires {field.spelling}")
    # The command takes the options of all its operations; a flag unset is False.
    for field in (field for other in ops for field in other.fields if field not in op.fields):
        if getattr(args, _dest(field)) not in (None, False):
            args.parser.error(f"{op.fields[0].spelling} does not take {field.spelling}")
    return op, record


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "batch":
            return _run_batch(args)
        op, record = _argv_record(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    out, code = _outcome(record, "")
    if "result" in out:
        try:
            lines = [dumps(out["result"])] if args.json else op.render(out["result"])
        except ValueError:
            out, code = _error(_too_long())
    if "error" in out:
        if args.json:
            print(dumps({"error": out["error"]}))
        print(f"czorb: {out['error']['message']}", file=sys.stderr)
        return code
    for line in lines:
        print(line)
    return code


def entry_point() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout, as `czorb batch FILE | head` does. Python
        # flushes stdout again at exit; devnull keeps that flush quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    entry_point()
