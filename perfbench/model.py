"""Reference results for the benchmark's correctness gate.

Every exact field czorb prints for a benchmark input is recomputed here from
the closed forms, without importing czorb: indices, branches, formulas,
notes, weight invariants, refusal types and exit codes. The weight invariants
use prefix/suffix scans and l2 the lcm of pairwise gcds, so this reference
shares no algorithm with the code it checks beyond the closed forms
themselves.

Fields that come out of the numeric kernels (quadrature value, error
estimate, evaluation count, winding residual, oracle verdicts) have no exact
reference value; `judge` holds them to their exact targets instead. A
malformed value is a gate failure; a wrong verdict is a failed operation.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from fractions import Fraction

FORMULAS = {
    "principal-wps": "2*|w|",
    "principal-wci": "2*(|w| - sum(m_j))",
    "principal-brieskorn": "2*l*(sum(1/a_j) - 1)",
    "nonprincipal-wps": "(2/d_S)*sum_{j in S} w_j + sum_{k not in S} (2*floor(w_k/(2*d_S)) + 1)",
    "nonprincipal-brieskorn": (
        "2*l_S*(sum_{j in S} 1/a_j - 1) + sum_{k not in S} (2*floor(w_k/(2*d_S)) + 1)"
    ),
    "two-weight-special": "2*floor((m+n)/(2*m)) + 1",
}

NOTE_TRIVIAL = "support has trivial isotropy, so the orbit is principal"
NOTE_TWO_WEIGHT = (
    "two-weight closed form used; it disagrees with the general reduction formula "
    "for some (m, n), and the closed form takes precedence"
)
NOTE_ZERO_DIM = (
    "zero-dimensional stratum indexed with the general reduction formula beyond the covered cases"
)

EXIT_CODES = {"malformed": 2, "domain": 2, "non-coprime": 2, "uncovered-case": 3, "convergence": 4}

# Output fields produced by the numeric kernels, per verify check.
NUMERIC_FIELDS = {
    "lemma42": ("value", "error_estimate", "evaluations", "ok"),
    "winding": ("winding", "residual", "ok"),
    "scalar-cz": ("crossing_oracle", "ok"),
}

DEFAULT_TOL = 1e-8


class Refusal(Exception):
    """The reference outcome is a typed refusal of this kind."""

    def __init__(self, kind: str):
        super().__init__(kind)
        self.kind = kind


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _rational(x: Fraction) -> dict:
    return {"num": x.numerator, "den": x.denominator}


# ---------------------------------------------------------------------------
# closed forms


def weight_vector(raw) -> list[int]:
    w = list(raw)
    if len(w) < 2 or not all(_is_int(x) and x > 0 for x in w):
        raise Refusal("domain")
    if math.gcd(*w) != 1:
        raise Refusal("non-coprime")
    return w


def scalar_index(T: Fraction) -> int:
    """Index of the unit-rate scalar path on [0, T], counted by crossings:
    one at each end that is an even integer, two at each even integer
    strictly inside."""
    if T <= 0:
        raise Refusal("domain")
    inside = T.numerator // (2 * T.denominator)
    if T.denominator == 1 and T.numerator % 2 == 0:
        return 1 + 2 * (inside - 1) + 1
    return 1 + 2 * inside


def _scans(values, fold, identity):
    """fold over all entries but j, for every j, by prefix and suffix scans."""
    n = len(values)
    prefix, suffix = [identity] * (n + 1), [identity] * (n + 1)
    for j in range(n):
        prefix[j + 1] = fold(prefix[j], values[j])
        suffix[n - 1 - j] = fold(suffix[n - j], values[n - 1 - j])
    return [fold(prefix[j], suffix[j + 1]) for j in range(n)]


def invariants(raw) -> dict:
    w = weight_vector(raw)
    d = _scans(w, math.gcd, 0)
    e = _scans(d, math.lcm, 1)
    reduced = weight_vector([wj // ej for wj, ej in zip(w, e)])
    return {
        "sum": sum(w),
        "product": math.prod(w),
        "d": d,
        "e": e,
        "a_w": math.lcm(*d),
        "reduced": reduced,
        "well_formed": all(x == 1 for x in d),
    }


def brieskorn(raw) -> tuple[int, int]:
    """(l, l2) for a valid Brieskorn exponent vector; l2 is the lcm of the
    pairwise gcds, whose p-adic valuation is the second-largest one."""
    a = list(raw)
    if len(a) < 4 or not all(_is_int(x) and x >= 2 for x in a):
        raise Refusal("domain")
    l2 = 1
    for i in range(len(a)):
        for j in range(i + 1, len(a)):
            l2 = math.lcm(l2, math.gcd(a[i], a[j]))
    return math.lcm(*a), l2


def report(index, branch, extrapolated=False, b=None, notes=()) -> dict:
    return {
        "index": index,
        "branch": branch,
        "extrapolated": extrapolated,
        "b_constant": b,
        "notes": list(notes),
        "formula": FORMULAS[branch],
    }


def _support(n: int, support) -> set[int]:
    s = set(support)
    if not s or not all(_is_int(j) and 0 <= j < n for j in s):
        raise Refusal("domain")
    return s


def _transverse(w, s, d, allow, notes):
    """Scalar terms of the coordinates outside the support, and whether any
    of them was extrapolated."""
    total, extrapolated = 0, False
    for k in range(len(w)):
        if k in s:
            continue
        ratio = Fraction(w[k], d)
        if ratio.denominator == 1 and ratio.numerator % 2 == 0:
            if not allow:
                raise Refusal("uncovered-case")
            notes.append(
                f"transverse coordinate {k} has ratio {ratio.numerator}, an even integer; "
                "indexed with the even scalar branch beyond the covered cases"
            )
            extrapolated = True
        total += scalar_index(ratio)
    return total, extrapolated


def principal_wps(raw) -> dict:
    w = weight_vector(raw)
    return {"weights": list(raw), **report(2 * sum(w), "principal-wps", b=sum(w))}


def principal_wci(raw, degrees) -> dict:
    w = weight_vector(raw)
    degrees = list(degrees)
    if not degrees or any(m < 1 for m in degrees) or len(degrees) > len(w) - 3:
        raise Refusal("domain")
    b = sum(w) - sum(degrees)
    notes = [f"proportionality constant b={b} is non-positive; the formula has no positivity guard"] if b <= 0 else []
    return {"weights": list(raw), "degrees": degrees, **report(2 * b, "principal-wci", b=b, notes=notes)}


def _principal_brieskorn_report(a) -> dict:
    l, _ = brieskorn(a)
    index = 2 * (sum(l // x for x in a) - l)
    return report(index, "principal-brieskorn", b=index // 2)


def principal_brieskorn(raw) -> dict:
    return {"exponents": list(raw), **_principal_brieskorn_report(raw)}


def _orbit_wps_report(raw, support, allow) -> dict:
    w = weight_vector(raw)
    s = _support(len(w), support)
    d = math.gcd(*(w[j] for j in s))
    if d == 1:
        notes = [NOTE_TRIVIAL] if len(s) < len(w) else []
        return report(2 * sum(w), "principal-wps", b=sum(w), notes=notes)
    if len(w) == 2 and len(s) == 1:
        (j,) = s
        m, n = w[j], w[1 - j]
        return report(2 * ((m + n) // (2 * m)) + 1, "two-weight-special", notes=[NOTE_TWO_WEIGHT])
    notes, extrapolated = [], False
    if len(s) == 1:
        if not allow:
            raise Refusal("uncovered-case")
        notes.append(NOTE_ZERO_DIM)
        extrapolated = True
    transverse, extra = _transverse(w, s, d, allow, notes)
    index = 2 * sum(w[j] // d for j in s) + transverse
    return report(index, "nonprincipal-wps", extrapolated or extra, notes=notes)


def orbit_wps(raw, support, allow) -> dict:
    rep = _orbit_wps_report(raw, support, allow)
    return {"weights": list(raw), "support": sorted(set(support)), **rep}


def _orbit_brieskorn_report(a, support, allow) -> dict:
    l, _ = brieskorn(a)
    w = [l // x for x in a]
    s = _support(len(w), support)
    if len(s) < 3:
        raise Refusal("uncovered-case")
    d = math.gcd(*(w[j] for j in s))
    if d == 1:
        b = sum(w) - l
        notes = [NOTE_TRIVIAL] if len(s) < len(w) else []
        return report(2 * b, "principal-brieskorn", b=b, notes=notes)
    notes = [f"isotropy order taken as the gcd of the ambient weights over the support ({d})"]
    l_s = math.lcm(*(a[j] for j in s))
    transverse, extrapolated = _transverse(w, s, d, allow, notes)
    index = 2 * (sum(l_s // a[j] for j in s) - l_s) + transverse
    return report(index, "nonprincipal-brieskorn", extrapolated, notes=notes)


def orbit_brieskorn(raw, support, allow) -> dict:
    rep = _orbit_brieskorn_report(raw, support, allow)
    return {"exponents": list(raw), "support": sorted(set(support)), **rep}


def _homology(m: int, q: int) -> str:
    if q in (0, 2):
        return "Z"
    return f"Z_{m}" if q > 1 and q % 2 == 1 else "0"


def _cohomology(m: int, q: int) -> str:
    if q in (0, 2):
        return "Z"
    return f"Z_{m}" if q > 2 and q % 2 == 0 else "0"


def teardrop(m: int, degree) -> dict:
    if m < 2 or (degree is not None and degree < 0):
        raise Refusal("domain")
    payload = {"m": m, "chern": _rational(1 + Fraction(1, m)), "p_star": _rational(Fraction(1, m))}
    if degree is not None:
        payload.update(degree=degree, homology=_homology(m, degree), cohomology=_cohomology(m, degree))
    else:
        payload["table"] = [
            {"degree": q, "homology": _homology(m, q), "cohomology": _cohomology(m, q)} for q in range(13)
        ]
    return payload


def weights_payload(raw) -> dict:
    inv = invariants(raw)
    return {
        "weights": list(raw),
        **{k: inv[k] for k in ("sum", "product", "d", "e", "a_w", "reduced", "well_formed")},
        "symplectic_area": _rational(Fraction(-1, inv["product"])),
    }


def verify_lemma42(w0, w1, tol):
    if w0 < 1 or w1 < 1 or not 0 < tol <= 1e-4:
        raise Refusal("domain")
    exact = {"check": "lemma42", "w0": w0, "w1": w1, "tol": tol, "expected": _rational(Fraction(-1, w0))}
    return exact, ("lemma42", w0, tol)


def verify_winding(rates, samples):
    if not rates:
        raise Refusal("domain")
    least = 4 * sum(abs(r) for r in rates) + 16
    if samples is not None and samples < least:
        raise Refusal("domain")
    exact = {"check": "winding", "rates": list(rates), "sum_rates": sum(rates), "samples": samples or least}
    return exact, ("winding", sum(rates))


def verify_scalar(T: Fraction):
    index = scalar_index(T)
    return {"check": "scalar-cz", "T": _rational(T), "closed_form": index}, ("scalar-cz", index)


# ---------------------------------------------------------------------------
# batch records

_MISSING = object()


def _field(rec, key, default=_MISSING):
    if key in rec:
        return rec[key]
    if default is _MISSING:
        raise Refusal("domain")
    return default


def _int(rec, key, default=_MISSING):
    value = _field(rec, key, default)
    if not _is_int(value):
        raise Refusal("domain")
    return value


def _int_list(rec, key):
    value = _field(rec, key)
    if not isinstance(value, list) or not all(_is_int(x) for x in value):
        raise Refusal("domain")
    return value


def _bool(rec, key):
    value = _field(rec, key, False)
    if not isinstance(value, bool):
        raise Refusal("domain")
    return value


def _rational_field(rec, key) -> Fraction:
    value = _field(rec, key)
    try:
        if isinstance(value, str):
            return Fraction(value)
        if isinstance(value, dict):
            return Fraction(value["num"], value["den"])
        if _is_int(value):
            return Fraction(value)
    except (ValueError, ZeroDivisionError, KeyError, TypeError):
        pass
    raise Refusal("domain")


def _dispatch(kind, rec):
    """(exact result fields, judge spec or None) for a well-formed record."""
    if kind == "wps":
        return principal_wps(_int_list(rec, "weights")), None
    if kind == "wci":
        return principal_wci(_int_list(rec, "weights"), _int_list(rec, "degrees")), None
    if kind == "brieskorn":
        return principal_brieskorn(_int_list(rec, "exponents")), None
    if kind == "orbit-wps":
        args = _int_list(rec, "weights"), _int_list(rec, "support"), _bool(rec, "allow_extrapolation")
        return orbit_wps(*args), None
    if kind == "orbit-brieskorn":
        args = _int_list(rec, "exponents"), _int_list(rec, "support"), _bool(rec, "allow_extrapolation")
        return orbit_brieskorn(*args), None
    if kind == "teardrop":
        degree = _int(rec, "degree", None) if "degree" in rec else None
        return teardrop(_int(rec, "m"), degree), None
    if kind == "verify":
        check = _field(rec, "check")
        if check == "lemma42":
            tol = _field(rec, "tol", DEFAULT_TOL)
            if not isinstance(tol, (int, float)) or isinstance(tol, bool):
                raise Refusal("domain")
            return verify_lemma42(_int(rec, "w0"), _int(rec, "w1"), float(tol))
        if check == "winding":
            samples = _int(rec, "samples", None) if "samples" in rec else None
            return verify_winding(_int_list(rec, "rates"), samples)
        if check == "scalar-cz":
            return verify_scalar(_rational_field(rec, "T"))
    raise Refusal("domain")


def expect_batch_record(line: str):
    """(projection, judge spec) that czorb batch --json should give for one
    input line."""
    try:
        rec = json.loads(line)
    except ValueError:
        return {"id": None, "kind": None, "status": "error", "error": "malformed"}, None
    if not isinstance(rec, dict):
        return {"id": None, "kind": None, "status": "error", "error": "domain"}, None
    head = {"id": rec.get("id"), "kind": rec.get("kind")}
    try:
        result, judge_spec = _dispatch(head["kind"], rec)
    except Refusal as exc:
        return {**head, "status": "error", "error": exc.kind}, None
    return {**head, "status": "ok", "result": result}, judge_spec


def split_numeric(result: dict) -> tuple[dict, dict]:
    """Split a result into its exact fields and its numeric-kernel fields."""
    names = NUMERIC_FIELDS.get(result.get("check"), ())
    exact = {k: v for k, v in result.items() if k not in names}
    return exact, {k: result[k] for k in names if k in result}


def project_batch_line(line: str):
    """(projection, numeric fields) of one czorb batch --json output line.
    Raises ValueError if the line is not a JSON object."""
    out = json.loads(line)
    if not isinstance(out, dict):
        raise ValueError("output record is not a JSON object")
    proj = {"id": out.get("id"), "kind": out.get("kind"), "status": out.get("status")}
    numeric = {}
    if out.get("status") == "ok" and isinstance(out.get("result"), dict):
        proj["result"], numeric = split_numeric(out["result"])
    else:
        error = out.get("error")
        proj["error"] = error.get("type") if isinstance(error, dict) else None
    return proj, numeric


def _finite(x) -> bool:
    return isinstance(x, float) and math.isfinite(x)


def judge(spec, numeric: dict) -> tuple[bool, bool]:
    """(well_formed, verdict_ok) of the numeric fields of one verify result.

    well_formed says every numeric field is present with a sane type and
    range; verdict_ok says the oracle reached its exact target: ok is true,
    a winding equals the sum of the rates, a crossing count equals the
    closed-form index, and a quadrature value lies within tol of -1/w0."""
    check = spec[0]
    ok = numeric.get("ok")
    if not isinstance(ok, bool) or set(numeric) != set(NUMERIC_FIELDS[check]):
        return False, False
    if check == "lemma42":
        _, w0, tol = spec
        value, err, evals = numeric["value"], numeric["error_estimate"], numeric["evaluations"]
        if not (_finite(value) and _finite(err) and err >= 0 and _is_int(evals) and evals >= 3):
            return False, False
        return True, ok and abs(Fraction(value) + Fraction(1, w0)) <= Fraction(tol)
    if check == "winding":
        winding, residual = numeric["winding"], numeric["residual"]
        if not (_is_int(winding) and _finite(residual) and 0 <= residual <= 0.5):
            return False, False
        return True, ok and winding == spec[1]
    crossings = numeric["crossing_oracle"]
    if not _is_int(crossings):
        return False, False
    return True, ok and crossings == spec[1]


# ---------------------------------------------------------------------------
# library calls


def expect_library_op(op: dict) -> dict:
    """Projection of the outcome of one library_wide call."""
    try:
        if op["op"] == "invariants":
            return invariants(op["weights"])
        if op["op"] == "brieskorn":
            l, l2 = brieskorn(op["exponents"])
            principal = _principal_brieskorn_report(op["exponents"])
            try:
                orbit = _orbit_brieskorn_report(op["exponents"], op["support"], op["allow_extrapolation"])
            except Refusal as exc:
                orbit = {"error": exc.kind}
            return {"l": l, "l2": l2, "principal": _library_report(principal), "orbit": _library_report(orbit)}
        return _library_report(_orbit_wps_report(op["weights"], op["support"], op["allow_extrapolation"]))
    except Refusal as exc:
        return {"error": exc.kind}


def _library_report(rep: dict) -> dict:
    return {k: v for k, v in rep.items() if k != "formula"}


def error_type(exc: BaseException) -> str:
    """The refusal type of an exception raised by czorb, by class name."""
    names = [cls.__name__ for cls in type(exc).__mro__]
    for name, kind in (
        ("NonCoprimeError", "non-coprime"),
        ("UncoveredCaseError", "uncovered-case"),
        ("ConvergenceError", "convergence"),
        ("CzorbError", "domain"),
    ):
        if name in names:
            return kind
    return f"untyped:{type(exc).__name__}"


def project_report(rep) -> dict:
    branch = getattr(rep.branch, "value", rep.branch)
    return {
        "index": rep.index,
        "branch": branch,
        "extrapolated": rep.extrapolated,
        "b_constant": rep.b_constant,
        "notes": list(rep.notes),
    }


def project_library_outcome(op: dict, outcome) -> dict:
    """Projection of what one library_wide call returned or raised."""
    if isinstance(outcome, BaseException):
        return {"error": error_type(outcome)}
    if op["op"] == "invariants":
        return {
            "sum": outcome.sum,
            "product": outcome.product,
            "d": list(outcome.d),
            "e": list(outcome.e),
            "a_w": outcome.a_w,
            "reduced": list(outcome.reduced),
            "well_formed": outcome.well_formed,
        }
    if op["op"] == "brieskorn":
        be, principal, orbit = outcome
        orbit = {"error": error_type(orbit)} if isinstance(orbit, BaseException) else project_report(orbit)
        return {"l": be.l, "l2": be.l2, "principal": project_report(principal), "orbit": orbit}
    return project_report(outcome)


# ---------------------------------------------------------------------------
# one-shot CLI calls


def _cli_payload(spec: dict):
    cmd = spec["cmd"]
    if cmd == "weights":
        return weights_payload(spec["weights"]), None
    if cmd == "cz-principal":
        if "wps" in spec:
            return principal_wps(spec["wps"]), None
        if "wci" in spec:
            return principal_wci(spec["wci"], spec["degrees"]), None
        return principal_brieskorn(spec["brieskorn"]), None
    if cmd == "cz-orbit":
        allow = spec.get("allow_extrapolation", False)
        if "wps" in spec:
            return orbit_wps(spec["wps"], spec["support"], allow), None
        return orbit_brieskorn(spec["brieskorn"], spec["support"], allow), None
    if cmd == "teardrop":
        return teardrop(spec["m"], spec.get("degree")), None
    return verify_scalar(Fraction(spec["T"]))


def _human_value(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, list):
        return ",".join(map(str, value))
    if isinstance(value, dict):
        x = Fraction(value["num"], value["den"])
        return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    return str(value)


# Exact fields compared in human output, per command.
_HUMAN_KEYS = {
    "weights": ("sum", "product", "d", "e", "a_w", "reduced", "well_formed"),
    "cz-principal": ("index", "branch", "formula", "extrapolated"),
    "cz-orbit": ("index", "branch", "formula", "extrapolated"),
    "teardrop": ("chern", "p_star"),
    "verify-scalar-cz": ("closed_form",),
}


def _human_fields(payload: dict, cmd: str) -> dict:
    fields = {k: _human_value(payload[k]) for k in _HUMAN_KEYS[cmd]}
    if "notes" in payload:
        fields["note"] = list(payload["notes"])
    for row in payload.get("table", ()):
        fields[f"H_{row['degree']}"] = row["homology"]
        fields[f"H^{row['degree']}"] = row["cohomology"]
    if "degree" in payload:
        fields[f"H_{payload['degree']}"] = payload["homology"]
        fields[f"H^{payload['degree']}"] = payload["cohomology"]
    return fields


_KV_LINE = re.compile(r"(\S+)\s{2,}(.*)$")


def parse_human(text: str) -> dict:
    """Key/value fields of czorb's human output. Keys are lower-cased with
    '-' read as '_'; repeated 'note' lines collect into a list; teardrop
    (co)homology lines map to keys H_q and H^q."""
    fields = {"note": []}
    for line in text.splitlines():
        tokens = line.split()
        if len(tokens) == 3 and tokens[1] == "=":
            fields[tokens[0]] = tokens[2]
        elif len(tokens) == 3 and tokens[0].isdigit():
            fields[f"H_{tokens[0]}"], fields[f"H^{tokens[0]}"] = tokens[1], tokens[2]
        elif match := _KV_LINE.match(line):
            key, value = match.group(1).lower().replace("-", "_"), match.group(2).strip()
            if key == "note":
                fields["note"].append(value)
            else:
                fields[key] = value
    return fields


def expect_cli_call(spec: dict):
    """(projection, judge spec) that one cli_oneshot call should give."""
    payload, judge_spec = _cli_payload(spec)
    if spec["json"]:
        exact, _ = split_numeric(payload)
    else:
        exact = _human_fields(payload, spec["cmd"])
    return {"exit": 0, "output": exact}, judge_spec


def project_cli_output(spec: dict, exit_code: int, stdout: str):
    """(projection, numeric fields) of one cli_oneshot call."""
    if spec["json"]:
        payload = json.loads(stdout)
        if not isinstance(payload, dict):
            raise ValueError("CLI output is not a JSON object")
        exact, numeric = split_numeric(payload)
        return {"exit": exit_code, "output": exact}, numeric
    fields = parse_human(stdout)
    wanted = _HUMAN_KEYS[spec["cmd"]]
    exact = {k: v for k, v in fields.items() if k in wanted or k == "note" or k.startswith(("H_", "H^"))}
    if spec["cmd"] not in ("cz-principal", "cz-orbit") and not exact["note"]:
        del exact["note"]
    numeric = {}
    if spec["cmd"] == "verify-scalar-cz":
        numeric = {"crossing_oracle": _maybe_int(fields.get("crossing_oracle")), "ok": _yes_no(fields.get("ok"))}
        numeric = {k: v for k, v in numeric.items() if v is not None}
    return {"exit": exit_code, "output": exact}, numeric


def _maybe_int(text):
    try:
        return int(text)
    except (TypeError, ValueError):
        return None


def _yes_no(text):
    return {"yes": True, "no": False}.get(text)


# ---------------------------------------------------------------------------
# digests


def _canon(obj):
    """JSON-ready copy with integers beyond 64 bits written in hex, which
    has no digit limit on conversion."""
    if isinstance(obj, bool) or obj is None:
        return obj
    if isinstance(obj, int):
        return obj if abs(obj) < 2**63 else hex(obj)
    if isinstance(obj, dict):
        return {k: _canon(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canon(v) for v in obj]
    return obj


def canonical(obj) -> str:
    return json.dumps(_canon(obj), sort_keys=True, separators=(",", ":"))


def digest(canonical_projections) -> str:
    h = hashlib.sha256()
    for text in canonical_projections:
        h.update(text.encode())
        h.update(b"\n")
    return h.hexdigest()
