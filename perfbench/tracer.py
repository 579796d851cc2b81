"""Spans around czorb's layer boundaries, installed from outside the package.

czorb's modules import each other with `from ... import ...`, so a function
is looked up in the namespace of the module that calls it. `PATCH_POINTS`
therefore names each public function in every namespace it is called from,
for example `czorb.cli.chart_integral` and `czorb.spaces.factorize`, and
`Tracer.install` replaces each one with a wrapper that records a span.
A patch point that no longer exists is reported as missing, and every
metric fed by it reads as missing rather than zero.

Spans are kept in memory while a pass runs and folded into totals after it
(`Tracer.fold`), outside the timed region. A span's self time is its
duration minus the part of it that its child spans cover, so a layer's self
time is the time spent in its own code.
"""

from __future__ import annotations

import functools
import importlib
import time
from fractions import Fraction

# (module, attribute, layer). The layer of `_kernels` is named `kernels`
# because benchmark metric names must start with a letter.
PATCH_POINTS = (
    ("czorb.cli", "main", "cli"),
    ("czorb.cli", "dumps", "cli"),
    ("czorb.cli", "mu_principal", "cz_indices"),
    ("czorb.cli", "mu_principal_brieskorn", "cz_indices"),
    ("czorb.cli", "mu_orbit_wps", "cz_indices"),
    ("czorb.cli", "mu_orbit_brieskorn", "cz_indices"),
    ("czorb", "mu_principal_brieskorn", "cz_indices"),
    ("czorb", "mu_orbit_wps", "cz_indices"),
    ("czorb", "mu_orbit_brieskorn", "cz_indices"),
    ("czorb.cli", "scalar_cz", "cz_paths"),
    ("czorb.cz_indices", "scalar_cz", "cz_paths"),
    ("czorb.cli", "crossing_oracle_scalar", "cz_paths"),
    ("czorb.cli", "det_winding", "cz_paths"),
    ("czorb.cli", "chart_integral", "numeric_verify"),
    ("czorb.numeric_verify", "chart_radial", "kernels"),
    ("czorb.cz_paths", "unwrapped_winding_phase", "kernels"),
    ("czorb.cli", "make_weight_vector", "weights"),
    ("czorb.cli", "invariants", "weights"),
    ("czorb.cli", "symplectic_area", "weights"),
    ("czorb.cz_indices", "make_weight_vector", "weights"),
    ("czorb.spaces", "make_weight_vector", "weights"),
    ("czorb.weights", "make_weight_vector", "weights"),
    ("czorb", "make_weight_vector", "weights"),
    ("czorb", "invariants", "weights"),
    ("czorb.cli", "make_brieskorn_exponents", "spaces"),
    ("czorb.cli", "make_wci_space", "spaces"),
    ("czorb", "make_brieskorn_exponents", "spaces"),
    ("czorb.spaces", "compute_l2", "spaces"),
    ("czorb.spaces", "make_wci_space", "spaces"),
    ("czorb.cz_indices", "brieskorn_to_wci", "spaces"),
    ("czorb.spaces", "factorize", "exact_arith"),
    ("czorb.spaces", "ord_p", "exact_arith"),
    ("czorb.cli", "teardrop_orbifold_chern", "orbifold_topology"),
    ("czorb.cli", "p_star_factor", "orbifold_topology"),
    ("czorb.cli", "teardrop_homology", "orbifold_topology"),
    ("czorb.cli", "teardrop_cohomology", "orbifold_topology"),
)


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _count_crossings(args, kwargs, result):
    T = Fraction(_arg(args, kwargs, 0, "T"))
    return {"crossings": T.numerator // (2 * T.denominator) + 1}


def _count_quadrature(args, kwargs, result):
    w0, tol = _arg(args, kwargs, 0, "w0"), _arg(args, kwargs, 2, "tol")
    ok = abs(Fraction(result.value) + Fraction(1, w0)) <= Fraction(tol)
    return {"evaluations": result.evaluations, "quadratures": 1, "quadratures_ok": int(ok)}


def _count_trig_pairs(args, kwargs, result):
    rates, samples = _arg(args, kwargs, 0, "rates"), _arg(args, kwargs, 1, "samples")
    return {"trig_pairs": samples * len(rates)}


def _count_invariant_elems(args, kwargs, result):
    return {"invariants_elems": len(_arg(args, kwargs, 0, "wv"))}


# Work counters taken from the arguments and result of a returned call,
# keyed by (layer, function).
COUNTERS = {
    ("cz_paths", "crossing_oracle_scalar"): _count_crossings,
    ("numeric_verify", "chart_integral"): _count_quadrature,
    ("kernels", "unwrapped_winding_phase"): _count_trig_pairs,
    ("weights", "invariants"): _count_invariant_elems,
}


def covered_ns(intervals, start: int, end: int) -> int:
    """Length of the union of `intervals`, clipped to [start, end]."""
    total, reach = 0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans) -> list[int]:
    """Self time of each span, given (start_ns, end_ns, parent_index) rows
    with parent_index -1 for a root."""
    children = [[] for _ in spans]
    for start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [end - start - covered_ns(children[i], start, end) for i, (start, end, _) in enumerate(spans)]


def fn_key(layer: str, name: str) -> str:
    return f"{layer}.{name}"


class Totals:
    """Per-pass sums of spans and counters; JSON-friendly and additive."""

    def __init__(self, data: dict | None = None):
        data = data or {}
        self.fns = data.get("fns", {})  # key -> [calls, total_ns, raised]
        self.layer_self = data.get("layer_self", {})  # layer -> ns
        self.counters = data.get("counters", {})

    def to_json(self) -> dict:
        return {"fns": self.fns, "layer_self": self.layer_self, "counters": self.counters}

    def add(self, other: "Totals") -> None:
        for key, row in other.fns.items():
            mine = self.fns.setdefault(key, [0, 0, 0])
            for i, x in enumerate(row):
                mine[i] += x
        for layer, ns in other.layer_self.items():
            self.layer_self[layer] = self.layer_self.get(layer, 0) + ns
        self.count(other.counters)

    def count(self, counters: dict) -> None:
        for name, x in counters.items():
            self.counters[name] = self.counters.get(name, 0) + x


class Tracer:
    """Installs span-recording wrappers at PATCH_POINTS."""

    def __init__(self, patch_points=PATCH_POINTS):
        self.patch_points = patch_points
        self.spans = []  # [layer, name, start_ns, end_ns, parent, raised, args, kwargs, result]
        self._stack = []
        self._saved = []
        self.missing = self._find_missing()

    def _find_missing(self) -> list[str]:
        missing = []
        for module, attr, _ in self.patch_points:
            try:
                if not callable(getattr(importlib.import_module(module), attr, None)):
                    missing.append(f"{module}.{attr}")
            except ImportError:
                missing.append(f"{module}.{attr}")
        return missing

    def _wrap(self, layer: str, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        keep_args = (layer, name) in COUNTERS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            row = [layer, name, 0, 0, stack[-1] if stack else -1, False, None, None, None]
            stack.append(len(spans))
            spans.append(row)
            row[2] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                row[5] = True
                raise
            finally:
                row[3] = clock()
                stack.pop()
            if keep_args:
                row[6:9] = args, kwargs, result
            return result

        return wrapper

    def install(self) -> None:
        for module, attr, layer in self.patch_points:
            if f"{module}.{attr}" in self.missing:
                continue
            mod = importlib.import_module(module)
            original = getattr(mod, attr)
            self._saved.append((mod, attr, original))
            setattr(mod, attr, self._wrap(layer, attr, original))

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)

    def fold(self) -> Totals:
        """Sum the recorded spans into Totals and forget them."""
        totals = Totals()
        selfs = self_times([(row[2], row[3], row[4]) for row in self.spans])
        for row, self_ns in zip(self.spans, selfs):
            layer, name, start, end, _, raised = row[:6]
            calls = totals.fns.setdefault(fn_key(layer, name), [0, 0, 0])
            calls[0] += 1
            calls[1] += end - start
            calls[2] += int(raised)
            totals.layer_self[layer] = totals.layer_self.get(layer, 0) + self_ns
            counter = COUNTERS.get((layer, name))
            if counter is not None and not raised:
                totals.count(counter(row[6], row[7], row[8]))
        self.spans.clear()
        return totals


# ---------------------------------------------------------------------------
# per-layer metrics


def _ms(ns):
    return ns / 1e6


def _ratio(num, den):
    return num / den if den else 0.0


def layer_of(key: str) -> str:
    return key.split(".", 1)[0]


def _layer_calls(t, layer):
    return sum(row[0] for key, row in t.fns.items() if layer_of(key) == layer)


def _layer_raised(t, layer):
    return sum(row[2] for key, row in t.fns.items() if layer_of(key) == layer)


def _fn(t, key, i):
    return t.fns.get(key, [0, 0, 0])[i]


def _fn_calls(key):
    return ("count", "lower", (key,), lambda t: _fn(t, key, 0))


def _fn_ms(key):
    """Inclusive time in the function `key`."""
    return ("ms", "lower", (key,), lambda t: _ms(_fn(t, key, 1)))


def _self_ms(layer):
    return ("ms", "lower", (layer,), lambda t: _ms(t.layer_self.get(layer, 0)))


def _counter(key, name, better="lower"):
    return ("count", better, (key,) if key else (), lambda t: t.counters.get(name, 0))


def _ns_per(key, name):
    """Nanoseconds in the function `key` per unit of the counter `name`."""
    return ("ns", "lower", (key,), lambda t: _ratio(_fn(t, key, 1), t.counters.get(name, 0)))


# name -> (unit, better, function keys or layers it needs, value(t) where
# t is a Totals already divided by the number of passes).
LAYER_METRICS = {
    "cli.records": _counter(None, "cli.records", "higher"),
    "cli.refused": _counter(None, "cli.refused"),
    "cli.self_ms": _self_ms("cli"),
    "cli.dumps_calls": _fn_calls("cli.dumps"),
    "cli.dumps_ms": _fn_ms("cli.dumps"),
    "cz_indices.calls": ("count", "lower", ("cz_indices",), lambda t: _layer_calls(t, "cz_indices")),
    "cz_indices.self_ms": _self_ms("cz_indices"),
    "cz_indices.refused_ratio": (
        "ratio",
        "lower",
        ("cz_indices",),
        lambda t: _ratio(_layer_raised(t, "cz_indices"), _layer_calls(t, "cz_indices")),
    ),
    "cz_paths.scalar_cz_ms": _fn_ms("cz_paths.scalar_cz"),
    "cz_paths.crossing_oracle_ms": _fn_ms("cz_paths.crossing_oracle_scalar"),
    "cz_paths.crossings": _counter("cz_paths.crossing_oracle_scalar", "crossings"),
    "cz_paths.ns_per_crossing": _ns_per("cz_paths.crossing_oracle_scalar", "crossings"),
    "cz_paths.det_winding_ms": _fn_ms("cz_paths.det_winding"),
    "numeric_verify.chart_integral_calls": _fn_calls("numeric_verify.chart_integral"),
    "numeric_verify.chart_integral_ms": _fn_ms("numeric_verify.chart_integral"),
    "numeric_verify.evaluations": _counter("numeric_verify.chart_integral", "evaluations"),
    "numeric_verify.ok_ratio": (
        "ratio",
        "higher",
        ("numeric_verify.chart_integral",),
        lambda t: _ratio(t.counters.get("quadratures_ok", 0), t.counters.get("quadratures", 0)),
    ),
    "kernels.chart_radial_ms": _fn_ms("kernels.chart_radial"),
    "kernels.winding_ms": _fn_ms("kernels.unwrapped_winding_phase"),
    "kernels.trig_pairs": _counter("kernels.unwrapped_winding_phase", "trig_pairs"),
    "kernels.ns_per_trig_pair": _ns_per("kernels.unwrapped_winding_phase", "trig_pairs"),
    "weights.invariants_calls": _fn_calls("weights.invariants"),
    "weights.invariants_ms": _fn_ms("weights.invariants"),
    "weights.invariants_elems": _counter("weights.invariants", "invariants_elems"),
    "weights.make_weight_vector_ms": _fn_ms("weights.make_weight_vector"),
    "spaces.make_brieskorn_exponents_ms": _fn_ms("spaces.make_brieskorn_exponents"),
    "spaces.compute_l2_ms": _fn_ms("spaces.compute_l2"),
    "spaces.brieskorn_to_wci_ms": _fn_ms("spaces.brieskorn_to_wci"),
    "exact_arith.factorize_calls": _fn_calls("exact_arith.factorize"),
    "exact_arith.factorize_ms": _fn_ms("exact_arith.factorize"),
    "exact_arith.ord_p_calls": _fn_calls("exact_arith.ord_p"),
    "exact_arith.ord_p_ms": _fn_ms("exact_arith.ord_p"),
    "orbifold_topology.calls": ("count", "lower", ("orbifold_topology",), lambda t: _layer_calls(t, "orbifold_topology")),
    "orbifold_topology.ms": _self_ms("orbifold_topology"),
}


def layer_metrics(totals: Totals, passes: int, missing_points) -> dict:
    """Per-pass value of every LAYER_METRICS entry, or None where a patch
    point feeding it is missing."""
    per_pass = Totals()
    per_pass.fns = {k: [x / passes for x in row] for k, row in totals.fns.items()}
    per_pass.layer_self = {k: v / passes for k, v in totals.layer_self.items()}
    per_pass.counters = {k: v / passes for k, v in totals.counters.items()}
    broken = set()
    for point in missing_points:
        module, attr = point.rsplit(".", 1)
        for mod, name, layer in PATCH_POINTS:
            if (mod, name) == (module, attr):
                broken.update((layer, fn_key(layer, name)))
    out = {}
    for name, (unit, _, needs, value) in LAYER_METRICS.items():
        out[name] = (None if broken.intersection(needs) else value(per_pass), unit)
    return out
