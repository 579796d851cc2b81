#!/usr/bin/env python3
"""czorb benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload batch_mixed --seed 1 --seconds 40 --trace 0

Run it from anywhere inside a czorb checkout; it uses the sources under
`src/` of the checkout that holds it and writes only to `.bench_build/`
there. Workloads: batch_mixed, batch_oracles, library_wide and cli_oneshot,
which BENCHMARK.json does not declare (see README.md for what each one
stresses and why).

This process generates the seeded inputs and their reference results, then
starts worker.py, which repeats full passes over the inputs for about
`--seconds` seconds (always at least one) and records czorb's output and
timings. Every pass is checked against the reference in model.py; the run
prints metrics even if a check fails, and then exits 1. With `--trace 0` it
prints the end-to-end metrics. With `--trace 1` untraced and traced passes
alternate and it prints the per-layer metrics from the traced ones, plus
trace.overhead_ratio.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it are for people.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import model
import tracer as tracing
import workloads
from worker import (
    CHILD_TIMEOUT_S,
    HERE,
    ROOT,
    SRC,
    WARM_UP_INPUTS,
    child_env,
    output_file,
    pass_file,
    pin_to_next_cpu,
)

WORK_ROOT = ROOT / ".bench_build"

# Percentiles the tail is picked from: the highest one that leaves at least
# ten samples beyond it.
TAIL_LADDER = ("75", "90", "95", "98", "99", "99.5", "99.8", "99.9", "99.95", "99.99")
SETUP_RUNS = 21
MAX_PROBLEMS_SHOWN = 5

E2E_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}


@dataclass
class Check:
    """Outcome of the correctness gate on one pass."""

    ops: int = 0
    failed: int = 0
    refused: int = 0
    digest: str = ""
    problems: list = field(default_factory=list)

    def problem(self, text: str) -> None:
        self.problems.append(text)


@dataclass
class Pass:
    traced: bool
    busy_ns: int
    latencies: list  # per input: ns, or None where no sample was taken
    check: Check
    totals: tracing.Totals | None = None


def _judge_op(check: Check, where: str, proj: dict, expected: str, spec, numeric) -> str:
    """Count one operation's outcome against its canonical reference: a
    mismatch or a malformed numeric field fails the gate; a wrong verdict is
    only a failed operation. Returns the canonical projection."""
    got = model.canonical(proj)
    if got != expected:
        check.failed += 1
        check.problem(f"{where}: got {got[:300]}, want {expected[:300]}")
    elif spec is not None:
        well_formed, verdict_ok = model.judge(spec, numeric)
        if not well_formed:
            check.failed += 1
            check.problem(f"{where}: malformed numeric fields {numeric!r}")
        elif not verdict_ok:
            check.failed += 1
    elif proj.get("status") == "error" or "error" in proj or proj.get("exit", 0) != 0:
        check.refused += 1
    return got


def _finish_check(check: Check, canonical_projections, expected_digest: str) -> Check:
    check.digest = model.digest(canonical_projections)
    if check.digest != expected_digest:
        check.problem(f"digest {check.digest[:16]} differs from the reference {expected_digest[:16]}")
    return check


class BatchReference:
    """The batch file of a batch workload and what `czorb batch --json` must
    print for it."""

    entry_module = "czorb.cli"
    through_cli = True

    def __init__(self, records, workdir: Path):
        lines = workloads.serialize(records).decode().split("\n")
        (workdir / "batch.ndjson").write_text("\n".join(lines) + "\n")
        (workdir / "warm.ndjson").write_text("\n".join(lines[:WARM_UP_INPUTS]) + "\n")
        expected = [model.expect_batch_record(line) for line in lines]
        errors = [proj["error"] for proj, _ in expected if proj["status"] == "error"]
        self.expected_exit = max((model.EXIT_CODES[e] for e in errors), default=0)
        self.expected = [(model.canonical(proj), spec) for proj, spec in expected]
        self.expected_digest = model.digest(proj for proj, _ in self.expected)
        self.size = len(lines)

    def check(self, record: dict, output: str) -> Check:
        out_lines = output.splitlines()
        check = Check(ops=self.size)
        if record["exit"] != self.expected_exit:
            check.problem(f"batch exit code {record['exit']}, want {self.expected_exit}")
        if len(out_lines) != self.size:
            check.problem(f"{len(out_lines)} output lines for {self.size} records")
        projections = []
        for i, (expected, spec) in enumerate(self.expected):
            if i >= len(out_lines):
                check.failed += 1
                continue
            try:
                proj, numeric = model.project_batch_line(out_lines[i])
            except ValueError:
                proj, numeric = {"unparsable": out_lines[i][:200]}, {}
            projections.append(_judge_op(check, f"record {i + 1}", proj, expected, spec, numeric))
        return _finish_check(check, projections, self.expected_digest)


class LibraryReference:
    """What each library_wide call must return or raise."""

    entry_module = "czorb"
    through_cli = False

    def __init__(self, ops, workdir: Path):
        self.ops = ops
        self.expected = [model.canonical(model.expect_library_op(op)) for op in ops]
        self.expected_digest = model.digest(self.expected)
        self.size = len(ops)

    def check(self, record: dict, output: str) -> Check:
        got = output.split("\n")
        check = Check(ops=self.size, failed=max(0, self.size - len(got)))
        if len(got) != self.size:
            check.problem(f"{len(got)} outcomes for {self.size} calls")
        for i, (op, text, expected) in enumerate(zip(self.ops, got, self.expected)):
            try:
                proj = json.loads(text)
            except ValueError:
                proj = {"unparsable": text[:200]}
            _judge_op(check, f"call {i + 1} ({op['op']})", proj, expected, None, {})
        return _finish_check(check, got, self.expected_digest)


class CliReference:
    """What each cli_oneshot call must print and exit with."""

    entry_module = "czorb.cli"
    through_cli = True

    def __init__(self, specs, workdir: Path):
        self.specs = specs
        self.expected = [(model.canonical(proj), judge) for proj, judge in map(model.expect_cli_call, specs)]
        self.expected_digest = model.digest(proj for proj, _ in self.expected)
        self.size = len(specs)

    def check(self, record: dict, output: str) -> Check:
        calls = json.loads(output)
        check = Check(ops=self.size, failed=max(0, self.size - len(calls)))
        if len(calls) != self.size:
            check.problem(f"{len(calls)} calls recorded for {self.size} inputs")
        projections = []
        for i, (spec, call, (expected, judge_spec)) in enumerate(zip(self.specs, calls, self.expected)):
            try:
                proj, numeric = model.project_cli_output(spec, call["exit"], call["stdout"])
            except ValueError:
                proj, numeric = {"exit": call["exit"], "unparsable": call["stdout"][:200]}, {}
            if call["exit"] != 0:
                check.problem(f"czorb {' '.join(workloads.cli_argv(spec))}: {call['stderr'].strip()}")
            projections.append(_judge_op(check, f"call {i + 1}", proj, expected, judge_spec, numeric))
        return _finish_check(check, projections, self.expected_digest)


REFERENCES = {
    "batch_mixed": BatchReference,
    "batch_oracles": BatchReference,
    "library_wide": LibraryReference,
    "cli_oneshot": CliReference,
}


def prepare(workload: str, seed: int, workdir: Path):
    """Generate the inputs, write them for the worker, and return the
    reference they are judged against."""
    inputs = workloads.GENERATORS[workload](seed)
    job = {"workload": workload}
    if workload in ("library_wide", "cli_oneshot"):
        job["inputs"] = inputs
    (workdir / "job.json").write_text(json.dumps(job))
    return REFERENCES[workload](inputs, workdir)


def run_worker(workdir: Path, seconds: float, trace: bool) -> dict:
    """Run worker.py in its own process group and return its result; on a
    timeout the whole group is killed."""
    argv = [sys.executable, str(HERE / "worker.py"), str(workdir), repr(seconds), str(int(trace))]
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), start_new_session=True)
    try:
        code = proc.wait(timeout=3 * seconds + 60)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise RuntimeError("the benchmark worker did not finish in time") from None
    if code != 0:
        raise RuntimeError(f"the benchmark worker exited with code {code}")
    return json.loads((workdir / "result.json").read_text())


def judge_passes(reference, count: int, workdir: Path) -> list[Pass]:
    """Check the `count` passes the worker wrote to `workdir`. The check is a
    function of a pass's exit code and output, so a pass that repeats an
    earlier one's exactly gets that one's check."""
    passes = []
    checks = {}
    for i in range(count):
        rec = json.loads(pass_file(workdir, i).read_text())
        output = output_file(workdir, i).read_text()
        key = (rec.get("exit"), output)
        if key not in checks:
            checks[key] = reference.check(rec, output)
        check = checks[key]
        del output, key
        latencies = rec["latencies"] if len(rec["latencies"]) == reference.size else [None] * reference.size
        totals = None
        if rec["traced"]:
            totals = tracing.Totals(rec["totals"])
            records, refused = (check.ops, check.refused) if reference.through_cli else (0, 0)
            totals.count({"cli.records": records, "cli.refused": refused})
        passes.append(Pass(rec["traced"], rec["busy_ns"], latencies, check, totals))
    return passes


def measure_setup(module: str) -> float:
    """Median import time of `module` in fresh interpreters, in seconds.
    One unmeasured import first leaves the bytecode caches written."""
    code = f"import time\nt = time.perf_counter()\nimport {module}\nprint(time.perf_counter() - t)"
    argv = [sys.executable, "-c", code]
    env = child_env()
    cpus = sorted(os.sched_getaffinity(0))
    times = []
    try:
        for i in range(SETUP_RUNS + 1):
            pin_to_next_cpu(cpus, i)  # inherited by the child
            proc = subprocess.run(
                argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True
            )
            if i:
                times.append(float(proc.stdout))
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.median(times)


def _beta_cf(a: float, b: float, x: float) -> float:
    """The continued fraction of the incomplete beta function (modified
    Lentz method)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 10_000):
        even = m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m))
        odd = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))
        for num in (even, odd):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            break
    return h


def beta_cdf(x: float, a: float, b: float) -> float:
    """The regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0 or x >= 1.0:
        return 0.0 if x <= 0.0 else 1.0
    log_front = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b) + a * math.log(x) + b * math.log1p(-x)
    if x < (a + 1) / (a + b + 2):
        return math.exp(log_front) * _beta_cf(a, b, x) / a
    return 1.0 - math.exp(log_front) * _beta_cf(b, a, 1.0 - x) / b


def percentile(sorted_values, q: Fraction) -> float:
    """The Harrell-Davis estimate of the q-th percentile: a mean of all the
    order statistics, weighted by the Beta((n+1)p, (n+1)(1-p)) mass over
    their ranks. The weights concentrate at rank pn but reach its
    neighbours, so one input's noisy time moves the estimate less than it
    moves a single order statistic."""
    n = len(sorted_values)
    p = float(q) / 100
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    # Ranks more than 16 standard deviations away carry no weight.
    sd = math.sqrt(a * b / ((a + b) ** 2 * (a + b + 1)))
    lo, hi = max(0, math.floor((p - 16 * sd) * n)), min(n, math.ceil((p + 16 * sd) * n))
    cdf = [beta_cdf(i / n, a, b) for i in range(lo, hi + 1)]
    total = cdf[-1] - cdf[0]
    return sum((cdf[k + 1] - cdf[k]) * sorted_values[lo + k] for k in range(hi - lo)) / total


def tail_percentile(n: int) -> str:
    qs = [q for q in TAIL_LADDER if n * (100 - Fraction(q)) >= 1000]
    if not qs:
        raise ValueError(f"{n} latency samples are too few for a tail percentile")
    return qs[-1]


def latency_summary(passes, size: int) -> dict:
    """Throughput, p50 and tail over inputs. Every pass repeats the same
    inputs, so each input contributes one sample: the fastest of its repeats.
    Other tenants of a shared host and a slow CPU only ever add time, so the
    fastest repeat is the one least touched by them."""
    per_input = []
    for i in range(size):
        samples = [p.latencies[i] for p in passes if p.latencies[i] is not None]
        if samples:
            per_input.append(min(samples))
    per_input.sort()
    q = tail_percentile(len(per_input))
    tail = percentile(per_input, Fraction(q))
    return {
        "samples": len(per_input),
        "ops_per_s": len(per_input) / (sum(per_input) / 1e9),
        "p50_ms": percentile(per_input, Fraction(50)) / 1e6,
        "p99_ms": percentile(per_input, Fraction(99)) / 1e6,
        "tail_q": q,
        "tail_ms": tail / 1e6,
        "beyond": sum(1 for x in per_input if x > tail),
    }


def tally(passes, size: int) -> tuple[list, int, int, int]:
    """The gate's problems and the counts of attempted, failed and refused
    operations of a run. Every pass makes the same operations, so a run
    attempts each input once however many passes it makes, and `failed` is
    the count of the pass with the most failed inputs. Passes that differ in
    an exact field fail the gate on their digest."""
    checks = list({id(p.check): p.check for p in passes}.values())
    problems = [text for check in checks for text in check.problems]
    failed = max(check.failed for check in checks)
    refused = max(check.refused for check in checks)
    return problems, size, failed, refused


def metadata() -> dict:
    import czorb

    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    backend = getattr(czorb, "backend_name", None)
    sources = [p for p in (SRC / "czorb").rglob("*") if p.suffix in (".py", ".pyx")]
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "backend": backend() if backend else "missing",
        "nproc": os.cpu_count(),
        "src_loc": sum(len(p.read_text().splitlines()) for p in sources),
    }


def _metric(value, unit: str) -> dict:
    if value is None:
        return {"value": None, "unit": unit, "missing": True}
    return {"value": value, "unit": unit}


def report_e2e(reference, passes, setup_s: float, peak_rss_mib: float, workload: str) -> dict:
    lat = latency_summary(passes, reference.size)
    values = {
        "ops_per_s": lat["ops_per_s"],
        "op_p50_ms": lat["p50_ms"],
        "op_tail_ms": lat["tail_ms"],
        "setup_s": setup_s,
        "peak_rss_mib": peak_rss_mib,
    }
    rss_of = "the largest CLI child" if workload == "cli_oneshot" else "the worker process"
    notes = {
        "ops_per_s": f"{lat['samples']} inputs over the sum of their times; {len(passes)} passes of {reference.size}",
        "op_p50_ms": f"Harrell-Davis p50 of {lat['samples']} per-input times",
        "op_tail_ms": f"Harrell-Davis p{lat['tail_q']} of {lat['samples']} per-input times, {lat['beyond']} beyond;"
        f" p99 {lat['p99_ms']:.6g} ms",
        "setup_s": f"median of {SETUP_RUNS} fresh-interpreter imports of {reference.entry_module}",
        "peak_rss_mib": f"ru_maxrss of {rss_of}",
    }
    for name, value in values.items():
        print(f"{name:<14} {value:<12.6g} {E2E_UNITS[name]:<4} {notes[name]}")
    return {name: _metric(value, E2E_UNITS[name]) for name, value in values.items()}


def report_layers(passes) -> dict:
    traced = [p for p in passes if p.traced]
    untraced = [p for p in passes if not p.traced]
    totals = tracing.Totals()
    for p in traced:
        totals.add(p.totals)
    missing = tracing.Tracer().missing
    for point in missing:
        print(f"missing patch point {point}")
    metrics = {}
    for name, (value, unit) in tracing.layer_metrics(totals, len(traced), missing).items():
        metrics[name] = _metric(value, unit)
    quads = totals.counters.get("quadratures", 0)
    print(f"numeric_verify.ok_ratio base: {quads / len(traced):g} quadratures per pass")
    overhead = statistics.median(t.busy_ns / u.busy_ns for t, u in zip(traced, untraced))
    metrics["trace.overhead_ratio"] = _metric(overhead, "ratio")
    for name, metric in metrics.items():
        value = "missing" if metric["value"] is None else f"{metric['value']:.6g}"
        print(f"{name:<38} {value:<14} {metric['unit']}")
    return metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "czorb" / "__init__.py").is_file():
        print(f"perfbench: no czorb package under {SRC}; run from a czorb checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import czorb

    if Path(czorb.__file__).resolve().parent != SRC / "czorb":
        print(f"perfbench: imported czorb from {czorb.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"meta {json.dumps(metadata(), sort_keys=True)}")
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="perfbench-", dir=WORK_ROOT))
    try:
        reference = prepare(args.workload, args.seed, workdir)
        setup_s = None if args.trace else measure_setup(reference.entry_module)
        result = run_worker(workdir, args.seconds, bool(args.trace))
        passes = judge_passes(reference, result["passes"], workdir)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems, attempted, failed, refused = tally(passes, reference.size)
    if args.trace:
        metrics = report_layers(passes)
    else:
        metrics = report_e2e(reference, passes, setup_s, result["peak_rss_mib"], args.workload)
    print(f"failed_ratio   {failed / attempted:<12.6g} {'':<4} {failed} failed / {attempted} attempted")
    print(f"refused        {refused:<12} {'':<4} typed refusals, not failures")
    if problems:
        print(f"gate           FAILED: {len(problems)} problems", file=sys.stderr)
        for text in problems[:MAX_PROBLEMS_SHOWN]:
            print(f"  {text}", file=sys.stderr)
    else:
        print(f"gate           ok: every pass matched reference digest {reference.expected_digest[:16]}")
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
