"""The measuring process of the benchmark.

    python3 perfbench/worker.py WORKDIR SECONDS TRACE

run.py writes the workload's inputs to WORKDIR/job.json and starts this
process, which imports czorb from the checkout's `src/`, runs full passes over
the inputs for about SECONDS seconds and writes what czorb printed and how
long each input took to WORKDIR, pass by pass, as soon as each pass ends.
Judging and statistics happen in run.py, so this process holds only czorb,
the inputs and the pass in progress, and its ru_maxrss is czorb's whatever
the number of passes. With TRACE 1, untraced and traced passes alternate.
Successive passes (or untraced/traced pairs) run on successive CPUs of the
process's affinity set.
"""

from __future__ import annotations

import gc
import itertools
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import model
import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WARM_UP_INPUTS = 20
CHILD_TIMEOUT_S = 120


def pin_to_next_cpu(cpus: list, i: int) -> None:
    """Run on the i-th of `cpus`, round robin. On a shared host the vCPUs
    can run at very different speeds for many seconds, and a single-threaded
    process tends to stay on one of them; cycling makes every run sample
    each CPU alike instead of measuring whichever one it landed on."""
    if len(cpus) > 1:
        os.sched_setaffinity(0, {cpus[i % len(cpus)]})


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("CZORB_EVAL_BUDGET", None)
    return env


class StampedWriter:
    """Stand-in for sys.stdout that records when each line ends."""

    def __init__(self):
        self.parts = []
        self.stamps = []

    def write(self, text: str) -> int:
        self.parts.append(text)
        if "\n" in text:
            now = time.perf_counter_ns()
            self.stamps.extend([now] * text.count("\n"))
        return len(text)

    def flush(self) -> None:
        pass


class BatchWorker:
    """`czorb batch FILE --json` through czorb.cli.main, one call per pass.

    A record's latency is the gap between its output line and the previous
    one. The first line of a pass also carries argparse and file-open cost,
    so it gives no latency sample."""

    def __init__(self, workdir: Path):
        import czorb.cli

        self.cli = czorb.cli
        self.path = workdir / "batch.ndjson"
        self.warm_path = workdir / "warm.ndjson"

    def run_pass(self, traced: bool, warm_up: bool = False) -> tuple[dict, str]:
        tracer = tracing.Tracer() if traced else None
        writer = StampedWriter()
        gc.collect()
        saved = sys.stdout
        if tracer:
            tracer.install()
        sys.stdout = writer
        start = time.perf_counter_ns()
        try:
            code = self.cli.main(["batch", str(self.warm_path if warm_up else self.path), "--json"])
        finally:
            end = time.perf_counter_ns()
            sys.stdout = saved
            if tracer:
                tracer.uninstall()
        stamps = writer.stamps
        latencies = [None] + [b - a for a, b in zip(stamps, stamps[1:])]
        record = {"busy_ns": end - start, "latencies": latencies, "exit": code}
        if tracer:
            record["totals"] = tracer.fold().to_json()
        return record, "".join(writer.parts)


def call_library(czorb, op: dict):
    """One library_wide operation, through the names the README documents."""
    if op["op"] == "invariants":
        return czorb.invariants(czorb.make_weight_vector(op["weights"]))
    if op["op"] == "brieskorn":
        be = czorb.make_brieskorn_exponents(op["exponents"])
        principal = czorb.mu_principal_brieskorn(be)
        try:
            orbit = czorb.mu_orbit_brieskorn(be, op["support"], op["allow_extrapolation"])
        except czorb.CzorbError as exc:
            orbit = exc
        return be, principal, orbit
    return czorb.mu_orbit_wps(op["weights"], op["support"], op["allow_extrapolation"])


class LibraryWorker:
    """Direct library calls, each timed on its own. Each outcome is reduced
    to its canonical projection at once, outside the timed call, so no
    result outlives its call."""

    def __init__(self, workdir: Path):
        import czorb

        self.czorb = czorb
        self.ops = json.loads((workdir / "job.json").read_text())["inputs"]

    def run_pass(self, traced: bool, warm_up: bool = False) -> tuple[dict, str]:
        ops = self.ops[:WARM_UP_INPUTS] if warm_up else self.ops
        tracer = tracing.Tracer() if traced else None
        projections, latencies = [], []
        clock = time.perf_counter_ns
        gc.collect()
        if tracer:
            tracer.install()
        try:
            for op in ops:
                start = clock()
                try:
                    outcome = call_library(self.czorb, op)
                except Exception as exc:  # recorded, and judged by run.py
                    outcome = exc
                latencies.append(clock() - start)
                projections.append(model.canonical(model.project_library_outcome(op, outcome)))
        finally:
            if tracer:
                tracer.uninstall()
        record = {"busy_ns": sum(latencies), "latencies": latencies}
        if tracer:
            record["totals"] = tracer.fold().to_json()
        return record, "\n".join(projections)


class CliWorker:
    """Sequential fresh-interpreter runs of `python -m czorb.cli ...`.

    Traced calls run perfbench/trace_child.py instead, which imports
    czorb.cli, installs the spans and calls czorb.cli.main with the same
    argv."""

    def __init__(self, workdir: Path):
        self.specs = json.loads((workdir / "job.json").read_text())["inputs"]
        self.trace_file = workdir / "trace.json"
        self.env = child_env()

    def run_pass(self, traced: bool, warm_up: bool = False) -> tuple[dict, str]:
        specs = self.specs[:1] if warm_up else self.specs
        calls, latencies = [], []
        totals = tracing.Totals()
        for spec in specs:
            if traced:
                argv = [sys.executable, str(HERE / "trace_child.py"), str(self.trace_file)]
            else:
                argv = [sys.executable, "-m", "czorb.cli"]
            argv += workloads.cli_argv(spec)
            start = time.perf_counter_ns()
            proc = subprocess.run(
                argv, cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
            )
            latencies.append(time.perf_counter_ns() - start)
            calls.append({"exit": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr[-300:]})
            if traced:
                totals.add(tracing.Totals(json.loads(self.trace_file.read_text())))
        record = {"busy_ns": sum(latencies), "latencies": latencies}
        if traced:
            record["totals"] = totals.to_json()
        return record, json.dumps(calls)


WORKERS = {
    "batch_mixed": BatchWorker,
    "batch_oracles": BatchWorker,
    "library_wide": LibraryWorker,
    "cli_oneshot": CliWorker,
}


def pass_file(workdir: Path, i: int) -> Path:
    return workdir / f"pass-{i}.json"


def output_file(workdir: Path, i: int) -> Path:
    return workdir / f"out-{i}.txt"


def run_passes(worker, workdir: Path, seconds: float, trace: bool) -> int:
    """Repeat passes until the next group would end after `seconds`, and
    return their number. Each pass's record and output go to WORKDIR before
    the next pass starts, so memory holds at most the pass in progress."""
    cpus = sorted(os.sched_getaffinity(0))
    count = 0
    start = time.perf_counter()
    try:
        for group in itertools.count():
            pin_to_next_cpu(cpus, group)
            group_start = time.perf_counter()
            for traced in (False, True) if trace else (False,):
                record, output = worker.run_pass(traced)
                record["traced"] = traced
                pass_file(workdir, count).write_text(json.dumps(record))
                output_file(workdir, count).write_text(output)
                del record, output
                count += 1
            now = time.perf_counter()
            if now - start + (now - group_start) > seconds:
                return count
    finally:
        os.sched_setaffinity(0, cpus)


def main() -> int:
    workdir, seconds, trace = Path(sys.argv[1]), float(sys.argv[2]), sys.argv[3] == "1"
    workload = json.loads((workdir / "job.json").read_text())["workload"]
    sys.path.insert(0, str(SRC))
    worker = WORKERS[workload](workdir)
    # The collector then skips the inputs and the worker's own objects.
    gc.collect()
    gc.freeze()
    worker.run_pass(traced=False, warm_up=True)
    count = run_passes(worker, workdir, seconds, trace)
    who = resource.RUSAGE_CHILDREN if workload == "cli_oneshot" else resource.RUSAGE_SELF
    result = {"passes": count, "peak_rss_mib": resource.getrusage(who).ru_maxrss / 1024.0}
    (workdir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
