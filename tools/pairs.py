"""Before/after pairs of the declared benchmark workloads, parent against change.

    python3 tools/pairs.py PARENT [--pairs 10] [--seconds 10] [--seed 1] [--out PAIRS.json]

PARENT is a second checkout of the parent commit, for example a
`git worktree` or a `git archive` copy outside this one. Each side runs its
own `perfbench/run.py --workload W --seed SEED --seconds SECONDS --trace 0`,
with the side's checkout as the working directory, so each side measures
its own sources with its own benchmark.

A pair runs every workload that `BENCHMARK.json` declares, in turn, once
on each side. The first side alternates: the parent runs first in odd
pairs and the change runs first in even pairs, so a drift of the host's
speed falls on both sides alike.

For each workload and each end-to-end metric the report gives the median of
each side, the interquartile range (IQR) of the parent's runs, the number of
pairs in which the change is better, and two readings. The first is
"better" when the medians differ by more than the parent's IQR and the
change is better in at least nine tenths of the pairs, "worse" when they
differ by more than the IQR the other way, else "unresolved" (always so with
fewer than two pairs, which have no IQR). The second applies the metric's
`bound` from `BENCHMARK.json`, the share by which the change median may be
worse than the parent median: "within" or "beyond" it, or "unresolved" when
there is no IQR, or when the parent's IQR exceeds the bound (as a share of
its median) and not every change run beats every parent run. A workload
whose two sides report different gate digests gets a warning on stderr.
The table goes to stdout; with `--out` the report is also written as JSON,
the object that `tools/scaling.py --pairs` copies into a BENCH file.

After the pairs, an import reading stands next to `setup_s`: for each
side, the median child CPU time (user + sys) of 21 runs of
`python -S -c "import czorb.cli"`, the sides interleaved, each in the
environment that perfbench/worker.py's child_env builds for that side's
`src/`. It counts the CPU an import takes, not how the host schedules it;
it is printed and written to `--out` as "import_cpu_ms".

The exit code is 1 if any run exits nonzero or counts a failed operation,
else 0; neither reading sets it. Uses only the standard library; imports no
czorb code and writes nothing under either checkout's perfbench/ (run.py
keeps its own work files in `.bench_build/`).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
DIGEST = re.compile(r"reference digest ([0-9a-f]+)")
IMPORT_RUNS = 21


def benchmark(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One run of a workload on one checkout: its metric values, failed
    count, gate digest, metadata and exit code."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", f"{seconds:g}", "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    try:
        last = json.loads(lines[-1])
    except (IndexError, ValueError):
        last = {"failed": None, "metrics": {}}
    meta = next((json.loads(line[5:]) for line in lines if line.startswith("meta {")), {})
    digest = next((m.group(1) for m in map(DIGEST.search, lines) if m), None)
    if proc.returncode:
        print(f"pairs: {workload} on {checkout} exited {proc.returncode}\n{proc.stderr}", file=sys.stderr)
    return {
        "code": proc.returncode,
        "failed": last["failed"],
        "digest": digest,
        "meta": meta,
        "values": {name: metric["value"] for name, metric in last["metrics"].items()},
    }


def import_cpu_ms(checkouts: dict) -> dict:
    """Each side's median child CPU time (user + sys), in ms, of IMPORT_RUNS
    interleaved imports of czorb.cli from its own src/ in a fresh interpreter."""
    times = {side: [] for side in SIDES}
    for i in range(IMPORT_RUNS):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            env = dict(os.environ, PYTHONPATH=str(checkouts[side] / "src"))  # as perfbench's child_env
            env.pop("CZORB_EVAL_BUDGET", None)
            before = resource.getrusage(resource.RUSAGE_CHILDREN)
            subprocess.run([sys.executable, "-S", "-c", "import czorb.cli"], cwd=checkouts[side], env=env, check=True)
            after = resource.getrusage(resource.RUSAGE_CHILDREN)
            times[side].append(after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime)
    return {side: round(statistics.median(times[side]) * 1e3, 2) for side in SIDES}


def reading(parent: list[float], change: list[float], higher_is_better: bool, bound: float) -> dict:
    """Medians, parent IQR, better pairs, the reading and the bound of one metric."""
    sign = 1 if higher_is_better else -1
    parent_median, change_median = statistics.median(parent), statistics.median(change)
    gap = sign * (change_median - parent_median)
    better_pairs = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    iqr = None
    verdict = "unresolved"
    if len(parent) >= 2:
        q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive")
        iqr = q3 - q1
        if gap < -iqr:
            verdict = "worse"
        elif gap > iqr and better_pairs >= 0.9 * len(parent):
            verdict = "better"
    within = "beyond" if -gap > bound * abs(parent_median) else "within"
    separated = all(sign * (c - p) > 0 for c in change for p in parent)
    if iqr is None or (iqr > bound * abs(parent_median) and not separated):
        within = "unresolved"
    return {
        "parent_median": round(parent_median, 5),
        "change_median": round(change_median, 5),
        "change_better_pairs": better_pairs,
        "parent_iqr": None if iqr is None else round(iqr, 5),
        "change_vs_parent": f"{(change_median / parent_median - 1) * 100:+.1f}%" if parent_median else None,
        "reading": verdict,
        "bound": bound,
        "bound_reading": within,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="a checkout of the parent commit")
    parser.add_argument("--pairs", type=int, default=10, help="number of pairs (default 10)")
    parser.add_argument("--seconds", type=float, default=10.0, help="run.py --seconds of each run (default 10)")
    parser.add_argument("--seed", type=int, default=1, help="run.py --seed of each run (default 1)")
    parser.add_argument("--out", type=Path, help="also write the report here as JSON")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    if not (args.parent / "perfbench" / "run.py").is_file():
        parser.error(f"{args.parent} holds no perfbench/run.py")

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in declared["workloads"]]
    metrics = {m["name"]: (m["better"] == "higher", m["bound"]) for m in declared["end_to_end"]}
    checkouts = {"parent": args.parent.resolve(), "change": ROOT}
    runs = {w: {side: [] for side in SIDES} for w in workloads}
    for i in range(args.pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for w in workloads:
            for side in order:
                runs[w][side].append(benchmark(checkouts[side], w, args.seed, args.seconds))
            print(f"pair {i + 1}/{args.pairs} {w} done", file=sys.stderr)

    def meta(side: str) -> dict:
        first = runs[workloads[0]][side][0]["meta"]
        return {key: first.get(key) for key in ("git_sha", "src_loc")}

    report = {
        "command": f"python3 perfbench/run.py --workload W --seed {args.seed} --seconds {args.seconds:g} --trace 0"
        " in each checkout; in each pair every declared workload runs in turn, once on each side, and the first"
        " side alternates: parent first in odd pairs, change first in even pairs",
        "host": f"{os.cpu_count()}-CPU {platform.system()}, {platform.python_implementation()}"
        f" {platform.python_version()}",
        "reading": "better when the gap between the medians exceeds the parent's IQR and the change is better in"
        " at least nine tenths of the pairs, worse when it exceeds the IQR the other way, else unresolved; bound_reading:"
        " within or beyond BENCHMARK.json's bound on how much worse the change median may be, unresolved with"
        " fewer than two pairs or when the parent's IQR is wider than the bound and the two sides' runs overlap",
        "parent": meta("parent"),
        "change": meta("change"),
        "workloads": {},
    }
    bad = False
    for w in workloads:
        both = runs[w]["parent"] + runs[w]["change"]
        bad |= any(r["code"] or r["failed"] != 0 for r in both)
        entry = {
            "pairs": args.pairs,
            "digests": sorted({r["digest"] for r in both}, key=str),
            "failed": sorted({r["failed"] for r in both}, key=str),
        }
        digests = {side: sorted({r["digest"] for r in runs[w][side]}, key=str) for side in SIDES}
        if digests["parent"] != digests["change"]:
            print(f"pairs: warning: {w} gate digests differ: parent {digests['parent']},"
                  f" change {digests['change']}", file=sys.stderr)
        for name, (is_higher, bound) in metrics.items():
            values = {side: [r["values"].get(name) for r in runs[w][side]] for side in SIDES}
            if all(v is not None for side in SIDES for v in values[side]):
                entry[name] = reading(values["parent"], values["change"], is_higher, bound)
        report["workloads"][w] = entry
    report["import_cpu_ms"] = import_cpu_ms(checkouts) | {
        "command": f'python -S -c "import czorb.cli", {IMPORT_RUNS} runs per side, the sides interleaved;'
        " the median of each side's child CPU time (user + sys, RUSAGE_CHILDREN) in ms",
    }

    print(f"{'workload':<14} {'metric':<13} {'parent':>12} {'change':>12} {'change':>8} {'parent IQR':>11}"
          f" {'better':>7}  {'reading':<10} bound")
    for w, entry in report["workloads"].items():
        for name in metrics:
            if name in entry:
                m = entry[name]
                iqr = "-" if m["parent_iqr"] is None else f"{m['parent_iqr']:.6g}"
                print(f"{w:<14} {name:<13} {m['parent_median']:>12.6g} {m['change_median']:>12.6g}"
                      f" {m['change_vs_parent'] or '-':>8} {iqr:>11} {m['change_better_pairs']:>3}/{args.pairs:<3}"
                      f"  {m['reading']:<10} {m['bound_reading']} {m['bound']:.0%}")
        print(f"{w:<14} digests {', '.join(map(str, entry['digests']))}; failed {entry['failed']}")
    cpu = report["import_cpu_ms"]
    print(f"import czorb.cli child CPU, median of {IMPORT_RUNS}: parent {cpu['parent']} ms, change {cpu['change']} ms")
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
