"""Tests of the benchmark itself: seeded inputs, the correctness gate and the
span arithmetic. Run with `python3 -m pytest perfbench/tests -q` from the
repository root."""

import json
import time
import tracemalloc
from fractions import Fraction

import pytest

import model
import run
import tracer as tracing
import worker
import workloads


@pytest.mark.parametrize("name", workloads.WORKLOAD_NAMES)
def test_same_seed_gives_byte_identical_inputs(name):
    generate = workloads.GENERATORS[name]
    assert workloads.serialize(generate(7)) == workloads.serialize(generate(7))
    assert workloads.serialize(generate(7)) != workloads.serialize(generate(8))


def test_inputs_stay_clear_of_the_hanging_cases():
    for seed in (1, 2):
        for rec in workloads.batch_mixed(seed) + workloads.batch_oracles(seed):
            if isinstance(rec, str) or rec.get("kind") != "verify":
                continue
            if rec["check"] == "scalar-cz":
                T = rec["T"]
                T = Fraction(T["num"], T["den"]) if isinstance(T, dict) else Fraction(T)
                assert T <= workloads.MAX_T < 10**6
            if rec["check"] == "winding":
                assert max(rec["rates"]) <= workloads.MAX_RATE < 10**20
        for op in workloads.library_wide(seed):
            if op["op"] == "brieskorn":
                assert max(op["exponents"]) <= workloads.MAX_PRIME**2 < 10**12


def _small_batch(tmp_path, traced=False):
    records = workloads.batch_mixed(3)[:400] + workloads.batch_oracles(3)[:40]
    reference = run.BatchReference(records, tmp_path)
    record, output = worker.BatchWorker(tmp_path).run_pass(traced)
    return reference, record, output


def test_gate_passes_on_the_real_output(tmp_path):
    reference, record, output = _small_batch(tmp_path)
    check = reference.check(record, output)
    assert check.problems == []
    assert check.digest == reference.expected_digest
    assert check.ops == 440
    assert check.refused > 0
    assert len(record["latencies"]) == 440 and record["latencies"][0] is None


def _corrupt_first_index(lines):
    for i, line in enumerate(lines):
        out = json.loads(line)
        if out["status"] == "ok" and "index" in out["result"]:
            out["result"]["index"] += 1
            return lines[:i] + [json.dumps(out)] + lines[i + 1 :]
    raise AssertionError("no index in the batch output")


def test_gate_fails_when_one_index_is_corrupted(tmp_path):
    reference, record, output = _small_batch(tmp_path)
    corrupted = "\n".join(_corrupt_first_index(output.splitlines()))
    check = reference.check(record, corrupted)
    assert check.failed >= 1
    assert any("differs from the reference" in p for p in check.problems)
    assert any("got" in p for p in check.problems)


def test_wrong_verdict_is_a_failed_op_not_a_gate_failure():
    line = json.dumps({"id": "q", "kind": "verify", "check": "lemma42", "w0": 2, "w1": 3})
    expected, spec = model.expect_batch_record(line)
    result = {"check": "lemma42", "w0": 2, "w1": 3, "tol": 1e-8, "expected": {"num": -1, "den": 2}}
    good = {"value": -0.5, "error_estimate": 1e-12, "evaluations": 101, "ok": True}
    for numeric, failed in ((good, 0), (dict(good, value=-0.49, ok=False), 1), (dict(good, value=-0.49), 1)):
        out = {"id": "q", "kind": "verify", "status": "ok", "result": {**result, **numeric}}
        proj, got_numeric = model.project_batch_line(json.dumps(out))
        check = run.Check(ops=1)
        run._judge_op(check, "record 1", proj, model.canonical(expected), spec, got_numeric)
        assert (check.failed, check.problems) == (failed, [])


def test_self_time_subtracts_what_children_cover():
    spans = [
        (0, 100, -1),  # root
        (10, 40, 0),  # child of root
        (20, 30, 1),  # grandchild
        (50, 70, 0),  # second child
    ]
    assert tracing.self_times(spans) == [100 - 30 - 20, 30 - 10, 10, 20]


def test_self_time_counts_overlapping_children_once_and_clips_them():
    spans = [(0, 100, -1), (10, 60, 0), (50, 80, 0), (90, 120, 0)]
    assert tracing.self_times(spans)[0] == 100 - 70 - 10
    assert tracing.covered_ns([(5, 8), (1, 3), (2, 6)], 0, 10) == 7


def test_traced_batch_records_spans_and_restores_the_originals(tmp_path):
    import czorb.cli

    original = czorb.cli.chart_integral
    reference, record, output = _small_batch(tmp_path, traced=True)
    assert czorb.cli.chart_integral is original
    record["traced"] = True
    worker.pass_file(tmp_path, 0).write_text(json.dumps(record))
    worker.output_file(tmp_path, 0).write_text(output)
    (pass_,) = run.judge_passes(reference, 1, tmp_path)
    assert pass_.check.problems == []
    metrics = tracing.layer_metrics(pass_.totals, 1, [])
    assert metrics["cli.records"][0] == 440
    assert metrics["cli.dumps_calls"][0] == 440
    assert metrics["numeric_verify.chart_integral_calls"][0] > 0
    assert metrics["cz_paths.crossings"][0] > 0
    assert 0 < metrics["cli.self_ms"][0] < pass_.busy_ns / 1e6


def test_missing_patch_point_reads_missing_not_zero():
    points = tracing.PATCH_POINTS + (("czorb.spaces", "no_such_function", "exact_arith"),)
    tracer = tracing.Tracer(points)
    assert tracer.missing == ["czorb.spaces.no_such_function"]
    metrics = tracing.layer_metrics(tracing.Totals(), 1, tracer.missing)
    assert metrics["exact_arith.factorize_ms"][0] is not None
    metrics = tracing.layer_metrics(tracing.Totals(), 1, ["czorb.spaces.factorize"])
    assert metrics["exact_arith.factorize_ms"][0] is None
    assert metrics["exact_arith.factorize_calls"][0] is None
    assert metrics["exact_arith.ord_p_ms"][0] == 0
    metrics = tracing.layer_metrics(tracing.Totals(), 1, ["czorb.cli.mu_principal"])
    assert metrics["cz_indices.calls"][0] is None  # a layer total lost one of its sources
    assert metrics["cz_indices.self_ms"][0] is None
    assert metrics["cli.dumps_ms"][0] == 0


def test_benchmark_json_lists_every_reported_metric():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    per_layer = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    expected = {name: (unit, better) for name, (unit, better, _, _) in tracing.LAYER_METRICS.items()}
    expected["trace.overhead_ratio"] = ("ratio", "lower")
    assert per_layer == expected
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.DECLARED_WORKLOADS)


def test_counts_do_not_depend_on_the_number_of_passes(tmp_path):
    reference, record, output = _small_batch(tmp_path)
    for i in range(3):
        worker.pass_file(tmp_path, i).write_text(json.dumps(dict(record, traced=False)))
        worker.output_file(tmp_path, i).write_text(output)
    one = run.tally(run.judge_passes(reference, 1, tmp_path), reference.size)
    three = run.judge_passes(reference, 3, tmp_path)
    assert three[0].check is three[2].check  # identical output, judged once
    assert run.tally(three, reference.size) == one
    assert one[1] == 440 and one[2] > 0  # the seed's false lemma42 verdicts


def test_each_input_takes_its_fastest_repeat_and_the_tail_its_percentile():
    def pass_(latencies):
        return run.Pass(False, sum(x or 0 for x in latencies), latencies, run.Check())

    passes = [pass_([None] + [10_000 + i for i in range(40)]), pass_([None] + [90_000] * 40)]
    lat = run.latency_summary(passes, 41)
    assert lat["samples"] == 40 and lat["tail_q"] == "75"
    assert lat["p50_ms"] == pytest.approx(0.0100195)
    assert lat["ops_per_s"] == pytest.approx(40 / (sum(range(10_000, 10_040)) / 1e9))
    assert run.tail_percentile(40) == "75" and run.tail_percentile(19999) == "99.9"


def test_percentiles_are_harrell_davis_estimates():
    assert run.beta_cdf(0.3, 1, 1) == pytest.approx(0.3)
    assert run.beta_cdf(0.3, 4, 1) == pytest.approx(0.3**4)
    assert run.beta_cdf(0.3, 1, 3) == pytest.approx(1 - 0.7**3)
    # n = 3, p = 1/2: the ranks weigh I(1/3; 2, 2) = 7/27, 13/27 and 7/27
    assert run.percentile([0, 0, 27], Fraction(50)) == pytest.approx(7)
    assert run.percentile(list(range(101)), Fraction(50)) == pytest.approx(50)
    assert run.percentile(list(range(1001)), Fraction("99.5")) == pytest.approx(995, abs=0.5)


class _LargePasses:
    """A worker whose every pass leaves a large record, as a long batch does."""

    def run_pass(self, traced):
        time.sleep(0.01)
        return {"latencies": list(range(100_000, 110_000))}, "x" * 10_000


def _passes_and_peak_bytes(workdir, seconds):
    tracemalloc.start()
    try:
        count = worker.run_passes(_LargePasses(), workdir, seconds, False)
        return count, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_worker_memory_does_not_grow_with_the_number_of_passes(tmp_path):
    few, few_peak = _passes_and_peak_bytes(tmp_path, 0.001)
    many, many_peak = _passes_and_peak_bytes(tmp_path, 1.0)
    assert few == 1 and many >= 10
    assert many_peak < 1.5 * few_peak
    assert json.loads(worker.pass_file(tmp_path, many - 1).read_text())["latencies"][0] == 100_000
