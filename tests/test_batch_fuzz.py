"""Fuzz `czorb batch` with random, huge and oddly nested records.

Each example writes a batch file of random lines: records of every kind
whose fields hold values of the right shape or of any JSON shape, arbitrary
JSON values, and text that is not JSON. The batch must answer every line
with one JSON object, in order, within a wall-clock bound, and report no
internal error.

Integers stay within 10**50 and lists within 8 entries. So the known slow
input, a Brieskorn vector of about a hundred exponents of thousands of
digits whose lcm scans take seconds (ROADMAP item 3.6), is out of reach;
the work budget bounds every other record.
"""

import contextlib
import io
import json
import os
import tempfile
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from czorb.cli import EXIT_INTERNAL, OPERATIONS, main

HUGE = 10**50
WALL_CLOCK_S = 20.0

FIELDS = sorted({field.name for op in OPERATIONS for field in op.fields})

leaves = (
    st.none()
    | st.booleans()
    | st.integers(-HUGE, HUGE)
    | st.integers(-3, 60)
    | st.floats()
    | st.text(max_size=8)
    | st.sampled_from(["7/2", "1/0", "-3/4", "2", "x/y", "1e400"])
)
keys = st.sampled_from(FIELDS) | st.text(max_size=3)
json_values = st.recursive(
    leaves,
    lambda inner: st.lists(inner, max_size=8) | st.dictionaries(keys, inner, max_size=8),
    max_leaves=12,
)
int_lists = st.lists(st.integers(-3, 60), max_size=8) | st.lists(st.integers(-HUGE, HUGE), max_size=8)
field_values = st.integers(-3, 60) | int_lists | json_values

records = st.fixed_dictionaries(
    {
        "kind": st.sampled_from(sorted({op.kind for op in OPERATIONS})) | json_values,
    },
    optional={
        "id": json_values,
        "check": st.sampled_from(["winding", "lemma42", "scalar-cz"]) | json_values,
        **{name: field_values for name in FIELDS},
    },
)
windings = st.fixed_dictionaries(
    {
        "kind": st.just("verify"),
        "check": st.just("winding"),
        "rates": st.lists(st.integers(-100, 100), min_size=1, max_size=8) | int_lists,
    },
)
not_json = st.text(st.characters(min_codepoint=0x21, max_codepoint=0x7E), min_size=1, max_size=40)
lines = st.lists(
    records.map(json.dumps) | windings.map(json.dumps) | json_values.map(json.dumps) | not_json,
    min_size=1,
    max_size=10,
)


def not_json_constant(token):
    # NaN, Infinity and -Infinity are not JSON; an answer must not hold them.
    raise ValueError(f"answer holds {token}, which is not JSON")


@pytest.fixture(autouse=True)
def _default_eval_budget(monkeypatch):
    monkeypatch.delenv("CZORB_EVAL_BUDGET", raising=False)


@given(lines)
@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_batch_answers_every_line_with_one_json_object(batch):
    fd, path = tempfile.mkstemp(suffix=".ndjson")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write("\n".join(batch) + "\n")
        out, err = io.StringIO(), io.StringIO()
        start = time.monotonic()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["batch", path, "--json"])
        elapsed = time.monotonic() - start
    finally:
        os.unlink(path)
    assert elapsed < WALL_CLOCK_S
    answers = [json.loads(text, parse_constant=not_json_constant) for text in out.getvalue().splitlines()]
    assert len(answers) == len(batch)
    for line, answer in zip(batch, answers):
        assert isinstance(answer, dict)
        assert answer["status"] in ("ok", "error")
        assert answer.get("error", {}).get("type") != "internal", (line, answer)
    assert code != EXIT_INTERNAL, err.getvalue()
