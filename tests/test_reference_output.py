"""Golden output of the CLI on a fixed set of inputs.

`data/reference.ndjson` holds batch records of every kind and check, and
every error type. `data/reference.json.out` and `data/reference.human.out`
are its `czorb batch` output with and without `--json`;
`data/reference_argv.txt` is a transcript of argv calls, each with its
stdout, the last line of its stderr (after `! `) and its exit code. The
expected bytes are the same on Python 3.10 to 3.13, so no call here may
print a usage line, which argparse words differently by version.
"""

import shlex
from pathlib import Path

import pytest

from czorb.cli import main

DATA = Path(__file__).parent / "data"


@pytest.fixture(autouse=True)
def _default_eval_budget(monkeypatch):
    monkeypatch.delenv("CZORB_EVAL_BUDGET", raising=False)


@pytest.mark.parametrize("flags, expected", [(["--json"], "reference.json.out"), ([], "reference.human.out")])
def test_reference_batch_output(capsys, flags, expected):
    code = main(["batch", str(DATA / "reference.ndjson"), *flags])
    assert capsys.readouterr().out == (DATA / expected).read_text()
    assert code == 4


def _transcript():
    for block in (DATA / "reference_argv.txt").read_text().split("$ czorb ")[1:]:
        command, _, rest = block.partition("\n")
        body, _, code = rest.rpartition("[exit ")
        lines = body.splitlines(keepends=True)
        last_err = lines.pop()[2:].rstrip("\n") if lines and lines[-1].startswith("! ") else ""
        yield command, "".join(lines), last_err, int(code.rstrip().rstrip("]"))


def test_reference_argv_transcript(capsys):
    calls = list(_transcript())
    assert len(calls) == 43
    for command, stdout, last_err, code in calls:
        got_code = main(shlex.split(command))
        captured = capsys.readouterr()
        err_lines = captured.err.splitlines()
        assert (captured.out, err_lines[-1] if err_lines else "", got_code) == (
            stdout,
            last_err,
            code,
        ), command
