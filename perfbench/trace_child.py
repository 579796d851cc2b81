"""One traced czorb CLI call, for the cli_oneshot workload.

    PYTHONPATH=src python3 perfbench/trace_child.py TRACE_OUT ARGV...

Imports czorb.cli, installs the benchmark's spans, runs czorb.cli.main(ARGV)
and writes the folded span totals to TRACE_OUT as JSON. The exit code is the
CLI's own.
"""

import json
import sys
from pathlib import Path

import tracer as tracing


def main() -> int:
    out_path, argv = Path(sys.argv[1]), sys.argv[2:]
    import czorb.cli

    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = czorb.cli.main(argv)
    finally:
        tracer.uninstall()
    sys.stdout.flush()
    out_path.write_text(json.dumps(tracer.fold().to_json()))
    return code


if __name__ == "__main__":
    sys.exit(main())
