"""One traced `actool` process for the `cli-corpus` workload.

    python3 perfbench/child.py SPANS_FILE OP_ID ARGV...

Runs `actool.cli.run(ARGV)` with the tracer installed and writes the op's
spans to SPANS_FILE as JSON; exits with the CLI's exit code.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import actool.cli as cli

import tracing


def main() -> int:
    spans_file, op_id, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    tracer = tracing.Tracer()
    tracer.install(cli)
    try:
        with tracer.op(op_id, argv[0]):
            return cli.run(argv)
    finally:
        Path(spans_file).write_text(json.dumps(tracer.spans), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
