"""Run one dumpwatch CLI stage in-process with span tracing.

    python3 perfbench/traced_cli.py SPANS_JSON STAGE [CLI ARGS...]

Calls ``dumpwatch.cli.main`` with the stage arguments, keeps the spans in
memory, writes them to SPANS_JSON when the stage returns, and exits with
the stage's exit code.
"""

from __future__ import annotations

import sys
from pathlib import Path

# the CLI pins the BLAS pools on import, so it loads before anything numpy
from dumpwatch import cli  # noqa: E402

import spans  # noqa: E402


def main() -> int:
    out, argv = Path(sys.argv[1]), sys.argv[2:]
    tracer = spans.Tracer()
    spans.install(tracer)
    code = tracer.call(f"cli.{argv[0]}", cli.main, argv)
    tracer.dump(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
