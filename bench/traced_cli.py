"""``python -m switchstab.cli`` with the tracer installed.

Usage: ``BENCH_TRACE_OUT=trace.json python traced_cli.py ARGS...``. Runs
the command line like the module does and writes the tracer's snapshot,
with the time the package import took, to ``BENCH_TRACE_OUT``.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

from tracer import Tracer


def main() -> int:
    t0 = time.perf_counter()
    import switchstab.cli as cli

    import_s = time.perf_counter() - t0
    tracer = Tracer().install()
    try:
        code = cli.main(sys.argv[1:])
    finally:
        snapshot = tracer.snapshot()
        snapshot["import_s"] = import_s
        Path(os.environ["BENCH_TRACE_OUT"]).write_text(json.dumps(snapshot), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
