"""Traced stand-in for ``python -m qsysid``, run as a fresh process.

Usage: python3 perfbench/cli_shim.py TRACE_JSON SUBCOMMAND [ARG...]

Times ``import qsysid``, wraps the public functions of every layer
(``serialize`` and the ``cmd_*`` handlers included), runs
``qsysid.cli.main`` on the remaining arguments and, on the way out, writes
the import time, counters and spans to TRACE_JSON. Exits with the code
``main`` returned, like the real entry point.
"""

import sys
import time

_t0 = time.perf_counter()
import qsysid.cli  # noqa: E402

IMPORT_S = time.perf_counter() - _t0

import json  # noqa: E402

from spans import Tracer  # noqa: E402

CHILD_SPAN_CAP = 2000


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer(span_cap=CHILD_SPAN_CAP)
    try:
        with tracer.installed():
            return tracer.run_op(0, qsysid.cli.main, argv)
    finally:
        dump = tracer.dump()
        dump["import_s"] = IMPORT_S
        dump["spans"] = tracer.spans
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(dump, fh)


if __name__ == "__main__":
    raise SystemExit(main())
