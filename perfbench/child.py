"""One command in a fresh interpreter; started by run.py.

Usage: python3 perfbench/child.py SPEC_JSON PARENT_START

SPEC_JSON holds the CLI argv, the trace flag and the result path.
PARENT_START is the parent's time.monotonic() just before it started this
process; the clock is system-wide, so set-up time is measured from then
until the package is imported and ready.
"""

import contextlib
import sys
import time

import colorperm.cli

READY = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402


def main():
    spec = json.loads(sys.argv[1])
    setup_s = READY - float(sys.argv[2])
    command = colorperm.cli.main
    tracer = None
    if spec["trace"]:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracer import Tracer

        tracer = Tracer()
        command = tracer.wrap("cli", command)
    with tracer.installed() if tracer else contextlib.nullcontext():
        t0 = time.perf_counter()
        code = command(spec["argv"])
        run_s = time.perf_counter() - t0
    record = {"exit": code, "setup_s": setup_s, "run_s": run_s}
    if tracer:
        record["trace"] = tracer.report()
    with open(spec["result"], "w") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
