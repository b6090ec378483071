"""One ``bayesadmm run`` in a fresh interpreter, with the benchmark's clock stamps.

Usage: ``python3 child.py STAMPS SRC TRACE run --config ... --out ...``

Imports ``bayesadmm.cli`` from ``SRC`` and calls ``cli.main`` with the
remaining arguments.  With ``TRACE`` 0 it only wraps ``cli.run_rounds`` to
stamp its entry and exit; with ``TRACE`` 1 it wraps every layer's public
functions (see ``spans.py``).  All stamps are ``time.monotonic()``, which is
system-wide on Linux, so the parent can subtract its own spawn time.  Stamps,
and spans when traced, go to the JSON file ``STAMPS`` after ``main`` returns.
"""

import json
import os
import sys
import time


def main() -> int:
    stamps_path, src, trace = sys.argv[1], os.path.realpath(sys.argv[2]), sys.argv[3] == "1"
    cli_args = sys.argv[4:]
    stamps: dict = {}
    stamps["import_start"] = time.monotonic()
    import bayesadmm.cli as cli

    stamps["import_end"] = time.monotonic()
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        print(f"bayesadmm was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 1

    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    calls = []
    inner_run_rounds = cli.run_rounds

    def run_rounds(*args, **kwargs):
        entry = time.monotonic()
        try:
            return inner_run_rounds(*args, **kwargs)
        finally:
            calls.append((entry, time.monotonic()))

    cli.run_rounds = run_rounds
    code = cli.main(cli_args)
    stamps["main_end"] = time.monotonic()
    if len(calls) != 1:
        print(f"expected one run_rounds call, saw {len(calls)}", file=sys.stderr)
        return 1
    stamps["rounds_entry"], stamps["rounds_exit"] = calls[0]
    if tracer is not None:
        stamps["spans"] = tracer.rows
    with open(stamps_path, "w") as fh:
        json.dump(stamps, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
