"""Run one schmidt-lab CLI command with spans around the library calls.

Usage: python3 bench/cli_traced.py SPANS_OUT ARGS...

Behaves like ``python -m schmidt_lab.cli ARGS...`` (same stdout and exit
code) and writes ``{"import_s": ..., "spans": [...]}`` to SPANS_OUT, where
``import_s`` is the time taken to import ``schmidt_lab.cli``. The library
must be importable, for instance through PYTHONPATH.
"""

import json
import sys
import time

from spans import Tracer


def main(argv):
    spans_out, args = argv[0], argv[1:]
    start = time.perf_counter()
    from schmidt_lab import cli

    import_s = time.perf_counter() - start
    tracer = Tracer()
    tracer.case = "loop"
    tracer.install()
    code = cli.main(args)
    sys.stdout.flush()
    with open(spans_out, "w", encoding="utf-8") as handle:
        json.dump({"import_s": import_s, "spans": tracer.spans}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
