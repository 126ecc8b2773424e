"""Run ``ramseycert.cli`` with spans, for the traced run of the ``cli`` workload.

Usage: ``PERFBENCH_TRACE_OUT=spans.json python clishim.py <cli arguments>``.
Times the package import, wraps the layers' public functions, runs the
command in-process, writes the spans to PERFBENCH_TRACE_OUT and exits with
the command's exit code.  Its stdout is the command's own.
"""

import json
import os
import sys
import time

start = time.perf_counter()
import ramseycert.cli  # noqa: E402

imported = time.perf_counter()
from spans import Tracer  # noqa: E402  (this script's directory is sys.path[0])


def main() -> int:
    tracer = Tracer()
    tracer.add_span("cli.import", start, imported)
    tracer.install()
    tracer.active = True
    try:
        return ramseycert.cli.main(sys.argv[1:])
    finally:
        tracer.active = False
        with open(os.environ["PERFBENCH_TRACE_OUT"], "w") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    sys.exit(main())
