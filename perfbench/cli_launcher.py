"""Run the randsuite CLI in one process with the benchmark's spans installed.

    python3 perfbench/cli_launcher.py SPANS_FILE <randsuite cli arguments...>

Traced triage runs start this script in place of ``python3 -m randsuite.cli``.
It times the import of ``randsuite.cli``, wraps the layers as
``tracing.Tracer`` does in-process, calls ``randsuite.cli.main`` and, when
main returns or raises, appends the spans to SPANS_FILE.  The exit code is
main's.
"""

import sys
from time import perf_counter

from tracing import Tracer, write_spans

if __name__ == "__main__":
    tracer = Tracer()
    start = perf_counter()
    import randsuite.cli
    tracer.record("cli.import", start, perf_counter())
    tracer.install()
    try:
        code = randsuite.cli.main(sys.argv[2:])
    finally:
        tracer.uninstall()
        write_spans(tracer.take(), sys.argv[1])
    sys.exit(code)
