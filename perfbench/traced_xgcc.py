"""Run the ``xgcc`` command line under the benchmark's span tracer.

Usage::

    python3 perfbench/traced_xgcc.py SPANS.json -- <xgcc arguments>

Behaves like ``python3 -m repro.driver.cli <xgcc arguments>`` (same
output, same exit code) and, at exit, writes the process's spans and
counters to ``SPANS.json``.  The import of ``repro.driver.cli`` is
recorded as the ``process.startup`` span.
"""

import json
import os
import sys


def main():
    out_path = sys.argv[1]
    if sys.argv[2] != "--":
        raise SystemExit("usage: traced_xgcc.py SPANS.json -- ARGS...")
    argv = sys.argv[3:]
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import tracing

    tracer = tracing.Tracer()
    startup = tracer.begin("process.startup")
    tracing.import_layers()
    tracer.end(startup)
    tracing.install(tracer)
    from repro.driver import cli

    try:
        code = cli.main(argv)
    except SystemExit as exit_:
        code = exit_.code
    finally:
        sys.stdout.flush()
        with open(out_path, "w") as handle:
            json.dump(tracer.export(), handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
