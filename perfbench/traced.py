"""Run one workload entry point in-process with every layer traced.

Usage: traced.py SPANS_FILE MODULE [ARGS...].  Measures the tracer's cost per
call, installs the tracer, calls MODULE.main(ARGS) and writes the spans to
SPANS_FILE when it returns; the exit code is main's.  MODULE is
`crystalgraphs.cli` or a benchmark program.
"""

import importlib
import sys

import crystalgraphs  # noqa: F401  (loads every module before wrapping)
from tracer import Tracer, calibrate


def main(argv) -> int:
    spans_file, module_name, args = argv[0], argv[1], argv[2:]
    entry = importlib.import_module(module_name)
    tracer = Tracer()
    tracer.cost = calibrate()
    tracer.install(extra_modules=(entry,))
    try:
        code = entry.main(args)
    finally:
        sys.stdout.flush()
        tracer.dump(spans_file)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
