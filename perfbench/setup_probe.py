"""Time one set-up of an algebra, from before `import crystalgraphs` to the
last pairwise braiding table between fundamental crystals.

Usage: setup_probe.py ALGEBRA.  Prints one JSON object with `setup_s` and the
sizes of what was built, so that a change in set-up work shows as a count.
"""

import time

_T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import crystalgraphs  # noqa: E402


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    ctx = crystalgraphs.CrystalContext(crystalgraphs.resolve_datum(argv[0]))
    indices = ctx.datum.indices
    sizes = [len(ctx.fundamental(i)) for i in indices]
    entries = sum(len(ctx.braiding(i, j)) for i in indices for j in indices)
    setup_s = time.perf_counter() - _T0
    sys.stdout.write(json.dumps({"setup_s": setup_s, "fundamental_sizes": sizes,
                                 "braiding_tables": len(indices) ** 2,
                                 "braiding_entries": entries}) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
