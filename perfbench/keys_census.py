"""The type-A key census on B(rho) for A4, as one program run.

For every element b of B(rho) it takes the right ends from the k-graph vertex
of b (braiding chains, `right_end_tuple`), the right ends by jeu de taquin
(`right_ends_via_slides`) and the left key, and counts how often all three
agree.  Prints one JSON object with the counts; exit code 0 when every
element agrees, 1 otherwise.
"""

from __future__ import annotations

import json
import sys

from crystalgraphs import (CrystalContext, KGraph, builtin_datum, from_crystal,
                           left_key, right_ends_via_slides)


def census(algebra: str = "A4") -> dict:
    kg = KGraph(CrystalContext(builtin_datum(algebra)))
    elements = agree = 0
    left_keys = set()
    for v in kg.vertices():
        for b in kg.fiber(v):
            tab = from_crystal(b)
            slid = right_ends_via_slides(tab)
            key = left_key(tab)
            left_keys.add(key)
            elements += 1
            agree += tuple(reversed(v)) == slid == key.columns
    return {"algebra": algebra, "vertices": len(kg.vertices()),
            "elements": elements, "distinct_left_keys": len(left_keys),
            "agree": agree}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    result = census(*argv[:1])
    sys.stdout.write(json.dumps(result, sort_keys=True) + "\n")
    return 0 if result["agree"] == result["elements"] else 1


if __name__ == "__main__":
    sys.exit(main())
