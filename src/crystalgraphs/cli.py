"""Command-line surface: build graphs, print tables, run verification suites.

Exit codes: 0 on success, 1 when a verification suite reports failures,
2 for usage or configuration errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from functools import cache
from itertools import product as iterproduct
from json.encoder import encode_basestring_ascii as _quote
from operator import itemgetter
from typing import Iterator, TextIO

from .crystal import Convention, CrystalContext, braiding_at
from .kgraph import KGraph
from .rightends import right_end_tuple
from .rootdata import resolve_datum, type_a_cartan
from .tableaux import (Tableau, from_crystal, left_key, right_ends_via_slides,
                       right_key)
from .verify import SUITES, run_suite


def element_str(b) -> str:
    """Stable printable form of a crystal element id."""
    if isinstance(b, str):
        return b
    if isinstance(b, tuple) and all(isinstance(x, int) for x in b):
        if all(x <= 9 for x in b):
            return "".join(str(x) for x in b)
        return ",".join(str(x) for x in b)
    return "(" + " ".join(element_str(x) for x in b) + ")"


def vertex_str(v) -> str:
    return "|".join(element_str(x) for x in v)


def _context(args) -> CrystalContext:
    return CrystalContext(resolve_datum(args.algebra), args.convention)


@contextmanager
def _emit(args) -> Iterator[TextIO]:
    """The one sink of a command's output: the -o file, or stdout."""
    if args.out:
        with open(args.out, "w") as fh:
            yield fh
    else:
        yield sys.stdout


def cmd_skeleton(args) -> int:
    ctx = _context(args)
    kg = KGraph(ctx)
    skel = kg.skeleton()
    color_str = {i: f"w{i}" for i in ctx.datum.indices}.__getitem__
    export = skel.to_dot if args.output == "dot" else skel.to_json
    with _emit(args) as out:
        export(out, vertex_str, color_str, show_loops=args.show_loops,
               key_str=element_str)
    return 0


def cmd_verify(args) -> int:
    config = {}
    if args.convention:
        config["convention"] = args.convention
    if args.algebra:
        config["algebra"] = args.algebra
    if args.degree_bound:
        # the suite checks the bound against the rank and its signs
        try:
            config["degree_bound"] = tuple(map(int, args.degree_bound.split(",")))
        except ValueError:
            raise ValueError("--degree-bound takes comma-separated integers, "
                             f"not {args.degree_bound!r}") from None
    report = run_suite(args.suite, **config)
    with _emit(args) as out:
        out.write(json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n")
    return 0 if report.ok else 1


def cmd_braiding(args) -> int:
    ctx = _context(args)
    try:
        i, j = map(int, args.factors.split(","))
    except ValueError:
        raise ValueError("--factors takes two fundamental indices i,j, "
                         f"not {args.factors!r}") from None
    rank = ctx.datum.rank
    for k in (i, j):
        if not 1 <= k <= rank:
            raise ValueError(f"fundamental index {k} is outside 1..{rank}")
    table = ctx.braiding(i, j)
    ci, cj = ctx.fundamental(i), ctx.fundamental(j)
    rows = []
    pairs = sorted(iterproduct(ci.elements, cj.elements),
                   key=lambda pair: (element_str(pair[0]), element_str(pair[1])))
    for x, y in pairs:
        out = braiding_at(ci, cj, table, (x, y))
        rows.append({
            "in": [element_str(x), element_str(y)],
            "out": None if out is None else [element_str(out[0]), element_str(out[1])],
        })
    if args.format == "json":
        text = json.dumps(rows, indent=2) + "\n"
    else:
        lines = []
        for row in rows:
            rhs = "0" if row["out"] is None else " (x) ".join(row["out"])
            lines.append(f"{' (x) '.join(row['in'])}  ->  {rhs}")
        text = "\n".join(lines) + "\n"
    with _emit(args) as out:
        out.write(text)
    return 0


# one row of `rightends --format json` as `json.dumps(rows, indent=2)` lays
# out {"element": [...], "ends": [...]}; neither list is ever empty
_JSON_ROW = '  {\n    "element": [\n      %s\n    ],\n    "ends": [\n      %s\n    ]\n  }'
_JSON_ROW_SEP = ",\n      "


def cmd_rightends(args) -> int:
    ctx = _context(args)
    if args.via == "slides":
        if ctx.datum.cartan != type_a_cartan(ctx.datum.rank):
            raise ValueError("the slides route is only defined for type A algebras")
        # it reads each element of B(rho) as a tableau, and only the
        # hong-kang realization's elements are tableaux
        if ctx.convention is not Convention.HONG_KANG:
            raise ValueError("the slides route is only defined under the "
                             f"hong-kang convention, not {ctx.convention.value}")
    rho = ctx.rho_crystal()
    name = cache(element_str)  # the factors repeat: each name is made once
    rows = []
    for b in rho.elements:
        if args.via == "slides":
            ends = tuple(reversed(right_ends_via_slides(from_crystal(b))))
        else:
            ends = right_end_tuple(ctx, b)
        rows.append((tuple(map(name, b)), tuple(map(name, ends))))
    rows.sort(key=itemgetter(0))
    with _emit(args) as out:
        if args.format == "json":
            sep = "[\n"
            for element, ends in rows:
                out.write(sep + _JSON_ROW % (_JSON_ROW_SEP.join(map(_quote, element)),
                                             _JSON_ROW_SEP.join(map(_quote, ends))))
                sep = ",\n"
            out.write("\n]\n")
        else:
            for element, ends in rows:
                out.write(f"{' (x) '.join(element)}  ->  ({', '.join(ends)})\n")
    return 0


def cmd_keys(args) -> int:
    with open(args.tableau) as fh:
        rows = json.load(fh)
    tab = Tableau(rows)
    kl, kr = left_key(tab), right_key(tab)
    if args.format == "json":
        text = json.dumps({
            "tableau": [list(r) for r in tab.rows],
            "left_key": [list(r) for r in kl.rows],
            "right_key": [list(r) for r in kr.rows],
        }, indent=2) + "\n"
    else:
        def fmt(t):
            return " / ".join(" ".join(str(x) for x in row) for row in t.rows)
        text = f"T        = {fmt(tab)}\nleft key  = {fmt(kl)}\nright key = {fmt(kr)}\n"
    with _emit(args) as out:
        out.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crystalgraphs",
        description="Crystals, braidings, right ends, keys, and k-graphs")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--algebra", default="A2",
                       help="built-in name (A<r> for any rank r, or C2) or a "
                       "Cartan data file; a command runs while its crystals "
                       "fit the size limit")
        p.add_argument("--convention", default="hong-kang",
                       choices=["hong-kang", "opposite"])
        p.add_argument("-o", "--out", help="write to a file instead of stdout")

    p = sub.add_parser("skeleton", help="emit the k-graph skeleton")
    add_common(p)
    p.add_argument("--output", default="dot", choices=["dot", "json"])
    p.add_argument("--show-loops", action="store_true",
                   help="keep the loop edges (omitted by default)")
    p.set_defaults(run=cmd_skeleton)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("--suite", required=True, choices=sorted(SUITES))
    p.add_argument("--algebra", default="",
                   help="algebra for the structural suites")
    p.add_argument("--convention", choices=["hong-kang", "opposite"],
                   help="for the structural suites (default hong-kang)")
    p.add_argument("--degree-bound", default="",
                   help="comma-separated componentwise bound, e.g. 1,1")
    p.add_argument("-o", "--out")
    p.set_defaults(run=cmd_verify)

    p = sub.add_parser("braiding", help="print a fundamental braiding table")
    add_common(p)
    p.add_argument("--factors", default="1,2", help="fundamental indices i,j")
    p.add_argument("--format", default="text", choices=["text", "json"])
    p.set_defaults(run=cmd_braiding)

    p = sub.add_parser("rightends", help="print the right ends of B(rho)")
    add_common(p)
    p.add_argument("--via", default="braiding", choices=["braiding", "slides"],
                   help="slides is available for type A only")
    p.add_argument("--format", default="text", choices=["text", "json"])
    p.set_defaults(run=cmd_rightends)

    p = sub.add_parser("keys", help="print the left and right keys of a tableau")
    p.add_argument("--tableau", required=True,
                   help="JSON file: rows as arrays, top row first")
    p.add_argument("--format", default="text", choices=["text", "json"])
    p.add_argument("-o", "--out")
    p.set_defaults(run=cmd_keys)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
