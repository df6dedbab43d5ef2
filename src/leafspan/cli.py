"""Command line front end.

Subcommands: exact, bound, construct, gen, random, verify, export-dot.
The commands that read a graph, exact, bound, construct and export-dot,
take it from --input or stdin as an edge list; every command writes to
--output or stdout.  Exit status: 0 success, 1 a claimed bound failed to
hold or a search that cannot fail came up empty, 2 bad input or parameters.
LEAFSPAN_BUDGET caps the exact solver's node count.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional

from .bounds import bound_kw
from .constructive import _certify, _theorem
from .corpus import random_constrained_graph, verify_corpus
from .errors import (
    BoundNotMetError,
    InvalidParamsError,
    LeafspanError,
    ParseError,
    SearchExhaustedError,
)
from .exact import exact_mlst
from .extremal import FamilySpec, TRIANGLE_TREE, CYCLE_SPINE_DENSE, CYCLE_SPINE_SPARSE, glue_extremal_chain
from .graph import Graph
from .graph_io import export_dot, parse_graph, serialize_graph, serialize_tree


def _budget() -> Optional[int]:
    raw = os.environ.get("LEAFSPAN_BUDGET")
    if raw is None:
        return None
    try:
        n = int(raw)
    except ValueError:
        raise InvalidParamsError(f"LEAFSPAN_BUDGET must be an integer, got {raw!r}")
    if n < 1:
        raise InvalidParamsError("LEAFSPAN_BUDGET must be >= 1")
    return n


def _read_graph(args) -> Graph:
    if args.input:
        with open(args.input) as fh:
            text = fh.read()
    else:
        text = sys.stdin.read()
    return parse_graph(text)


def _emit(args, text: str):
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _report_line(rep) -> str:
    d = rep.as_dict()
    params = " ".join(f"{k}={v}" for k, v in sorted(d["params"].items()))
    return (
        f"kind={d['kind']} bound={d['numerator']}/{d['denominator']} "
        f"decimal={d['decimal']:.6f} {params}"
    )


def _cmd_exact(args) -> int:
    g = _read_graph(args)
    res = exact_mlst(g, node_budget=_budget())
    out = [f"u={res.u_value} optimal={int(res.optimal)} nodes={res.nodes_explored}"]
    out.append(serialize_tree(res.witness).rstrip("\n"))
    _emit(args, "\n".join(out) + "\n")
    return 0


def _cmd_bound(args) -> int:
    g = _read_graph(args)
    # the v/4 rate takes the requests theorem 1 takes, no --k, on graphs of minimum degree 3
    rep = _theorem(g, 2 if args.theorem == "2" else 1, args.k).bound
    if args.theorem == "kw":
        if g.min_degree < 3:
            raise InvalidParamsError("the v/4 rate needs minimum degree 3")
        rep = bound_kw(g.v)
    _emit(args, _report_line(rep) + "\n")
    return 0


def _cmd_construct(args) -> int:
    g = _read_graph(args)
    request = _theorem(g, int(args.theorem), args.k)
    tree, trace = _certify(g, request)
    rep = request.bound
    # pass=1 always: _certify returns only a tree whose leaves reach the
    # root's need, the least whole number at or above rep.value (_theorem
    # checks that once per request); otherwise it raises BoundNotMet, exit 1
    out = [f"leaves={tree.leaf_count} bound={rep.value.numerator}/{rep.value.denominator} pass=1"]
    if args.trace:
        out.extend(trace.lines())
    out.append(serialize_tree(tree).rstrip("\n"))
    _emit(args, "\n".join(out) + "\n")
    return 0


def _cmd_gen(args) -> int:
    if args.family == "triangle-tree":
        if args.n is None:
            raise InvalidParamsError("gen --family triangle-tree needs --n")
        spec = FamilySpec(kind=TRIANGLE_TREE, n=args.n, g=args.g, k=args.k)
    else:
        if args.g is None or args.k is None:
            raise InvalidParamsError("gen --family cycle-spine needs --g and --k")
        kind = CYCLE_SPINE_DENSE if args.k >= args.g - 2 else CYCLE_SPINE_SPARSE
        spec = FamilySpec(kind=kind, n=args.n, g=args.g, k=args.k)
    _emit(args, serialize_graph(glue_extremal_chain(spec, args.copies)))
    return 0


def _cmd_random(args) -> int:
    g = random_constrained_graph(
        args.v,
        min_degree=args.min_degree,
        girth_at_least=args.girth,
        ell_at_most=args.ell,
        seed=args.seed,
    )
    _emit(args, serialize_graph(g))
    return 0


def _cmd_verify(args) -> int:
    report = verify_corpus(
        theorem=int(args.theorem),
        count=args.count,
        max_v=args.max_v,
        seed=args.seed,
        mode=args.mode,
    )
    _emit(args, report.text())
    return 0 if not report.failures else 1


def _cmd_export_dot(args) -> int:
    g = _read_graph(args)
    _emit(args, export_dot(g))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="leafspan", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def io(p, reads=True):
        if reads:
            p.add_argument("--input", help="edge list file; stdin when omitted")
        p.add_argument("--output", help="output file; stdout when omitted")

    p = sub.add_parser("exact", help="optimal leaf count via branch and bound")
    io(p)
    p.set_defaults(func=_cmd_exact)

    p = sub.add_parser("bound", help="evaluate a lower bound for a graph")
    io(p)
    p.add_argument("--theorem", choices=["1", "2", "kw"], required=True)
    p.add_argument("--k", type=int, help="chain cap; defaults to max(measured, 1)")
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("construct", help="build a certified leafy spanning tree")
    io(p)
    p.add_argument("--theorem", choices=["1", "2"], required=True)
    p.add_argument("--k", type=int, help="chain cap; defaults to max(measured, 1)")
    p.add_argument("--trace", action="store_true", help="include the descent trace")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("gen", help="emit an extremal family instance")
    io(p, reads=False)
    p.add_argument("--family", choices=["triangle-tree", "cycle-spine"], required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--g", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--copies", type=int, default=1)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("random", help="seeded constrained random graph")
    io(p, reads=False)
    p.add_argument("--v", type=int, required=True)
    p.add_argument("--min-degree", type=int, default=1)
    p.add_argument("--girth", type=int, default=3)
    p.add_argument("--ell", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_random)

    p = sub.add_parser("verify", help="batch-check a bound over a random corpus")
    io(p, reads=False)
    p.add_argument("--theorem", choices=["1", "2"], required=True)
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--max-v", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=["exact", "construct"], default="exact")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("export-dot", help="write the graph in DOT format")
    io(p)
    p.set_defaults(func=_cmd_export_dot)

    return top


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (LeafspanError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, (BoundNotMetError, SearchExhaustedError)) else 2


if __name__ == "__main__":
    sys.exit(main())
