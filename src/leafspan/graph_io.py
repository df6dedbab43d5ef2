"""Plain-text graph exchange: edge lists in, edge lists and DOT out.

The format is one edge per line ("u v"), blank lines and "#" comments
ignored, and isolated vertices spelled "v <id>".  Serialization is
canonical (sorted), so parse/serialize round-trips are byte-stable and
suitable for hashing.
"""

from __future__ import annotations

import hashlib
from typing import Optional

from .errors import DuplicateEdgeError, ParseError, SelfLoopError
from .graph import Graph, _edge
from .trees import SpanningTree


def parse_graph(text: str) -> Graph:
    edges, isolated = set(), []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "v":
            if len(parts) != 2:
                raise ParseError("vertex line must be 'v <id>'", line=lineno)
            try:
                isolated.append(int(parts[1]))
            except ValueError:
                raise ParseError(f"bad vertex id {parts[1]!r}", line=lineno)
            continue
        if len(parts) != 2:
            raise ParseError(f"expected 'u v', got {line!r}", line=lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"bad endpoint in {line!r}", line=lineno)
        if u == v:
            raise SelfLoopError(f"self loop at {u}", line=lineno)
        e = _edge(u, v)
        if e in edges:
            raise DuplicateEdgeError(f"duplicate edge {e[0]} {e[1]}", line=lineno)
        edges.add(e)
    if not edges and not isolated:
        raise ParseError("no vertices")
    # every id is an int and every edge distinct in (low, high) form: build once
    return Graph._derived(frozenset(isolated).union(*edges), frozenset(edges))


def serialize_graph(g: Graph) -> str:
    lines = []
    for x in g.sorted_vertices:
        if not g.adjacency[x]:
            lines.append(f"v {x}")
    for u, v in g.sorted_edges:
        lines.append(f"{u} {v}")
    return "\n".join(lines) + "\n"


def graph_hash(g: Graph) -> str:
    """12 hex chars identifying the labelled graph."""
    return hashlib.sha256(serialize_graph(g).encode()).hexdigest()[:12]


def serialize_tree(t: SpanningTree) -> str:
    head = f"tree {graph_hash(t.host)} {t.leaf_count}"
    lines = [head] + [f"{u} {v}" for u, v in sorted(t.tree_edges)]
    return "\n".join(lines) + "\n"


def export_dot(g: Graph, tree: Optional[SpanningTree] = None) -> str:
    """Graphviz text; tree edges, when given, are drawn bold."""
    bold = set(tree.tree_edges) if tree is not None else set()
    out = ["graph leafspan {"]
    for x in g.sorted_vertices:
        out.append(f"  {x};")
    for u, v in g.sorted_edges:
        style = " [style=bold]" if (u, v) in bold else ""
        out.append(f"  {u} -- {v}{style};")
    out.append("}")
    return "\n".join(out) + "\n"
