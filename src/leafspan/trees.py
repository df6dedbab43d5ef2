"""Spanning trees as explicit certificates: an edge set packaged with its
leaf count, and validation.  The descents lift their children's trees to
each step's graph with builds of their own."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain

from .errors import InvalidParamsError
from .graph import Graph, norm_edge


@dataclass(frozen=True)
class SpanningTree:
    """A spanning tree of a host graph, with its leaf count precomputed.

    Construction does not validate; build candidates freely and let
    validate() report what is wrong, so tests can exercise bad inputs.
    """

    host: Graph
    tree_edges: frozenset
    leaf_count: int


def spanning_tree(host: Graph, edges) -> SpanningTree:
    """Package an edge set as a SpanningTree with its leaf count."""
    es = frozenset(norm_edge(u, v) for u, v in edges)
    deg = Counter(chain.from_iterable(es))
    lc = 0 if host.v == 1 else sum(1 for x in host.vertices if deg[x] == 1)
    return SpanningTree(host=host, tree_edges=es, leaf_count=lc)


def _pack(host: Graph, es) -> SpanningTree:
    """spanning_tree for edges of host already in (low, high) form that span it;
    the leaves are counted from the edges."""
    return SpanningTree(host, frozenset(es), list(Counter(chain.from_iterable(es)).values()).count(1))


def validate(t: SpanningTree) -> str | None:
    """Return None for a valid spanning tree, else the first violated clause.

    Checked in order: every tree edge exists in the host, the edge count is
    v - 1, the edges are acyclic and span every host vertex, and the stored
    leaf count matches the actual one.
    """
    host = t.host
    for e in sorted(t.tree_edges):
        if e not in host.edges:
            return f"edge {e} not in host"
    if len(t.tree_edges) != host.v - 1:
        return "edge count"
    sub = Graph._derived(host.vertices, t.tree_edges)  # every tree edge is a host edge
    if not sub.is_connected:
        return "not spanning"
    # v - 1 edges and connected implies acyclic
    actual = sum(1 for x in host.vertices if sub.degree(x) == 1)
    if actual != t.leaf_count:
        return "leaf count"
    return None


def check_valid(t: SpanningTree, context: str = "tree") -> None:
    problem = validate(t)
    if problem is not None:
        raise InvalidParamsError(f"{context}: invalid spanning tree ({problem})")

