"""Spanning trees as explicit certificates: an edge set packaged with its
leaf count, and validation.  The descents lift their children's trees to
each step's graph with builds of their own."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain

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
    return _pack(host, frozenset(norm_edge(u, v) for u, v in edges))


def _pack(host: Graph, es) -> SpanningTree:
    """A SpanningTree of host from distinct edges in (low, high) form; its leaf
    count, the vertices of degree 1 in the edges, is host's for edges of host."""
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

