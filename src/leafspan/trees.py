"""Spanning trees as explicit certificates: validation and the one-leaf-gaining
extension across a cut vertex.  The degree-2 step of the s-count descent
lifts trees by swapping one edge for the run of bridges it stands for."""

from __future__ import annotations

from dataclasses import dataclass

from .blocks import decompose_blocks
from .errors import InvalidParamsError, PreconditionViolatedError
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
    deg: dict = {}
    for u, v in es:
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
    if host.v == 1:
        lc = 0
    else:
        lc = sum(1 for x in host.vertices if deg.get(x, 0) == 1)
    return SpanningTree(host=host, tree_edges=es, leaf_count=lc)


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
    if host.v == 1:
        if t.tree_edges:
            return "edge count"
        return None if t.leaf_count == 0 else "leaf count"
    if len(t.tree_edges) != host.v - 1:
        return "edge count"
    sub = Graph(host.vertices, t.tree_edges)
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


def extend_tree_lemma3(
    t_prime: SpanningTree, a: int, b: int, g: Graph
) -> SpanningTree:
    """Grow a spanning tree of the component of g - a containing b to all of g.

    The edge ab joins a to the given tree and every other component of g - a
    is hung below a with a breadth-first subtree.  Because b is a cutpoint of
    its component it is internal in t_prime, so the result has at least one
    more leaf than t_prime: either a itself ends up pendant, or every extra
    component contributes a leaf of its own.
    """
    if a not in g.vertices or b not in g.vertices:
        raise PreconditionViolatedError("vertices: a and b must lie in g")
    if not g.has_edge(a, b):
        raise PreconditionViolatedError("adjacent: a and b must be adjacent in g")
    rest = g.without_vertex(a)
    comp_b = next((c for c in rest.components if b in c), None)
    if comp_b is None or t_prime.host != g.induced(comp_b):
        raise PreconditionViolatedError(
            "component: t_prime's host must be the component of g - a containing b"
        )
    if b not in decompose_blocks(t_prime.host).cutpoints:
        raise PreconditionViolatedError(
            "cutpoint: b must be a cutpoint of its component"
        )
    check_valid(t_prime, "extend_tree_lemma3")
    es = set(t_prime.tree_edges)
    es.add(norm_edge(a, b))
    for comp in rest.components:
        if comp == comp_b:
            continue
        attach = min(x for x in comp if g.has_edge(a, x))
        es.add(norm_edge(a, attach))
        es |= g.induced(comp).bfs_tree(attach)
    out = spanning_tree(g, es)
    if out.leaf_count < t_prime.leaf_count + 1:
        raise AssertionError("extension failed to gain a leaf; construction bug")
    return out
