"""Immutable simple graphs over integer ids, plus the structural metrics and
surgery operators (gluing, edge contraction) everything else builds on.

Graphs are value objects: every operation returns a new graph and leaves its
inputs untouched.  Vertex ids are plain ints and survive operations unchanged;
operators that must invent or merge ids return a result record carrying the
old-to-new mapping so callers can translate trees back.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Optional

from .errors import (
    EdgeNotFoundError,
    InvalidGraphError,
    InvalidParamsError,
    NotConnectedError,
)


def norm_edge(u: int, v: int) -> tuple[int, int]:
    """Return the canonical (low, high) form of an edge, rejecting loops."""
    for x in (u, v):
        if not isinstance(x, int) or isinstance(x, bool):
            raise InvalidGraphError(f"vertex id {x!r} is not an int")
    if u == v:
        raise InvalidGraphError(f"self-loop at vertex {u}")
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph: a frozenset of ids and a frozenset of (low, high) edges."""

    vertices: frozenset
    edges: frozenset

    def __post_init__(self):
        if not self.vertices:
            raise InvalidGraphError("a graph needs at least one vertex")
        for x in self.vertices:
            if not isinstance(x, int) or isinstance(x, bool):
                raise InvalidGraphError(f"vertex id {x!r} is not an int")
        for e in self.edges:
            u, v = e
            if not (u < v):
                raise InvalidGraphError(f"edge {e!r} is not in (low, high) form")
            if u not in self.vertices or v not in self.vertices:
                raise InvalidGraphError(f"edge {e!r} has an endpoint outside the vertex set")

    # -- construction -----------------------------------------------------

    @classmethod
    def build(cls, edges: Iterable[tuple[int, int]], isolated: Iterable[int] = ()) -> "Graph":
        """Build a graph from an edge iterable; duplicates collapse silently."""
        es = frozenset(norm_edge(u, v) for u, v in edges)
        vs = frozenset(x for e in es for x in e) | frozenset(isolated)
        return cls(vs, es)

    @classmethod
    def path(cls, n: int) -> "Graph":
        if n < 1:
            raise InvalidParamsError("path needs n >= 1")
        if n == 1:
            return cls.build((), isolated=(0,))
        return cls.build((i, i + 1) for i in range(n - 1))

    @classmethod
    def cycle(cls, n: int) -> "Graph":
        if n < 3:
            raise InvalidParamsError("cycle needs n >= 3")
        return cls.build([(i, (i + 1) % n) for i in range(n)])

    @classmethod
    def complete(cls, n: int) -> "Graph":
        if n < 1:
            raise InvalidParamsError("complete graph needs n >= 1")
        if n == 1:
            return cls.build((), isolated=(0,))
        return cls.build((i, j) for i in range(n) for j in range(i + 1, n))

    @classmethod
    def star(cls, leaves: int) -> "Graph":
        """Star with center 0 and the given number of leaves."""
        if leaves < 1:
            raise InvalidParamsError("star needs at least one leaf")
        return cls.build((0, i) for i in range(1, leaves + 1))

    @classmethod
    def petersen(cls) -> "Graph":
        outer = [(i, (i + 1) % 5) for i in range(5)]
        inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
        spokes = [(i, i + 5) for i in range(5)]
        return cls.build(outer + inner + spokes)

    # -- basic accessors --------------------------------------------------

    @property
    def v(self) -> int:
        return len(self.vertices)

    @property
    def e(self) -> int:
        return len(self.edges)

    @cached_property
    def sorted_vertices(self) -> tuple:
        return tuple(sorted(self.vertices))

    @cached_property
    def sorted_edges(self) -> tuple:
        return tuple(sorted(self.edges))

    @cached_property
    def adjacency(self) -> dict:
        adj = {x: set() for x in self.vertices}
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return {x: frozenset(nbrs) for x, nbrs in adj.items()}

    def neighbors(self, x: int) -> tuple:
        """Neighbors of x in ascending order."""
        return tuple(sorted(self.adjacency[x]))

    def degree(self, x: int) -> int:
        return len(self.adjacency[x])

    @cached_property
    def min_degree(self) -> int:
        return min(self.degree(x) for x in self.vertices)

    def has_edge(self, u: int, v: int) -> bool:
        return norm_edge(u, v) in self.edges

    # -- connectivity -----------------------------------------------------

    @cached_property
    def components(self) -> tuple:
        """Connected components as frozensets, ordered by smallest member."""
        seen = set()
        comps = []
        for start in self.sorted_vertices:
            if start in seen:
                continue
            comp = {start}
            queue = deque([start])
            while queue:
                cur = queue.popleft()
                for nb in self.adjacency[cur]:
                    if nb not in comp:
                        comp.add(nb)
                        queue.append(nb)
            seen |= comp
            comps.append(frozenset(comp))
        return tuple(comps)

    @property
    def is_connected(self) -> bool:
        return len(self.components) == 1

    @property
    def is_tree(self) -> bool:
        return self.is_connected and self.e == self.v - 1

    def bfs_tree(self, root: int) -> frozenset:
        """Edges of a breadth-first spanning tree of root's component; deterministic."""
        if root not in self.vertices:
            raise InvalidParamsError(f"vertex {root} not in graph")
        seen = {root}
        out = []
        queue = deque([root])
        while queue:
            cur = queue.popleft()
            for nb in self.neighbors(cur):
                if nb not in seen:
                    seen.add(nb)
                    out.append(norm_edge(cur, nb))
                    queue.append(nb)
        return frozenset(out)

    def distance(self, u: int, v: int) -> Optional[int]:
        """Hop distance, or None when u and v are in different components."""
        if u == v:
            return 0
        dist = {u: 0}
        queue = deque([u])
        while queue:
            cur = queue.popleft()
            for nb in self.adjacency[cur]:
                if nb not in dist:
                    dist[nb] = dist[cur] + 1
                    if nb == v:
                        return dist[nb]
                    queue.append(nb)
        return None

    # -- derived graphs ---------------------------------------------------

    def induced(self, vs: Iterable[int]) -> "Graph":
        keep = frozenset(vs)
        extra = keep - self.vertices
        if extra:
            raise InvalidParamsError(f"vertices {sorted(extra)} not in graph")
        return Graph(keep, frozenset(e for e in self.edges if e[0] in keep and e[1] in keep))

    def without_vertex(self, x: int) -> "Graph":
        if x not in self.vertices:
            raise InvalidParamsError(f"vertex {x} not in graph")
        return self.induced(self.vertices - {x})

    def without_edge(self, u: int, v: int) -> "Graph":
        e = norm_edge(u, v)
        if e not in self.edges:
            raise EdgeNotFoundError(f"edge {e} not in graph")
        return Graph(self.vertices, self.edges - {e})

    def without_edges(self, es: Iterable[tuple[int, int]]) -> "Graph":
        drop = set()
        for u, v in es:
            e = norm_edge(u, v)
            if e not in self.edges:
                raise EdgeNotFoundError(f"edge {e} not in graph")
            drop.add(e)
        return Graph(self.vertices, self.edges - drop)

    def with_edge(self, u: int, v: int) -> "Graph":
        e = norm_edge(u, v)
        return Graph(self.vertices | set(e), self.edges | {e})

    def relabel(self, mapping: Mapping[int, int]) -> "Graph":
        """Apply a partial id mapping (identity elsewhere); must stay injective."""
        full = {x: mapping.get(x, x) for x in self.vertices}
        if len(set(full.values())) != len(full):
            raise InvalidParamsError("relabeling collides ids")
        return Graph(
            frozenset(full.values()),
            frozenset(norm_edge(full[u], full[v]) for u, v in self.edges),
        )

    def fresh_id(self) -> int:
        """Smallest positive id strictly above every existing one."""
        return max(self.vertices) + 1 if self.vertices else 0


# -- metrics ---------------------------------------------------------------


def girth(g: Graph) -> Optional[int]:
    """Length of a shortest cycle, or None when the graph is acyclic.

    Runs a breadth-first search from every vertex; a non-tree edge seen at
    depth d closes a walk of length at most 2d + 1 that contains a cycle, and
    for roots on a shortest cycle the detection is exact.
    """
    best = None
    for root in g.sorted_vertices:
        dist = {root: 0}
        parent = {root: None}
        queue = deque([root])
        while queue:
            cur = queue.popleft()
            if best is not None and dist[cur] * 2 >= best:
                continue
            for nb in g.neighbors(cur):
                if nb not in dist:
                    dist[nb] = dist[cur] + 1
                    parent[nb] = cur
                    queue.append(nb)
                elif nb != parent[cur]:
                    cand = dist[cur] + dist[nb] + 1
                    if best is None or cand < best:
                        best = cand
        if best == 3:
            return 3
    return best


def chain_metric(g: Graph) -> int:
    """Most vertices in a maximal run of successively adjacent degree-2 vertices.

    A graph that is itself a cycle is one single run, so the metric equals the
    vertex count there.  Graphs with no degree-2 vertex score 0.
    """
    deg2 = {x for x in g.vertices if g.degree(x) == 2}
    if not deg2:
        return 0
    best = 0
    seen = set()
    for start in sorted(deg2):
        if start in seen:
            continue
        comp = {start}
        queue = deque([start])
        while queue:
            cur = queue.popleft()
            for nb in g.adjacency[cur]:
                if nb in deg2 and nb not in comp:
                    comp.add(nb)
                    queue.append(nb)
        seen |= comp
        best = max(best, len(comp))
    return best


def s_count(g: Graph) -> int:
    """Number of vertices whose degree differs from 2."""
    return sum(1 for x in g.vertices if g.degree(x) != 2)


# -- surgery operators -----------------------------------------------------


@dataclass(frozen=True)
class GlueResult:
    """Outcome of gluing two graphs at one vertex each.

    map1 and map2 send the original ids of each input onto ids of the glued
    graph; both glue points land on the shared vertex `merged`.
    """

    graph: Graph
    merged: int
    map1: dict
    map2: dict


def glue(g1: Graph, x1: int, g2: Graph, x2: int) -> GlueResult:
    """Identify vertex x1 of g1 with vertex x2 of g2.

    Ids of g1 are kept.  Ids of g2 are kept too when the vertex sets are
    disjoint, otherwise g2 is shifted above g1's largest id.  The merged
    vertex always uses x1's id.
    """
    if x1 not in g1.vertices:
        raise InvalidParamsError(f"vertex {x1} not in first graph")
    if x2 not in g2.vertices:
        raise InvalidParamsError(f"vertex {x2} not in second graph")
    map1 = {x: x for x in g1.vertices}
    if g1.vertices & g2.vertices:
        offset = max(g1.vertices | g2.vertices) + 1 - min(g2.vertices)
        map2 = {x: x + offset for x in g2.vertices}
    else:
        map2 = {x: x for x in g2.vertices}
    map2[x2] = x1
    vs = frozenset(map1.values()) | frozenset(map2.values())
    es = frozenset(g1.edges) | frozenset(
        norm_edge(map2[u], map2[v]) for u, v in g2.edges
    )
    return GlueResult(graph=Graph(vs, es), merged=x1, map1=map1, map2=map2)


@dataclass(frozen=True)
class ContractResult:
    """Outcome of contracting one edge: the new graph plus the id mapping."""

    graph: Graph
    merged: int
    vertex_map: dict


def contract_edge(g: Graph, u: int, v: int) -> ContractResult:
    """Contract edge uv into a single vertex keeping the lower id.

    Parallel edges arising from a common neighbor collapse, and the loop the
    contracted edge would form is dropped, so the result stays simple.
    """
    e = norm_edge(u, v)
    if e not in g.edges:
        raise EdgeNotFoundError(f"edge {e} not in graph")
    lo, hi = e
    vmap = {x: (lo if x == hi else x) for x in g.vertices}
    es = set()
    for a, b in g.edges:
        na, nb = vmap[a], vmap[b]
        if na != nb:
            es.add(norm_edge(na, nb))
    return ContractResult(
        graph=Graph(frozenset(vmap.values()), frozenset(es)),
        merged=lo,
        vertex_map=vmap,
    )


def require_connected(g: Graph, what: str = "operation") -> None:
    if not g.is_connected:
        raise NotConnectedError(f"{what} requires a connected graph")
