"""Immutable simple graphs over integer ids and their structural metrics.

Graphs are value objects: every operation returns a new graph and leaves its
inputs untouched.  Vertex ids are plain ints and survive operations unchanged:
a derived graph, an induced subgraph or one with edges removed, keeps the
ids of the graph it came from.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional

from .errors import (
    EdgeNotFoundError,
    InvalidGraphError,
    InvalidParamsError,
    NotConnectedError,
)


def _require_int(x) -> int:
    if not isinstance(x, int) or isinstance(x, bool):
        raise InvalidGraphError(f"vertex id {x!r} is not an int")
    return x


class _NotAnInt(InvalidGraphError, InvalidParamsError):
    """A vertex argument that is not an int: a bad id, and so no vertex of the graph."""


def norm_edge(u: int, v: int) -> tuple[int, int]:
    """Return the canonical (low, high) form of an edge, rejecting loops."""
    _require_int(u)
    _require_int(v)
    if u == v:
        raise InvalidGraphError(f"self-loop at vertex {u}")
    return (u, v) if u < v else (v, u)


def _edge(u: int, v: int) -> tuple[int, int]:
    """norm_edge for two distinct int ids already known to be in a graph."""
    return (u, v) if u < v else (v, u)


def _reach(nbrs, start: int, inside=None) -> frozenset:
    """start and the vertices that paths from it reach in the graph with
    adjacency nbrs, paths that pass only through inside when it is given."""
    seen = {start}
    todo = [start]
    while todo:
        for nb in nbrs[todo.pop()]:
            if nb not in seen and (inside is None or nb in inside):
                seen.add(nb)
                todo.append(nb)
    return frozenset(seen)


def _parts(nbrs, starts, inside=None):
    """What _reach finds from each of starts, each part once, in the order of
    its first start."""
    seen: set = set()
    for start in starts:
        if start not in seen:
            part = _reach(nbrs, start, inside)
            seen |= part
            yield part


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph: a frozenset of ids and a frozenset of (low, high) edges."""

    vertices: frozenset
    edges: frozenset

    def __post_init__(self):
        if not isinstance(self.vertices, frozenset) or not isinstance(self.edges, frozenset):
            raise InvalidGraphError("vertices and edges must be frozensets")
        if not self.vertices:
            raise InvalidGraphError("a graph needs at least one vertex")
        for x in self.vertices:
            _require_int(x)
        for e in self.edges:
            if type(e) is not tuple or len(e) != 2:
                raise InvalidGraphError(f"edge {e!r} is not a pair")
            u, v = e
            if u not in self.vertices or v not in self.vertices:
                raise InvalidGraphError(f"edge {e!r} has an endpoint outside the vertex set")
            if not (u < v):
                raise InvalidGraphError(f"edge {e!r} is not in (low, high) form")

    # -- construction -----------------------------------------------------

    @classmethod
    def _derived(cls, vertices: frozenset, edges: frozenset, adjacency: Optional[dict] = None) -> "Graph":
        """A graph from fields known to be valid, skipping __post_init__; adjacency,
        when given, is the graph's own and seeds the cached one."""
        g = object.__new__(cls)
        vars(g).update(vertices=vertices, edges=edges)
        if adjacency is not None:
            vars(g)["adjacency"] = adjacency
        return g

    def _derive(self, gone=frozenset(), drop=()) -> "Graph":
        """This graph less the vertices in gone and the edges in drop, unchecked.
        drop holds every edge at a vertex of gone, in (low, high) form.  The
        adjacency is this graph's, with new sets only at the surviving ends of
        dropped edges."""
        nbrs = dict(self.adjacency)
        for x in gone:
            del nbrs[x]
        new: dict = {}
        for u, v in drop:
            for x, y in ((u, v), (v, u)):
                if x in nbrs:
                    if x not in new:
                        new[x] = set(nbrs[x])
                    new[x].discard(y)
        nbrs.update((x, frozenset(s)) for x, s in new.items())
        return Graph._derived(frozenset(nbrs), self.edges.difference(drop), nbrs)

    @classmethod
    def build(cls, edges: Iterable[tuple[int, int]], isolated: Iterable[int] = ()) -> "Graph":
        """Build a graph from an edge iterable; duplicates collapse silently.

        Each edge is checked once by norm_edge and each isolated id once, so
        the fields are valid and __post_init__'s second pass is skipped."""
        es = frozenset(norm_edge(u, v) for u, v in edges)
        vs = frozenset(x for e in es for x in e) | frozenset(map(_require_int, isolated))
        if not vs:
            raise InvalidGraphError("a graph needs at least one vertex")
        return cls._derived(vs, es)

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

    def _vertex(self, x) -> int:
        """x, checked to be an int and a vertex of this graph."""
        if not isinstance(x, int) or isinstance(x, bool):
            raise _NotAnInt(f"vertex id {x!r} is not an int, so not in graph")
        if x not in self.vertices:
            raise InvalidParamsError(f"vertex {x} not in graph")
        return x

    def neighbors(self, x: int) -> tuple:
        """Neighbors of x in ascending order."""
        return tuple(sorted(self.adjacency[self._vertex(x)]))

    def degree(self, x: int) -> int:
        return len(self.adjacency[self._vertex(x)])

    @cached_property
    def min_degree(self) -> int:
        return min(map(len, self.adjacency.values()))

    @cached_property
    def _is_cycle(self) -> bool:
        """Connected, with e == v and no degree below 2: every degree is 2."""
        return self.e == self.v and self.min_degree == 2 and self.is_connected

    @cached_property
    def _girth(self) -> Optional[int]:
        """Length of a shortest cycle, or None when the graph is acyclic.

        A cycle is its own shortest one, read off the connectivity flood with
        no scan.  Otherwise every cycle lies in the 2-core, the graph left
        after repeatedly deleting vertices of degree at most 1; the adjacency
        is copied only when some vertex peels.  A component of the core whose
        vertices all have degree 2 is a single cycle.  Peeling never
        disconnects a graph, so the core is flooded for its components only
        when the graph is disconnected.  Any other cycle passes through a core
        vertex of degree at least 3, so a breadth-first search runs from each
        of those only: a non-tree edge seen at depth d closes a walk of length
        at most 2d + 1 that contains a cycle, and for roots on a shortest
        cycle the detection is exact.
        """
        if self._is_cycle:
            return self.v
        core = self.adjacency
        peel = [x for x, nbrs in core.items() if len(nbrs) <= 1]
        if peel:
            core = {x: set(nbrs) for x, nbrs in core.items()}
        while peel:
            x = peel.pop()
            for nb in core.pop(x):
                core[nb].discard(x)
                if len(core[nb]) == 1:
                    peel.append(nb)
        parts = ([core] if core else []) if self.is_connected else _parts(core, core)
        best = min((len(c) for c in parts if all(len(core[x]) == 2 for x in c)), default=None)
        for root in [x for x, nbrs in core.items() if len(nbrs) >= 3]:
            dist = {root: 0}
            parent = {root: None}
            queue = deque([root])
            while queue:
                cur = queue.popleft()
                if best is not None and dist[cur] * 2 >= best:
                    continue
                for nb in core[cur]:
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

    @cached_property
    def _chain_metric(self) -> int:
        """Most vertices in a maximal run of successively adjacent degree-2 vertices.

        A cycle is one single run, so the metric is its vertex count, read off the
        connectivity flood with no second one.  No degree-2 vertex scores 0.
        """
        if self._is_cycle:
            return self.v
        deg2 = {x for x, nbrs in self.adjacency.items() if len(nbrs) == 2}
        return max(map(len, _parts(self.adjacency, deg2, deg2)), default=0)

    def has_edge(self, u: int, v: int) -> bool:
        """Whether uv is an edge.  A loop never is; a non-int id raises."""
        _require_int(u)
        _require_int(v)
        return u != v and _edge(u, v) in self.edges

    # -- connectivity -----------------------------------------------------

    @cached_property
    def components(self) -> tuple:
        """Connected components as frozensets, ordered by smallest member."""
        return tuple(_parts(self.adjacency, self.sorted_vertices))

    @cached_property
    def is_connected(self) -> bool:
        return len(_reach(self.adjacency, next(iter(self.vertices)))) == self.v

    @property
    def is_tree(self) -> bool:
        return self.is_connected and self.e == self.v - 1

    def bfs_tree(self, root: int) -> frozenset:
        """Edges of a breadth-first spanning tree of the int root's component; each
        vertex queues its unseen neighbours in ascending order, sorting two or more."""
        adj = self.adjacency
        seen = {self._vertex(root)}
        out = []
        queue = [root]
        for cur in queue:
            new = adj[cur] - seen
            seen |= new
            for nb in sorted(new) if len(new) > 1 else new:
                out.append((cur, nb) if cur < nb else (nb, cur))
                queue.append(nb)
        return frozenset(out)

    # -- derived graphs ---------------------------------------------------

    def induced(self, vs: Iterable[int]) -> "Graph":
        keep = frozenset(map(self._vertex, vs))
        if not keep:
            raise InvalidGraphError("a graph needs at least one vertex")
        gone = self.vertices - keep
        return self._derive(gone, {_edge(x, y) for x in gone for y in self.adjacency[x]})

    def without_vertex(self, x: int) -> "Graph":
        return self.induced(self.vertices - {self._vertex(x)})

    def without_edge(self, u: int, v: int) -> "Graph":
        e = norm_edge(u, v)
        if e not in self.edges:
            raise EdgeNotFoundError(f"edge {e} not in graph")
        return self._derive(drop=(e,))

    def without_edges(self, es: Iterable[tuple[int, int]]) -> "Graph":
        drop = set()
        for u, v in es:
            e = norm_edge(u, v)
            if e not in self.edges:
                raise EdgeNotFoundError(f"edge {e} not in graph")
            drop.add(e)
        return self._derive(drop=drop)


# -- metrics ---------------------------------------------------------------


def girth(g: Graph) -> Optional[int]:
    """Length of a shortest cycle, or None when the graph is acyclic; cached on g."""
    return g._girth


def chain_metric(g: Graph) -> int:
    """Most vertices in a run of adjacent degree-2 vertices (a cycle is one); cached on g."""
    return g._chain_metric


def s_count(g: Graph) -> int:
    """Number of vertices whose degree differs from 2."""
    return g.v - list(map(len, g.adjacency.values())).count(2)


def require_connected(g: Graph, what: str = "operation") -> None:
    if not g.is_connected:
        raise NotConnectedError(f"{what} requires a connected graph")
