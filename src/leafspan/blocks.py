"""Block structure of a connected graph: biconnected components, cutpoints,
bridges, pendant spines, and the essential/inessential cutpoint split."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .errors import NotConnectedError
from .graph import Graph, norm_edge


@dataclass(frozen=True)
class Block:
    """One biconnected component.

    boundary holds the cutpoints of the whole graph lying in this block,
    interior the remaining block vertices.  A block is empty when it has no
    interior vertex and large when the interior outnumbers the boundary.
    """

    vertices: frozenset
    edges: frozenset
    boundary: frozenset
    interior: frozenset

    @property
    def is_empty(self) -> bool:
        return not self.interior

    @property
    def is_large(self) -> bool:
        return len(self.interior) > len(self.boundary)


@dataclass(frozen=True)
class BlockDecomposition:
    blocks: tuple
    cutpoints: frozenset
    bridges: frozenset


def decompose_blocks(g: Graph) -> BlockDecomposition:
    """Split a connected graph into blocks with cutpoints and bridges.

    Classic depth-first lowpoint computation, run iteratively.  Every edge
    lands in exactly one block; two blocks share at most one vertex and any
    shared vertex is a cutpoint.
    """
    verts = g.sorted_vertices
    if g.v == 1:
        only = verts[0]
        block = Block(
            vertices=frozenset({only}),
            edges=frozenset(),
            boundary=frozenset(),
            interior=frozenset({only}),
        )
        return BlockDecomposition((block,), frozenset(), frozenset())

    root = verts[0]
    disc: dict = {root: 0}
    low = {root: 0}
    counter = 1
    articulation = set()
    edge_stack: list = []
    raw_blocks: list = []
    root_children = 0
    stack = [(root, None, iter(g.neighbors(root)))]
    while stack:
        cur, parent, it = stack[-1]
        descended = False
        for nb in it:
            if nb == parent:
                continue
            if nb not in disc:
                edge_stack.append((cur, nb))
                disc[nb] = low[nb] = counter
                counter += 1
                if cur == root:
                    root_children += 1
                stack.append((nb, cur, iter(g.neighbors(nb))))
                descended = True
                break
            if disc[nb] < disc[cur]:
                edge_stack.append((cur, nb))
                low[cur] = min(low[cur], disc[nb])
        if descended:
            continue
        stack.pop()
        if stack:
            up = stack[-1][0]
            low[up] = min(low[up], low[cur])
            if low[cur] >= disc[up]:
                comp = []
                while True:
                    e = edge_stack.pop()
                    comp.append(e)
                    if e == (up, cur):
                        break
                raw_blocks.append(comp)
                if up != root or root_children > 1:
                    articulation.add(up)
    if len(disc) < g.v:
        raise NotConnectedError("block decomposition requires a connected graph")
    if edge_stack:
        raise AssertionError("edge stack not drained; decomposition bug")

    cutpoints = frozenset(articulation)
    blocks = []
    bridges = set()
    for comp in raw_blocks:
        es = frozenset(norm_edge(u, v) for u, v in comp)
        vs = frozenset(x for e in es for x in e)
        boundary = vs & cutpoints
        blocks.append(
            Block(vertices=vs, edges=es, boundary=boundary, interior=vs - boundary)
        )
        if len(es) == 1:
            bridges.add(next(iter(es)))
    blocks.sort(key=lambda b: tuple(sorted(b.vertices)))
    return BlockDecomposition(tuple(blocks), cutpoints, frozenset(bridges))


@dataclass(frozen=True)
class Spine:
    """A pendant path hanging off a cutpoint.

    path runs from the vertex adjacent to the base out to the pendant end;
    every non-terminal path vertex has degree exactly 2 in the host graph.
    """

    path: tuple
    base: int

    @property
    def pendant(self) -> int:
        return self.path[-1]

    @property
    def size(self) -> int:
        return len(self.path)


def find_spines(g: Graph) -> tuple:
    """All maximal pendant spines of a connected graph.

    A graph that is itself a path has no base vertex to attach to, so it has
    no spines at all.  Spines are pairwise vertex-disjoint and come back
    sorted by (base, first path vertex).
    """
    spines = []
    for p in g.sorted_vertices:
        if g.degree(p) != 1:
            continue
        path = [p]
        prev, cur = p, g.neighbors(p)[0]
        while g.degree(cur) == 2:
            path.append(cur)
            a, b = g.adjacency[cur]
            prev, cur = cur, (b if a == prev else a)
        if g.degree(cur) == 1:
            continue
        path.reverse()
        spines.append(Spine(path=tuple(path), base=cur))
    spines.sort(key=lambda s: (s.base, s.path[0]))
    return tuple(spines)


def essential_cutpoints(g: Graph) -> frozenset:
    """Cutpoints except those that merely detach one spine.

    A cutpoint is inessential when removing it leaves exactly two components
    and one of them is a spine based at the cutpoint.  g - a has one
    component per block at a, so that holds exactly for the vertices on a
    spine path and for spine bases lying in two blocks.  Every interior
    vertex of a path is inessential this way, so a path has no essential
    cutpoints.
    """
    dec = decompose_blocks(g)
    spines = find_spines(g)
    if not spines and g.min_degree == 1:
        return frozenset()  # a pendant that starts no spine: g is a path
    on_spine = {x for s in spines for x in s.path}
    bases = {s.base for s in spines}
    blocks_at = Counter(x for b in dec.blocks for x in b.boundary)
    return frozenset(
        a
        for a in dec.cutpoints
        if a not in on_spine and not (a in bases and blocks_at[a] == 2)
    )
