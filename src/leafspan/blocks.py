"""Block structure of a connected graph: biconnected components, cutpoints,
bridges, large blocks and pendant spines."""

from __future__ import annotations

from itertools import compress
from dataclasses import dataclass

from .errors import NotConnectedError
from .graph import Graph


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


def index_adjacency(g: Graph) -> list:
    """g relabelled to 0..n-1 in sorted-id order, as adjacency lists.

    adj[x] lists (y, edge id) for every edge xy, where edge ids index
    g.sorted_edges.  The relabelling is monotone, so edge tuples and sorted
    vertex lists compare as they do on g's own ids.
    """
    idx = {x: i for i, x in enumerate(g.sorted_vertices)}
    adj: list = [[] for _ in idx]
    for eid, (u, v) in enumerate(g.sorted_edges):
        a, b = idx[u], idx[v]
        adj[a].append((b, eid))
        adj[b].append((a, eid))
    return adj


def lowpoint_blocks(adj: list) -> tuple:
    """Blocks and cutpoints of a connected graph on vertices 0..n-1.

    adj[x] lists (y, edge id) for every edge xy.  One iterative depth-first
    lowpoint pass from vertex 0 (Hopcroft and Tarjan, CACM 16(6), 1973).
    Returns (blocks, cut): each block is a (vertices, edge ids) pair of
    lists, and cut[x] is true when x is a cutpoint.  A lone vertex forms one
    block without edges.  The order of adj changes only the order in which
    blocks and their members come back, never which blocks they are.  A
    pendant other than vertex 0 closes its block when first reached, with
    no frame of its own.
    """
    n = len(adj)
    disc = [0] * n  # discovery number from 1; 0 means not reached yet
    low = [0] * n
    cut = [False] * n
    disc[0] = low[0] = 1
    counter = 2
    vstack: list = []
    estack: list = []
    blocks: list = []
    # frame: vertex, tree edge in, neighbor iterator, stack heights at entry
    stack = [(0, -1, iter(adj[0]), 0, 0)]
    while stack:
        cur, into, it, _, _ = frame = stack[-1]
        dcur = disc[cur]
        for nb, eid in it:
            d = disc[nb]
            if not d:
                disc[nb] = low[nb] = counter
                counter += 1
                if len(adj[nb]) == 1:
                    blocks.append(([nb, cur], [eid]))
                    cut[cur] = True
                    continue
                stack.append((nb, eid, iter(adj[nb]), len(estack), len(vstack)))
                estack.append(eid)
                vstack.append(nb)
                break
            if d < dcur and eid != into:
                estack.append(eid)
                if d < low[cur]:
                    low[cur] = d
        else:
            stack.pop()
            if not stack:
                break
            up = stack[-1][0]
            if low[cur] < low[up]:
                low[up] = low[cur]
            if low[cur] >= disc[up]:
                epos, vpos = frame[3], frame[4]
                blocks.append((vstack[vpos:] + [up], estack[epos:]))
                del estack[epos:], vstack[vpos:]
                cut[up] = True
    if counter - 1 < n:
        raise NotConnectedError("block decomposition requires a connected graph")
    cut[0] = sum(vs[-1] == 0 for vs, _ in blocks) > 1  # a block ends with the vertex it closed at
    if estack:
        raise AssertionError("edge stack not drained; decomposition bug")
    if n == 1:
        blocks.append(([0], []))
    return blocks, cut


def large_blocks(blocks: list, cut: list) -> list:
    """The large blocks of a lowpoint_blocks result, as (interior size,
    vertices, edge ids) in the order given: those whose interior, the
    vertices that are not cutpoints, outnumbers their cutpoints."""
    out = []
    for vs, es in blocks:
        inner = len(vs) - sum(cut[x] for x in vs)
        if inner + inner > len(vs):
            out.append((inner, vs, es))
    return out


def decompose_blocks(g: Graph) -> BlockDecomposition:
    """Split a connected graph into blocks with cutpoints and bridges.

    Packs the result of lowpoint_blocks on index_adjacency(g) into Blocks.  Every edge lands in exactly one block; two
    blocks share at most one vertex and any shared vertex is a cutpoint.
    """
    verts, edges = g.sorted_vertices, g.sorted_edges
    raw_blocks, cut = lowpoint_blocks(index_adjacency(g))
    cutpoints = frozenset(compress(verts, cut))
    blocks = []
    for vs, es in raw_blocks:
        vs = frozenset(verts[i] for i in vs)
        blocks.append(Block(vs, frozenset(edges[e] for e in es), vs & cutpoints, vs - cutpoints))
    blocks.sort(key=lambda b: tuple(sorted(b.vertices)))
    bridges = frozenset(edges[es[0]] for _, es in raw_blocks if len(es) == 1)
    return BlockDecomposition(tuple(blocks), cutpoints, bridges)


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
