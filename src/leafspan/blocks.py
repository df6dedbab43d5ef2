"""Block structure of a connected graph: biconnected components, cutpoints,
bridges, large blocks and pendant spines."""

from __future__ import annotations

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


def lowpoint_blocks(adj) -> tuple:
    """Blocks and cutpoints of a connected graph.

    adj maps each vertex to its neighbours, as Graph.adjacency does; any
    mapping whose values iterate and size as neighbour sets serves.  One
    iterative depth-first lowpoint pass from the first key of adj (Hopcroft
    and Tarjan, CACM 16(6), 1973).  Returns (blocks, cuts): each block is a
    list of its vertices, ending with the one it closed at, and cuts is the
    set of cutpoints.  A lone vertex forms one block.  The order of adj
    changes only the order in which blocks and their members come back,
    never which blocks they are.  A pendant other than the root closes its
    block when first reached, with no frame of its own.  A simple graph has
    one edge to a vertex's parent, so parent tracking by vertex tells tree
    edges from back edges.
    """
    # a graph's adjacency follows the order it was built in, so no output
    # may rest on block order: every caller orders what it reads or reads
    # only cuts.  _block_arms sorts by each block's lowest other vertex and
    # sorts the arms; _t2_blocks asserts one core; the removal search sorts
    # large blocks by (-interior, sorted vertices) and edges by rank, which
    # holds the edge id; decompose_blocks sorts its blocks
    root = next(iter(adj))
    disc = {root: 1}  # discovery number from 1
    seen = disc.get
    cuts: set = set()
    vstack: list = []
    blocks: list = []
    counter = 2
    # frame: vertex, parent, neighbour iterator, low, vertex stack height at entry
    stack = [[root, None, iter(adj[root]), 1, 0]]
    while stack:
        frame = stack[-1]
        cur, parent, it, low, _ = frame
        for nb in it:
            d = seen(nb)
            if d is None:
                disc[nb] = d = counter
                counter += 1
                if len(adj[nb]) == 1:
                    blocks.append([nb, cur])
                    cuts.add(cur)
                    continue
                frame[3] = low
                stack.append([nb, cur, iter(adj[nb]), d, len(vstack)])
                vstack.append(nb)
                break
            if d < low and nb != parent:
                low = d
        else:
            stack.pop()
            if not stack:
                break
            up = stack[-1]
            if low < up[3]:
                up[3] = low
            if low >= disc[parent]:
                vpos = frame[4]
                blocks.append(vstack[vpos:] + [parent])
                del vstack[vpos:]
                cuts.add(parent)
    if counter - 1 < len(adj):
        raise NotConnectedError("block decomposition requires a connected graph")
    if sum(vs[-1] == root for vs in blocks) < 2:  # a block ends with the vertex it closed at
        cuts.discard(root)
    if not blocks:
        blocks.append([root])
    return blocks, cuts


def large_blocks(blocks: list, cuts: set) -> list:
    """The large blocks of a lowpoint_blocks result, as (interior size,
    vertices) in the order given: those whose interior, the vertices that
    are not cutpoints, outnumbers their cutpoints."""
    out = []
    for vs in blocks:
        inner = len(vs) - len(cuts.intersection(vs))
        if inner + inner > len(vs):
            out.append((inner, vs))
    return out


def decompose_blocks(g: Graph) -> BlockDecomposition:
    """Split a connected graph into blocks with cutpoints and bridges.

    Packs the result of lowpoint_blocks on g's adjacency into Blocks.  Every
    edge lands in exactly one block, the one holding both its ends; two
    blocks share at most one vertex and any shared vertex is a cutpoint.
    """
    adj = g.adjacency
    raw_blocks, cuts = lowpoint_blocks(adj)
    cutpoints = frozenset(cuts)
    blocks = []
    for vs in raw_blocks:
        vs = frozenset(vs)
        es = frozenset((x, y) for x in vs for y in adj[x] & vs if x < y)
        blocks.append(Block(vs, es, vs & cutpoints, vs - cutpoints))
    blocks.sort(key=lambda b: tuple(sorted(b.vertices)))
    bridges = frozenset(e for b in blocks if len(b.vertices) == 2 for e in b.edges)
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


def _run(adj, a: int, y: int) -> list:
    """The walk from a through its neighbour y that goes on while it meets
    vertices of degree 2: a, y, and each next vertex up to and including the
    first one, y among them, whose degree is not 2.  adj maps each vertex to
    its neighbours, as Graph.adjacency does.  The walk ends whenever a's
    degree is not 2."""
    run = [a, y]
    while len(adj[y]) == 2:
        u, v = adj[y]
        y = v if u == run[-2] else u
        run.append(y)
    return run


def find_spines(g: Graph) -> tuple:
    """All maximal pendant spines of a connected graph.

    A spine is the run from a vertex of degree 3 or more through one of its
    neighbours that ends at a pendant.  A graph that is itself a path has no
    such vertex, so it has no spines at all.  Spines are pairwise
    vertex-disjoint and come back sorted by (base, first path vertex).
    """
    adj, spines = g.adjacency, []
    for a in g.sorted_vertices:
        if len(adj[a]) >= 3:
            runs = (_run(adj, a, y) for y in g.neighbors(a))
            spines += [Spine(tuple(run[1:]), a) for run in runs if len(adj[run[-1]]) == 1]
    return tuple(spines)
