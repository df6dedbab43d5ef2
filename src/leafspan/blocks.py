"""Block structure of a connected graph: one lowpoint pass for its blocks
and cutpoints, the large-block rule, and the degree-2 run walk that pendant
spines are read off."""

from __future__ import annotations

from .errors import NotConnectedError


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
    # holds the edge id
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
