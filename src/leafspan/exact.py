"""Exact maximum-leaf spanning tree computation at desk scale.

For n >= 3 the internal vertices of a spanning tree form a connected
dominating set, and such a set D extends to a tree with at least n - |D|
leaves, so u = n - gamma_c.  The solver branches on vertices over states
(I, T, F): I is a connected set chosen internal, T = N[I], and F is fixed as
leaves.  The open vertex of T - I - F with most neighbours outside T, lowest
id first, is made internal, then a leaf.  Sets are Python-int bitsets over
the sorted vertices; an explicit stack replaces recursion.  Proved facts cut:

- roots: a tree has an internal vertex in N[v], so the roots are N[v] for a
  minimum-degree v, earlier roots fixed as leaves; a cutpoint is internal in
  every tree, so it is the only root when one exists, and never a leaf;
- forced leaf: an open vertex with no neighbour outside T is never needed;
- feasibility: each vertex outside T needs a neighbour in I's part of G - F;
- bound: a new internal x dominates at most gain(x) = |N(x) - T| new
  vertices, and at most deg x - 1 outside T, where its parent dominates it.
  With k the fewest gains covering V - T, and at least the cutpoints outside
  I, no completion beats n - |I| - k leaves.

This is the package's only exact search; the tests check it against the
brute-force oracles in tests/conftest.py.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterator, Optional

from .blocks import decompose_blocks
from .errors import InvalidParamsError, NotConnectedError
from .graph import Graph
from .trees import SpanningTree, spanning_tree


@dataclass(frozen=True)
class ExactResult:
    """Outcome of an exact solve.

    When the node budget ran out, optimal is False and u_value is only a
    lower bound carried by a valid witness tree.
    """

    u_value: int
    witness: SpanningTree
    nodes_explored: int
    elapsed: float
    optimal: bool


def greedy_leafy(g: Graph) -> SpanningTree:
    """Leafy spanning tree heuristic; valid but not optimal in general.

    Starts from a maximum-degree vertex and repeatedly expands the tree
    vertex with the most neighbors outside the tree, claiming all of them at
    once.  Ties break toward the lowest id.  A lazy heap keyed (-outside
    count, id) picks the vertex: counts only fall, so a current key is best.
    """
    if not g.is_connected:
        raise NotConnectedError("greedy_leafy requires a connected graph")
    if g.v == 1:
        return spanning_tree(g, ())
    adj = g.adjacency
    start = max(g.sorted_vertices, key=lambda x: (len(adj[x]), -x))
    outside = {x: len(nbs) for x, nbs in adj.items()}
    in_tree, edges = {start}, []
    for nb in adj[start]:
        outside[nb] -= 1
    heap = [(-outside[start], start)]
    while len(in_tree) < g.v:
        key, x = heapq.heappop(heap)
        if -key != outside[x]:
            heapq.heappush(heap, (-outside[x], x))
            continue
        for nb in adj[x] - in_tree:
            edges.append((x, nb))
            in_tree.add(nb)
            for w in adj[nb]:
                outside[w] -= 1
            heapq.heappush(heap, (-outside[nb], nb))
    return spanning_tree(g, edges)


def _bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def exact_mlst(g: Graph, node_budget: Optional[int] = None) -> ExactResult:
    """Maximum leaf count over all spanning trees, with a witness tree.

    node_budget caps the number of search nodes; on exhaustion the best tree
    found so far is returned flagged non-optimal.
    """
    if not g.is_connected:
        raise NotConnectedError("exact_mlst requires a connected graph")
    if g.v < 2:
        raise InvalidParamsError("exact_mlst requires at least two vertices")
    start_time = time.perf_counter()
    seed = greedy_leafy(g)
    if g.v == 2:
        return ExactResult(2, seed, 0, time.perf_counter() - start_time, True)

    verts = g.sorted_vertices
    index = {x: i for i, x in enumerate(verts)}
    n = len(verts)
    full = (1 << n) - 1
    adj = [0] * n
    for u, v in g.sorted_edges:
        adj[index[u]] |= 1 << index[v]
        adj[index[v]] |= 1 << index[u]
    deg = [a.bit_count() for a in adj]
    cut = sum(1 << index[x] for x in decompose_blocks(g).cutpoints)
    if cut:
        roots = [max(_bits(cut), key=lambda i: (deg[i], -i))]
    else:
        low = min(range(n), key=lambda i: (deg[i], i))
        roots = sorted(_bits(adj[low] | 1 << low), key=lambda i: (-deg[i], i))
    stack = [
        (1 << r, adj[r] | 1 << r, sum(1 << q for q in roots[:j]))
        for j, r in reversed(list(enumerate(roots)))
    ]
    best, best_set, nodes = seed.leaf_count, None, 0
    while stack:
        nodes += 1
        if node_budget is not None and nodes > node_budget:
            break
        inner, dom, leaf = stack.pop()
        size = inner.bit_count()
        out = full & ~dom
        if not out:
            if n - size > best:
                best, best_set = n - size, inner
            continue
        gains = []
        pick, pick_gain = -1, 0
        for x in _bits(full & ~inner & ~leaf):
            gain = (adj[x] & out).bit_count()
            if dom >> x & 1:
                if not gain:
                    leaf |= 1 << x
                    continue
                if gain > pick_gain:
                    pick, pick_gain = x, gain
            else:
                gain = min(gain, deg[x] - 1)
            gains.append(gain)
        reach, near = 0, inner
        while frontier := near & ~leaf & ~reach:
            reach |= frontier
            for x in _bits(frontier):
                near |= adj[x]
        if out & ~near:
            continue
        need = out.bit_count()
        covered = accumulate(sorted(gains, reverse=True))
        k = next((j for j, c in enumerate(covered, 1) if c >= need), None)
        if k is None or n - size - max(k, (cut & ~inner).bit_count()) <= best:
            continue
        bit = 1 << pick
        if not cut & bit:
            stack.append((inner, dom, leaf | bit))
        stack.append((inner | bit, dom | adj[pick], leaf))

    witness = seed
    if best_set is not None:
        # BFS that expands only I: a tree inside G[I], the rest hung off I
        root = next(_bits(best_set))
        seen, queue, edges = 1 << root, [root], []
        for x in queue:
            for y in _bits(adj[x] & ~seen):
                seen |= 1 << y
                edges.append((verts[x], verts[y]))
                if best_set >> y & 1:
                    queue.append(y)
        witness = spanning_tree(g, edges)
    elapsed = time.perf_counter() - start_time
    return ExactResult(witness.leaf_count, witness, nodes, elapsed, not stack)

