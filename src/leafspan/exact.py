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
  Once feasibility holds the gains always cover V - T.  With k the fewest
  gains covering it, and at least the cutpoints outside I, no completion
  beats n - |I| - k leaves;
- stop: no tree has more leaves than the degree-sum ceiling (_leaf_ceiling),
  so the search ends once a tree reaches it, and never starts when greedy's
  tree already does.

This is the package's only exact search; the tests check it against the
brute-force oracles in tests/conftest.py.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from typing import Iterator, Optional

from .blocks import lowpoint_blocks
from .bounds import _check_int
from .errors import InvalidParamsError
from .graph import Graph, _edge, require_connected
from .trees import SpanningTree, _pack


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
    """Greedy leafy spanning tree: not optimal in general, but always at
    least ceil((s + 2d - 1)/4) leaves, s the vertices of degree other than
    2 and d >= 3 the maximum degree (2 leaves on K2, paths and cycles).
    That is at least (s - 2)/4 + 2, which is how construct_theorem1
    certifies that bound (the proof sits beside constructive._t1_greedy);
    construct_theorem2 takes this tree wherever its leaves reach a node's
    need.

    Starts from a maximum-degree vertex and repeatedly expands the tree
    vertex with the most neighbors outside the tree, claiming all of them at
    once.  Ties break toward the lowest id.  A lazy heap keyed (-outside
    count, id) picks the vertex: counts only fall, so a current key is best.
    """
    require_connected(g, "greedy_leafy")
    n = g.v
    adj = g.adjacency
    outside = {x: len(nbs) for x, nbs in adj.items()}
    d = max(outside.values())
    start = min(x for x, deg in outside.items() if deg == d)
    in_tree, edges = {start}, []
    for nb in adj[start]:
        outside[nb] -= 1
    heap = [(-outside[start], start)]
    while len(in_tree) < n:
        key, x = heapq.heappop(heap)
        if -key != outside[x]:
            heapq.heappush(heap, (-outside[x], x))
            continue
        for nb in adj[x] - in_tree:
            edges.append((x, nb) if x < nb else (nb, x))
            in_tree.add(nb)
            for w in adj[nb]:
                outside[w] -= 1
            heapq.heappush(heap, (-outside[nb], nb))
    return _pack(g, edges)


def _bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _leaf_ceiling(nbrs, cuts) -> int:
    """The most leaves any spanning tree of the connected graph with
    adjacency nbrs can have, n >= 2, given its cutpoints cuts."""
    # Let T be a spanning tree with L leaves and internal set D.  Its degrees
    # sum to 2(n - 1) and each leaf gives 1, so sum over D of (deg_T - 2) =
    # L - 2 = n - |D| - 2, and deg_T x <= deg x.  So f(D) = sum over D of
    # (deg x - 1) - n + 2 >= 0.  T less a leaf x still spans G - x, so a
    # cutpoint is never a leaf and D holds cuts.  Each vertex adds deg - 1
    # >= 0 to f, so among the sets of |D| vertices holding cuts, cuts plus
    # the highest other degrees has the largest f.  With j the fewest such
    # vertices that make f >= 0, |D| >= |cuts| + j and L <= n - |cuts| - j.
    n = len(nbrs)
    slack = 2 - n + sum(len(nbrs[x]) - 1 for x in cuts)
    internal = len(cuts)
    for d in sorted((len(s) for x, s in nbrs.items() if x not in cuts), reverse=True):
        if slack >= 0:
            break
        slack += d - 1
        internal += 1
    return n - internal


def exact_mlst(g: Graph, node_budget: Optional[int] = None) -> ExactResult:
    """Maximum leaf count over all spanning trees, with a witness tree.

    node_budget, None or an int >= 1, caps the number of search nodes
    expanded; on exhaustion the best tree found so far is returned flagged
    non-optimal.  nodes_explored is 0 when greedy's tree already has the
    most leaves the degree-sum ceiling allows: no search is needed.
    """
    if node_budget is not None:
        _check_int("node_budget", node_budget, 1)
    require_connected(g, "exact_mlst")
    if g.v < 2:
        raise InvalidParamsError("exact_mlst requires at least two vertices")
    start_time = time.perf_counter()
    seed = greedy_leafy(g)
    nbrs = g.adjacency
    cuts = lowpoint_blocks(nbrs)[1]
    ceiling = _leaf_ceiling(nbrs, cuts)
    best = seed.leaf_count
    if best == ceiling:
        return ExactResult(best, seed, 0, time.perf_counter() - start_time, True)

    verts = g.sorted_vertices
    n = len(verts)
    full = (1 << n) - 1
    bit = {x: 1 << i for i, x in enumerate(verts)}  # vertex verts[i] is bit i
    adj = [sum(map(bit.__getitem__, nbrs[x])) for x in verts]
    deg = [len(nbrs[x]) for x in verts]
    cut = sum(map(bit.__getitem__, cuts))
    if cut:
        roots = [max(_bits(cut), key=lambda i: (deg[i], -i))]
    else:
        low = min(range(n), key=lambda i: (deg[i], i))
        roots = sorted(_bits(adj[low] | 1 << low), key=lambda i: (-deg[i], i))
    stack = [
        (1 << r, adj[r] | 1 << r, sum(1 << q for q in roots[:j]))
        for j, r in reversed(list(enumerate(roots)))
    ]
    best_set, nodes = None, 0
    while stack and best < ceiling:
        if nodes == node_budget:
            break
        nodes += 1
        inner, dom, leaf = stack.pop()
        size = inner.bit_count()
        out = full & ~dom
        if not out:
            if n - size > best:
                best, best_set = n - size, inner
            continue
        gains = []
        pick, pick_gain = -1, 0
        todo = full & ~inner & ~leaf
        while todo:
            low = todo & -todo
            todo ^= low
            x = low.bit_length() - 1
            gain = (adj[x] & out).bit_count()
            if dom & low:
                if not gain:
                    leaf |= low
                    continue
                if gain > pick_gain:
                    pick, pick_gain = x, gain
            else:
                gain = min(gain, deg[x] - 1)
            gains.append(gain)
        # with no leaf fixed, I's part of G - F is all of the connected G
        if leaf:
            reach, near = 0, inner
            while frontier := near & ~leaf & ~reach:
                reach |= frontier
                while frontier:
                    low = frontier & -frontier
                    frontier ^= low
                    near |= adj[low.bit_length() - 1]
            if out & ~near:
                continue
        # The loop always breaks: the gains cover V - T.  Here the node passed
        # the flood, or F is empty, so D, I's part of G - F, is connected,
        # holds I, avoids F and dominates V.  Give each y outside T to a
        # neighbour in D - I: its BFS parent in G[D] from I when y is in D,
        # else any neighbour in D; never one in I, as y is not in N[I].  An
        # open x is given at most gain(x) = |N(x) - T|; an outside x at most
        # deg x - 1 as well, since its own parent is not given to it.  So the
        # gains over D - I, within V - I - F, sum to at least |V - T|.
        need, k = out.bit_count(), 0
        for gain in sorted(gains, reverse=True):
            k += 1
            need -= gain
            if need <= 0:
                break
        if n - size - max(k, (cut & ~inner).bit_count()) <= best:
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
                edges.append(_edge(verts[x], verts[y]))
                if best_set >> y & 1:
                    queue.append(y)
        witness = _pack(g, edges)
    elapsed = time.perf_counter() - start_time
    return ExactResult(witness.leaf_count, witness, nodes, elapsed, best == ceiling or not stack)
