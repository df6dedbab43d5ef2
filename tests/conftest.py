"""Shared brute-force oracles, deliberately independent of the library.

Everything here recomputes facts from first principles (edge subsets,
union-find, exhaustive enumeration) so the package under test is never
asked to certify itself.
"""

import random
from collections import deque
from itertools import combinations

from leafspan import Graph, InvalidParamsError, NotConnectedError, SearchExhaustedError
from leafspan.graph import _edge, norm_edge, require_connected


def brute_u(g: Graph):
    """Maximum leaf count over all spanning trees, by raw subset search."""
    vs = sorted(g.vertices)
    n = len(vs)
    if n == 1:
        return 0
    idx = {x: i for i, x in enumerate(vs)}
    es = sorted(g.edges)
    best = None
    for combo in combinations(es, n - 1):
        parent = list(range(n))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        ok = True
        for u, v in combo:
            ru, rv = find(idx[u]), find(idx[v])
            if ru == rv:
                ok = False
                break
            parent[ru] = rv
        if not ok:
            continue
        deg = [0] * n
        for u, v in combo:
            deg[idx[u]] += 1
            deg[idx[v]] += 1
        leaves = sum(1 for d in deg if d == 1)
        if best is None or leaves > best:
            best = leaves
    return best


def brute_cutpoints(g: Graph):
    if g.v <= 2:
        return set()
    return {x for x in g.vertices if len(g.without_vertex(x).components) > 1}


def brute_bridges(g: Graph):
    out = set()
    for u, v in g.edges:
        if len(g.without_edge(u, v).components) > len(g.components):
            out.add((u, v))
    return out


def connected_graphs(n, max_count=None):
    """All connected labelled graphs on vertices 0..n-1."""
    pairs = list(combinations(range(n), 2))
    found = 0
    for mask in range(1 << len(pairs)):
        edges = [pairs[j] for j in range(len(pairs)) if mask >> j & 1]
        if len(edges) < n - 1:
            continue
        g = Graph.build(edges, isolated=range(n))
        if not g.is_connected:
            continue
        yield g
        found += 1
        if max_count is not None and found >= max_count:
            return


def random_connected(rng: random.Random, v: int) -> Graph:
    """Random connected graph: recursive tree plus random chords."""
    edges = [(rng.randrange(i), i) for i in range(1, v)]
    have = {tuple(sorted(e)) for e in edges}
    hi = v * (v - 1) // 2 - (v - 1)
    extra = rng.randint(0, min(v, hi))
    tries = 0
    while extra > 0 and tries < 10 * v:
        tries += 1
        x, y = rng.sample(range(v), 2)
        e = (min(x, y), max(x, y))
        if e not in have:
            have.add(e)
            extra -= 1
    return Graph.build(have)


def random_sparse(rng: random.Random, v: int, chords: int) -> Graph:
    """Random recursive tree on 0..v-1 plus exactly `chords` distinct chords."""
    have = {(rng.randrange(i), i) for i in range(1, v)}
    while len(have) < v - 1 + chords:
        x, y = rng.sample(range(v), 2)
        have.add((min(x, y), max(x, y)))
    return Graph.build(have)


def greedy_leafy_reference(g: Graph, fewest: bool = False):
    """Tree edges of the original quadratic greedy_leafy, kept as a reference.

    Start at a maximum-degree vertex, then expand the tree vertex with the
    most outside neighbors (lowest id on ties), claiming all of them.  With
    fewest, a mutant expands the one with the fewest instead, at least one.
    """
    if g.v == 1:
        return frozenset()
    start = max(g.sorted_vertices, key=lambda x: (g.degree(x), -x))
    in_tree = {start}
    edges = []
    while len(in_tree) < g.v:
        best_x, best_new = None, ()
        for x in sorted(in_tree):
            new = tuple(nb for nb in g.neighbors(x) if nb not in in_tree)
            better = len(new) < len(best_new) if fewest else len(new) > len(best_new)
            if new and (better or not best_new):
                best_x, best_new = x, new
        for nb in best_new:
            edges.append((min(best_x, nb), max(best_x, nb)))
            in_tree.add(nb)
    return frozenset(edges)


def random_cubic(rng: random.Random, n: int) -> Graph:
    """Connected simple 3-regular graph on 0..n-1 by the pairing model.

    Matchings with a loop, a repeated edge or more than one component are
    rejected whole, so the draw is uniform over connected cubic graphs.
    """
    points = [x for x in range(n) for _ in range(3)]
    while True:
        rng.shuffle(points)
        pairs = {tuple(sorted(points[i : i + 2])) for i in range(0, 3 * n, 2)}
        if len(pairs) == 3 * n // 2 and all(u != v for u, v in pairs):
            g = Graph.build(pairs)
            if g.v == n and g.is_connected:
                return g


def random_cubic_plus(rng: random.Random, n: int, chords: int) -> Graph:
    """random_cubic(rng, n) with `chords` distinct extra edges, at most
    n * (n - 4) / 2 of them: minimum degree 3 and, for chords >= 1, maximum
    degree 4 or more."""
    g = random_cubic(rng, n)
    have = set(g.edges)
    while len(have) < g.e + chords:
        x, y = rng.sample(range(n), 2)
        have.add((min(x, y), max(x, y)))
    return Graph.build(have)


def subdivided(g: Graph) -> Graph:
    """g with every edge split by a fresh vertex of degree 2, the vertex on
    the i-th of g's sorted edges numbered max(g.vertices) + 1 + i."""
    n = max(g.vertices) + 1
    return Graph.build([e for i, (u, v) in enumerate(g.sorted_edges) for e in ((u, n + i), (n + i, v))])


def walk_test_graphs() -> list:
    """Subdivided random cubic graphs of 8-14 vertices, bare and with pendant
    paths of 1-3 vertices at four of their vertices, and the dense and sparse
    extremal chains of 1, 2 and 5 copies."""
    from leafspan import CYCLE_SPINE_DENSE, CYCLE_SPINE_SPARSE, FamilySpec, glue_extremal_chain

    out = []
    for n in (8, 10, 12, 14):
        for seed in range(5):
            rng = random.Random(1000 * n + seed)
            g = subdivided(random_cubic(rng, n))
            edges, top = list(g.sorted_edges), max(g.vertices)
            for prev in rng.sample(g.sorted_vertices, 4):
                for top in range(top + 1, top + 1 + rng.randint(1, 3)):
                    edges.append((prev, top))
                    prev = top
            out += [g, Graph.build(edges)]
    for spec in (
        FamilySpec(CYCLE_SPINE_DENSE, g=4, k=2),
        FamilySpec(CYCLE_SPINE_SPARSE, g=7, k=2),
        FamilySpec(CYCLE_SPINE_DENSE, g=5, k=3),
        FamilySpec(CYCLE_SPINE_SPARSE, g=6, k=2),
    ):
        out += [glue_extremal_chain(spec, copies) for copies in (1, 2, 5)]
    return out


def replace_greedy(request, *cases):
    """A theorem-2 request with its greedy case, found by identity, replaced
    by cases; with none it is dropped, so the girth/chain descent runs at
    every node whose greedy tree would have been taken."""
    from leafspan.constructive import _t2_greedy

    at = [getattr(case, "func", None) is _t2_greedy for case in request.cases]
    assert at.count(True) == 1, "not a theorem-2 request"
    i = at.index(True)
    return request._replace(cases=request.cases[:i] + cases + request.cases[i + 1 :])


def brute_girth(g: Graph):
    """Shortest cycle length: for each edge uv, the shortest u-v path without uv, plus 1."""
    adj = {x: set() for x in g.vertices}
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    best = None
    for u, v in g.edges:
        dist = {u: 0}
        queue = deque([u])
        while queue and v not in dist:
            cur = queue.popleft()
            for nb in adj[cur]:
                if nb not in dist and (cur, nb) != (u, v):
                    dist[nb] = dist[cur] + 1
                    queue.append(nb)
        if v in dist and (best is None or dist[v] + 1 < best):
            best = dist[v] + 1
    return best


# The Graph-level removal search that remove_large_blocks replaced with an
# index kernel.  It reads its blocks off the reference lowpoint pass below,
# not the library's.  It finds a smallest valid set; the library's set may
# be larger, never smaller.


def _chain_condition_holds(g: Graph, reduced: Graph) -> bool:
    """Adjacent degree-2 pairs of the reduced graph must predate the removal."""
    for u, v in reduced.sorted_edges:
        if reduced.degree(u) == 2 and reduced.degree(v) == 2:
            if g.degree(u) != 2 or g.degree(v) != 2:
                return False
    return True


def large_blocks_reference(g: Graph):
    """(interior, vertices, edges) of each block of g whose interior, the
    vertices that are not cutpoints, outnumbers its cutpoints."""
    blocks, cuts = blocks_reference(g)
    return [(vs - cuts, vs, es) for vs, es in blocks if len(vs - cuts) > len(vs & cuts)]


def _removal_candidates(cur: Graph):
    """Non-bridge edges of the current graph, large-block edges first.

    Any connectivity-preserving removal set can be ordered so that each
    edge is a non-bridge at its turn, so restricting to non-bridges loses
    no solutions.  Ordering prefers edges of the biggest large block whose
    endpoints keep degree at least 3; that is a heuristic only.
    """
    bridges = {e for vs, es in blocks_reference(cur)[0] if len(vs) == 2 for e in es}
    large = large_blocks_reference(cur)
    large.sort(key=lambda b: (-len(b[0]), sorted(b[1])))
    in_large = {}
    for rank, (_, _, es) in enumerate(large):
        for e in es:
            in_large.setdefault(e, rank)
    out = [e for e in cur.sorted_edges if e not in bridges]
    out.sort(
        key=lambda e: (
            in_large.get(e, len(large)),
            0 if cur.degree(e[0]) > 3 and cur.degree(e[1]) > 3 else 1,
            e,
        )
    )
    return out


def remove_large_blocks_reference(g: Graph) -> frozenset:
    """Smallest edge set whose removal leaves no large blocks.

    The returned set keeps the graph connected and never manufactures an
    adjacent pair of new degree-2 vertices.  Search is iterative deepening
    on the set size with memoized dead states; exhausting it would mean the
    guarantee this implements is wrong, hence the hard error.
    """
    require_connected(g, "remove_large_blocks")
    if g.v <= 2:
        raise InvalidParamsError("need more than two vertices")
    if not large_blocks_reference(g):
        return frozenset()

    max_size = g.e - (g.v - 1)
    failed = {}  # frozenset(F) -> best budget that still failed

    def search(cur: Graph, removed: frozenset, budget: int):
        if not large_blocks_reference(cur):
            if _chain_condition_holds(g, cur):
                return removed
            # structure is fine but the chain condition is not; removing
            # more edges can still fix it, so fall through when budget left
        if budget == 0:
            return None
        if failed.get(removed, -1) >= budget:
            return None
        for u, v in _removal_candidates(cur):
            nxt = cur.without_edge(u, v)
            got = search(nxt, removed | {norm_edge(u, v)}, budget - 1)
            if got is not None:
                return got
        failed[removed] = budget
        return None

    for size in range(1, max_size + 1):
        got = search(g, frozenset(), size)
        if got is not None:
            return got
    raise SearchExhaustedError(
        f"no valid removal set up to {max_size} edges; this should be impossible"
    )


# The lowpoint pass as it stood before pendants closed their blocks without a
# frame of their own and before it read a graph's own adjacency, kept
# verbatim with the index build it ran on: the library's blocks and
# cutpoints, read back to ids, must equal its output.


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


def lowpoint_blocks_reference(adj: list) -> tuple:
    """Blocks and cutpoints of a connected graph on vertices 0..n-1.

    adj[x] lists (y, edge id) for every edge xy.  One iterative depth-first
    lowpoint pass from vertex 0 (Hopcroft and Tarjan, CACM 16(6), 1973).
    Returns (blocks, cut): each block is a (vertices, edge ids) pair of
    lists, and cut[x] is true when x is a cutpoint.  A lone vertex forms one
    block without edges.  The order of adj changes only the order in which
    blocks and their members come back, never which blocks they are.
    """
    n = len(adj)
    disc = [0] * n  # discovery number from 1; 0 means not reached yet
    low = [0] * n
    cut = [False] * n
    disc[0] = low[0] = 1
    counter = 2
    root_children = 0
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
                stack.append((nb, eid, iter(adj[nb]), len(estack), len(vstack)))
                estack.append(eid)
                vstack.append(nb)
                disc[nb] = low[nb] = counter
                counter += 1
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
                if up:
                    cut[up] = True
                else:
                    root_children += 1
                    cut[0] = root_children > 1
    if counter - 1 < n:
        raise NotConnectedError("block decomposition requires a connected graph")
    if estack:
        raise AssertionError("edge stack not drained; decomposition bug")
    if n == 1:
        blocks.append(([0], []))
    return blocks, cut


def blocks_reference(g: Graph) -> tuple:
    """lowpoint_blocks_reference on connected g, read back to g's ids:
    (blocks, cuts), each block a (vertices, edges) pair of frozensets and
    cuts the set of cutpoints.  The bridges are the edges of the blocks of
    two vertices."""
    verts, edges = g.sorted_vertices, g.sorted_edges
    blocks, cut = lowpoint_blocks_reference(index_adjacency(g))
    blocks = [(frozenset(verts[i] for i in vs), frozenset(edges[j] for j in es)) for vs, es in blocks]
    return blocks, frozenset(x for x, c in zip(verts, cut) if c)


def gen_triangle_tree_reference(n: int) -> Graph:
    """The edge list of the library's triangle tree as an earlier version
    built it, case by case: triangle i, hooked to its neighbours, carries a
    pendant at each of its spots."""
    edges = []
    for i in range(n):
        a, b, c = 3 * i, 3 * i + 1, 3 * i + 2
        edges += [(a, b), (a, c), (b, c)]
    for i in range(n - 1):
        # right hook of triangle i meets the left hook of triangle i+1
        right = 3 * i + 1 if i > 0 else 0
        edges.append((right, 3 * (i + 1)))
    pend = 3 * n
    for i in range(n):
        spots = []
        if i == 0 and n == 1:
            spots = [0, 1, 2]
        elif i == 0:
            spots = [1, 2]
        elif i == n - 1:
            spots = [3 * i + 1, 3 * i + 2]
        else:
            spots = [3 * i + 2]
        for s in spots:
            edges.append((s, pend))
            pend += 1
    return Graph.build(edges)


# The graph walks as they stood before one flood fill and one degree-2 run
# walk served them all, kept verbatim as functions of the graph: the
# library's components, chain metric, girth, split sides and spines must
# equal theirs.


def components_reference(g: Graph) -> tuple:
    """Connected components as frozensets, ordered by smallest member."""
    seen = set()
    comps = []
    for start in g.sorted_vertices:
        if start in seen:
            continue
        comp = {start}
        queue = deque([start])
        while queue:
            cur = queue.popleft()
            for nb in g.adjacency[cur]:
                if nb not in comp:
                    comp.add(nb)
                    queue.append(nb)
        seen |= comp
        comps.append(frozenset(comp))
    return tuple(comps)


def chain_metric_reference(g: Graph) -> int:
    """Most vertices in a maximal run of successively adjacent degree-2 vertices."""
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


def girth_reference(g: Graph):
    """Length of a shortest cycle, or None: closed degree-2 runs of the
    2-core, then a breadth-first search from each core vertex of degree 3
    or more."""
    core = {x: set(nbrs) for x, nbrs in g.adjacency.items()}
    peel = [x for x, nbrs in core.items() if len(nbrs) <= 1]
    while peel:
        x = peel.pop()
        for nb in core.pop(x):
            core[nb].discard(x)
            if len(core[nb]) == 1:
                peel.append(nb)
    best = None
    seen = set()
    for start in core:
        if start in seen or len(core[start]) != 2:
            continue
        run = {start}  # the degree-2 vertices reachable through degree-2 ones
        todo = [start]
        closed = True
        while todo:
            for nb in core[todo.pop()]:
                if len(core[nb]) != 2:
                    closed = False
                elif nb not in run:
                    run.add(nb)
                    todo.append(nb)
        seen |= run
        if closed and (best is None or len(run) < best):
            best = len(run)
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


def side_reference(nbrs: dict, start: int) -> frozenset:
    """The component that contains start of the graph with adjacency nbrs."""
    seen = {start}
    todo = [start]
    while todo:
        for nb in nbrs[todo.pop()]:
            if nb not in seen:
                seen.add(nb)
                todo.append(nb)
    return frozenset(seen)


def find_spines_reference(g: Graph) -> tuple:
    """(path, base) of every maximal pendant spine of a connected graph,
    walked from each pendant inward, sorted by (base, first path vertex)."""
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
        spines.append((tuple(path), cur))
    spines.sort(key=lambda s: (s[1], s[0][0]))
    return tuple(spines)


# The breadth-first tree as it stood before the list queue, kept verbatim as
# a function of the graph: the library's must give equal output.


def bfs_tree_reference(g: Graph, root: int) -> frozenset:
    """Edges of a breadth-first spanning tree of root's component; deterministic."""
    if root not in g.vertices:
        raise InvalidParamsError(f"vertex {root} not in graph")
    seen = {root}
    out = []
    queue = deque([root])
    while queue:
        cur = queue.popleft()
        for nb in g.neighbors(cur):
            if nb not in seen:
                seen.add(nb)
                out.append(_edge(cur, nb))
                queue.append(nb)
    return frozenset(out)


def identify(g: Graph, x: int, y: int, h: Graph = None) -> Graph:
    """g with its vertex y merged into x; given h, g beside a copy of h whose
    ids are shifted above g's, with the copy of h's vertex y merged into g's
    x.  The merged vertex keeps x's id, the loop the merge would make is
    dropped and parallel edges collapse.  Gluing at two pendants and
    contracting a bridge are both such a merge."""
    edges = list(g.edges)
    if h is not None:
        off = max(g.vertices) + 1 - min(h.vertices)
        edges += [(u + off, v + off) for u, v in h.edges]
        y += off
    merged = [(x if u == y else u, x if v == y else v) for u, v in edges]
    return Graph.build([(u, v) for u, v in merged if u != v], isolated=(x,))


def glue_extremal_chain_reference(base, copies: int) -> Graph:
    """The library's extremal chain as an earlier version built it: each
    junction glues the running graph's lowest pendant to a fresh copy's,
    then contracts the junction's bridges one at a time, rebuilding the
    whole graph at every step."""
    from leafspan.extremal import _gen_base

    def pendants(g):
        return sorted(x for x in g.vertices if g.degree(x) == 1)

    piece = _gen_base(base)
    fold = (base.k + 1) if base.k is not None else 1
    out = piece
    for _ in range(copies - 1):
        off = max(out.vertices) + 1 - min(piece.vertices)
        joint = pendants(out)[0]
        cur = identify(out, joint, pendants(piece)[0], piece)
        for _ in range(fold):
            nb = min(nb for nb in cur.neighbors(joint) if nb >= off + min(piece.vertices))
            cur = identify(cur, joint, nb)
        out = cur
    return out
