"""Shared brute-force oracles, deliberately independent of the library.

Everything here recomputes facts from first principles (edge subsets,
union-find, exhaustive enumeration) so the package under test is never
asked to certify itself.
"""

import random
from itertools import combinations

from leafspan import Graph


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


def greedy_leafy_reference(g: Graph):
    """Tree edges of the original quadratic greedy_leafy, kept as a reference.

    Start at a maximum-degree vertex, then expand the tree vertex with the
    most outside neighbors (lowest id on ties), claiming all of them.
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
            if len(new) > len(best_new):
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
