"""Seeded input generators owned by the benchmark.

Every generator takes a ``random.Random`` and returns plain edge lists, so
the graphs the library sees depend only on the workload seed and never on
library code.
"""

from __future__ import annotations

import random


def connected(n: int, edges) -> bool:
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        for nb in adj[stack.pop()]:
            if nb not in seen:
                seen.add(nb)
                stack.append(nb)
    return len(seen) == n


def cubic_edges(n: int, rng: random.Random) -> list:
    """Connected simple 3-regular graph on 0..n-1 by the pairing model.

    Three points per vertex are matched uniformly at random; matchings with
    a loop, a double edge or more than one component are rejected whole.
    """
    if n < 4 or n % 2:
        raise ValueError(f"cubic graphs need an even n >= 4, got {n}")
    points = [x for x in range(n) for _ in range(3)]
    while True:
        rng.shuffle(points)
        edges = set()
        ok = True
        for i in range(0, len(points), 2):
            u, v = points[i], points[i + 1]
            e = (min(u, v), max(u, v))
            if u == v or e in edges:
                ok = False
                break
            edges.add(e)
        if ok and connected(n, edges):
            return sorted(edges)


def sparse_edges(n: int, chords: int, rng: random.Random) -> list:
    """Random recursive tree on 0..n-1 plus ``chords`` distinct extra edges."""
    edges = {(rng.randrange(i), i) for i in range(1, n)}
    if chords > n * (n - 1) // 2 - (n - 1):
        raise ValueError(f"{chords} chords do not fit on {n} vertices")
    while chords:
        u, v = sorted(rng.sample(range(n), 2))
        if (u, v) not in edges:
            edges.add((u, v))
            chords -= 1
    return sorted(edges)


def relabel_edges(edges, rng: random.Random) -> list:
    """The same graph on ids 0..n-1, assigned by a uniformly random permutation."""
    old = sorted({x for e in edges for x in e})
    new = list(range(len(old)))
    rng.shuffle(new)
    perm = dict(zip(old, new))
    return sorted((min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges)
