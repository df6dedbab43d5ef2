"""Correctness checks that share no code with the library under test.

Everything here works on plain edge lists: tree checks, the bound formulas
re-derived as exact fractions, closed forms on the extremal families, and a
brute-force maximum leaf number through minimum connected dominating sets.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction
from itertools import combinations


class WrongAnswer(Exception):
    """An output of the library disagrees with an oracle."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise WrongAnswer(what)


def edge_hash(vertices, edges) -> str:
    """The library's documented 12-hex graph hash, recomputed from scratch.

    Canonical text is one "v <id>" line per isolated vertex, then one "u v"
    line per sorted edge.
    """
    deg = {x: 0 for x in vertices}
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    lines = [f"v {x}" for x in sorted(vertices) if deg[x] == 0]
    lines += [f"{u} {v}" for u, v in sorted(edges)]
    return hashlib.sha256(("\n".join(lines) + "\n").encode()).hexdigest()[:12]


def tree_leaves(vertices, edges, tree_edges) -> int:
    """Leaf count of tree_edges after checking it spans the graph as a tree."""
    host = {(min(u, v), max(u, v)) for u, v in edges}
    tree = {(min(u, v), max(u, v)) for u, v in tree_edges}
    vs = set(vertices)
    require(tree <= host, "tree uses an edge outside the graph")
    require(len(tree) == len(tree_edges), "tree repeats an edge")
    require(len(tree) == len(vs) - 1, f"tree has {len(tree)} edges for {len(vs)} vertices")
    parent = {x: x for x in vs}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    deg = dict.fromkeys(vs, 0)
    for u, v in tree:
        ru, rv = find(u), find(v)
        require(ru != rv, "tree edges close a cycle")
        parent[ru] = rv
        deg[u] += 1
        deg[v] += 1
    if len(vs) == 1:
        return 0
    return sum(1 for d in deg.values() if d == 1)


# -- bounds, re-derived ------------------------------------------------------


def bound1(s: int) -> Fraction:
    """(s - 2) / 4 + 2, s = vertices whose degree is not 2."""
    return Fraction(s - 2, 4) + 2


def bound_kw(v: int) -> Fraction:
    return Fraction(v, 4) + 2


def alpha(g: int, k: int) -> Fraction:
    if k >= g - 2:
        return Fraction(g - 2, (g - 1) * (k + 2))
    n = (g + 1) // 2 - 1
    return Fraction(n, n * (k + 3) + 1)


def bound2(v: int, g: int, k: int) -> Fraction:
    """alpha(g, k) * (v - k - 2) + 2 for girth >= g and chains <= k."""
    return alpha(g, k) * (v - k - 2) + 2


# -- structure, recomputed -----------------------------------------------------


def degrees(vertices, edges) -> dict:
    deg = dict.fromkeys(vertices, 0)
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return deg


def s_count(vertices, edges) -> int:
    return sum(1 for d in degrees(vertices, edges).values() if d != 2)


def chain_metric(vertices, edges) -> int:
    """Largest connected set of degree-2 vertices."""
    deg = degrees(vertices, edges)
    adj = {x: [] for x in vertices}
    for u, v in edges:
        if deg[u] == 2 and deg[v] == 2:
            adj[u].append(v)
            adj[v].append(u)
    seen, best = set(), 0
    for x in vertices:
        if deg[x] != 2 or x in seen:
            continue
        seen.add(x)
        stack, size = [x], 0
        while stack:
            size += 1
            for nb in adj[stack.pop()]:
                if nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        best = max(best, size)
    return best


def girth(vertices, edges):
    """Shortest cycle length by BFS from every vertex, None when acyclic."""
    adj = {x: [] for x in vertices}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    best = None
    for root in vertices:
        dist, parent, queue = {root: 0}, {root: None}, [root]
        for cur in queue:
            for nb in adj[cur]:
                if nb not in dist:
                    dist[nb] = dist[cur] + 1
                    parent[nb] = cur
                    queue.append(nb)
                elif nb != parent[cur]:
                    cyc = dist[cur] + dist[nb] + 1
                    best = cyc if best is None else min(best, cyc)
    return best


# -- brute-force maximum leaf number -------------------------------------------


def brute_max_leaves(n: int, edges) -> int:
    """Maximum leaf number of a connected graph on 0..n-1.

    For n >= 3 it equals n minus the size of a minimum connected dominating
    set, found here by trying vertex subsets in order of size.
    """
    if n == 1:
        return 0
    if n == 2:
        return 2
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    closed = [adj[x] | 1 << x for x in range(n)]
    full = (1 << n) - 1
    for size in range(1, n + 1):
        for subset in combinations(range(n), size):
            dom = 0
            for x in subset:
                dom |= closed[x]
            if dom != full:
                continue
            inside = 0
            for x in subset:
                inside |= 1 << x
            reach = 1 << subset[0]
            frontier = reach
            while frontier:
                grow = 0
                rest = frontier
                while rest:
                    low = rest & -rest
                    grow |= adj[low.bit_length() - 1]
                    rest ^= low
                frontier = grow & inside & ~reach
                reach |= frontier
            if reach == inside:
                return n - size
    raise AssertionError("a connected graph always has a connected dominating set")
