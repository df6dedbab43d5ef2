"""Generators for the families on which the lower bounds are exact.

Three families: trees of triangles (tight for the s-count bound), and
cycle-with-pendant-path graphs in two regimes (tight for the girth/chain
bound).  A FamilySpec names one family instance; glue_extremal_chain(spec,
copies) builds it, chaining copies while preserving tightness.  Every graph
here is built once, by Graph.build on one edge list.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .bounds import _check_int
from .errors import InvalidParamsError
from .graph import Graph, chain_metric, girth

TRIANGLE_TREE = "TriangleTree"
CYCLE_SPINE_SPARSE = "CycleSpineSparse"
CYCLE_SPINE_DENSE = "CycleSpineDense"


@dataclass(frozen=True)
class FamilySpec:
    """Which extremal family to build, and at which parameters."""

    kind: str
    n: Optional[int] = None
    g: Optional[int] = None
    k: Optional[int] = None

    def __post_init__(self):
        for name, least in (("n", 1), ("g", 3), ("k", 1)):
            if getattr(self, name) is not None:
                _check_int(name, getattr(self, name), least)
        if self.kind == TRIANGLE_TREE:
            if self.n is None:
                raise InvalidParamsError("triangle tree needs n >= 1")
            if self.g is not None or self.k is not None:
                raise InvalidParamsError("triangle tree takes no g or k; n fixes its size")
        elif self.kind in (CYCLE_SPINE_SPARSE, CYCLE_SPINE_DENSE):
            if self.g is None:
                raise InvalidParamsError("cycle spine needs g >= 3")
            if self.k is None:
                raise InvalidParamsError("cycle spine needs k >= 1")
            sparse = self.k < self.g - 2
            if sparse and self.kind == CYCLE_SPINE_DENSE:
                raise InvalidParamsError("dense regime needs k >= g-2")
            if not sparse and self.kind == CYCLE_SPINE_SPARSE:
                raise InvalidParamsError("sparse regime needs k < g-2")
            want_n = (self.g + 1) // 2 - 1
            if self.kind == CYCLE_SPINE_SPARSE and self.n not in (None, want_n):
                raise InvalidParamsError(
                    f"sparse cycle spine at g={self.g} forces n={want_n}"
                )
            if self.kind == CYCLE_SPINE_DENSE and self.n is not None:
                raise InvalidParamsError("dense cycle spine takes no n; g and k fix its size")
        else:
            raise InvalidParamsError(f"unknown family kind {self.kind!r}")


def gen_triangle_tree(n: int) -> Graph:
    """Caterpillar of n triangles, each vertex carrying one outside edge.

    The host shape is a path of triangles; end triangles carry two pendant
    vertices, inner ones carry one, so there are n+2 pendants and v = 4n+2.
    Every non-pendant vertex is a cutpoint, which is what pins the maximum
    leaf count to exactly n+2.
    """
    _check_int("n", n, 1)
    edges = [e for a in range(0, 3 * n, 3) for e in ((a, a + 1), (a, a + 2), (a + 1, a + 2))]
    # the right hook of triangle i meets the left hook of triangle i+1; every
    # triangle vertex no hook uses gets one pendant, in ascending id order
    hooks = [(3 * i + 1 if i else 0, 3 * i + 3) for i in range(n - 1)]
    hooked = {x for hook in hooks for x in hook}
    free = [x for x in range(3 * n) if x not in hooked]
    g = Graph.build(edges + hooks + [(x, 3 * n + j) for j, x in enumerate(free)])
    assert g.v == 4 * n + 2
    assert sum(len(nbrs) == 1 for nbrs in g.adjacency.values()) == n + 2
    return g


def _cycle_with_spines(cycle_len: int, marked, k: int) -> Graph:
    edges = [(i, (i + 1) % cycle_len) for i in range(cycle_len)]
    nxt = cycle_len
    for base in marked:
        prev = base
        for _ in range(k + 1):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
    return Graph.build(edges)


def gen_cycle_spine(g: int, k: int) -> Graph:
    """Cycle with pendant paths of k+1 vertices; regime chosen by k vs g-2.

    Dense (k >= g-2): a g-cycle with a pendant path on every cycle vertex,
    v = g(k+2).  Sparse (k < g-2): an even cycle of 2n+2 vertices with
    n = ceil(g/2)-1, pendant paths on the n+1 alternating positions,
    v = 2n+2 + (n+1)(k+1).  Both have chain metric exactly k and girth at
    least g.
    """
    _check_int("g", g, 3)
    _check_int("k", k, 1)
    if k >= g - 2:
        out = _cycle_with_spines(g, range(g), k)
        assert out.v == g * (k + 2)
    else:
        n = (g + 1) // 2 - 1
        out = _cycle_with_spines(2 * n + 2, range(0, 2 * n + 2, 2), k)
        assert out.v == 2 * n + 2 + (n + 1) * (k + 1)
    assert chain_metric(out) == k
    assert girth(out) >= g
    return out


def glue_extremal_chain(base: FamilySpec, copies: int) -> Graph:
    """Chain copies of a family instance, gluing pendant ends together.

    Each junction glues the lowest pendant of the running graph to the
    lowest pendant of a fresh copy, then contracts k+1 of the resulting
    junction bridges (one bridge for the triangle family) so the junction
    becomes a chain of at most k degree-2 vertices again.  Vertex counts
    drop by k+2 per junction relative to the disjoint union, and the bound
    stays exactly attained.

    The chain is built in one pass on an edge list: each copy's ids are
    shifted above the running graph's, and the copy's lowest pendant and
    the k+1 vertices the contractions fold into it, walked inward, all map
    onto the running graph's lowest pendant.  A junction takes one pendant
    and adds the copy's others, all higher, so the running pendants stay
    ascending and junction j takes the j-th of them.
    """
    _check_int("copies", copies, 1)
    piece = _gen_base(base)
    fold = (base.k + 1) if base.k is not None else 1
    adj, low = piece.adjacency, min(piece.vertices)
    ends = sorted(x for x in piece.vertices if len(adj[x]) == 1)
    walk = ends[:1]  # each step takes the lowest neighbour of the walk so far
    for _ in range(fold):
        walk.append(min(y for x in walk for y in adj[x] if y not in walk))
    kept = sorted(piece.vertices.difference(walk))
    edges, pendants, top = list(piece.edges), list(ends), max(piece.vertices)
    for j in range(copies - 1):
        off = top + 1 - low
        onto = {x: x + off for x in kept}
        onto.update(dict.fromkeys(walk, pendants[j]))
        edges += [(onto[u], onto[v]) for u, v in piece.edges if onto[u] != onto[v]]
        pendants += [onto[x] for x in ends if x not in walk]
        top = kept[-1] + off
    out = Graph.build(edges)
    if base.k is not None:
        assert chain_metric(out) == base.k
    return out


def _gen_base(spec: FamilySpec) -> Graph:
    if spec.kind == TRIANGLE_TREE:
        return gen_triangle_tree(spec.n)
    return gen_cycle_spine(spec.g, spec.k)

