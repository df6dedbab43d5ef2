import pytest

from leafspan import (
    Graph,
    greedy_leafy,
    spanning_tree,
)
from leafspan.trees import _pack, validate


def _bfs_spanning(g, root=None):
    root = min(g.vertices) if root is None else root
    return spanning_tree(g, g.bfs_tree(root))


def test_factory_leaf_count():
    g = Graph.path(4)
    t = spanning_tree(g, g.edges)
    assert t.leaf_count == 2
    s = Graph.star(5)
    assert spanning_tree(s, s.edges).leaf_count == 5
    single = Graph.path(1)
    assert spanning_tree(single, ()).leaf_count == 0


def test_validate_clauses():
    g = Graph.cycle(4)
    good = _bfs_spanning(g)
    assert validate(good) is None

    foreign = spanning_tree(g, [(0, 1), (1, 2), (0, 2)])
    assert validate(foreign) == "edge {} not in host".format((0, 2))

    short = spanning_tree(g, [(0, 1)])
    assert validate(short) == "edge count"

    g2 = Graph.complete(4)
    cyc = spanning_tree(g2, [(0, 1), (1, 2), (0, 2)])
    assert validate(cyc) == "not spanning"

    bad_count = spanning_tree(g, g.bfs_tree(0))
    object.__setattr__(bad_count, "leaf_count", 99)
    assert validate(bad_count) == "leaf count"


def test_spanning_tree_packs_host_edges_as_pack_does():
    # spanning_tree normalizes its edges and hands them to _pack, whose leaf
    # count, read off the edges alone, is the host's for host edges
    nx = pytest.importorskip("networkx")
    atlas = [Graph.build(a.edges(), isolated=a.nodes()) for a in nx.graph_atlas_g() if len(a) and nx.is_connected(a)]
    assert Graph.path(1) in atlas and Graph.path(2) in atlas
    for g in atlas:
        for es in (g.bfs_tree(min(g.vertices)), greedy_leafy(g).tree_edges):
            t = spanning_tree(g, es)
            assert t == _pack(g, frozenset(es)) and validate(t) is None
            assert spanning_tree(g, [(b, a) for a, b in es]) == t

