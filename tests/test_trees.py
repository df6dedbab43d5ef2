import pytest

from leafspan import (
    Graph,
    InvalidParamsError,
    PreconditionViolatedError,
    extend_tree_lemma3,
    spanning_tree,
)
from leafspan.trees import check_valid, validate


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
    check_valid(good)

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
    with pytest.raises(InvalidParamsError):
        check_valid(bad_count)


def test_extend_tree_preconditions():
    # triangle (1,2,3) with pendant 4 on 3, all hanging from a=0 via edge (0,3)
    g = Graph.build([(1, 2), (2, 3), (1, 3), (3, 4), (0, 3)])
    rest_comp = frozenset({1, 2, 3, 4})
    comp_host = g.induced(rest_comp)
    t_prime = _bfs_spanning(comp_host, root=3)

    with pytest.raises(PreconditionViolatedError, match="vertices"):
        extend_tree_lemma3(t_prime, 9, 3, g)
    with pytest.raises(PreconditionViolatedError, match="adjacent"):
        extend_tree_lemma3(t_prime, 0, 1, g)
    with pytest.raises(PreconditionViolatedError, match="cutpoint"):
        # 1 is adjacent to nothing outside the triangle, so make a=0 adjacent
        # to a non-cutpoint first: rebuild with edge (0,1)
        g2 = Graph.build([(1, 2), (2, 3), (1, 3), (3, 4), (0, 1)])
        comp2 = g2.induced(frozenset({1, 2, 3, 4}))
        extend_tree_lemma3(_bfs_spanning(comp2, root=1), 0, 1, g2)

    wrong_host = _bfs_spanning(g)
    with pytest.raises(PreconditionViolatedError, match="component"):
        extend_tree_lemma3(wrong_host, 0, 3, g)


def test_extend_tree_gains_a_leaf():
    g = Graph.build([(1, 2), (2, 3), (1, 3), (3, 4), (0, 3)])
    comp_host = g.induced(frozenset({1, 2, 3, 4}))
    t_prime = _bfs_spanning(comp_host, root=3)
    out = extend_tree_lemma3(t_prime, 0, 3, g)
    assert validate(out) is None
    assert out.leaf_count >= t_prime.leaf_count + 1


def test_extend_tree_multiple_components():
    # a=0 joins three otherwise separate pieces; b=2 is a cutpoint of its piece
    g = Graph.build(
        [(1, 2), (2, 3), (0, 2), (0, 4), (4, 5), (0, 6)]
    )
    comp_host = g.induced(frozenset({1, 2, 3}))
    t_prime = spanning_tree(comp_host, comp_host.edges)
    out = extend_tree_lemma3(t_prime, 0, 2, g)
    assert validate(out) is None
    assert out.leaf_count >= t_prime.leaf_count + 1
    assert out.host == g
