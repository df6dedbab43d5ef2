import inspect
import random
import re
import sys

import pytest

from leafspan import (
    BoundNotMetError,
    ChainTooLongError,
    Graph,
    InvalidParamsError,
    NotConnectedError,
    bound_kw,
    bound_theorem1,
    bound_theorem2,
    chain_metric,
    check_lemma5_structure,
    construct_theorem1,
    construct_theorem2,
    decompose_blocks,
    exact_mlst,
    gen_cycle_spine,
    gen_triangle_tree,
    girth,
    partition_uwxy,
    remove_large_blocks,
    replay_trace,
    s_count,
)
from leafspan.constructive import _chain_condition_holds
from leafspan.trees import validate
from conftest import connected_graphs, random_connected, random_cubic


def _t2_params(g):
    k = max(chain_metric(g), 1)
    gv = girth(g)
    return k, (3 if gv is None else gv)


def test_single_edge():
    g = Graph.build([(0, 1)])
    t, tr = construct_theorem1(g)
    assert validate(t) is None and t.leaf_count == 2
    assert tr.base_kinds == ("base-edge",)
    t2, tr2 = construct_theorem2(g, 1)
    assert t2.leaf_count == 2


def test_triangle_tree_certificate():
    from leafspan import gen_triangle_tree

    g = gen_triangle_tree(2)
    t, tr = construct_theorem1(g)
    assert validate(t) is None
    assert t.leaf_count >= 4


def test_petersen_certificate():
    g = Graph.petersen()
    t, tr = construct_theorem1(g)
    assert validate(t) is None
    assert t.leaf_count >= bound_theorem1(s_count(g)).value == 4
    # mindeg-3 base goes straight to the exact core at this size
    assert tr.base_kinds == ("base-core-exact",)
    assert t.leaf_count >= bound_kw(10).value


def test_large_cubic_core_is_solved_exactly():
    rng = random.Random(2022)
    for v in (20, 22, 24):
        g = random_cubic(rng, v)
        t, tr = construct_theorem1(g)
        assert tr.base_kinds == ("base-core-exact",)
        assert replay_trace(g, tr, theorem=1).tree_edges == t.tree_edges
        assert t.leaf_count == exact_mlst(g).u_value >= bound_kw(v).value


def test_exhaustive_small_theorem1():
    for g in connected_graphs(5):
        t, tr = construct_theorem1(g)
        assert validate(t) is None
        assert t.leaf_count >= bound_theorem1(s_count(g)).value
        assert replay_trace(g, tr, theorem=1).tree_edges == t.tree_edges


def test_exhaustive_small_theorem2():
    for g in connected_graphs(5):
        k, gg = _t2_params(g)
        t, tr = construct_theorem2(g, k)
        assert validate(t) is None
        assert t.leaf_count >= bound_theorem2(g.v, gg, k).value
        assert replay_trace(g, tr, theorem=2, k=k).tree_edges == t.tree_edges


def test_random_batch_both_theorems():
    rng = random.Random(1234)
    for _ in range(120):
        g = random_connected(rng, rng.randint(2, 11))
        t1, tr1 = construct_theorem1(g)
        assert validate(t1) is None
        assert t1.leaf_count >= bound_theorem1(s_count(g)).value
        k, gg = _t2_params(g)
        t2, tr2 = construct_theorem2(g, k)
        assert validate(t2) is None
        assert t2.leaf_count >= bound_theorem2(g.v, gg, k).value


def test_construct_never_beats_exact():
    rng = random.Random(88)
    for _ in range(60):
        g = random_connected(rng, rng.randint(2, 9))
        u = exact_mlst(g).u_value
        assert construct_theorem1(g)[0].leaf_count <= u
        k, _ = _t2_params(g)
        assert construct_theorem2(g, k)[0].leaf_count <= u


def test_theorem1_validation():
    with pytest.raises(NotConnectedError):
        construct_theorem1(Graph.build([(0, 1), (2, 3)]))
    with pytest.raises(InvalidParamsError):
        construct_theorem1(Graph.path(1))


def test_theorem2_validation():
    g = Graph.cycle(5)
    with pytest.raises(InvalidParamsError):
        construct_theorem2(g, 0)
    with pytest.raises(InvalidParamsError):
        construct_theorem2(g, True)
    with pytest.raises(ChainTooLongError):
        construct_theorem2(g, 2)  # a 5-cycle is one chain of 5
    with pytest.raises(InvalidParamsError):
        construct_theorem2(Graph.complete(4), 1, girth_floor=7)
    with pytest.raises(InvalidParamsError):
        construct_theorem2(Graph.complete(4), 1, girth_floor=2)


def test_girth_floor_weakens_bound():
    g = gen_cycle_spine(6, 2)
    t, _ = construct_theorem2(g, 2, girth_floor=3)
    assert t.leaf_count >= bound_theorem2(g.v, 3, 2).value


def test_trace_line_format():
    g = Graph.petersen()
    _, tr = construct_theorem1(g)
    pat = re.compile(r"^case=[\w.-]+ op=(contract|delete|split|extend|base) args=(\d+(,\d+)*)?$")
    for line in tr.lines():
        assert pat.match(line), line


def test_trace_preorder_matches_children():
    g = Graph.build([(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3)])
    _, tr = construct_theorem1(g)
    nodes = list(tr.preorder())
    assert nodes[0] is tr.root
    assert all(n.v >= 2 for n in nodes)


def test_theorem1_measure_strictly_decreases():
    rng = random.Random(5150)
    for _ in range(40):
        g = random_connected(rng, rng.randint(3, 10))
        _, tr = construct_theorem1(g)
        seen = []
        replay_trace(g, tr, theorem=1, collect=seen)
        stack = {}
        for depth, sub in seen:
            if depth > 0:
                parent = stack[depth - 1]
                assert (sub.v, sub.e) < (parent.v, parent.e), g.sorted_edges
            stack[depth] = sub


def test_theorem2_measure_strictly_decreases():
    rng = random.Random(6001)
    for _ in range(40):
        g = random_connected(rng, rng.randint(3, 10))
        k, _ = _t2_params(g)
        _, tr = construct_theorem2(g, k)
        seen = []
        replay_trace(g, tr, theorem=2, k=k, collect=seen)
        stack = {}
        for depth, sub in seen:
            assert chain_metric(sub) <= k
            if depth > 0:
                parent = stack[depth - 1]
                mu_p = exact_mlst(parent).u_value
                mu_c = exact_mlst(sub).u_value
                assert (mu_c, sub.e) < (mu_p, parent.e), g.sorted_edges
            stack[depth] = sub


def test_replay_rejects_corrupt_trace():
    import dataclasses

    g = Graph.petersen()
    t, tr = construct_theorem1(g)
    bad_root = dataclasses.replace(tr.root, case="1", op="contract", args=(0, 1))
    bad = dataclasses.replace(tr, root=bad_root)
    with pytest.raises(InvalidParamsError, match="trace mismatch"):
        replay_trace(g, bad, theorem=1)


def test_replay_rejects_extra_child_steps():
    import dataclasses

    g = Graph.petersen()
    _, tr = construct_theorem1(g)
    assert tr.lines() == ["case=base-core-exact op=base args="]
    padded = dataclasses.replace(tr.root, children=(tr.root, tr.root))
    bad = dataclasses.replace(tr, root=padded)
    assert len(bad.lines()) == 3
    with pytest.raises(InvalidParamsError, match="extra child step"):
        replay_trace(g, bad, theorem=1)


def test_replay_needs_k_for_theorem2():
    g = Graph.cycle(5)
    t, tr = construct_theorem2(g, 5)
    with pytest.raises(InvalidParamsError):
        replay_trace(g, tr, theorem=2)


def test_replay_checks_theorem2_params_like_construct():
    g = Graph.cycle(6)
    _, tr = construct_theorem2(g, 6)
    # a girth floor above the measured girth is rejected, as construct does
    with pytest.raises(InvalidParamsError):
        construct_theorem2(g, 6, girth_floor=1000)
    with pytest.raises(InvalidParamsError):
        replay_trace(g, tr, theorem=2, k=6, girth_floor=1000)
    with pytest.raises(ChainTooLongError):
        replay_trace(g, tr, theorem=2, k=2)
    with pytest.raises(NotConnectedError):
        replay_trace(Graph.build([(0, 1), (2, 3)]), tr, theorem=2, k=1)
    with pytest.raises(NotConnectedError):
        replay_trace(Graph.build([(0, 1), (2, 3)]), tr, theorem=1)


def test_descent_depth_does_not_use_the_call_stack():
    # trace depth is v-2 on the path and cycle and triangles-1 on the
    # triangle tree, all beyond the recursion headroom allowed here
    headroom = 60
    cases = [(Graph.path(300), 1), (Graph.cycle(300), 1), (gen_triangle_tree(80), 2)]
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + headroom)
    try:
        for g, theorem in cases:
            k = max(chain_metric(g), 1) if theorem == 2 else None
            if theorem == 1:
                t, tr = construct_theorem1(g)
            else:
                t, tr = construct_theorem2(g, k)
            seen = []
            assert replay_trace(g, tr, theorem=theorem, k=k, collect=seen) == t
            assert max(depth for depth, _ in seen) > headroom + 10
    finally:
        sys.setrecursionlimit(old)


# -- large-block elimination -------------------------------------------------


def _check_lemma4_post(g, f):
    reduced = g.without_edges(f)
    assert reduced.is_connected
    assert all(not b.is_large for b in decompose_blocks(reduced).blocks)
    for u, v in reduced.sorted_edges:
        if reduced.degree(u) == 2 and reduced.degree(v) == 2:
            assert g.degree(u) == 2 and g.degree(v) == 2


def test_remove_large_blocks_k4():
    g = Graph.complete(4)
    f = remove_large_blocks(g)
    assert len(f) == 3
    _check_lemma4_post(g, f)
    # K4 minus three edges, still connected, no large block: that is a star
    assert g.without_edges(f).e == 3


def test_remove_large_blocks_triangle_pendant():
    g = Graph.build([(0, 1), (0, 2), (1, 2), (0, 3)])
    f = remove_large_blocks(g)
    assert f == frozenset({(1, 2)})
    _check_lemma4_post(g, f)


def test_remove_large_blocks_cycle():
    g = Graph.cycle(6)
    f = remove_large_blocks(g)
    assert len(f) == 1
    _check_lemma4_post(g, f)


def test_remove_large_blocks_noop():
    # pendant on every triangle vertex: boundary 3, interior 0, not large
    g = Graph.build([(0, 1), (1, 2), (2, 0), (0, 3), (1, 4), (2, 5)])
    assert remove_large_blocks(g) == frozenset()
    assert remove_large_blocks(Graph.path(5)) == frozenset()


def test_remove_large_blocks_petersen():
    g = Graph.petersen()
    f = remove_large_blocks(g)
    assert len(f) == 5
    _check_lemma4_post(g, f)


def test_remove_large_blocks_validation():
    with pytest.raises(InvalidParamsError):
        remove_large_blocks(Graph.build([(0, 1)]))
    with pytest.raises(NotConnectedError):
        remove_large_blocks(Graph.build([(0, 1), (1, 2), (3, 4), (4, 5), (5, 3)]))


def test_remove_large_blocks_seeded_batch():
    rng = random.Random(404)
    done = 0
    while done < 80:
        g = random_connected(rng, rng.randint(3, 10))
        f = remove_large_blocks(g)
        _check_lemma4_post(g, f)
        done += 1


def test_chain_condition_helper():
    g = Graph.complete(4)
    # removing a path of edges creates adjacent new degree-2 vertices
    bad = g.without_edges([(0, 1), (1, 2)])
    assert not _chain_condition_holds(g, bad)
    assert _chain_condition_holds(g, g)


# -- the cases-exhausted structure -------------------------------------------


def _lemma5_instance():
    # two branch vertices of degree 4, one attachment with its pendant
    return Graph.build(
        [
            (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4),  # K4 core
            (5, 1), (5, 2),  # attachment sees two branch vertices
            (5, 6),  # and its pendant
        ]
    )


def test_partition_and_structure_valid():
    g = _lemma5_instance()
    p = partition_uwxy(g)
    assert p.U == frozenset({6})
    assert p.W == frozenset({5})
    assert p.X == frozenset({1, 2})
    assert p.Y == frozenset({3, 4})
    assert check_lemma5_structure(g, p) is None


def test_structure_no_pendants():
    g = Graph.complete(4)
    msg = check_lemma5_structure(g, partition_uwxy(g))
    assert msg is not None and "no pendant" in msg


def test_structure_adjacent_attachments():
    g = Graph.build(
        [
            (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4),
            (5, 1), (5, 6), (5, 7),
            (7, 1), (7, 8),
        ]
    )
    # vertices 5 and 7 both carry pendants and are adjacent
    msg = check_lemma5_structure(g, partition_uwxy(g))
    assert msg is not None and "independence" in msg


def test_structure_wrong_degree():
    g = Graph.build(
        [
            (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4),
            (5, 1), (5, 2), (5, 3), (5, 6),
        ]
    )
    msg = check_lemma5_structure(g, partition_uwxy(g))
    assert msg is not None and "degree" in msg


def test_structure_no_branch_vertices():
    g = Graph.star(3)
    msg = check_lemma5_structure(g, partition_uwxy(g))
    assert msg is not None and "support" in msg


def test_structure_bad_wiring():
    # attachment with one branch neighbour and one plain neighbour
    g = Graph.build(
        [
            (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4),
            (5, 1), (5, 9), (5, 6),
            (9, 3),
        ]
    )
    msg = check_lemma5_structure(g, partition_uwxy(g))
    assert msg is not None and ("wiring" in msg or "support" in msg)


# -- tree inputs under the girth/chain bound ---------------------------------


def test_spider_tree_certifies_at_triangle_rate():
    # three legs of k+1 vertices each; a tree, so only the girth-3 rate binds
    k = 4
    legs = []
    nxt = 1
    for _ in range(3):
        prev = 0
        for _ in range(k + 1):
            legs.append((prev, nxt))
            prev = nxt
            nxt += 1
    g = Graph.build(legs)
    t, tr = construct_theorem2(g, k)
    assert tr.base_kinds == ("base-tree",)
    assert t.leaf_count == 3
    assert t.leaf_count >= bound_theorem2(g.v, 3, k).value


def test_all_trees_small_meet_triangle_rate():
    rng = random.Random(31337)
    for _ in range(60):
        v = rng.randint(2, 12)
        g = Graph.build([(rng.randrange(i), i) for i in range(1, v)])
        k = max(chain_metric(g), 1)
        t, _ = construct_theorem2(g, k)
        assert t.tree_edges == g.edges
        assert t.leaf_count >= bound_theorem2(g.v, 3, k).value
