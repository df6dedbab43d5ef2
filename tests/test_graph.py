import pytest
import random

from hypothesis import given, settings, strategies as st

from leafspan import (
    Graph,
    InvalidGraphError,
    InvalidParamsError,
    EdgeNotFoundError,
    chain_metric,
    contract_edge,
    girth,
    glue,
    s_count,
)
from conftest import random_connected


def test_build_rejects_self_loop():
    with pytest.raises(InvalidGraphError):
        Graph.build([(1, 1)])


def test_build_rejects_bad_ids():
    with pytest.raises(InvalidGraphError):
        Graph.build([("a", 1)])
    with pytest.raises(InvalidGraphError):
        Graph.build([(True, 2)])


def test_needs_a_vertex():
    with pytest.raises(InvalidGraphError):
        Graph.build([])


def test_edge_outside_vertex_set():
    with pytest.raises(InvalidGraphError):
        Graph(frozenset({1, 2}), frozenset({(1, 3)}))


def test_factories():
    p = Graph.path(4)
    assert p.v == 4 and p.e == 3
    c = Graph.cycle(5)
    assert c.v == 5 and c.e == 5
    assert all(c.degree(x) == 2 for x in c.vertices)
    k = Graph.complete(4)
    assert k.e == 6 and k.min_degree == 3
    s = Graph.star(6)
    assert s.degree(0) == 6 and s.v == 7
    pet = Graph.petersen()
    assert pet.v == 10 and pet.e == 15
    assert all(pet.degree(x) == 3 for x in pet.vertices)
    with pytest.raises(InvalidParamsError):
        Graph.cycle(2)


def test_single_vertex():
    g = Graph.path(1)
    assert g.v == 1 and g.e == 0
    assert g.is_connected and g.is_tree
    assert girth(g) is None
    assert chain_metric(g) == 0
    assert s_count(g) == 1


def test_neighbors_sorted_and_degree():
    g = Graph.build([(3, 1), (1, 2), (1, 5)])
    assert g.neighbors(1) == (2, 3, 5)
    assert g.degree(1) == 3
    assert g.degree(5) == 1
    assert g.has_edge(5, 1) and not g.has_edge(2, 3)


def test_components():
    g = Graph.build([(0, 1), (2, 3)], isolated=[7])
    comps = g.components
    assert len(comps) == 3
    # ordered by smallest member
    assert [min(c) for c in comps] == [0, 2, 7]
    assert not g.is_connected


def test_is_tree():
    assert Graph.path(5).is_tree
    assert not Graph.cycle(4).is_tree
    assert not Graph.build([(0, 1), (2, 3)]).is_tree


def test_bfs_tree_and_distance():
    g = Graph.cycle(6)
    t = g.bfs_tree(0)
    assert len(t) == 5
    assert g.distance(0, 3) == 3
    assert g.distance(0, 0) == 0
    h = Graph.build([(0, 1), (2, 3)])
    assert h.distance(0, 3) is None


def test_surgery_ops():
    g = Graph.cycle(4)
    h = g.without_vertex(0)
    assert h.v == 3 and h.e == 2
    h2 = g.without_edge(0, 1)
    assert h2.e == 3
    with pytest.raises(EdgeNotFoundError):
        g.without_edge(0, 2)
    h3 = g.with_edge(0, 2)
    assert h3.e == 5
    h4 = g.induced({0, 1, 2})
    assert h4.v == 3 and h4.e == 2


def test_relabel_partial_and_injective():
    g = Graph.build([(0, 1), (1, 2)])
    h = g.relabel({0: 9})
    assert 9 in h.vertices and 0 not in h.vertices
    assert h.has_edge(9, 1)
    with pytest.raises(InvalidParamsError):
        g.relabel({0: 2})  # collides with an unmapped id


def test_fresh_id():
    g = Graph.build([(0, 5)])
    assert g.fresh_id() == 6


def test_girth_values():
    assert girth(Graph.path(6)) is None
    assert girth(Graph.cycle(7)) == 7
    assert girth(Graph.complete(4)) == 3
    assert girth(Graph.petersen()) == 5
    near = Graph.build([(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    assert girth(near) == 3


def test_chain_metric_values():
    assert chain_metric(Graph.path(5)) == 3
    assert chain_metric(Graph.cycle(6)) == 6  # pure cycle counts everything
    assert chain_metric(Graph.star(4)) == 0
    assert chain_metric(Graph.complete(4)) == 0
    # triangle with a pendant path: the two far cycle vertices chain up,
    # the path vertex next to the pendant sits in a run of its own
    g = Graph.build([(0, 1), (1, 2), (2, 0), (0, 3), (3, 4)])
    assert chain_metric(g) == 2


def test_s_count():
    assert s_count(Graph.path(5)) == 2
    assert s_count(Graph.cycle(5)) == 0
    assert s_count(Graph.complete(4)) == 4


def test_metrics_bundle():
    g = Graph.petersen()
    assert (girth(g), chain_metric(g), s_count(g), g.min_degree) == (5, 0, 10, 3)


def test_glue_disjoint_keeps_ids():
    g1 = Graph.path(3)  # 0-1-2
    g2 = Graph.build([(10, 11), (11, 12)])
    res = glue(g1, 2, g2, 10)
    assert res.merged == 2
    assert res.graph.v == 5
    assert res.graph.has_edge(2, 11)
    assert res.map1[2] == 2 and res.map2[10] == 2
    assert res.map2[11] == 11


def test_glue_shifts_on_collision():
    g1 = Graph.path(3)
    g2 = Graph.path(3)
    res = glue(g1, 2, g2, 0)
    assert res.graph.v == 5
    # g1 side untouched
    assert res.graph.has_edge(0, 1) and res.graph.has_edge(1, 2)
    assert res.merged == 2


def test_contract_edge():
    g = Graph.build([(0, 1), (1, 2), (2, 3)])
    res = contract_edge(g, 1, 2)
    assert res.merged == 1
    assert res.graph.v == 3
    assert res.graph.has_edge(0, 1) and res.graph.has_edge(1, 3)
    assert res.vertex_map[2] == 1 and res.vertex_map[3] == 3
    with pytest.raises(EdgeNotFoundError):
        contract_edge(g, 0, 3)


def test_contract_merges_parallel_edges():
    g = Graph.cycle(3)
    res = contract_edge(g, 0, 1)
    assert res.graph.v == 2 and res.graph.e == 1


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 9))
def test_contract_shrinks(seed, v):
    rng = random.Random(seed)
    g = random_connected(rng, v)
    u, w = sorted(g.edges)[0]
    res = contract_edge(g, u, w)
    assert res.graph.v == g.v - 1
    assert res.graph.e <= g.e - 1
    assert res.graph.is_connected


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 7), st.integers(2, 7))
def test_glue_counts(seed, v1, v2):
    rng = random.Random(seed)
    g1 = random_connected(rng, v1)
    g2 = random_connected(rng, v2)
    x1 = max(g1.vertices)
    x2 = min(g2.vertices)
    res = glue(g1, x1, g2, x2)
    assert res.graph.v == v1 + v2 - 1
    assert res.graph.e == g1.e + g2.e
    assert res.graph.is_connected
