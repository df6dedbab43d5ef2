import pytest
import random
from itertools import combinations

from leafspan import (
    CYCLE_SPINE_DENSE,
    CYCLE_SPINE_SPARSE,
    FamilySpec,
    Graph,
    InvalidGraphError,
    InvalidParamsError,
    EdgeNotFoundError,
    chain_metric,
    gen_triangle_tree,
    girth,
    glue_extremal_chain,
    s_count,
)
from leafspan.graph import _reach, _require_int
from conftest import (
    bfs_tree_reference,
    brute_girth,
    chain_metric_reference,
    components_reference,
    girth_reference,
    random_connected,
    random_cubic,
    side_reference,
    walk_test_graphs,
)


def test_build_rejects_self_loop():
    with pytest.raises(InvalidGraphError):
        Graph.build([(1, 1)])


def test_build_rejects_bad_ids():
    with pytest.raises(InvalidGraphError):
        Graph.build([("a", 1)])
    with pytest.raises(InvalidGraphError):
        Graph.build([(True, 2)])


def test_needs_a_vertex():
    with pytest.raises(InvalidGraphError, match="at least one vertex"):
        Graph.build([])


@pytest.mark.parametrize("bad", ["a", True, 1.5, None])
@pytest.mark.parametrize("edges", [[], [(0, 1)]])
def test_build_rejects_bad_isolated_ids(bad, edges):
    with pytest.raises(InvalidGraphError, match="is not an int"):
        Graph.build(edges, isolated=[bad])


def test_build_checks_each_id_once(monkeypatch):
    # norm_edge checks both ends of each edge and each isolated id is checked
    # once; the fields are then valid, so no second pass runs
    calls = []
    monkeypatch.setattr("leafspan.graph._require_int", lambda x: calls.append(x) or _require_int(x))
    edges = [(i, (i + 1) % 40) for i in range(40)]
    g = Graph.build(edges, isolated=[50, 51, 52])
    assert g.v == 43 and g.e == 40 and len(calls) == 2 * 40 + 3
    calls.clear()
    Graph(g.vertices, g.edges)  # the constructor keeps its full check
    assert len(calls) == 43


def test_edge_outside_vertex_set():
    with pytest.raises(InvalidGraphError):
        Graph(frozenset({1, 2}), frozenset({(1, 3)}))


@pytest.mark.parametrize(
    "vertices, edges",
    [
        ({0, 1}, frozenset({(0, 1)})),  # a set would make the graph unhashable
        (frozenset({0, 1}), [(0, 1)]),
        (frozenset({0, 1, 2}), frozenset({(0, 1, 2)})),
        (frozenset({0, 1}), frozenset({(0, "a")})),
        (frozenset({0, 1}), frozenset({5})),
        (frozenset(), frozenset()),  # no vertex
        (frozenset({0, 1}), frozenset({(1, 0)})),  # not in (low, high) form
    ],
)
def test_constructor_rejects_malformed_fields(vertices, edges):
    with pytest.raises(InvalidGraphError):
        Graph(vertices, edges)


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
    for factory in (Graph.path, Graph.complete, Graph.star):
        with pytest.raises(InvalidParamsError):
            factory(0)


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


def test_bfs_tree():
    g = Graph.cycle(6)
    t = g.bfs_tree(0)
    assert len(t) == 5


def _relabelled(rng, g: Graph) -> Graph:
    ids = rng.sample(range(10 * g.v), g.v)
    to = dict(zip(g.sorted_vertices, ids))
    return Graph.build((to[u], to[v]) for u, v in g.edges)


def test_bfs_tree_matches_the_reference_walk():
    # every root of every atlas graph, the disconnected ones included, then
    # the lowest root of random connected graphs of up to 300 vertices
    import networkx as nx

    atlas = [Graph.build(a.edges(), isolated=a.nodes()) for a in nx.graph_atlas_g() if len(a)]
    assert sum(not g.is_connected for g in atlas) > 200
    for g in atlas:
        for root in g.vertices:
            assert g.bfs_tree(root) == bfs_tree_reference(g, root), (g.sorted_edges, root)
    rng = random.Random(2801)
    for _ in range(200):
        g = random_connected(rng, rng.randint(2, 300))
        root = min(g.vertices)
        assert g.bfs_tree(root) == bfs_tree_reference(g, root), g.sorted_edges
    # the ladder's shapes, where most vertices discover one new neighbour or
    # none: relabelled cycles, the dense and sparse extremal chains, triangle
    # trees, and the complete graphs, where the root discovers all of them
    shapes = [_relabelled(rng, Graph.cycle(n)) for n in range(3, 601)]
    for spec in (FamilySpec(CYCLE_SPINE_DENSE, g=4, k=2), FamilySpec(CYCLE_SPINE_SPARSE, g=7, k=2)):
        shapes += [glue_extremal_chain(spec, copies) for copies in range(1, 21)]
    shapes += [gen_triangle_tree(n) for n in range(1, 51)]
    shapes += [Graph.complete(n) for n in range(1, 13)]
    for g in shapes:
        for root in (min(g.vertices), rng.choice(g.sorted_vertices)):
            assert g.bfs_tree(root) == bfs_tree_reference(g, root), (g.sorted_edges, root)


def test_bfs_tree_rejects_roots_that_are_not_ints():
    # True and 1.0 hash and compare equal to the ids 1, so without the id
    # check they would pass the membership test and enter the tree
    g = Graph.cycle(4)
    for root in (True, 1.0, "a", None):
        with pytest.raises(InvalidGraphError, match="is not an int"):
            g.bfs_tree(root)
    with pytest.raises(InvalidParamsError, match="not in graph"):
        g.bfs_tree(9)


def test_vertex_arguments_are_checked_alike():
    # every method that takes a vertex checks it as bfs_tree does: True and
    # 1.0 equal the id 1 but are no ints, and 9 is no vertex, not a KeyError
    g = Graph.cycle(4)
    takes_a_vertex = [g.bfs_tree, g.neighbors, g.degree, g.without_vertex, lambda x: g.induced([x, 2])]
    for method in takes_a_vertex:
        for x in (True, 1.0, "a", None):
            with pytest.raises(InvalidGraphError, match="is not an int"):
                method(x)
        with pytest.raises(InvalidParamsError, match="vertex 9 not in graph"):
            method(9)
    assert g.neighbors(1) == (0, 2) and g.degree(1) == 2 and g.without_vertex(1).v == 3


def test_surgery_ops():
    g = Graph.cycle(4)
    h = g.without_vertex(0)
    assert h.v == 3 and h.e == 2
    h2 = g.without_edge(0, 1)
    assert h2.e == 3
    with pytest.raises(EdgeNotFoundError):
        g.without_edge(0, 2)
    h4 = g.induced({0, 1, 2})
    assert h4.v == 3 and h4.e == 2


def test_has_edge_answers_loops_and_rejects_bad_ids():
    # a query is not a construction: a loop is simply not an edge
    g = Graph.cycle(4)
    assert g.has_edge(1, 0) and g.has_edge(0, 3) and not g.has_edge(0, 2)
    assert not g.has_edge(2, 2) and not g.has_edge(9, 9)
    for u, v in (("a", 1), (1, "a"), ("a", "a"), (True, 1), (1, True), (1.0, 1.0)):
        with pytest.raises(InvalidGraphError):
            g.has_edge(u, v)


def test_derivations_reject_what_they_rejected_before():
    g = Graph.cycle(4)
    with pytest.raises(InvalidGraphError, match="at least one vertex"):
        g.induced([])
    with pytest.raises(InvalidGraphError, match="at least one vertex"):
        Graph.path(1).without_vertex(0)
    for bad in ([0, 9], ["a"], [0, None]):
        with pytest.raises(InvalidParamsError, match="not in graph"):
            g.induced(bad)
    for x in (9, "a", None):
        with pytest.raises(InvalidParamsError, match="not in graph"):
            g.without_vertex(x)
    with pytest.raises(EdgeNotFoundError):
        g.without_edge(0, 2)
    with pytest.raises(EdgeNotFoundError):
        g.without_edges([(0, 1), (0, 2)])
    with pytest.raises(EdgeNotFoundError):
        g.without_edge(0, 9)
    for derive in (g.without_edge, lambda u, v: g.without_edges([(u, v)])):
        for u, v in ((0, "a"), (True, 2), (1, 1)):
            with pytest.raises(InvalidGraphError):
                derive(u, v)


def test_derived_graphs_equal_their_checked_builds():
    # derivation skips validation and patches the parent's adjacency, so
    # every result must equal the graph built and checked from its fields
    rng = random.Random(1414)
    for _ in range(60):
        g = random_connected(rng, rng.randint(2, 12))
        vs, es = sorted(g.vertices), sorted(g.edges)
        derived = [
            g.induced(rng.sample(vs, rng.randint(1, g.v))),
            g.without_vertex(rng.choice(vs)),
            g.without_edge(*rng.choice(es)),
            g.without_edges(rng.sample(es, rng.randint(0, len(es)))),
        ]
        for h in derived:
            checked = Graph(h.vertices, h.edges)
            assert h == checked and h.adjacency == checked.adjacency


def test_girth_against_brute_force_small():
    # every labelled graph on at most 6 vertices, disconnected ones included
    for n in range(1, 7):
        pairs = list(combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            edges = [pairs[j] for j in range(len(pairs)) if mask >> j & 1]
            g = Graph.build(edges, isolated=range(n))
            assert girth(g) == brute_girth(g), g.sorted_edges


def test_girth_against_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(909)
    graphs = [random_connected(rng, rng.randint(2, 40)) for _ in range(300)]
    graphs += [random_cubic(rng, 2 * rng.randint(2, 15)) for _ in range(50)]
    graphs += [Graph.cycle(n) for n in (3, 17, 200)]
    for g in graphs:
        h = nx.Graph(list(g.edges))
        want = nx.girth(h)
        assert girth(g) == (None if want == float("inf") else want), g.sorted_edges


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


def test_one_flood_fill_matches_the_walks_it_replaced():
    # every atlas graph, the disconnected ones included, then subdivided
    # cubic graphs with and without pendant paths and the extremal chains
    import networkx as nx

    atlas = [Graph.build(a.edges(), isolated=a.nodes()) for a in nx.graph_atlas_g() if len(a)]
    assert sum(not g.is_connected for g in atlas) > 200
    for g in atlas + walk_test_graphs():
        comps = components_reference(g)
        assert g.components == comps
        assert Graph.build(g.edges, isolated=g.vertices).is_connected == (len(comps) == 1)
        assert chain_metric(g) == chain_metric_reference(g)
        assert girth(g) == girth_reference(g)
        for x in g.vertices:
            assert _reach(g.adjacency, x) == side_reference(g.adjacency, x)


def test_cycle_shortcut_needs_connectivity():
    # girth and the chain metric answer a cycle, connected with every degree
    # 2, off the connectivity flood.  Unions of cycles have every degree 2
    # and e == v too; a chord, a pendant or an isolated vertex breaks the
    # degrees.  Each metric is asked first on its own fresh graph, so no
    # cached answer decides another's
    import networkx as nx

    def union(*ns):
        edges, base = [], 0
        for n in ns:
            edges += [(base + i, base + (i + 1) % n) for i in range(n)]
            base += n
        return edges

    cases = [
        (union(3, 5), ()),
        (union(4, 4, 7), ()),
        (union(6, 6), ()),
        (union(8) + [(0, 4)], ()),
        (union(8) + [(0, 8)], ()),
        (union(8), (8,)),
        (union(200), ()),
    ]
    for edges, isolated in cases:
        h = nx.Graph(edges)
        h.add_nodes_from(isolated)
        nx_girth = nx.girth(h)
        deg2 = [x for x in h if h.degree(x) == 2]
        want = (
            None if nx_girth == float("inf") else nx_girth,
            max(map(len, nx.connected_components(h.subgraph(deg2))), default=0),
            nx.is_connected(h),
        )
        ask = (girth, chain_metric, lambda g: g.is_connected)
        for first in range(3):
            g = Graph.build(edges, isolated=isolated)
            got = [None] * 3
            for i in (first, (first + 1) % 3, (first + 2) % 3):
                got[i] = ask[i](g)
            assert tuple(got) == want, (edges, isolated, first)
            assert (girth_reference(g), chain_metric_reference(g)) == want[:2]
