import random

import pytest
from hypothesis import given, settings, strategies as st

from leafspan import Graph, NotConnectedError
from leafspan.blocks import _run, large_blocks, lowpoint_blocks
from conftest import (
    blocks_reference,
    brute_bridges,
    brute_cutpoints,
    connected_graphs,
    find_spines_reference,
    large_blocks_reference,
    random_connected,
    walk_test_graphs,
)


def _packed(g):
    """The pass on g as the tests read it: (blocks, cuts, bridges, large).
    Each block is a (vertices, edges) pair, its edges those of g with both
    ends in it.  The bridges are the edges of the blocks of two vertices,
    and large maps the vertices of each block large_blocks returns to its
    interior size."""
    raw, cuts = lowpoint_blocks(g.adjacency)
    blocks = [(vs, frozenset(e for e in g.edges if e[0] in vs and e[1] in vs)) for vs in map(frozenset, raw)]
    bridges = {e for vs, es in blocks if len(vs) == 2 for e in es}
    large = {frozenset(vs): inner for inner, vs in large_blocks(raw, cuts)}
    return blocks, cuts, bridges, large


def _walked_spines(g):
    """(path, base) of each run from a vertex of degree 3 or more through
    one of its neighbours that ends at a pendant, the spine rule theorem 2's
    block step reads, by base and then first path vertex."""
    adj = g.adjacency
    runs = (_run(adj, a, y) for a in g.sorted_vertices if len(adj[a]) >= 3 for y in g.neighbors(a))
    return tuple((tuple(run[1:]), run[0]) for run in runs if len(adj[run[-1]]) == 1)


def test_requires_connected():
    with pytest.raises(NotConnectedError):
        lowpoint_blocks(Graph.build([(0, 1), (2, 3)]).adjacency)


def test_single_vertex_block():
    blocks, cuts, bridges, large = _packed(Graph.path(1))
    assert blocks == [(frozenset({0}), frozenset())]
    assert not cuts and not bridges
    assert large == {frozenset({0}): 1}  # interior 1, no cutpoint


def test_known_shapes():
    blocks, cuts, bridges, large = _packed(Graph.complete(4))
    assert len(blocks) == 1 and not cuts and not bridges
    assert large == {frozenset(range(4)): 4}  # interior 4, no cutpoint

    blocks, cuts, bridges, large = _packed(Graph.path(4))
    assert len(blocks) == 3
    assert cuts == {1, 2}
    assert bridges == {(0, 1), (1, 2), (2, 3)}
    assert not large

    blocks, cuts, bridges, _ = _packed(Graph.cycle(5))
    assert len(blocks) == 1 and not cuts and not bridges

    blocks, cuts, bridges, _ = _packed(Graph.star(4))
    assert len(blocks) == 4
    assert cuts == {0}
    assert len(bridges) == 4


def test_barbell_blocks():
    # two triangles joined by a path
    g = Graph.build([(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 6), (6, 4)])
    blocks, cuts, bridges, large = _packed(g)
    assert cuts == {2, 3, 4}
    assert bridges == {(2, 3), (3, 4)}
    tri = [vs for vs, es in blocks if len(es) == 3]
    assert len(tri) == 2
    for vs in tri:
        assert len(vs & cuts) == 1 and len(vs - cuts) == 2
        assert large[vs] == 2
    link = [vs for vs, es in blocks if len(es) == 1]
    assert all(vs <= cuts and vs not in large for vs in link)


def test_partition_properties_exhaustive():
    for g in connected_graphs(5):
        blocks, cuts, _, _ = _packed(g)
        seen = [e for _, es in blocks for e in es]
        assert sorted(seen) == sorted(g.edges)
        for i, (vs1, _) in enumerate(blocks):
            for vs2, _ in blocks[i + 1 :]:
                shared = vs1 & vs2
                assert len(shared) <= 1
                assert shared <= cuts


def test_cutpoints_and_bridges_against_brute_force():
    rng = random.Random(42)
    for _ in range(200):
        g = random_connected(rng, rng.randint(2, 9))
        _, cuts, bridges, _ = _packed(g)
        assert cuts == brute_cutpoints(g), g.sorted_edges
        assert bridges == brute_bridges(g), g.sorted_edges


def test_large_blocks_match_the_rule_on_reference_blocks():
    # large_blocks against interior > boundary on the reference pass's
    # blocks, for every connected atlas graph
    nx = pytest.importorskip("networkx")
    atlas = [Graph.build(a.edges(), isolated=a.nodes()) for a in nx.graph_atlas_g()[1:] if nx.is_connected(a)]
    with_large = 0
    for g in atlas:
        want = sorted((len(inner), sorted(vs)) for inner, vs, _ in large_blocks_reference(g))
        assert sorted((inner, sorted(vs)) for vs, inner in _packed(g)[3].items()) == want, g.sorted_edges
        with_large += bool(want)
    assert 0 < with_large < len(atlas)


def _same_blocks_as_reference(g, adj):
    # the reference runs on g relabelled to 0..n-1; its blocks and cut are
    # read back to g's ids.  Every block and every cut is compared; their
    # order is not, as no caller reads it
    ref_blocks, ref_cuts = blocks_reference(g)
    blocks, cuts = lowpoint_blocks(adj)
    assert sorted(map(sorted, blocks)) == sorted(sorted(vs) for vs, _ in ref_blocks), g.sorted_edges
    assert cuts == ref_cuts, g.sorted_edges


def test_pendant_shortcut_keeps_the_lowpoint_pass_output():
    # a pendant closes its block without a frame; blocks and cutpoints stay
    # those of the pass that gave every pendant a frame
    nx = pytest.importorskip("networkx")
    atlas = [Graph.build(a.edges(), isolated=a.nodes()) for a in nx.graph_atlas_g()[1:] if nx.is_connected(a)]
    assert len(atlas) == 1 + 1 + 2 + 6 + 21 + 112 + 853
    for g in atlas:
        _same_blocks_as_reference(g, g.adjacency)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 20), st.integers(1, 12), st.booleans())
def test_pendant_shortcut_keeps_the_lowpoint_pass_output_hypothesis(seed, v, pendants, low):
    # pendants numbered below the rest make vertex 0 a pendant, the root of
    # both passes when the adjacency lists it first
    rng = random.Random(seed)
    g = Graph.build([(0, 1)]) if v == 1 else random_connected(rng, v)
    shift = pendants if low else 0
    first = 0 if low else g.v
    edges = [(x + shift, y + shift) for x, y in g.edges]
    edges += [(first + i, rng.randrange(g.v) + shift) for i in range(pendants)]
    h = Graph.build(edges)
    _same_blocks_as_reference(h, {x: h.adjacency[x] for x in h.sorted_vertices})
    _same_blocks_as_reference(h, h.adjacency)


def test_pass_reads_neighbour_sets_and_edge_id_maps_alike():
    # the removal search runs the pass on {x: {y: edge id}}, in whatever
    # order its removals and restorations leave; the blocks and cuts are
    # those of the graph's own neighbour sets
    rng = random.Random(2020)
    graphs = list(connected_graphs(5)) + [random_connected(rng, rng.randint(2, 30)) for _ in range(200)]
    for g in graphs:
        ids = {x: {} for x in g.adjacency}
        for eid, (a, b) in enumerate(g.sorted_edges):
            ids[a][b] = ids[b][a] = eid
        keys = list(ids)
        rng.shuffle(keys)
        shuffled = {x: dict(rng.sample(sorted(ids[x].items()), len(ids[x]))) for x in keys}
        want_blocks, want_cuts = lowpoint_blocks(g.adjacency)
        for adj in (ids, shuffled):
            blocks, cuts = lowpoint_blocks(adj)
            assert sorted(map(sorted, blocks)) == sorted(map(sorted, want_blocks)), g.sorted_edges
            assert cuts == want_cuts, g.sorted_edges


def _against_networkx(nx, g):
    h = nx.Graph(list(g.edges))
    blocks, cuts, bridges, _ = _packed(g)
    want = {frozenset(tuple(sorted(e)) for e in comp) for comp in nx.biconnected_component_edges(h)}
    assert {es for _, es in blocks} == want, g.sorted_edges
    assert cuts == set(nx.articulation_points(h)), g.sorted_edges
    assert bridges == {tuple(sorted(e)) for e in nx.bridges(h)}, g.sorted_edges


def test_decompose_blocks_against_networkx():
    nx = pytest.importorskip("networkx")
    graphs = list(connected_graphs(5))
    assert len(graphs) == 728
    rng = random.Random(808)
    graphs += [random_connected(rng, rng.randint(2, 30)) for _ in range(300)]
    for g in graphs:
        _against_networkx(nx, g)


def test_find_spines_triangle_tail():
    g = Graph.build([(0, 1), (1, 2), (2, 0), (0, 3), (3, 4)])
    assert _walked_spines(g) == (((3, 4), 0),)


def test_find_spines_path_and_star():
    assert _walked_spines(Graph.path(6)) == ()
    assert _walked_spines(Graph.star(3)) == (((1,), 0), ((2,), 0), ((3,), 0))


def test_spines_match_the_walk_from_each_pendant():
    import networkx as nx

    atlas = [Graph.build(a.edges(), isolated=a.nodes()) for a in nx.graph_atlas_g()[1:] if nx.is_connected(a)]
    graphs = atlas + walk_test_graphs()
    spined = 0
    for g in graphs:
        spines = _walked_spines(g)
        assert spines == find_spines_reference(g)
        spined += bool(spines)
    assert spined > len(graphs) // 4


def test_spines_disjoint_random():
    rng = random.Random(7)
    for _ in range(100):
        g = random_connected(rng, rng.randint(2, 10))
        used = set()
        for path, base in _walked_spines(g):
            vs = set(path)
            assert not (vs & used)
            used |= vs
            assert g.degree(path[-1]) == 1
            assert g.has_edge(base, path[0])
            assert g.degree(base) >= 3
            for inner in path[:-1]:
                assert g.degree(inner) == 2
