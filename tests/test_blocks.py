import random

import pytest
from hypothesis import given, settings, strategies as st

from leafspan import (
    CYCLE_SPINE_DENSE,
    CYCLE_SPINE_SPARSE,
    FamilySpec,
    Graph,
    NotConnectedError,
    decompose_blocks,
    find_spines,
    gen_triangle_tree,
    glue_extremal_chain,
)
from leafspan.blocks import lowpoint_blocks
from conftest import (
    brute_bridges,
    brute_cutpoints,
    connected_graphs,
    find_spines_reference,
    index_adjacency,
    lowpoint_blocks_reference,
    random_connected,
    walk_test_graphs,
)


def test_requires_connected():
    with pytest.raises(NotConnectedError):
        decompose_blocks(Graph.build([(0, 1), (2, 3)]))


def test_single_vertex_block():
    d = decompose_blocks(Graph.path(1))
    assert len(d.blocks) == 1
    assert d.blocks[0].interior == frozenset({0})
    assert not d.cutpoints and not d.bridges


def test_known_shapes():
    d = decompose_blocks(Graph.complete(4))
    assert len(d.blocks) == 1 and not d.cutpoints and not d.bridges
    assert d.blocks[0].is_large  # interior 4, boundary 0

    d = decompose_blocks(Graph.path(4))
    assert len(d.blocks) == 3
    assert d.cutpoints == frozenset({1, 2})
    assert d.bridges == frozenset({(0, 1), (1, 2), (2, 3)})

    d = decompose_blocks(Graph.cycle(5))
    assert len(d.blocks) == 1 and not d.cutpoints and not d.bridges

    d = decompose_blocks(Graph.star(4))
    assert len(d.blocks) == 4
    assert d.cutpoints == frozenset({0})
    assert len(d.bridges) == 4


def test_barbell_blocks():
    # two triangles joined by a path
    g = Graph.build([(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 6), (6, 4)])
    d = decompose_blocks(g)
    assert d.cutpoints == frozenset({2, 3, 4})
    assert d.bridges == frozenset({(2, 3), (3, 4)})
    tri = [b for b in d.blocks if len(b.edges) == 3]
    assert len(tri) == 2
    for b in tri:
        assert len(b.boundary) == 1 and len(b.interior) == 2
        assert b.is_large and not b.is_empty
    link = [b for b in d.blocks if len(b.edges) == 1]
    assert all(b.is_empty for b in link)


def test_partition_properties_exhaustive():
    for g in connected_graphs(5):
        d = decompose_blocks(g)
        seen = []
        for b in d.blocks:
            seen.extend(b.edges)
        assert sorted(seen) == sorted(g.edges)
        for i, b1 in enumerate(d.blocks):
            for b2 in d.blocks[i + 1 :]:
                shared = b1.vertices & b2.vertices
                assert len(shared) <= 1
                assert shared <= d.cutpoints


def test_cutpoints_and_bridges_against_brute_force():
    rng = random.Random(42)
    for _ in range(200):
        g = random_connected(rng, rng.randint(2, 9))
        d = decompose_blocks(g)
        assert set(d.cutpoints) == brute_cutpoints(g), g.sorted_edges
        assert set(d.bridges) == brute_bridges(g), g.sorted_edges


def _same_blocks_as_reference(g, adj):
    # the reference runs on g relabelled to 0..n-1; its blocks and cut are
    # read back to g's ids.  Every block and every cut is compared; their
    # order is not, as no caller reads it
    verts = g.sorted_vertices
    ref_blocks, ref_cut = lowpoint_blocks_reference(index_adjacency(g))
    blocks, cuts = lowpoint_blocks(adj)
    assert sorted(map(sorted, blocks)) == sorted(sorted(verts[i] for i in vs) for vs, _ in ref_blocks), g.sorted_edges
    assert cuts == {x for x, c in zip(verts, ref_cut) if c}, g.sorted_edges


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
    d = decompose_blocks(g)
    want = {frozenset(tuple(sorted(e)) for e in comp) for comp in nx.biconnected_component_edges(h)}
    assert {b.edges for b in d.blocks} == want, g.sorted_edges
    assert d.cutpoints == set(nx.articulation_points(h)), g.sorted_edges
    assert d.bridges == {tuple(sorted(e)) for e in nx.bridges(h)}, g.sorted_edges


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
    (sp,) = find_spines(g)
    assert sp.base == 0
    assert sp.path == (3, 4)
    assert sp.pendant == 4
    assert sp.size == 2


def test_find_spines_path_and_star():
    assert find_spines(Graph.path(6)) == ()
    spines = find_spines(Graph.star(3))
    assert len(spines) == 3
    assert all(s.base == 0 and s.size == 1 for s in spines)


def test_spines_match_the_walk_from_each_pendant():
    import networkx as nx

    atlas = [Graph.build(a.edges(), isolated=a.nodes()) for a in nx.graph_atlas_g()[1:] if nx.is_connected(a)]
    graphs = atlas + walk_test_graphs()
    spined = 0
    for g in graphs:
        spines = find_spines(g)
        assert tuple((s.path, s.base) for s in spines) == find_spines_reference(g)
        spined += bool(spines)
    assert spined > len(graphs) // 4


def test_spines_disjoint_random():
    rng = random.Random(7)
    for _ in range(100):
        g = random_connected(rng, rng.randint(2, 10))
        spines = find_spines(g)
        used = set()
        for s in spines:
            vs = set(s.path)
            assert not (vs & used)
            used |= vs
            assert g.degree(s.pendant) == 1
            assert g.has_edge(s.base, s.path[0])
            assert g.degree(s.base) >= 3
            for inner in s.path[:-1]:
                assert g.degree(inner) == 2


def _spider(legs):
    edges, nxt = [], 1
    for n in legs:
        prev = 0
        for _ in range(n):
            edges.append((prev, nxt))
            prev, nxt = nxt, nxt + 1
    return Graph.build(edges)


def _cut_cases():
    """Graphs whose cutpoints take many roles: every connected graph on five
    vertices, paths, spiders, spine bases, chained blocks, random graphs."""
    yield from connected_graphs(5)
    for n in range(1, 9):
        yield Graph.path(n)
    for legs in [(1, 1, 1), (1, 2), (2, 3), (1, 1, 4), (3, 3, 3), (2, 2, 2, 2)]:
        yield _spider(legs)
    # two cycles joined through a degree-2 cutpoint, and straight at a vertex
    yield Graph.build([(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 6), (6, 4)])
    yield Graph.build([(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)])
    # spine bases in two blocks and in three or more
    tri_tail = [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4)]
    yield Graph.build(tri_tail)
    yield Graph.build(tri_tail + [(0, 5)])
    yield Graph.build(tri_tail + [(0, 5), (5, 6), (6, 0)])
    yield Graph.build(tri_tail + [(1, 7), (7, 8), (8, 1), (1, 9)])
    for n in range(1, 7):
        yield gen_triangle_tree(n)
    for spec in (
        FamilySpec(kind=CYCLE_SPINE_DENSE, g=3, k=1),
        FamilySpec(kind=CYCLE_SPINE_DENSE, g=5, k=3),
        FamilySpec(kind=CYCLE_SPINE_SPARSE, g=7, k=2),
    ):
        for copies in (1, 2, 3):
            yield glue_extremal_chain(spec, copies)
    rng = random.Random(99)
    for _ in range(300):
        yield random_connected(rng, rng.randint(2, 30))

