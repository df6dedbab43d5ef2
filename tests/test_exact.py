import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from leafspan import (
    Graph,
    InvalidParamsError,
    NotConnectedError,
    bound_kw,
    bound_theorem1,
    construct_theorem1,
    exact_mlst,
    greedy_leafy,
    s_count,
)
from leafspan.blocks import lowpoint_blocks
from leafspan.exact import _leaf_ceiling
from leafspan.trees import spanning_tree, validate
from conftest import (
    brute_u,
    connected_graphs,
    greedy_leafy_reference,
    random_connected,
    random_cubic,
    random_cubic_plus,
    subdivided,
)


def test_known_values():
    assert exact_mlst(Graph.path(6)).u_value == 2
    assert exact_mlst(Graph.cycle(8)).u_value == 2
    assert exact_mlst(Graph.star(7)).u_value == 7
    assert exact_mlst(Graph.complete(5)).u_value == 4
    assert exact_mlst(Graph.petersen()).u_value == 6
    assert exact_mlst(Graph.build([(0, 1)])).u_value == 2


def test_rejects_disconnected():
    with pytest.raises(NotConnectedError):
        exact_mlst(Graph.build([(0, 1), (2, 3)]))


def test_rejects_single_vertex():
    with pytest.raises(InvalidParamsError):
        exact_mlst(Graph.path(1))


def _short_cubic():
    # greedy's tree has 7 leaves here, short of u = 8, so the search runs
    return random_cubic(random.Random(1), 14)


def test_witness_is_valid_and_optimal_flag_set():
    r = exact_mlst(_short_cubic())
    assert r.optimal
    assert validate(r.witness) is None
    assert r.witness.leaf_count == r.u_value
    assert r.nodes_explored > 0
    assert r.elapsed >= 0.0


def test_exhaustive_small_against_brute_force():
    for g in connected_graphs(5):
        want = brute_u(g)
        got = exact_mlst(g)
        assert got.u_value == want, g.sorted_edges
        assert validate(got.witness) is None


def test_random_against_brute_force():
    rng = random.Random(314)
    for _ in range(60):
        g = random_connected(rng, rng.randint(6, 8))
        assert exact_mlst(g).u_value == brute_u(g), g.sorted_edges


def test_random_cubic_against_brute_force():
    rng = random.Random(6)
    for v in (8, 8, 8, 10, 10, 10):
        g = random_cubic(rng, v)
        r = exact_mlst(g)
        assert r.optimal and r.u_value == brute_u(g), g.sorted_edges
        assert validate(r.witness) is None


def test_large_sparse_inputs_are_solved_without_recursion():
    r = exact_mlst(Graph.path(5000))
    assert r.optimal and r.u_value == 2
    assert validate(r.witness) is None
    rng = random.Random(5000)
    tree = Graph.build([(rng.randrange(i), i) for i in range(1, 5000)])
    r = exact_mlst(tree)
    assert r.optimal and r.witness.tree_edges == tree.edges
    assert r.u_value == sum(1 for x in tree.vertices if tree.degree(x) == 1)
    r = exact_mlst(Graph.cycle(2000))
    assert r.optimal and r.u_value == 2
    assert validate(r.witness) is None


def test_budget_on_cubic_keeps_a_certified_witness():
    g = random_cubic(random.Random(24), 24)
    r = exact_mlst(g, node_budget=10)
    assert not r.optimal
    assert validate(r.witness) is None
    assert r.u_value == r.witness.leaf_count >= bound_kw(24).value


def test_budget_gives_honest_flag():
    r = exact_mlst(_short_cubic(), node_budget=1)
    assert not r.optimal and r.nodes_explored == 1
    assert validate(r.witness) is None
    assert 2 <= r.u_value <= 8
    full = exact_mlst(_short_cubic(), node_budget=10**7)
    assert full.optimal and full.u_value == 8
    # a budget the search exactly uses up still proves optimality
    g = random_cubic(random.Random(24), 16)
    n = exact_mlst(g).nodes_explored
    assert exact_mlst(g, node_budget=n).optimal
    for budget in range(1, n):
        r = exact_mlst(g, node_budget=budget)
        assert not r.optimal and r.nodes_explored == budget
    for bad in (0, -5, True, 2.5):
        with pytest.raises(InvalidParamsError):
            exact_mlst(Graph.petersen(), node_budget=bad)


def test_leaf_ceiling_bounds_u_on_small_graphs():
    # at least u on every connected atlas graph of 3-7 vertices, and equal to
    # it on 899 of the 994
    nx = pytest.importorskip("networkx")
    graphs = [g for g in _atlas(nx) if g.v >= 3]
    assert len(graphs) == 994
    equal = 0
    for g in graphs:
        ceiling, u = _leaf_ceiling(g.adjacency, lowpoint_blocks(g.adjacency)[1]), brute_u(g)
        assert ceiling >= u, g.sorted_edges
        equal += ceiling == u
    assert equal == 899


def test_leaf_ceiling_on_cubic_graphs_and_trees():
    # a cubic graph needs (v - 2)/2 internal vertices of degree 3, and more
    # only when it has more cutpoints; a tree's cutpoints are its internal
    # vertices
    rng = random.Random(1616)
    for v in range(4, 41, 2):
        for _ in range(5):
            g = random_cubic(rng, v)
            cuts = lowpoint_blocks(g.adjacency)[1]
            assert _leaf_ceiling(g.adjacency, cuts) == min(v // 2 + 1, v - len(cuts)), g.sorted_edges
    for _ in range(100):
        v = rng.randint(3, 40)
        g = Graph.build([(rng.randrange(i), i) for i in range(1, v)])
        leaves = sum(1 for x in g.vertices if g.degree(x) == 1)
        assert _leaf_ceiling(g.adjacency, lowpoint_blocks(g.adjacency)[1]) == leaves, g.sorted_edges


def test_greedy_at_the_ceiling_needs_no_search():
    for g in (Graph.petersen(), Graph.star(5), Graph.path(3), Graph.complete(6)):
        r = exact_mlst(g)
        assert r.nodes_explored == 0 and r.optimal, g.sorted_edges
        assert r.witness == greedy_leafy(g)
        capped = exact_mlst(g, node_budget=1)
        assert capped.optimal and capped.nodes_explored == 0 and capped.witness == r.witness


def test_stop_at_the_ceiling_changes_only_the_node_count(monkeypatch):
    # a ceiling of n leaves, which no tree on 3 or more vertices has, turns
    # the stop off; the answer, the witness and the flag stay, and only the
    # node count falls
    nx = pytest.importorskip("networkx")
    rng = random.Random(4242)
    graphs = [g for g in _atlas(nx) if g.v >= 6] + [random_cubic(rng, v) for v in (12, 14, 14, 16)]
    graphs.append(_short_cubic())
    stopped = [exact_mlst(g) for g in graphs]
    monkeypatch.setattr("leafspan.exact._leaf_ceiling", lambda nbrs, cuts: len(nbrs))
    fewer = 0
    for g, r in zip(graphs, stopped):
        full = exact_mlst(g)
        assert (r.u_value, r.witness, r.optimal) == (full.u_value, full.witness, full.optimal), g.sorted_edges
        assert r.nodes_explored <= full.nodes_explored
        fewer += r.nodes_explored < full.nodes_explored
    assert fewer > len(graphs) // 2
    # greedy falls short there, so the stop inside the search saves the nodes
    assert stopped[-1].nodes_explored < exact_mlst(graphs[-1]).nodes_explored


def test_tree_hosts_come_back_as_themselves():
    rng = random.Random(77)
    for _ in range(50):
        v = rng.randint(2, 9)
        g = Graph.build([(rng.randrange(i), i) for i in range(1, v)])
        r = exact_mlst(g)
        assert r.witness.tree_edges == g.edges
        assert r.u_value == sum(1 for x in g.vertices if g.degree(x) == 1)
        # the ceiling is the tree's leaf count, so no search runs
        assert r.nodes_explored == 0 and r.optimal


def test_greedy_is_a_valid_lower_bound():
    rng = random.Random(55)
    for _ in range(80):
        g = random_connected(rng, rng.randint(2, 9))
        t = greedy_leafy(g)
        assert validate(t) is None
        assert t.leaf_count <= exact_mlst(g).u_value


def test_greedy_meets_the_leaf_potential_on_mindeg3_graphs():
    # 3L + D - N_s never falls along greedy's expansions (see _t1_greedy in
    # constructive.py), so minimum degree 3 and maximum degree d give
    # 4L - v >= 2d - 1, and so the s-count bound (v - 2)/4 + 2
    nx = pytest.importorskip("networkx")
    graphs = [
        Graph.build(a.edges())
        for a in nx.graph_atlas_g()
        if len(a) >= 4 and min(d for _, d in a.degree()) >= 3 and nx.is_connected(a)
    ]
    assert len(graphs) > 100
    rng = random.Random(3303)
    for v in range(4, 121, 2):
        graphs += [random_cubic(rng, v) for _ in range(6)]
        # a cubic graph on v >= 6 vertices leaves room for v chords
        graphs += [random_cubic_plus(rng, v, rng.randint(1, v)) for _ in range(6) if v >= 6]
    for g in graphs:
        t = greedy_leafy(g)
        d = max(g.degree(x) for x in g.vertices)
        assert 4 * t.leaf_count - g.v >= 2 * d - 1, g.sorted_edges
        assert t.leaf_count >= bound_theorem1(s_count(g)).value


def _proved_leaves(g):
    """The leaf count the proof beside constructive._t1_greedy gives a greedy
    tree of g: 4L >= s + 2d - 1 for maximum degree d >= 3, so, L being an
    integer, ceil((s + 2d - 1)/4); K2, paths and cycles have 2 leaves."""
    d = max(map(g.degree, g.vertices))
    return 2 if d <= 2 else (s_count(g) + 2 * d + 2) // 4


def _atlas(nx):
    return [Graph.build(a.edges()) for a in nx.graph_atlas_g() if len(a) >= 2 and nx.is_connected(a)]


def test_greedy_meets_the_s_count_proof():
    # on the connected atlas graphs, random cubic graphs, K2, paths, cycles
    # and subdivisions of all but the paths and cycles, where the degree-2
    # vertices leave s small against d; construct_theorem1's tree is the
    # greedy tree
    nx = pytest.importorskip("networkx")
    graphs = _atlas(nx)
    assert len(graphs) == 995
    rng = random.Random(5003)
    graphs += [random_cubic(rng, v) for v in range(4, 61, 2) for _ in range(4)]
    graphs += [subdivided(g) for g in list(graphs)]
    graphs += [subdivided(random_connected(rng, rng.randint(2, 30))) for _ in range(200)]
    graphs += [Graph.path(n) for n in range(2, 40)] + [Graph.cycle(n) for n in range(3, 40)]
    for g in graphs:
        t = greedy_leafy(g)
        assert t.leaf_count >= _proved_leaves(g), g.sorted_edges
        assert construct_theorem1(g)[0] == t


def test_greedy_meets_its_proved_count_exactly_on_some_graphs():
    # ceil((s + 2d - 1)/4) is tight: greedy has exactly that many leaves on
    # 30 atlas graphs of maximum degree 3 and 61 of maximum degree 4, so the
    # proof gives no wider count; theorem 2's gate reads greedy's tree instead
    nx = pytest.importorskip("networkx")
    tight = Counter()
    for g in _atlas(nx):
        d = max(map(g.degree, g.vertices))
        if d >= 3 and greedy_leafy(g).leaf_count == _proved_leaves(g):
            tight[d] += 1
    assert tight == {3: 30, 4: 61}


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 40))
def test_greedy_meets_the_s_count_proof_hypothesis(seed, v):
    g = random_connected(random.Random(seed), v)
    for h in (g, subdivided(g)):
        assert greedy_leafy(h).leaf_count >= _proved_leaves(h), h.sorted_edges


def test_greedy_that_expands_the_fewest_fails_the_proof():
    # the proof needs the most outside neighbours: a mutant that expands the
    # fewest passes every atlas graph and sparse graph tried, but not cubic
    # graphs, where the true greedy always passes
    rng = random.Random(6007)
    graphs = [random_cubic(rng, v) for v in range(8, 41, 2) for _ in range(6)]
    failed = 0
    for g in graphs:
        assert greedy_leafy(g).leaf_count >= _proved_leaves(g)
        mutant = spanning_tree(g, greedy_leafy_reference(g, fewest=True))
        assert validate(mutant) is None
        failed += mutant.leaf_count < _proved_leaves(g)
    assert failed > len(graphs) // 4


def test_greedy_deterministic():
    g = Graph.petersen()
    assert greedy_leafy(g).tree_edges == greedy_leafy(g).tree_edges


def test_greedy_matches_quadratic_reference():
    rng = random.Random(4040)
    graphs = [Graph.petersen(), Graph.path(1)]
    graphs += [random_connected(rng, rng.randint(2, 40)) for _ in range(300)]
    for g in graphs:
        assert greedy_leafy(g).tree_edges == greedy_leafy_reference(g), g.sorted_edges


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 8))
def test_exact_equals_enumeration_max(seed, v):
    rng = random.Random(seed)
    g = random_connected(rng, v)
    assert exact_mlst(g).u_value == brute_u(g), g.sorted_edges
