import random

import pytest
from hypothesis import given, settings, strategies as st

from leafspan import (
    Graph,
    InvalidParamsError,
    NotConnectedError,
    bound_kw,
    exact_mlst,
    greedy_leafy,
)
from leafspan.trees import validate
from conftest import (
    brute_u,
    connected_graphs,
    greedy_leafy_reference,
    random_connected,
    random_cubic,
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


def test_witness_is_valid_and_optimal_flag_set():
    r = exact_mlst(Graph.petersen())
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
    r = exact_mlst(Graph.petersen(), node_budget=1)
    assert not r.optimal
    assert validate(r.witness) is None
    assert 2 <= r.u_value <= 6
    full = exact_mlst(Graph.petersen(), node_budget=10**7)
    assert full.optimal and full.u_value == 6


def test_tree_hosts_come_back_as_themselves():
    rng = random.Random(77)
    for _ in range(50):
        v = rng.randint(2, 9)
        g = Graph.build([(rng.randrange(i), i) for i in range(1, v)])
        r = exact_mlst(g)
        assert r.witness.tree_edges == g.edges
        assert r.u_value == sum(1 for x in g.vertices if g.degree(x) == 1)


def test_greedy_is_a_valid_lower_bound():
    rng = random.Random(55)
    for _ in range(80):
        g = random_connected(rng, rng.randint(2, 9))
        t = greedy_leafy(g)
        assert validate(t) is None
        assert t.leaf_count <= exact_mlst(g).u_value


def test_greedy_deterministic():
    g = Graph.petersen()
    assert greedy_leafy(g).tree_edges == greedy_leafy(g).tree_edges


def test_greedy_matches_quadratic_reference():
    rng = random.Random(4040)
    graphs = [Graph.petersen()]
    graphs += [random_connected(rng, rng.randint(2, 40)) for _ in range(300)]
    for g in graphs:
        assert greedy_leafy(g).tree_edges == greedy_leafy_reference(g), g.sorted_edges


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 8))
def test_exact_equals_enumeration_max(seed, v):
    rng = random.Random(seed)
    g = random_connected(rng, v)
    assert exact_mlst(g).u_value == brute_u(g), g.sorted_edges
