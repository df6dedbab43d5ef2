"""Golden digest of both constructive descents.

One sha256 pins every trace line and every certified tree on a fixed,
seeded set of graphs, so any change to a derivation shows up here.  A
change that alters a trace or a tree on purpose updates DIGEST and says so
in CHANGES.md.  Theorem 2 takes one base step on every golden graph, so a
second digest pins its girth/chain descent with the greedy case dropped.
"""

import hashlib
import random
from collections import Counter

from hypothesis import given, settings, strategies as st

from leafspan import (
    CYCLE_SPINE_DENSE,
    CYCLE_SPINE_SPARSE,
    FamilySpec,
    Graph,
    InfeasibleError,
    chain_metric,
    construct_theorem1,
    construct_theorem2,
    gen_triangle_tree,
    glue_extremal_chain,
    random_constrained_graph,
    replay_trace,
    serialize_tree,
)
from leafspan.constructive import ConstructionTrace, _descend, _theorem
from conftest import random_connected, replace_greedy

DIGEST = "eb5d671d6ee3ffb8603b8729beccf37e899b55ea70d44138a58efe19cf793c45"
DESCENT_DIGEST = "c0f12dfc0a79ed49cb1dad6c17ee88e162d67ff4d4f5b3324d6340852d488146"


def _golden_graphs():
    """About 200 seeded random graphs of 2-12 vertices plus the extremal shapes.

    Graphs with e - v >= 6 are skipped, so the pinned set stays the one
    drawn when the large-block removal search cost seconds on them.
    """
    rng = random.Random(20261018)
    out = []
    while len(out) < 200:
        v = rng.randint(2, 12)
        # min degree 2 needs 3 vertices; min degree 3 is kept to 4-8 vertices
        min_degree = rng.choice((1, 2, 3)[: 1 + (v >= 3) + (4 <= v <= 8)])
        girth_floor = rng.choice((3, 3, 4, 5))
        seed = rng.randrange(10**6)
        try:
            g = random_constrained_graph(
                v, min_degree=min_degree, girth_at_least=girth_floor, seed=seed
            )
        except InfeasibleError:
            continue
        if g.e - g.v < 6:
            out.append(g)
    return out + [
        Graph.path(60),
        Graph.cycle(30),
        gen_triangle_tree(10),
        glue_extremal_chain(FamilySpec(kind=CYCLE_SPINE_SPARSE, g=7, k=2), 5),
        glue_extremal_chain(FamilySpec(kind=CYCLE_SPINE_DENSE, g=5, k=3), 5),
    ]


def test_trace_and_tree_digest():
    h = hashlib.sha256()
    for g in _golden_graphs():
        runs = (construct_theorem1(g), construct_theorem2(g, max(chain_metric(g), 1)))
        for tree, trace in runs:
            h.update("\n".join(trace.lines()).encode())
            h.update(serialize_tree(tree).encode())
    assert h.hexdigest() == DIGEST


def test_theorem2_k_defaults_to_longest_chain():
    # construct and replay given no k take the longest chain, at least 1
    for g in _golden_graphs():
        tree, trace = construct_theorem2(g)
        want_tree, want_trace = construct_theorem2(g, max(chain_metric(g), 1))
        assert (tree, trace.lines()) == (want_tree, want_trace.lines()), g.sorted_edges
        assert replay_trace(g, trace, 2) == tree


def _same_graph_other_ways(g, rng):
    """g on ids spread 1024 apart, so that hashing collides and the order of
    its vertex and neighbour sets follows the order they were filled in,
    and that graph again: built from its edges shuffled, reached by
    without_edge from a build with one more edge, and given its adjacency in
    a shuffled order."""
    edges = [(1024 * x, 1024 * y) for x, y in g.edges]
    base = Graph.build(edges, isolated=[1024 * x for x in g.vertices])
    rng.shuffle(edges)
    others = [Graph.build(edges, isolated=base.vertices)]
    vs = sorted(base.vertices)
    extra = next(((x, y) for x in vs for y in vs if x < y and not base.has_edge(x, y)), None)
    if extra is not None:
        others.append(Graph.build(edges + [extra]).without_edge(*extra))
    keys = list(base.adjacency)
    rng.shuffle(keys)
    adj = {x: frozenset(rng.sample(sorted(base.adjacency[x]), len(base.adjacency[x]))) for x in keys}
    others.append(Graph._derived(base.vertices, base.edges, adj))
    return base, others


def _order(g):
    return list(g.adjacency), [list(nbs) for nbs in g.adjacency.values()]


def _runs(g):
    k = max(chain_metric(g), 1)
    out = []
    for theorem, (tree, trace) in ((1, construct_theorem1(g)), (2, construct_theorem2(g, k))):
        assert replay_trace(g, trace, theorem, k if theorem == 2 else None) == tree
        out.append((trace.lines(), serialize_tree(tree)))
    return out


def _descent_runs(g):
    """Trace lines and tree of theorem 2's descent from g without its greedy
    case, replayed through _descend under the same request."""
    request = replace_greedy(_theorem(g, 2, max(chain_metric(g), 1)))
    tree, root = _descend(g, request)
    assert _descend(g, request, root)[0] == tree
    return [(ConstructionTrace(root, tree).lines(), serialize_tree(tree))]


def _check_build_order(g, rng, runs=_runs):
    base, others = _same_graph_other_ways(g, rng)
    want = runs(base)
    for h in others:
        assert h == base
        assert runs(h) == want, g.sorted_edges
    return any(_order(h) != _order(base) for h in others)


def test_descent_digest():
    h = hashlib.sha256()
    graphs, roots = Counter(), Counter()
    for g in _golden_graphs():
        [(lines, tree)] = _descent_runs(g)
        h.update("\n".join(lines).encode())
        h.update(tree.encode())
        graphs.update({line.split()[0] for line in lines})
        roots[lines[0].split()[0]] += 1
    assert h.hexdigest() == DESCENT_DIGEST
    # the 122 graphs that take greedy at the root descend instead, through
    # every step of the table
    assert sum(roots[c] for c in ("case=1.1", "case=1.2", "case=base-spines")) == 122
    assert (graphs["case=1.1"], graphs["case=1.2"], graphs["case=base-spines"]) == (63, 108, 82)


def test_build_order_changes_no_descent_tree_or_trace():
    rng = random.Random(2718)
    assert sum(_check_build_order(g, rng, _descent_runs) for g in _golden_graphs()) > 150


def test_build_order_changes_no_tree_or_trace():
    # the descents read blocks off a graph's own adjacency, whose order
    # depends on how the graph was built; no tree and no trace line may
    rng = random.Random(99)
    reordered = sum(_check_build_order(g, rng) for g in _golden_graphs())
    assert reordered > 150  # the forms really differ in order


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 16))
def test_build_order_changes_no_tree_or_trace_hypothesis(seed, v):
    rng = random.Random(seed)
    _check_build_order(random_connected(rng, v), rng)
