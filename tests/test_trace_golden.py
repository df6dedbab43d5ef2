"""Golden digest of both constructive descents.

One sha256 pins every trace line and every certified tree on a fixed,
seeded set of graphs, so any change to a derivation shows up here.  A
change that alters a trace or a tree on purpose updates DIGEST and says so
in CHANGES.md.
"""

import hashlib
import random

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
    serialize_tree,
)

DIGEST = "9041770e1dc1cd352700821de07afa3336b49ac31a27ed13678ccaa99a2bf21b"


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
