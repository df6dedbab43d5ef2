"""Tour of the graph type: construction, metrics, blocks, and surgery.

Run with: python3 demos/01_metrics_and_surgery.py
"""

from leafspan import (
    Graph,
    chain_metric,
    contract_edge,
    decompose_blocks,
    find_spines,
    girth,
    glue,
    s_count,
)

# a triangle with a tail hanging off vertex 0
g = Graph.build([(0, 1), (1, 2), (0, 2), (0, 3), (3, 4)])
print("graph:", g.sorted_edges)
print("v =", g.v, " e =", g.e, " connected =", g.is_connected)

print("girth =", girth(g), " chain metric =", chain_metric(g), " s count =", s_count(g))

dec = decompose_blocks(g)
print("cutpoints:", sorted(dec.cutpoints))
print("bridges:", sorted(dec.bridges))
for b in dec.blocks:
    print("  block", sorted(b.vertices), "interior", sorted(b.interior), "large =", b.is_large)

# the tail 3-4 is a spine based at the cutpoint 0
for s in find_spines(g):
    print("spine", s.path, "base", s.base, "pendant", s.pendant)

# gluing two graphs at one vertex each
star = Graph.star(3)
res = glue(g, 4, star, 1)
print("glued:", res.graph.sorted_edges, " merged vertex =", res.merged)

# contracting an edge keeps the lower id
c = contract_edge(g, 3, 4)
print("contracted 3-4:", c.graph.sorted_edges, " merged into", c.merged)
