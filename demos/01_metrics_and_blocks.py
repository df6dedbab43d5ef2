"""Tour of the graph type: construction, metrics and blocks.

Run with: python3 demos/01_metrics_and_blocks.py
"""

from leafspan import Graph, chain_metric, girth, s_count
from leafspan.blocks import large_blocks, lowpoint_blocks

# a triangle with a tail hanging off vertex 0
g = Graph.build([(0, 1), (1, 2), (0, 2), (0, 3), (3, 4)])
print("graph:", g.sorted_edges)
print("v =", g.v, " e =", g.e, " connected =", g.is_connected)

print("girth =", girth(g), " chain metric =", chain_metric(g), " s count =", s_count(g))

# one lowpoint pass gives the blocks, each a list of vertices, and the cutpoints
blocks, cuts = lowpoint_blocks(g.adjacency)
print("cutpoints:", sorted(cuts))
# a block of two vertices is a bridge
print("bridges:", sorted(tuple(sorted(vs)) for vs in blocks if len(vs) == 2))
# a block is large when its interior, the vertices that are not cutpoints,
# outnumbers its cutpoints
large = [sorted(vs) for _, vs in large_blocks(blocks, cuts)]
for vs in sorted(map(sorted, blocks)):
    print("  block", vs, "interior", [x for x in vs if x not in cuts], "large =", vs in large)

# a derived graph keeps its parent's ids: without the edge 0-3 the tail 3-4
# is a component of its own
h = g.without_edge(0, 3)
print("without 0-3:", [sorted(c) for c in h.components])
