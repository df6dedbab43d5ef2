"""Constructive certificates: trees that meet the bounds, with replayable
traces, plus the block-removal subroutine behind the girth/chain descent.

Run with: python3 demos/04_certificates_and_traces.py
"""

from leafspan import (
    Graph,
    bound_theorem1,
    bound_theorem2,
    chain_metric,
    construct_theorem1,
    construct_theorem2,
    remove_large_blocks,
    replay_trace,
    s_count,
)

g = Graph.petersen()

tree, trace = construct_theorem1(g)
b = bound_theorem1(s_count(g)).value
print("constructed leaves:", tree.leaf_count, " bound:", b)
print("descent trace:")
for line in trace.lines():
    print("  ", line)

# replaying the trace re-derives every step and must land on the same tree
again = replay_trace(g, trace, theorem=1)
print("replay identical:", again.tree_edges == tree.tree_edges)

# the girth-aware construction needs the chain cap k.  On the Petersen
# graph greedy's proved leaf count, ceil((s + 2d - 1)/4) for maximum
# degree d, already covers it, so the greedy tree certifies
k = max(chain_metric(g), 1)
tree2, trace2 = construct_theorem2(g, k)
b2 = bound_theorem2(g.v, 5, k).value
print("girth/chain construction:", tree2.leaf_count, "leaves, bound", b2)
print("base cases used:", trace2.base_kinds)

# with every edge subdivided it does not, and the girth/chain descent
# removes large blocks first (case 1.2); subdividing doubles the girth to 10
n = max(g.vertices) + 1
sub = Graph.build([e for i, (u, v) in enumerate(g.sorted_edges) for e in ((u, n + i), (n + i, v))])
tree3, trace3 = construct_theorem2(sub, 1)
print("subdivided Petersen:", tree3.leaf_count, "leaves, bound", bound_theorem2(sub.v, 10, 1).value)
for line in trace3.lines():
    print("  ", line)
print("replay identical:", replay_trace(sub, trace3, theorem=2, k=1) == tree3)

# block removal: an edge set, not always the smallest, leaving no block
# with more interior vertices than boundary cutpoints, connectivity preserved
k4 = Graph.complete(4)
f = remove_large_blocks(k4)
print("K4 removal set:", sorted(f), " remainder:", k4.without_edges(f).sorted_edges)
