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

# the girth-aware construction takes a chain cap k, by default the longest
# chain of degree-2 vertices, at least 1.  It takes greedy's tree wherever
# its leaves reach the bound, as on the Petersen graph
k = max(chain_metric(g), 1)
tree2, trace2 = construct_theorem2(g)
b2 = bound_theorem2(g.v, 5, k).value
print("girth/chain construction:", tree2.leaf_count, "leaves, bound", b2)
print("base cases used:", trace2.base_kinds)

# K4 with its edges subdivided into runs of 3, 3, 3, 1, 3 and 1 vertices has
# girth 8 and chains of 3.  Greedy's tree has 4 leaves, short of the bound
# 77/19, so the girth/chain descent runs: it removes large blocks first
# (case 1.2), and the tree left has 6 leaves
sub = Graph.build(
    [(0, 4), (0, 7), (0, 10), (1, 6), (1, 13), (1, 14), (2, 9), (2, 13), (2, 17), (3, 12)]
    + [(3, 16), (3, 17), (4, 5), (5, 6), (7, 8), (8, 9), (10, 11), (11, 12), (14, 15), (15, 16)]
)
tree3, trace3 = construct_theorem2(sub, 3)
print("subdivided K4:", tree3.leaf_count, "leaves, bound", bound_theorem2(sub.v, 8, 3).value)
for line in trace3.lines():
    print("  ", line)
print("replay identical:", replay_trace(sub, trace3, theorem=2, k=3) == tree3)

# block removal: an edge set, not always the smallest, leaving no block
# with more interior vertices than boundary cutpoints, connectivity preserved
k4 = Graph.complete(4)
f = remove_large_blocks(k4)
print("K4 removal set:", sorted(f), " remainder:", k4.without_edges(f).sorted_edges)
