"""The exact solver: optimal leaf counts with a verifiable witness.

Run with: python3 demos/02_exact_oracle.py
"""

from leafspan import Graph, enumerate_spanning_trees, exact_mlst, greedy_leafy
from leafspan.trees import validate

g = Graph.petersen()

res = exact_mlst(g)
print("Petersen graph: u =", res.u_value)
print("nodes explored:", res.nodes_explored, " optimal =", res.optimal)
print("witness edges:", sorted(res.witness.tree_edges))
print("witness valid:", validate(res.witness) is None)

# the greedy heuristic gives a quick lower bound, never better than exact
t = greedy_leafy(g)
print("greedy leaves:", t.leaf_count, "<=", res.u_value)

# brute enumeration agrees on small hosts
small = Graph.complete(4)
best = max(t.leaf_count for t in enumerate_spanning_trees(small, cap=100))
print("K4 by enumeration:", best, " by solver:", exact_mlst(small).u_value)

# a node budget trades optimality for time, and says so
capped = exact_mlst(g, node_budget=1)
print("budget 1: u >=", capped.u_value, " optimal =", capped.optimal)
