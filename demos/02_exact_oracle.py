"""The exact solver: optimal leaf counts with a verifiable witness.

Run with: python3 demos/02_exact_oracle.py
"""

from leafspan import Graph, exact_mlst, greedy_leafy
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

# complete graphs have a closed form: the star, u(K_n) = n - 1
small = Graph.complete(4)
print("K4 closed form:", small.v - 1, " by solver:", exact_mlst(small).u_value)

# Petersen needed no search: the degree sum of any spanning tree caps its
# leaves at v/2 + 1 = 6 on a cubic graph without cutpoints, and greedy's
# tree already has 6.  On this 14-vertex cubic graph greedy finds 7 of the
# 8, so the search runs, and a node budget trades optimality for time, and
# says so
cubic = Graph.build([
    (0, 4), (0, 10), (0, 11), (1, 2), (1, 7), (1, 9), (2, 3), (2, 8), (3, 7), (3, 11), (4, 6),
    (4, 11), (5, 8), (5, 10), (5, 13), (6, 12), (6, 13), (7, 12), (8, 9), (9, 10), (12, 13),
])
full = exact_mlst(cubic)
print("cubic 14: greedy", greedy_leafy(cubic).leaf_count, " u =", full.u_value, " nodes =", full.nodes_explored)
capped = exact_mlst(cubic, node_budget=1)
print("budget 1: u >=", capped.u_value, " nodes =", capped.nodes_explored, " optimal =", capped.optimal)
