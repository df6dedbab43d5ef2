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

# a node budget trades optimality for time, and says so
capped = exact_mlst(g, node_budget=1)
print("budget 1: u >=", capped.u_value, " optimal =", capped.optimal)
