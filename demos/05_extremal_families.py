"""Extremal families: the generators that make every bound exactly tight.

Run with: python3 demos/05_extremal_families.py
"""

from leafspan import (
    CYCLE_SPINE_DENSE,
    FamilySpec,
    TRIANGLE_TREE,
    bound_theorem1,
    bound_theorem2,
    chain_metric,
    exact_mlst,
    gen_cycle_spine,
    gen_triangle_tree,
    girth,
    glue_extremal_chain,
    s_count,
)

# chained triangles with pendants: every vertex has degree 1 or 3, so the
# s-count is all of v and the bound lands exactly on the optimum
for n in (1, 2, 3):
    g = gen_triangle_tree(n)
    u = exact_mlst(g).u_value
    print(f"triangle tree n={n}: v={g.v} u={u} bound={bound_theorem1(s_count(g)).value}")

# the cycle-with-spines family, dense regime (chains at least girth - 2)
g = gen_cycle_spine(4, 2)
print(f"dense g=4 k=2: v={g.v} girth={girth(g)} ell={chain_metric(g)} "
      f"u={exact_mlst(g).u_value} bound={bound_theorem2(g.v, 4, 2).value}")

# sparse regime: short chains on a longer even cycle
g = gen_cycle_spine(6, 2)
print(f"sparse g=6 k=2: v={g.v} girth={girth(g)} ell={chain_metric(g)} "
      f"u={exact_mlst(g).u_value} bound={bound_theorem2(g.v, 6, 2).value}")

# gluing copies pendant-to-pendant scales tight instances arbitrarily
g = glue_extremal_chain(FamilySpec(kind=TRIANGLE_TREE, n=1), 3)
print(f"chain of 3 triangle trees: v={g.v} u={exact_mlst(g).u_value} "
      f"bound={bound_theorem1(s_count(g)).value}")

g = glue_extremal_chain(FamilySpec(kind=CYCLE_SPINE_DENSE, g=3, k=1), 2)
print(f"chain of 2 dense instances: v={g.v} u={exact_mlst(g).u_value} "
      f"bound={bound_theorem2(g.v, 3, 1).value}")
