"""The leaf-count lower bounds and their exact rational rates.

Run with: python3 demos/03_bounds_and_rates.py
"""

from leafspan import (
    Graph,
    alpha,
    beta,
    beta_prime,
    bound_kw,
    bound_theorem1,
    bound_theorem2,
    exact_mlst,
    s_count,
)

g = Graph.petersen()
u = exact_mlst(g).u_value

# rate in the count of vertices whose degree is not 2
r1 = bound_theorem1(s_count(g)).check(u)
print("s-count bound:", r1.value, " u =", u, " holds =", r1.holds)

# the v/4 + 2 rate for minimum degree 3
r2 = bound_kw(g.v).check(u)
print("min-degree-3 bound:", r2.value, " holds =", r2.holds)

# girth-and-chain rate: the Petersen graph has girth 5, no degree-2 chains
r3 = bound_theorem2(g.v, 5, 1).check(u)
print("girth/chain bound:", r3.value, " holds =", r3.holds)
print("as_dict:", r3.as_dict())

# the rate is the smaller of two coefficients, and it switches regimes at
# k = g - 2: short chains keep the long-cycle rate, long chains flatten it
for k in (1, 2, 3, 4):
    print(
        f"g=5 k={k}: alpha={alpha(5, k)} "
        f"(beta={beta(5, k)}, beta_prime={beta_prime(6, k)})"
    )
