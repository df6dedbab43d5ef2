"""Acceptance gate: the ten headline claims, one test per criterion.

Each test prints a single pass/fail line (visible under pytest -s) and
asserts the claim at its stated tolerance, which for every rational
comparison here means exact equality, no epsilon.  Batch criteria are
property checks over seeded corpora, so reruns are reproducible.
"""

import random
import time
from fractions import Fraction

from leafspan import (
    Graph,
    alpha,
    beta,
    beta_prime,
    bound_theorem1,
    bound_theorem2,
    chain_metric,
    construct_theorem1,
    construct_theorem2,
    exact_mlst,
    gen_cycle_spine,
    gen_triangle_tree,
    girth,
    random_constrained_graph,
    remove_large_blocks,
    replay_trace,
    s_count,
    verify_corpus,
)
from leafspan.corpus import SEED_STRIDE
from leafspan.trees import validate
from conftest import brute_bridges, identify, large_blocks_reference, random_connected


def report(n, ok, detail):
    print(f"criterion {n:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {n}: {detail}"


def test_c01_triangle_tree_tight():
    t0 = time.perf_counter()
    bad = []
    for n in range(1, 6):
        g = gen_triangle_tree(n)
        u = exact_mlst(g).u_value
        b = bound_theorem1(4 * n + 2).value
        if not (u == n + 2 and b == Fraction(n + 2)):
            bad.append((n, u, b))
    dt = time.perf_counter() - t0
    report(1, not bad and dt < 10, f"n=1..5 u=bound=n+2, {dt:.2f}s (limit 10s) {bad}")


def test_c02_dense_family_tight():
    t0 = time.perf_counter()
    bad = []
    for g_, k in [(3, 1), (3, 2), (4, 2), (5, 3), (5, 4)]:
        assert g_ * (k + 2) <= 30
        gr = gen_cycle_spine(g_, k)
        u = exact_mlst(gr).u_value
        b = bound_theorem2(g_ * (k + 2), g_, k).value
        if not (gr.v == g_ * (k + 2) and u == g_ and b == Fraction(g_)):
            bad.append((g_, k, u, b))
    dt = time.perf_counter() - t0
    report(2, not bad and dt < 60, f"dense pairs u=bound=g, {dt:.2f}s (limit 60s) {bad}")


def test_c03_sparse_family_tight():
    t0 = time.perf_counter()
    bad = []
    for g_, k in [(5, 1), (5, 2), (6, 2), (7, 1)]:
        n = (g_ + 1) // 2 - 1
        gr = gen_cycle_spine(g_, k)
        u = exact_mlst(gr).u_value
        b = bound_theorem2(gr.v, g_, k).value
        if not (u == n + 2 and b == Fraction(n + 2)):
            bad.append((g_, k, u, b))
    dt = time.perf_counter() - t0
    report(3, not bad and dt < 60, f"sparse pairs u=bound=n+2, {dt:.2f}s (limit 60s) {bad}")


def test_c04_glue_additivity():
    bad = []
    for j in range(100):
        rng = random.Random(40000 + j)
        parts = []
        for _ in range(2):
            core = random_connected(rng, rng.randint(2, 6))
            p = max(core.vertices) + 1  # fresh pendant, the glue point
            parts.append((Graph.build([*core.edges, (rng.choice(core.sorted_vertices), p)]), p))
        (g1, p1), (g2, p2) = parts
        u1 = exact_mlst(g1).u_value
        u2 = exact_mlst(g2).u_value
        ug = exact_mlst(identify(g1, p1, p2, g2)).u_value
        if ug != u1 + u2 - 2:
            bad.append((j, u1, u2, ug))
    report(4, not bad, f"100 glued pairs, u = u1+u2-2 each time {bad}")


def test_c05_bridge_contraction_invariance():
    bad = []
    found = 0
    attempts = 0
    while found < 100 and attempts < 5000:
        rng = random.Random(50000 + attempts)
        attempts += 1
        g = random_connected(rng, rng.randint(3, 9))
        clear = [
            (a, b)
            for (a, b) in sorted(brute_bridges(g))
            if g.degree(a) > 1 and g.degree(b) > 1
        ]
        if not clear:
            continue
        found += 1
        before = exact_mlst(g).u_value
        after = exact_mlst(identify(g, *clear[0])).u_value
        if before != after:
            bad.append((attempts - 1, clear[0], before, after))
    report(5, found == 100 and not bad, f"{found} bridge contractions, u unchanged {bad}")


def test_c06_theorem1_corpus():
    t0 = time.perf_counter()
    rep = verify_corpus(1, count=500, max_v=12, seed=0, mode="exact")
    dt = time.perf_counter() - t0
    fails = [r.line() for r in rep.failures]
    report(6, not fails and dt < 300, f"500 instances, {dt:.1f}s (limit 300s) {fails[:3]}")


def test_c07_theorem2_corpus():
    t0 = time.perf_counter()
    rep = verify_corpus(2, count=500, max_v=12, seed=0, mode="exact")
    dt = time.perf_counter() - t0
    fails = [r.line() for r in rep.failures]
    trees = sum(1 for r in rep.records if r.note == "tree")
    report(
        7,
        not fails and dt < 300,
        f"500 instances ({trees} trees), {dt:.1f}s (limit 300s) {fails[:3]}",
    )


def test_c08_constructive_certificates():
    bad = []
    for i in range(500):
        si = SEED_STRIDE * i  # the criterion 6/7 corpus, seed 0
        rng = random.Random(si)
        v = rng.randint(2, 12)
        g = random_constrained_graph(v, min_degree=1, seed=si)

        t1, tr1 = construct_theorem1(g)
        ok1 = (
            validate(t1) is None
            and t1.leaf_count >= bound_theorem1(s_count(g)).value
            and replay_trace(g, tr1, theorem=1).tree_edges == t1.tree_edges
        )

        k = max(chain_metric(g), 1)
        gv = girth(g)
        t2, tr2 = construct_theorem2(g, k)
        ok2 = (
            validate(t2) is None
            and t2.leaf_count >= bound_theorem2(g.v, 3 if gv is None else gv, k).value
            and replay_trace(g, tr2, theorem=2, k=k).tree_edges == t2.tree_edges
        )
        if not (ok1 and ok2):
            bad.append(i)
    report(8, not bad, f"500 instances, both descents: valid, bound met, replayed {bad[:5]}")


def test_c09_block_removal_postconditions():
    bad = []
    for i in range(200):
        rng = random.Random(90000 + i)
        g = random_connected(rng, rng.randint(3, 10))
        f = remove_large_blocks(g)
        red = g.without_edges(f)
        ok = f <= g.edges and red.is_connected
        ok = ok and not large_blocks_reference(red)
        for a, b in red.sorted_edges:
            if red.degree(a) == 2 and red.degree(b) == 2:
                ok = ok and g.degree(a) == 2 and g.degree(b) == 2
        if not ok:
            bad.append(i)
    report(9, not bad, f"200 removal sets, connected / no large blocks / chains honest {bad[:5]}")


def test_c10_coefficient_properties():
    t0 = time.perf_counter()
    ok = True
    for k in range(1, 21):
        for h in range(3, 20):
            ok = ok and beta(h + 1, k) > beta(h, k)
    for n in range(2, 21):
        for k in range(1, 21):
            ok = ok and beta_prime(2 * n - 1, k) > beta_prime(2 * n, k)
    for n in range(1, 21):
        for k in range(1, 21):
            ok = ok and (beta_prime(2 * n + 2, k) < beta(2 * n + 2, k)) == (k < 2 * n)
            ok = ok and (beta_prime(2 * n + 2, k) < beta(2 * n + 1, k)) == (k < 2 * n - 1)
    for g_ in range(3, 21):
        for k in range(1, 21):
            a = alpha(g_, k)
            ok = ok and isinstance(a, Fraction)
            ok = ok and a == min(beta(g_, k), beta_prime(2 * ((g_ + 1) // 2), k))
    dt = time.perf_counter() - t0
    report(10, ok and dt < 1, f"rate monotonicity and minimum structure, {dt:.3f}s (limit 1s)")
