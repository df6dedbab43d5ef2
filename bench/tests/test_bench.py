"""Tests of the benchmark itself: determinism, tracer hygiene, oracle teeth.

Run from the root of a checkout with ``python3 -m pytest bench/tests -q``.
"""

import dataclasses
import random
import sys
from itertools import combinations

import pytest

import calib
import gen
import oracle
import run
import workloads

SHORT = 1.0  # --seconds for quick passes


def _edge_subset_max_leaves(n, edges):
    """Maximum leaf number by trying every (n-1)-edge subset."""
    best = 0
    for combo in combinations(edges, n - 1):
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        ok = True
        for u, v in combo:
            ru, rv = find(u), find(v)
            if ru == rv:
                ok = False
                break
            parent[ru] = rv
        if ok:
            deg = [0] * n
            for u, v in combo:
                deg[u] += 1
                deg[v] += 1
            best = max(best, sum(1 for d in deg if d == 1))
    return best


def _count_metrics(result):
    return {k: v["value"] for k, v in result["metrics"].items() if v["unit"] == "count"}


def test_brute_force_matches_edge_subsets():
    rng = random.Random(4)
    for n in range(3, 8):
        for _ in range(6):
            edges = gen.sparse_edges(n, rng.randint(0, (n - 1) * (n - 2) // 2), rng)
            assert oracle.brute_max_leaves(n, edges) == _edge_subset_max_leaves(n, edges)


def test_cubic_generator_is_simple_connected_and_regular():
    rng = random.Random(9)
    for n in (8, 14, 18):
        edges = gen.cubic_edges(n, rng)
        assert len(set(edges)) == len(edges) == 3 * n // 2
        assert set(oracle.degrees(range(n), edges).values()) == {3}
        assert gen.connected(n, edges)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_same_instances(workload):
    lib = run.import_library()
    first = [inst.key for inst in workloads.build(workload, lib, 5, SHORT)]
    again = [inst.key for inst in workloads.build(workload, lib, 5, SHORT)]
    other = [inst.key for inst in workloads.build(workload, lib, 6, SHORT)]
    assert first == again
    assert first != other


def test_same_seed_same_counts_and_wrappers_restored():
    a, *_ = run.measure("certify", 3, SHORT, trace=True)
    b, *_ = run.measure("certify", 3, SHORT, trace=True)
    assert a["correct"] and b["correct"]
    assert _count_metrics(a) == _count_metrics(b)
    assert a["metrics"]["removal.edges_tried"]["value"] > 0
    assert a["metrics"]["blocks.decompose.calls"]["value"] > 0
    for name, mod in list(sys.modules.items()):
        if name == "leafspan" or name.startswith("leafspan."):
            for attr, value in vars(mod).items():
                assert not hasattr(value, "__leafspan_bench_wrapper__"), f"{name}.{attr}"
    graph_cls = sys.modules["leafspan.graph"].Graph
    for attr, value in vars(graph_cls).items():
        assert not hasattr(value, "__leafspan_bench_wrapper__"), f"Graph.{attr}"


def test_untraced_result_has_every_end_to_end_metric():
    result, *_ = run.measure("exact", 2, SHORT, trace=False)
    assert result["correct"]
    assert set(result["metrics"]) == {
        "setup_s", "run_s", "instance_ms.p50", "instance_ms.p90", "ok_frac", "slack_mean", "peak_rss_mb",
    }


def _first(instances, rung):
    return next(inst for inst in instances if inst.rung == rung)


def _output(inst, lib):
    status, _, out = run.execute(inst, lib)
    assert status == "ok"
    return out


def test_oracle_rejects_wrong_exact_optimum():
    lib = run.import_library()
    inst = _first(workloads.build("exact", lib, 1, SHORT), "cubic-14")
    res = _output(inst, lib)
    inst.check(res)
    worse = lib.exact_mlst(lib.Graph.build([(0, 1), (1, 2), (2, 3)]))
    with pytest.raises(oracle.WrongAnswer):
        inst.check(dataclasses.replace(res, u_value=res.u_value + 1))
    with pytest.raises(oracle.WrongAnswer):
        inst.check(dataclasses.replace(res, witness=worse.witness))


def test_oracle_rejects_wrong_corpus_record():
    lib = run.import_library()
    inst = _first(workloads.build("certify", lib, 1, SHORT), "corpus-t2-construct")
    rep = _output(inst, lib)
    inst.check(rep)
    rec = rep.records[0]
    faked = dataclasses.replace(rep, records=(dataclasses.replace(rec, achieved=rec.v + 1),))
    with pytest.raises(oracle.WrongAnswer):
        inst.check(faked)


def test_oracle_rejects_broken_tree():
    lib = run.import_library()
    inst = _first(workloads.build("ladder", lib, 1, SHORT), "cycle-t2-50")
    tree, again = _output(inst, lib)
    inst.check((tree, again))
    dropped = sorted(tree.tree_edges)[1:]
    broken = dataclasses.replace(tree, tree_edges=frozenset(dropped))
    with pytest.raises(oracle.WrongAnswer):
        inst.check((broken, broken))
    with pytest.raises(oracle.WrongAnswer):
        inst.check((tree, broken))


def test_wrong_answer_fails_the_run_and_is_no_latency_sample():
    lib = run.import_library()
    inst = _first(workloads.build("ladder", lib, 1, SHORT), "cycle-t2-50")

    def lie(out):
        raise oracle.WrongAnswer("faked")

    p = run.Pass().run([inst, dataclasses.replace(inst, check=lie)], lib)
    assert len(p.wrong) == 1 and p.failed == 1 and p.attempted == 2
    assert len(p.times) == 1


def test_scaling_cancels_a_change_of_machine_speed():
    wall = [0.010, 0.020, 0.5, 0.004] * 10
    refs = [0.002] * len(wall)
    fast, slow = run.Pass(), run.Pass()
    fast.wall, fast.refs, fast.caps = wall, refs, [None] * len(wall)
    slow.wall, slow.refs, slow.caps = [w * 1.5 for w in wall], [r * 1.5 for r in refs], fast.caps
    assert slow.scaled_total() == pytest.approx(fast.scaled_total())
    assert fast.scaled_total() == pytest.approx(sum(wall) * calib.NOMINAL_MS * 1e-3 / 0.002)


def test_scaling_follows_the_local_reference():
    refs = [0.001] * 30 + [0.003] * 30
    f = calib.factors(refs)
    assert f[0] == pytest.approx(3 * f[-1])
