"""The three workloads as seeded lists of instances.

An instance is one graph put through one public call.  ``prepare`` builds
fresh library objects (untimed), ``call`` is the timed public call, and
``check`` compares the output against ``oracle`` and returns the slack
(leaves achieved minus the bound) or raises ``WrongAnswer``.

Rung counts are written for a 30 s pass of the seed code on a 2-core
x86-64 machine under CPython 3.11; ``--seconds`` scales them.
"""

from __future__ import annotations

import functools
import hashlib
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Optional

import gen
import oracle
from oracle import require

NOMINAL_SECONDS = 30
CORPUS_STRIDE = 7919  # verify_corpus: instance i of a corpus uses seed + 7919 * i
BRUTE_MAX_V = 12  # corpus graphs up to this size get a brute-force optimum
DEFAULT_CAP = 60.0
DENSE_C = 4  # corpus graphs with at least this cyclomatic number are size-capped


@dataclass
class Instance:
    rung: str
    key: str  # hash of the inputs, for determinism checks
    cap: float  # seconds before the call counts as a timeout
    prepare: Callable[[Any], tuple]
    call: Callable[..., Any]
    check: Callable[[Any], Optional[Fraction]]


def _key(*parts) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


# -- corpus instances ------------------------------------------------------------


def _corpus_draw(lib, si: int, max_v: int):
    """The graph verify_corpus(count=1, seed=si) will build.

    Mirrors the corpus size draw, then asks the public generator for the
    graph, so the benchmark can balance cyclomatic numbers and keep the
    input for its oracle.  The hash check in the oracle catches any drift.
    """
    v = random.Random(si).randint(2, max_v)
    g = lib.random_constrained_graph(v, min_degree=1, seed=si)
    return v, tuple(sorted(g.edges))


def corpus_rung(lib, rng, theorem, mode, max_v, scan, quotas, dense_max_v, cap=DEFAULT_CAP):
    """Corpus instances whose cyclomatic numbers fill ``quotas`` (c -> count).

    Exactly ``scan`` candidates, instances 0..scan-1 of a corpus with a
    seeded base, are drawn; the first ones of each cyclomatic number fill
    its quota.  A fixed scan keeps set-up work the same for every seed.
    Candidates with c >= DENSE_C and more than ``dense_max_v`` vertices are
    skipped: the search time grows steeply with the edge count, and a few
    such graphs made a pass's time swing with the seed.
    """
    base = rng.randrange(1 << 30)
    need = dict(quotas)
    out = []
    for j in range(scan):
        si = base + CORPUS_STRIDE * j
        v, edges = _corpus_draw(lib, si, max_v)
        c = len(edges) - v + 1
        if need.get(c, 0) <= 0 or (c >= DENSE_C and v > dense_max_v):
            continue
        need[c] -= 1
        out.append(
            Instance(
                rung=f"corpus-t{theorem}-{mode}",
                key=_key("corpus", theorem, mode, max_v, si, edges),
                cap=cap,
                prepare=lambda lib, si=si: (lib, si),
                call=lambda lib, si: lib.verify_corpus(theorem, 1, max_v, seed=si, mode=mode),
                check=lambda rep, v=v, edges=edges: check_corpus(rep, theorem, mode, v, edges),
            )
        )
    if any(need.values()):
        raise RuntimeError(f"{scan} corpus candidates left quotas {need} unfilled")
    return out


def check_corpus(rep, theorem, mode, v, edges) -> Fraction:
    require(len(rep.records) == 1, "corpus returned the wrong record count")
    rec = rep.records[0]
    verts = range(v)
    require(rec.hash == oracle.edge_hash(verts, edges), f"instance hash {rec.hash} is not the drawn graph")
    g = oracle.girth(verts, edges)
    ell = oracle.chain_metric(verts, edges)
    s = oracle.s_count(verts, edges)
    require((rec.v, rec.e, rec.girth, rec.ell, rec.s) == (v, len(edges), g, ell, s), "corpus metrics differ")
    bound = oracle.bound1(s) if theorem == 1 else oracle.bound2(v, g or 3, max(ell, 1))
    require(rec.report.value == bound, f"bound {rec.report.value} != {bound}")
    require(rec.achieved >= bound and rec.passed, f"{rec.achieved} leaves below bound {bound}")
    if v <= BRUTE_MAX_V:
        best = _brute(v, tuple(edges))
        if mode == "exact":
            require(rec.achieved == best, f"exact optimum {rec.achieved} != brute force {best}")
        else:
            require(rec.achieved <= best, f"{rec.achieved} leaves exceed the optimum {best}")
    return rec.achieved - bound


@functools.lru_cache(maxsize=None)
def _brute(n, edges) -> int:
    return oracle.brute_max_leaves(n, edges)


# -- direct calls on generated graphs -------------------------------------------


def _graph(lib, edges):
    return lib.Graph.build(edges)


def exact_instance(rung, n, edges, cap=DEFAULT_CAP, optimum=None):
    """exact_mlst on a graph; the optimum comes from brute force unless given."""

    def check(res):
        got = oracle.tree_leaves(range(n), edges, res.witness.tree_edges)
        require(got == res.u_value == res.witness.leaf_count, "witness leaf count differs from u")
        require(res.optimal, "search ran out of budget")
        best = optimum if optimum is not None else _brute(n, tuple(edges))
        require(res.u_value == best, f"exact optimum {res.u_value} != reference {best}")
        deg = oracle.degrees(range(n), edges)
        if min(deg.values()) >= 3:
            bound = oracle.bound_kw(n)
        else:
            bound = oracle.bound1(oracle.s_count(range(n), edges))
        require(res.u_value >= bound, "optimum below the proven bound")
        return res.u_value - bound

    return Instance(
        rung=rung,
        key=_key(rung, edges),
        cap=cap,
        prepare=lambda lib: (lib, _graph(lib, edges)),
        call=lambda lib, g: lib.exact_mlst(g),
        check=check,
    )


def construct_instance(rung, theorem, n, edges, replay, cap=DEFAULT_CAP, optimum=None, tight=False):
    """construct_theorem{1,2} on a graph, optionally followed by replay_trace.

    optimum, when known in closed form, caps the leaves; tight demands the
    bound itself equals that optimum, so the tree must reach it exactly.
    """
    verts = range(n)
    k = max(oracle.chain_metric(verts, edges), 1)

    def call(lib, graph):
        if theorem == 1:
            tree, trace = lib.construct_theorem1(graph)
            again = lib.replay_trace(graph, trace, theorem=1) if replay else tree
        else:
            tree, trace = lib.construct_theorem2(graph, k)
            again = lib.replay_trace(graph, trace, theorem=2, k=k) if replay else tree
        return tree, again

    def check(out):
        if theorem == 1:
            bound = oracle.bound1(oracle.s_count(verts, edges))
        else:
            bound = oracle.bound2(n, oracle.girth(verts, edges) or 3, k)
        if tight:
            require(math.ceil(bound) == optimum, f"{rung}: bound {bound} is not tight at {optimum}")
        tree, again = out
        leaves = oracle.tree_leaves(verts, edges, tree.tree_edges)
        require(leaves == tree.leaf_count, "stored leaf count is wrong")
        require(set(again.tree_edges) == set(tree.tree_edges), "replay produced another tree")
        require(leaves >= bound, f"{leaves} leaves below bound {bound}")
        best = optimum
        if best is None and n <= BRUTE_MAX_V:
            best = _brute(n, tuple(edges))
        if best is not None:
            require(leaves <= best, f"{leaves} leaves exceed the optimum {best}")
        return leaves - bound

    return Instance(
        rung=rung,
        key=_key(rung, theorem, edges),
        cap=cap,
        prepare=lambda lib: (lib, _graph(lib, edges)),
        call=call,
        check=check,
    )


def _relabelled(lib_graph, rng):
    return lib_graph.v, gen.relabel_edges(lib_graph.edges, rng)


def _path(n):
    return [(i, i + 1) for i in range(n - 1)]


def _cycle(n):
    return [(i, (i + 1) % n) for i in range(n)]


def _count(n, scale):
    return max(1, round(n * scale))


def _scan(scale):
    """Corpus candidates to draw: 1000, more when longer runs raise the quotas."""
    return _count(1000, max(scale, 1.0))


# -- workloads ---------------------------------------------------------------------


def exact_workload(lib, rng, scale):
    """Exact solver: many shallow corpus searches beside deep cubic ones."""
    out = []
    # the counts put each percentile in the middle of one block: as many fast
    # c <= 1 searches below the 120 of c = 2 as there are slower ones above,
    # so the median lands among those; and the 90th percentile lands in the
    # middle of the 80 cubic graphs of 14 vertices
    quotas = {c: _count(q, scale) for c, q in enumerate((41, 41, 60, 10, 8, 8, 6, 4, 3, 1))}
    for theorem in (1, 2):
        out += corpus_rung(lib, rng, theorem, "exact", 16, _scan(scale), quotas, dense_max_v=14)
    for n, count in ((14, 80), (16, 2)):
        for _ in range(_count(count, scale)):
            out.append(exact_instance(f"cubic-{n}", n, gen.cubic_edges(n, rng)))
    # fails today: the edge recursion is as deep as the edge count
    out.append(exact_instance("path-1500", 1500, gen.relabel_edges(_path(1500), rng), cap=30.0, optimum=2))
    return out


def certify_workload(lib, rng, scale):
    """Construct-and-replay on many small graphs, where block removal dominates."""
    out = []
    t1 = {c: _count(15, scale) for c in range(7)}
    t2 = {c: _count(q, scale) for c, q in enumerate((10, 10, 10, 10, 10, 10, 10, 4))}
    out += corpus_rung(lib, rng, 1, "construct", 12, _scan(scale), t1, dense_max_v=11)
    out += corpus_rung(lib, rng, 2, "construct", 12, _scan(scale), t2, dense_max_v=11)
    # one large block of 8..12 vertices each: removal does most of the work
    for i in range(_count(900, scale)):
        n = 8 + i % 5
        out.append(construct_instance("block-t2", 2, n, gen.sparse_edges(n, 5, rng), replay=True))
    for i in range(_count(120, scale)):
        n = 14 + i % 27  # sizes 14..40 in equal shares
        out.append(construct_instance("sparse-t2", 2, n, gen.sparse_edges(n, 5, rng), replay=True))
    # fails today: removal search on one 18-vertex cubic block runs for
    # several seconds at least, far beyond this rung's cap
    for _ in range(_count(1, scale)):
        out.append(construct_instance("cubic18-t2", 2, 18, gen.cubic_edges(18, rng), replay=True, cap=1.0))
    return out


def ladder_workload(lib, rng, scale):
    """Large graphs: descent, block decomposition and graph derivation."""
    out = []
    for n, count in ((100, 20), (200, 8), (400, 2)):
        for _ in range(_count(count, scale)):
            out.append(construct_instance(f"sparse-t1-{n}", 1, n, gen.sparse_edges(n, n // 10, rng), replay=False))
    for n in (225, 450, 900):
        edges = gen.relabel_edges(_path(n), rng)
        out.append(construct_instance(f"path-t1-{n}", 1, n, edges, replay=False, optimum=2, tight=True))
    specs = (
        lib.FamilySpec(lib.CYCLE_SPINE_DENSE, g=4, k=2),
        lib.FamilySpec(lib.CYCLE_SPINE_SPARSE, g=7, k=2),
        lib.FamilySpec(lib.CYCLE_SPINE_DENSE, g=5, k=3),
    )
    for spec in specs:
        piece = spec.g if spec.kind == lib.CYCLE_SPINE_DENSE else (spec.g + 1) // 2 + 1
        for copies in (5, 10, 20):
            n, edges = _relabelled(lib.glue_extremal_chain(spec, copies), rng)
            best = copies * piece - 2 * (copies - 1)
            out.append(construct_instance(f"chain-t2-{spec.kind}", 2, n, edges, replay=True, optimum=best, tight=True))
    for tri, count in ((10, 10), (25, 2), (50, 1)):
        for _ in range(_count(count, scale)):
            n, edges = _relabelled(lib.gen_triangle_tree(tri), rng)
            out.append(construct_instance(f"triangles-t2-{tri}", 2, n, edges, replay=True, optimum=tri + 2))
    # the 40 cycles of 200 vertices hold the workload's 90th percentile and
    # the 330 of 50 vertices its median, so neither sits between two rungs
    for n, count in ((50, 330), (100, 5), (200, 40), (600, 1)):
        for _ in range(_count(count, scale)):
            out.append(construct_instance(f"cycle-t2-{n}", 2, n, gen.relabel_edges(_cycle(n), rng), replay=True, optimum=2, tight=True))
    return out


WORKLOADS = {
    "exact": exact_workload,
    "certify": certify_workload,
    "ladder": ladder_workload,
}


def build(name: str, lib, seed: int, seconds: float) -> list:
    rng = random.Random(f"{name}:{seed}")
    instances = WORKLOADS[name](lib, rng, seconds / NOMINAL_SECONDS)
    rng.shuffle(instances)
    return instances
