"""Seeded random instances and batch verification of the bounds.

Generation is rejection sampling on top of a random recursive tree: extra
edges are only ever added between vertices far enough apart to respect the
girth floor, all on one adjacency, so the floor holds by construction; an
attempt is rejected when a degree or the chain metric misses its limit.
Verification runs a corpus of such instances and checks each one against
the requested bound, with the exact solver or the constructive procedure.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from .bounds import BoundReport, _check_int
from .constructive import _certify, _theorem, replay_trace
from .errors import InfeasibleError, InvalidParamsError
from .exact import exact_mlst
from .graph import Graph, chain_metric, girth, s_count
from .graph_io import graph_hash

SEED_STRIDE = 7919
ATTEMPTS = 400


def _link(adj, x, y):
    adj[x].add(y)
    adj[y].add(x)


def _ball(adj, x, radius):
    """x and the vertices within radius hops of it in adjacency adj."""
    ball, ring = {x}, {x}
    for _ in range(radius):
        ring = {nb for y in ring for nb in adj[y]} - ball
        ball |= ring
    return ball


def random_constrained_graph(
    v: int,
    min_degree: int = 1,
    girth_at_least: int = 3,
    ell_at_most: Optional[int] = None,
    seed: int = 0,
) -> Graph:
    """Connected graph on v vertices meeting the requested floors.

    Each attempt grows one adjacency: a random recursive tree, then random
    chords, then chords that repair degree deficits.  A chord xy is added
    only when y lies outside the ball of radius girth floor - 2 around x:
    the graph is connected, so y is at distance >= floor - 1, and every
    cycle the chord closes has floor edges or more: the girth needs no test.
    Degree and chain constraints are handled by rejection.  Raises
    Infeasible once the attempt budget runs out, which is the expected
    outcome for contradictory parameters.
    """
    _check_int("v", v, 1)
    if _check_int("min_degree", min_degree, 0) > max(v - 1, 0):
        raise InvalidParamsError(f"min_degree {min_degree} out of range for v={v}")
    _check_int("girth_at_least", girth_at_least, 3)
    if ell_at_most is not None:
        _check_int("ell_at_most", ell_at_most, 0)
    if v == 1:
        return Graph.build([], isolated=[0])

    rng = random.Random(seed)
    radius = girth_at_least - 2
    for _ in range(ATTEMPTS):
        adj = {x: set() for x in range(v)}
        # no connectivity test: before any chord, each y >= 1 links to a vertex below it
        for y in range(1, v):
            _link(adj, rng.randrange(y), y)
        for _ in range(rng.randint(0, v)):
            x, y = rng.sample(range(v), 2)
            if y not in _ball(adj, x, radius):
                _link(adj, x, y)
        for _ in range(v * max(min_degree, 1)):
            needy = [x for x in range(v) if len(adj[x]) < min_degree]
            if not needy:
                break
            x = rng.choice(needy)
            near = _ball(adj, x, radius)
            cands = [y for y in range(v) if y not in near]
            if not cands:
                break  # x stays needy, so the degree test rejects the attempt
            far_needy = [y for y in cands if len(adj[y]) < min_degree]
            _link(adj, x, rng.choice(far_needy or cands))
        if any(len(nbrs) < min_degree for nbrs in adj.values()):
            continue
        # no girth test: the tree is acyclic, and each chord closes only cycles of floor edges or more.
        # adj is a simple graph on range(v), so it is the graph's own adjacency and needs no check
        edges = frozenset((x, y) for x, nbrs in adj.items() for y in nbrs if x < y)
        g = Graph._derived(frozenset(adj), edges, {x: frozenset(nbrs) for x, nbrs in adj.items()})
        if ell_at_most is not None and chain_metric(g) > ell_at_most:
            continue
        return g
    raise InfeasibleError(
        f"no graph found for v={v} min_degree={min_degree} "
        f"girth>={girth_at_least} ell<={ell_at_most} seed={seed}"
    )


@dataclass(frozen=True)
class InstanceRecord:
    index: int
    hash: str
    v: int
    e: int
    girth: Optional[int]
    ell: int
    s: int
    report: BoundReport
    achieved: int
    passed: bool
    note: str = ""

    def line(self) -> str:
        gtxt = "acyclic" if self.girth is None else str(self.girth)
        fields = [
            f"i={self.index}",
            f"hash={self.hash}",
            f"v={self.v}",
            f"e={self.e}",
            f"girth={gtxt}",
            f"ell={self.ell}",
            f"s={self.s}",
            f"kind={self.report.kind}",
            f"bound={self.report.value.numerator}/{self.report.value.denominator}",
            f"achieved={self.achieved}",
            f"pass={int(self.passed)}",
        ]
        if self.note:
            fields.append(f"note={self.note}")
        return " ".join(fields)


@dataclass(frozen=True)
class CorpusReport:
    theorem: int
    mode: str
    seed: int
    records: tuple

    @property
    def failures(self):
        return [r for r in self.records if not r.passed]

    def lines(self):
        out = [r.line() for r in self.records]
        out.append(
            f"total={len(self.records)} passed={len(self.records) - len(self.failures)} "
            f"failed={len(self.failures)} theorem={self.theorem} mode={self.mode} seed={self.seed}"
        )
        return out

    def text(self) -> str:
        return "\n".join(self.lines()) + "\n"


def verify_corpus(
    theorem: int,
    count: int,
    max_v: int,
    seed: int = 0,
    mode: str = "exact",
) -> CorpusReport:
    """Generate count seeded instances and check each bound claim.

    Theorem 1 instances are scored against the s-count rate.  Theorem 2
    instances use k = max(chain metric, 1) and the measured girth, with
    trees scored at the triangle-girth rate since no cycle pins anything
    higher.  Instance i uses seed + 7919*i, so corpora are reproducible
    and extensible.
    """
    if mode not in ("exact", "construct"):
        raise InvalidParamsError(f"mode must be exact or construct, got {mode!r}")
    _check_int("count", count, 1)
    _check_int("max_v", max_v, 2)
    records = []
    for i in range(count):
        si = seed + SEED_STRIDE * i
        rng = random.Random(si)
        v = rng.randint(2, max_v)
        g = random_constrained_graph(v, min_degree=1, seed=si)
        ell = chain_metric(g)
        request = _theorem(g, theorem)
        rep = request.bound
        gv = girth(g)
        if mode == "exact":
            achieved = exact_mlst(g).u_value
        else:
            _, trace = _certify(g, request)
            achieved = replay_trace(g, trace, theorem).leaf_count
        records.append(
            InstanceRecord(
                index=i,
                hash=graph_hash(g),
                v=g.v,
                e=g.e,
                girth=gv,
                ell=ell,
                s=s_count(g),
                report=rep,
                achieved=achieved,
                passed=achieved >= rep.value,
                note="tree" if theorem == 2 and gv is None else "",
            )
        )
    return CorpusReport(theorem=theorem, mode=mode, seed=seed, records=tuple(records))
