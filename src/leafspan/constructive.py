"""Constructive spanning-tree builders that certify the lower bounds.

One iterative descent engine runs two case tables.  The first produces a
tree whose leaf count is certified against the degree-structure bound (the
s-count form); the second certifies the girth/chain bound.  Both record
every reduction step in a ConstructionTrace that can be replayed and
audited, and neither uses the Python call stack for the descent itself.

Every recombination step asserts its exact leaf arithmetic, and every node
asserts the bound it is responsible for.  A BoundNotMet escaping from here
means the implementation (not the input) is wrong.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import partial
from itertools import compress, count
from typing import Callable, NamedTuple, Optional

from .blocks import (
    _essential_cutpoints,
    decompose_blocks,
    find_spines,
    index_adjacency,
    lowpoint_blocks,
)
from .bounds import _check_int, bound_theorem1, bound_theorem2
from .errors import (
    BoundNotMetError,
    ChainTooLongError,
    InvalidParamsError,
    NotALeafError,
    SearchExhaustedError,
)
from .exact import exact_mlst, greedy_leafy
from .graph import Graph, _edge, chain_metric, girth, require_connected, s_count
from .trees import SpanningTree, _pack, check_valid

EXACT_BASE_LIMIT = 26  # largest mindeg-3 core solved exactly; cubic worst case < 100 ms


# -- partition and structure checks ----------------------------------------


@dataclass(frozen=True)
class PartitionUWXY:
    """Partition of the vertex set by distance-from-pendant role.

    U holds the pendant vertices, W their attachment vertices, X the other
    neighbors of W, and Y everything else.
    """

    U: frozenset
    W: frozenset
    X: frozenset
    Y: frozenset


def partition_uwxy(g: Graph) -> PartitionUWXY:
    u = frozenset(x for x in g.vertices if g.degree(x) == 1)
    w = frozenset(
        x for x in g.vertices - u if any(nb in u for nb in g.adjacency[x])
    )
    x_set = frozenset(
        x
        for x in g.vertices - u - w
        if any(nb in w for nb in g.adjacency[x])
    )
    y = g.vertices - u - w - x_set
    return PartitionUWXY(U=u, W=w, X=x_set, Y=y)


def check_lemma5_structure(g: Graph, p: PartitionUWXY) -> Optional[str]:
    """Verify the end-of-descent structure around pendant attachments.

    Returns None when the structure holds, otherwise a short string naming
    the first violated property.  Applies only to graphs with pendants that
    survived the earlier reduction cases; with no pendants at all the check
    does not apply.
    """
    if not p.U:
        return "not applicable: no pendant vertices"
    for w in sorted(p.W):
        for nb in g.neighbors(w):
            if nb in p.W:
                return f"independence: attachment vertices {w} and {nb} adjacent"
    for w in sorted(p.W):
        if g.degree(w) != 3:
            return f"degree: attachment vertex {w} has degree {g.degree(w)}"
    if not p.X:
        return "support: no branch vertices beyond the attachments"
    for x in sorted(p.X):
        if g.degree(x) <= 3:
            return f"support: branch vertex {x} has degree {g.degree(x)}"
    for w in sorted(p.W):
        nbs = g.neighbors(w)
        pend = [nb for nb in nbs if nb in p.U]
        branch = [nb for nb in nbs if nb in p.X]
        if len(pend) != 1 or len(branch) != 2:
            return (
                f"wiring: attachment vertex {w} sees {len(pend)} pendants "
                f"and {len(branch)} branch vertices"
            )
    return None


# -- traces -----------------------------------------------------------------


@dataclass(frozen=True)
class TraceNode:
    case: str
    op: str  # contract | delete | split | extend | base
    args: tuple
    v: int
    e: int
    children: tuple = ()

    def line(self) -> str:
        ids = ",".join(str(a) for a in self.args)
        return f"case={self.case} op={self.op} args={ids}"


@dataclass(frozen=True)
class ConstructionTrace:
    """Preorder record of a descent plus the tree it produced."""

    root: TraceNode
    tree: SpanningTree

    def preorder(self):
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def lines(self) -> list:
        return [node.line() for node in self.preorder()]

    @property
    def base_kinds(self) -> tuple:
        return tuple(n.case for n in self.preorder() if n.op == "base")


# -- the descent engine -----------------------------------------------------


class _Step(NamedTuple):
    """One reduction step: build maps the trees of the children, in trace
    order, to a tree of the step's graph.  A base step has no children."""

    case: str
    op: str
    args: tuple
    children: tuple
    build: Callable


class _Theorem(NamedTuple):
    """A checked certification request.  Case functions case(g, rec), rec the node's
    TraceNode on replay else None, tried in order until one returns a _Step; need(g,
    case): the leaves its tree must reach; bound(): the root's report, evaluated only
    when asked for; girth: the root's measured girth under theorem 2, None when
    acyclic or under theorem 1."""

    cases: tuple
    need: Callable
    bound: Callable
    girth: Optional[int] = None


class _Frame(NamedTuple):
    g: Graph
    step: _Step
    record: Optional[TraceNode]
    depth: int
    done: list  # (tree, trace node) of each finished child


def _base(case: str, t: SpanningTree) -> _Step:
    return _Step(case, "base", (), (), lambda: t)


def _keep_edges(g: Graph):
    """Lift a tree of g less some edges to g: its edges span g as well, with
    the same vertices and so the same leaves."""
    return lambda t_sub: SpanningTree(g, t_sub.tree_edges, t_sub.leaf_count)


def _descend(root: Graph, theorem: _Theorem, record: Optional[TraceNode] = None, collect=None):
    """Run a descent from root on an explicit stack; return (tree, trace root).

    With a record, every derived step and its child count must match the
    recorded one.  collect, when a list, receives (depth, graph) pairs in
    preorder, one per node.
    """

    def enter(g: Graph, rec: Optional[TraceNode], depth: int) -> _Frame:
        if collect is not None:
            collect.append((depth, g))
        for case in theorem.cases:
            step = case(g, rec)
            if step is not None:
                break
        derived = (step.case, step.op, step.args)
        if rec is not None and (rec.case, rec.op, rec.args) != derived:
            raise InvalidParamsError(
                f"trace mismatch: recorded {rec.line()}, "
                f"replay derived case={step.case} op={step.op} args={step.args}"
            )
        return _Frame(g, step, rec, depth, [])

    stack = [enter(root, record, 0)]
    while True:
        top = stack[-1]
        i = len(top.done)
        if i < len(top.step.children):
            rec = None
            if top.record is not None:
                if i >= len(top.record.children):
                    raise InvalidParamsError("trace mismatch: missing child step")
                rec = top.record.children[i]
            stack.append(enter(top.step.children[i], rec, top.depth + 1))
            continue
        stack.pop()
        g, step = top.g, top.step
        if top.record is not None and len(top.record.children) != i:
            raise InvalidParamsError("trace mismatch: extra child step")
        t = step.build(*(tree for tree, _ in top.done))
        need = theorem.need(g, step.case)
        if t.leaf_count < need:
            raise BoundNotMetError(f"case {step.case}: {t.leaf_count} leaves < {need} at v={g.v}")
        node = TraceNode(step.case, step.op, step.args, g.v, g.e, tuple(n for _, n in top.done))
        if not stack:
            return t, node
        stack[-1].done.append((t, node))


def _side(g: Graph, a: int, start: int) -> frozenset:
    """The component of g - a that contains start."""
    seen = {start}
    todo = [start]
    while todo:
        for nb in g.adjacency[todo.pop()]:
            if nb != a and nb not in seen:
                seen.add(nb)
                todo.append(nb)
    return frozenset(seen)


def _split(g: Graph, a: int, side1: frozenset, probe: Callable) -> tuple:
    """Split g at the cutpoint a into side1 and the rest; return (g1, g2, build).

    The second half carries a relabeled cut copy a2.  Each half gets a fresh
    probe path of probe(d) vertices at its cut vertex, where d is the cut
    vertex's degree in the half; the last probe vertex is the half's tip, or
    the cut vertex itself when the probe is empty.  Fresh ids sit above every
    real id, in the order a2, probe 1, probe 2, and all of them fold back
    onto a when the halves' trees are rejoined.
    """
    m0 = max(g.vertices)
    a2 = m0 + 1
    fresh = count(m0 + 2)
    adj = g.adjacency
    halves = []
    for side, cut in ((side1, a), (g.vertices - side1 - {a}, a2)):
        arms = adj[a] & side
        path = (cut,) + tuple(next(fresh) for _ in range(probe(len(arms))))
        gone = g.vertices - side - {cut}
        add = [_edge(cut, x) for x in arms] + list(zip(path, path[1:]))
        halves.append((g._derive(gone, {_edge(x, y) for x in gone for y in adj[x]}, add), path[-1]))
    (g1, tip1), (g2, tip2) = halves
    assert tip1 != a or tip2 != a2, "cut degree below 3"
    return g1, g2, _rejoin(g, a, tip1, tip2)


def _rejoin(g: Graph, a: int, tip1: int, tip2: int) -> Callable:
    """Build of a split at a.

    The halves' trees meet at their probe tips, which must be leaves; every
    id outside g (the probes and the cut copy) maps onto a, and the probe
    edges, all of them tree edges, collapse.
    """

    def onto(x: int) -> int:
        return x if x in g.vertices else a

    def build(t1: SpanningTree, t2: SpanningTree) -> SpanningTree:
        host, edges = set(), set()
        for t, tip in ((t1, tip1), (t2, tip2)):
            if sum(tip in e for e in t.tree_edges) != 1:
                raise NotALeafError(f"probe tip {tip} is not a leaf of its half's tree")
            for e in t.host.edges:
                u, v = onto(e[0]), onto(e[1])
                if u == v:
                    assert e in t.tree_edges, f"probe edge {e} is not a tree edge"
                    continue
                host.add(_edge(u, v))
                if e in t.tree_edges:
                    edges.add(_edge(u, v))
        assert host == g.edges, "recombination did not restore the split graph"
        t = _pack(g, edges)
        assert t.leaf_count == t1.leaf_count + t2.leaf_count - 2, "leaf count drifted"
        return t

    return build


def _base_tree(g: Graph, rec):
    # a descent node is connected, so with v - 1 edges it is its own only
    # spanning tree.  Its L leaves and T3 vertices of degree 3 or more have
    # L >= T3 + 2, so L meets the s-count bound (L + T3 - 2)/4 + 2
    if g.e == g.v - 1:
        return _base("base-tree", _pack(g, g.edges))


# -- degree-structure descent ----------------------------------------------


def _t1_degree2(g: Graph, rec):
    adj = g.adjacency
    a = min(compress(adj, map((2).__eq__, map(len, adj.values()))), default=None)  # lowest of degree 2
    if a is None:
        return None
    b, c = sorted(adj[a])
    # a has degree 2, so it is a cutpoint exactly when ab is a bridge, that
    # is when g - a separates b from c
    if b in _side(g, a, c):
        return _Step("1", "delete", (a, b), (g.without_edge(a, b),), _keep_edges(g))
    # a cycle through an edge of a's run of degree-2 vertices would pass a,
    # so every run edge is a bridge: the run lies in every spanning tree, and
    # its ends x and y are distinct and not adjacent
    run, run_edges, ends = {a}, [], []
    for prev, x in ((a, b), (a, c)):
        run_edges.append(_edge(prev, x))
        while len(adj[x]) == 2:
            run.add(x)
            prev, x = x, next(nb for nb in adj[x] if nb != prev)
            run_edges.append(_edge(prev, x))
        ends.append(x)
    x, y = sorted(ends)
    child = g._derive(run, run_edges, [(x, y)])

    def build(t_sub: SpanningTree) -> SpanningTree:
        t = _pack(g, (t_sub.tree_edges - {(x, y)}).union(run_edges))
        assert t.leaf_count == t_sub.leaf_count, "leaf count drifted"
        return t

    return _Step("1", "contract", (x, y), (child,), build)


def _t1_base_core(g: Graph, rec):
    # with no degree-2 vertex left, no pendant means a mindeg-3 core, whose
    # tree needs (v - 2)/4 + 2 leaves as s = v.  greedy_leafy, which seeds
    # exact_mlst, has them.  It only expands leaves, and with N tree vertices,
    # L leaves and D dead ones (no neighbour outside the tree), 3L + D - N
    # never falls: an expansion onto k >= 2 vertices adds k - 1 leaves.  One
    # onto a single y makes y or another leaf at y dead when y has at most one
    # outside neighbour (no leaf had two, and y has degree 3 or more); else y
    # is the unique maximum, expanded next, and the pair adds k_y - 1 leaves
    # for k_y + 1 vertices.  The root, of maximum degree d, starts the sum at
    # 2d - 1 or more and it ends at 4L - v: so 4L >= v + 7 when d >= 4, and a
    # cubic core has v even and 4L >= v + 6.
    if g.min_degree < 3:
        return None
    if g.v <= EXACT_BASE_LIMIT:
        return _base("base-core-exact", exact_mlst(g).witness)
    return _base("base-core-greedy", greedy_leafy(g))


def _cutpoints(h: Graph) -> list:
    """The cutpoints of a connected graph in ascending order, from one lowpoint pass."""
    return list(compress(h.sorted_vertices, lowpoint_blocks(index_adjacency(h))[1]))


def _t1_core_cut(g: Graph, rec):
    h = g.induced([x for x, nbrs in g.adjacency.items() if len(nbrs) > 1])  # g without its pendants
    h_cuts = _cutpoints(h)
    if not h_cuts:
        return None
    # the first half is the lowest component of g - a with core vertices;
    # the pendants at a travel with the second half
    a = h_cuts[0]
    pendants = {x for x in g.adjacency[a] if g.degree(x) == 1}
    side1 = _side(g, a, min(g.vertices - pendants - {a}))
    assert not h.vertices <= side1 | {a}, "split vertex is not a core cutpoint"
    g1, g2, build = _split(g, a, side1, lambda d: 1)
    return _Step("2", "split", (a,), (g1, g2), build)


def _lemma3(g: Graph, a: int, b: int, h: Graph) -> Callable:
    """Build of a lemma-3 step: lift a tree of h, the component of g - a
    that holds a's neighbour b, to g.

    The edge ab joins a to the tree, and every other component of g - a
    hangs below a from its lowest neighbour of a by a breadth-first tree.
    b is a cutpoint of h, so it is internal in h's tree and the lift gains
    a leaf: either a ends up pendant, or each other component brings one.
    """

    def build(t_sub: SpanningTree) -> SpanningTree:
        check_valid(t_sub, "lemma 3")
        es = set(t_sub.tree_edges)
        es.add(_edge(a, b))
        seen = set(h.vertices) | {a}
        for x in g.neighbors(a):
            if x in seen:
                continue
            # x is the lowest neighbour of a in a new component of g - a
            es.add(_edge(a, x))
            seen.add(x)
            queue = deque([x])
            while queue:
                cur = queue.popleft()
                for nb in g.neighbors(cur):
                    if nb not in seen:
                        seen.add(nb)
                        es.add(_edge(cur, nb))
                        queue.append(nb)
        t = _pack(g, es)
        assert t.leaf_count >= t_sub.leaf_count + 1, "extension failed to gain a leaf"
        return t

    return build


def _t1_extend(g: Graph, rec):
    # the core is biconnected from here on.  A vertex a of degree at most 3
    # with a neighbour b that is a cutpoint of its component h of g - a
    # reduces g to h, and lemma 3 lifts h's tree back with one more leaf
    for a in g.sorted_vertices:
        if g.degree(a) > 3:
            continue
        comps = []  # (graph, cutpoints) of each component of g - a met so far
        for b in g.neighbors(a):
            h, cuts = next((c for c in comps if b in c[0].vertices), (None, None))
            if h is None:
                h = g.induced(_side(g, a, b))
                cuts = _cutpoints(h)
                comps.append((h, cuts))
            if b in cuts:
                return _Step("3", "extend", (a, b), (h,), _lemma3(g, a, b, h))


def _t1_heavy_edge(g: Graph, rec):
    for x, y in g.sorted_edges:
        if g.degree(x) >= 4 and g.degree(y) >= 4:
            sub = g.without_edge(x, y)
            require_connected(sub, "heavy edge removal")
            assert s_count(sub) == s_count(g)
            return _Step("4", "delete", (x, y), (sub,), _keep_edges(g))


def _t1_lemma5(g: Graph, rec):
    part = partition_uwxy(g)
    violation = check_lemma5_structure(g, part)
    assert violation is None, f"descent exhausted cases yet {violation}"
    w = min(part.W)
    x, x_other = sorted(nb for nb in g.neighbors(w) if nb in part.X)
    a = min(nb for nb in g.neighbors(x) if nb != w)
    assert g.degree(a) == 3
    # dropping w x_other leaves x a cutpoint of the component h of g* - a
    # that holds w, so lemma 3 lifts h's tree to g*, whose tree spans g too
    g_star = g.without_edge(w, x_other)
    h = g_star.induced(_side(g_star, a, w))
    keep, lift = _keep_edges(g), _lemma3(g_star, a, x, h)
    return _Step("5", "extend", (w, x, x_other, a), (h,), lambda t_sub: keep(lift(t_sub)))


_T1_CASES = (_base_tree, _t1_degree2, _t1_base_core, _t1_core_cut, _t1_extend, _t1_heavy_edge, _t1_lemma5)


def construct_theorem1(g: Graph):
    """Spanning tree certified against the s-count bound, with its trace."""
    return _certify(g, _theorem(g, 1))


# -- large-block elimination ------------------------------------------------


def _chain_condition_holds(g: Graph, reduced: Graph) -> bool:
    """Adjacent degree-2 pairs of the reduced graph must predate the removal."""
    for u, v in reduced.sorted_edges:
        if reduced.degree(u) == 2 and reduced.degree(v) == 2:
            if g.degree(u) != 2 or g.degree(v) != 2:
                return False
    return True


def _removal_fault(g: Graph, f: frozenset) -> Optional[str]:
    """The first postcondition of large-block removal that g - f breaks, or None."""
    reduced = g.without_edges(f)
    if not reduced.is_connected:
        return "disconnects the graph"
    if any(b.is_large for b in decompose_blocks(reduced).blocks):
        return "leaves a large block"
    return None if _chain_condition_holds(g, reduced) else "breaks the chain condition"


def remove_large_blocks(g: Graph) -> frozenset:
    """An edge set, not always the smallest, whose removal leaves no large blocks.

    The returned set keeps the graph connected and never manufactures an
    adjacent pair of new degree-2 vertices.  One exhaustive depth-first
    search with memoized dead states looks for it; exhausting the search
    would mean the guarantee this implements is wrong, hence the hard error.

    A search node removes one more non-bridge edge.  Any connectivity-
    preserving removal set can be ordered so that each edge is a non-bridge
    at its turn, so this loses no solutions.  Candidates come block by
    block, large blocks first and the biggest of them first; within a block,
    edges with both ends of degree 2 go first, then edges whose ends keep
    degree above 3, which is a heuristic only.  The search runs on g
    relabelled to 0..n-1 in sorted-id order, one lowpoint_blocks pass per
    node, each removed set a bitmask over the sorted edges; the monotone
    relabelling breaks every tie as g's own ids would.
    """
    require_connected(g, "remove_large_blocks")
    if g.v <= 2:
        raise InvalidParamsError("need more than two vertices")
    edges = g.sorted_edges
    m = len(edges)
    adj = index_adjacency(g)
    ends = {eid: (a, b) for a, nbrs in enumerate(adj) for b, eid in nbrs if a < b}
    touched: list = []  # endpoints of the removed edges

    def blocks_by_size():
        """Large blocks as (interior, vertices, edges), and other non-bridge edges."""
        blocks, cut = lowpoint_blocks(adj)
        large, rest = [], []
        for vs, es in blocks:
            inner = len(vs) - sum(cut[x] for x in vs)
            if inner + inner > len(vs):
                large.append((inner, vs, es))
            elif len(es) > 1:
                rest += es
        return large, rest

    def chain_condition_holds():
        # a vertex of degree 2 is new exactly when it lost a removed edge
        for x in touched:
            if len(adj[x]) == 2 and any(len(adj[y]) == 2 for y, _ in adj[x]):
                return False
        return True

    def rank(eid):
        da, db = (len(adj[x]) for x in ends[eid])
        return eid + m * (0 if da == db == 2 else 1 if da > 3 and db > 3 else 2)

    # a connected g - F keeps a spanning tree, so |F| is at most the cyclomatic
    # number; a set's budget left is that less its size, however it is reached
    failed: set = set()  # removed bitmasks searched in vain

    def search(removed: int, budget: int):
        # a set in failed was checked below and found wanting, so looking
        # it up first answers as checking it again would
        if removed in failed:
            return None
        # a graph that breaks the chain condition is no answer whatever its
        # blocks; removing more edges can still mend it while budget is left
        chain_ok = chain_condition_holds()
        if budget == 0 and not chain_ok:
            return None
        large, rest = blocks_by_size()
        if not large and chain_ok:
            return removed
        if budget == 0:
            return None
        large.sort(key=lambda b: (-b[0], sorted(b[1])))
        order = [eid for _, _, es in large for eid in sorted(es, key=rank)]
        order += sorted(rest, key=rank)
        for eid in order:
            a, b = ends[eid]
            adj[a].remove((b, eid))
            adj[b].remove((a, eid))
            touched.extend((a, b))
            got = search(removed | 1 << eid, budget - 1)
            del touched[-2:]
            adj[a].append((b, eid))
            adj[b].append((a, eid))
            if got is not None:
                return got
        failed.add(removed)
        return None

    got = search(0, g.e - g.v + 1)
    if got is None:
        raise SearchExhaustedError("no valid removal set; this should be impossible")
    f = frozenset(edges[eid] for eid in range(m) if got >> eid & 1)
    if fault := _removal_fault(g, f):
        raise AssertionError(f"removal set {sorted(f)} {fault}")
    return f


def _recorded_removal(g: Graph, rec: TraceNode) -> frozenset:
    """The sorted edge list of a recorded 1.2 step, checked instead of searched for."""
    f = frozenset(zip(rec.args[::2], rec.args[1::2]))
    listed = not len(rec.args) % 2 and f and f <= g.edges
    if not listed or tuple(x for e in sorted(f) for x in e) != rec.args:
        raise InvalidParamsError(f"trace mismatch: recorded {rec.line()}, replay needs a 1.2 edge list")
    if fault := _removal_fault(g, f):
        raise InvalidParamsError(f"trace mismatch: recorded 1.2 set {sorted(f)} {fault}")
    return f


# -- girth/chain descent ----------------------------------------------------


def _t2_base_short(g: Graph, rec, k: int):
    if g.v - k - 2 <= 0:
        return _base("base-short", _pack(g, g.bfs_tree(min(g.vertices))))


def _t2_blocks(g: Graph, rec: Optional[TraceNode], k: int) -> _Step:
    """Split, removal or base of the girth/chain descent.

    All three read one block decomposition and one spine search of g.  The
    lowest essential cutpoint splits g (case 1.1); with none left, the large
    blocks are removed (case 1.2).  Otherwise every cutpoint detaches a
    single pendant path and what remains is one biconnected core.  The base
    tree keeps every pendant path and spans the core so that, when the core
    has interior vertices, one of them is a leaf.
    """
    dec = decompose_blocks(g)
    spines = find_spines(g)
    ess = _essential_cutpoints(g, dec, spines)
    cuts = [x for x in sorted(ess) if g.degree(x) >= 3]
    if cuts:
        # split off the lowest component of g - a that is not a spine based
        # at a; when it is the only one, split off the spines instead.  A
        # half that keeps degree >= 2 at the cut gets a probe of k+1 vertices.
        a = cuts[0]
        at_a = [s.path for s in spines if s.base == a]
        on_a = frozenset(x for path in at_a for x in path)
        side1 = _side(g, a, min(g.vertices - on_a - {a}))
        if side1 | on_a | {a} == g.vertices:
            assert len(at_a) >= 2, "one other side needs two spines"
            side1 = on_a
        g1, g2, build = _split(g, a, side1, lambda d: k + 1 if d >= 2 else 0)
        return _Step("1.1", "split", (a,), (g1, g2), build)
    assert not ess, "only degree-2 essential cutpoints found"
    # a large block means a non-empty removal set; replay checks the recorded one
    if any(b.is_large for b in dec.blocks):
        f = remove_large_blocks(g) if rec is None else _recorded_removal(g, rec)
        args = tuple(x for e in sorted(f) for x in e)
        return _Step("1.2", "delete", args, (g.without_edges(f),), _keep_edges(g))
    on_spine = frozenset(x for s in spines for x in s.path)
    cores = [b for b in dec.blocks if not b.vertices & on_spine]
    assert len(cores) == 1 and len(cores[0].vertices) >= 3, "core is not one block"
    (block,) = cores
    assert block.vertices | on_spine == g.vertices, "core and spines miss a vertex"
    # every cutpoint in the core block is a spine base, so the core's
    # interior is the block's
    core = g.induced(block.vertices)
    interior = sorted(block.interior)
    if interior:
        u0 = interior[0]
        rest = core.without_vertex(u0)
        edges = set(rest.bfs_tree(min(rest.vertices)))
        edges.add(_edge(u0, min(core.adjacency[u0])))
    else:
        edges = set(core.bfs_tree(min(core.vertices)))
    edges.update(_edge(u, x) for s in spines for u, x in zip((s.base,) + s.path, s.path))
    t = _pack(g, edges)
    assert t.leaf_count >= len(spines) + (1 if interior else 0)
    return _base("base-spines", t)


# -- requests and replay ----------------------------------------------------


def _theorem(g: Graph, theorem, k=None, girth_floor=None) -> _Theorem:
    """Check a certification request and return its case table and bound.

    theorem is 1, the s-count bound, or 2, the girth/chain bound; g must be
    connected with at least two vertices.  Theorem 1 ignores k and
    girth_floor.  Under theorem 2, k caps the chains of degree-2 vertices
    and must be an integer of at least 1 that no chain of g exceeds; a
    girth_floor, when declared, must be an integer of at least 3 and at
    most the measured girth, and replaces it as the girth parameter.
    Acyclic graphs use 3, the only rate that holds for all trees.
    """
    if type(theorem) is not int or theorem not in (1, 2):
        raise InvalidParamsError(f"theorem must be 1 or 2, got {theorem!r}")
    require_connected(g, "certification")
    if g.v < 2:
        raise InvalidParamsError("need at least two vertices")
    if theorem == 1:
        return _Theorem(
            _T1_CASES, lambda h, case: bound_theorem1(s_count(h)).value, lambda: bound_theorem1(s_count(g))
        )
    _check_int("k", k, 1)
    if girth_floor is not None:
        _check_int("girth_floor", girth_floor, 3)
    ell = chain_metric(g)
    if ell > k:
        raise ChainTooLongError(f"chain of {ell} degree-2 vertices exceeds k={k}")
    measured = girth(g)
    gg = 3 if measured is None else girth_floor or measured
    if measured is not None and gg > measured:
        raise InvalidParamsError(f"girth_floor {girth_floor} not in [3, measured {measured}]")

    def need(h: Graph, case: str):
        assert chain_metric(h) <= k, "descent produced an overlong chain"
        # trees meet the triangle-girth rate; larger declared girths need not
        # hold on bare trees, so every tree is certified at g=3
        return bound_theorem2(h.v, 3 if case == "base-tree" else gg, k).value

    cases = (_base_tree, partial(_t2_base_short, k=k), partial(_t2_blocks, k=k))
    return _Theorem(cases, need, lambda: bound_theorem2(g.v, gg, k), measured)


def _certify(g: Graph, request: _Theorem):
    """The tree and trace of a descent from g under a checked request."""
    t, root = _descend(g, request)
    return t, ConstructionTrace(root=root, tree=t)


def construct_theorem2(g: Graph, k: int, girth_floor: Optional[int] = None):
    """Spanning tree certified against the girth/chain bound, with trace.

    k caps the chains of degree-2 vertices; girth_floor, when declared,
    replaces the measured girth.  Tree inputs certify against the girth-3
    rate.
    """
    return _certify(g, _theorem(g, 2, k, girth_floor))


def replay_trace(
    g: Graph,
    trace: ConstructionTrace,
    theorem: int = 1,
    k: Optional[int] = None,
    girth_floor: Optional[int] = None,
) -> SpanningTree:
    """Re-run a recorded descent, checking every step against the record.

    The inputs are checked exactly as construction checks them.  A recorded
    large-block removal (case 1.2) is checked against the postconditions of
    remove_large_blocks, not searched for again.  Returns the reproduced
    tree; raises InvalidParams on the first step that disagrees with the
    trace.
    """
    t, _ = _descend(g, _theorem(g, theorem, k, girth_floor), trace.root)
    if t != trace.tree:
        raise InvalidParamsError("replay produced a different tree")
    return t
