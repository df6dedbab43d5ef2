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

from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple, Optional

from .blocks import decompose_blocks, essential_cutpoints, find_spines, is_spine_component
from .bounds import bound_kw, bound_theorem1, bound_theorem2
from .errors import (
    BoundNotMetError,
    ChainTooLongError,
    InvalidParamsError,
    SearchExhaustedError,
)
from .exact import exact_mlst, greedy_leafy
from .graph import Graph, chain_metric, contract_edge, girth, glue, norm_edge, require_connected, s_count
from .trees import (
    SpanningTree,
    contract_tree_edge,
    extend_tree_lemma3,
    glue_trees,
    lift_tree_through_contraction,
    spanning_tree,
)

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
    """Case functions, tried in order until one returns a _Step rather than
    None, and need(g, case): the leaves a node's tree must reach."""

    cases: tuple
    need: Callable


class _Frame(NamedTuple):
    g: Graph
    step: _Step
    record: Optional[TraceNode]
    depth: int
    done: list  # (tree, trace node) of each finished child


def _base(case: str, t: SpanningTree) -> _Step:
    return _Step(case, "base", (), (), lambda: t)


def _keep_edges(g: Graph):
    """Build of a deletion step: the child's tree edges span g as well."""
    return lambda t_sub: spanning_tree(g, t_sub.tree_edges)


def _rejoin(g: Graph, a: int, tip1: int, tip2: int, fold: frozenset):
    """Build of a split at a.

    The halves' trees are glued at their probe tips, then every vertex of
    fold is contracted back onto a, the lowest id adjacent to a first.
    """

    def build(t1: SpanningTree, t2: SpanningTree) -> SpanningTree:
        glued = glue(t1.host, tip1, t2.host, tip2)
        t = glue_trees(t1, t2, glued)
        cur = glued.graph
        left = set(fold)
        while left:
            nb = next(p for p in sorted(left) if cur.has_edge(a, p))
            res = contract_edge(cur, a, nb)
            assert res.merged == a
            t = contract_tree_edge(t, res)
            cur = res.graph
            left.discard(nb)
        assert t.leaf_count == t1.leaf_count + t2.leaf_count - 2, "leaf count drifted"
        assert t.host == g, "recombination did not restore the split graph"
        return t

    return build


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
            step = case(g)
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


def _require_input(g: Graph, what: str) -> None:
    require_connected(g, what)
    if g.v < 2:
        raise InvalidParamsError("need at least two vertices")


# -- degree-structure descent ----------------------------------------------


def _split_theorem1(g: Graph, a: int):
    """Case-2 pieces: split g at a into two halves, each with a probe pendant.

    Single-vertex components of g-a are pendants of g and travel with the
    second half; the first half is the lowest component that carries core
    vertices.  Fresh ids sit above every real id so that contractions later
    merge back onto the real vertex a.  The probes glue into x1, which
    folds onto a before the relabeled cut copy a2 does.
    """
    comps = g.without_vertex(a).components
    core = [c for c in comps if len(c) >= 2]
    assert len(core) >= 2, "split vertex is not a core cutpoint"
    side1 = core[0]
    side2 = frozenset().union(*(c for c in comps if c != side1))
    m0 = max(g.vertices)
    a2, x1, x2 = m0 + 1, m0 + 2, m0 + 3
    g1 = g.induced(side1 | {a}).with_edge(a, x1)
    g2 = g.induced(side2 | {a}).relabel({a: a2}).with_edge(a2, x2)
    return g1, g2, x1, x2, frozenset({x1, a2})


def _t1_base_edge(g: Graph):
    if g.v == 2:
        return _base("base-edge", spanning_tree(g, g.edges))


def _t1_degree2(g: Graph):
    a = next((x for x in g.sorted_vertices if g.degree(x) == 2), None)
    if a is None:
        return None
    b = min(g.neighbors(a))
    if a in decompose_blocks(g).cutpoints:
        res = contract_edge(g, a, b)

        def build(t_sub: SpanningTree) -> SpanningTree:
            t = lift_tree_through_contraction(t_sub, res, g)
            assert t.leaf_count >= t_sub.leaf_count
            return t

        return _Step("1", "contract", (a, b), (res.graph,), build)
    sub = g.without_edge(a, b)
    require_connected(sub, "degree-2 reduction")
    return _Step("1", "delete", (a, b), (sub,), _keep_edges(g))


def _t1_base_core(g: Graph):
    # with no degree-2 vertex left, no pendant means a mindeg-3 core: solve
    # it directly and certify the v/4 + 2 bound
    if g.min_degree < 3:
        return None
    if g.v <= EXACT_BASE_LIMIT:
        t, case = exact_mlst(g).witness, "base-core-exact"
    else:
        t, case = greedy_leafy(g), "base-core-greedy"
    need = bound_kw(g.v).value
    if t.leaf_count < need:
        raise BoundNotMetError(f"{case}: {t.leaf_count} leaves < {need} at v={g.v}")
    return _base(case, t)


def _t1_core_cut(g: Graph):
    # h is g without its pendants
    h = g.induced(x for x in g.vertices if g.degree(x) > 1)
    if h.v <= 2:
        # star or double star: the graph is its own spanning tree
        assert g.is_tree
        return _base("base-small-core", spanning_tree(g, g.edges))
    h_cuts = decompose_blocks(h).cutpoints
    if not h_cuts:
        return None
    a = min(h_cuts)
    g1, g2, tip1, tip2, fold = _split_theorem1(g, a)
    return _Step("2", "split", (a,), (g1, g2), _rejoin(g, a, tip1, tip2, fold))


def _t1_extend(g: Graph):
    # the core is biconnected from here on
    for a in g.sorted_vertices:
        if g.degree(a) > 3:
            continue
        removed = g.without_vertex(a)
        cut_by_comp = {}
        for b in g.neighbors(a):
            comp = next(c for c in removed.components if b in c)
            if comp not in cut_by_comp:
                cut_by_comp[comp] = decompose_blocks(removed.induced(comp)).cutpoints
            if b in cut_by_comp[comp]:
                build = partial(extend_tree_lemma3, a=a, b=b, g=g)
                return _Step("3", "extend", (a, b), (g.induced(comp),), build)


def _t1_heavy_edge(g: Graph):
    for x, y in g.sorted_edges:
        if g.degree(x) >= 4 and g.degree(y) >= 4:
            sub = g.without_edge(x, y)
            require_connected(sub, "heavy edge removal")
            assert s_count(sub) == s_count(g)
            return _Step("4", "delete", (x, y), (sub,), _keep_edges(g))


def _t1_lemma5(g: Graph):
    part = partition_uwxy(g)
    violation = check_lemma5_structure(g, part)
    assert violation is None, f"descent exhausted cases yet {violation}"
    w = min(part.W)
    x, x_other = sorted(nb for nb in g.neighbors(w) if nb in part.X)
    a = min(nb for nb in g.neighbors(x) if nb != w)
    assert g.degree(a) == 3
    g_star = g.without_edge(w, x_other)
    comp = next(c for c in g_star.without_vertex(a).components if w in c)

    def build(t_sub: SpanningTree) -> SpanningTree:
        return spanning_tree(g, extend_tree_lemma3(t_sub, a, x, g_star).tree_edges)

    return _Step("5", "extend", (w, x, x_other, a), (g_star.induced(comp),), build)


_THEOREM1 = _Theorem(
    cases=(
        _t1_base_edge,
        _t1_degree2,
        _t1_base_core,
        _t1_core_cut,
        _t1_extend,
        _t1_heavy_edge,
        _t1_lemma5,
    ),
    need=lambda g, case: bound_theorem1(s_count(g)).value,
)


def construct_theorem1(g: Graph):
    """Spanning tree certified against the s-count bound, with its trace."""
    _require_input(g, "construct_theorem1")
    t, root = _descend(g, _THEOREM1)
    return t, ConstructionTrace(root=root, tree=t)


# -- large-block elimination ------------------------------------------------


def _large_blocks(g: Graph):
    return [b for b in decompose_blocks(g).blocks if b.is_large]


def _chain_condition_holds(g: Graph, reduced: Graph) -> bool:
    """Adjacent degree-2 pairs of the reduced graph must predate the removal."""
    for u, v in reduced.sorted_edges:
        if reduced.degree(u) == 2 and reduced.degree(v) == 2:
            if g.degree(u) != 2 or g.degree(v) != 2:
                return False
    return True


def _removal_candidates(cur: Graph):
    """Non-bridge edges of the current graph, large-block edges first.

    Any connectivity-preserving removal set can be ordered so that each
    edge is a non-bridge at its turn, so restricting to non-bridges loses
    no solutions.  Ordering prefers edges of the biggest large block whose
    endpoints keep degree at least 3; that is a heuristic only.
    """
    dec = decompose_blocks(cur)
    bridges = dec.bridges
    large = [b for b in dec.blocks if b.is_large]
    large.sort(key=lambda b: (-len(b.interior), sorted(b.vertices)))
    in_large = {}
    for rank, b in enumerate(large):
        for e in b.edges:
            in_large.setdefault(e, rank)
    out = [e for e in cur.sorted_edges if e not in bridges]
    out.sort(
        key=lambda e: (
            in_large.get(e, len(large)),
            0 if cur.degree(e[0]) > 3 and cur.degree(e[1]) > 3 else 1,
            e,
        )
    )
    return out


def remove_large_blocks(g: Graph) -> frozenset:
    """Smallest edge set whose removal leaves no large blocks.

    The returned set keeps the graph connected and never manufactures an
    adjacent pair of new degree-2 vertices.  Search is iterative deepening
    on the set size with memoized dead states; exhausting it would mean the
    guarantee this implements is wrong, hence the hard error.
    """
    require_connected(g, "remove_large_blocks")
    if g.v <= 2:
        raise InvalidParamsError("need more than two vertices")
    if not _large_blocks(g):
        return frozenset()

    max_size = g.e - (g.v - 1)
    failed = {}  # frozenset(F) -> best budget that still failed

    def search(cur: Graph, removed: frozenset, budget: int):
        if not _large_blocks(cur):
            if _chain_condition_holds(g, cur):
                return removed
            # structure is fine but the chain condition is not; removing
            # more edges can still fix it, so fall through when budget left
        if budget == 0:
            return None
        if failed.get(removed, -1) >= budget:
            return None
        for u, v in _removal_candidates(cur):
            nxt = cur.without_edge(u, v)
            got = search(nxt, removed | {norm_edge(u, v)}, budget - 1)
            if got is not None:
                return got
        failed[removed] = budget
        return None

    for size in range(1, max_size + 1):
        got = search(g, frozenset(), size)
        if got is not None:
            return got
    raise SearchExhaustedError(
        f"no valid removal set up to {max_size} edges; this should be impossible"
    )


# -- girth/chain descent ----------------------------------------------------


def _split_theorem2(g: Graph, a: int, k: int):
    """Split at an essential cutpoint; pad each half that keeps degree >= 2
    at the cut with a fresh probe path of k+1 vertices.

    The probe paths and the relabeled cut copy a2 fold back onto a; the
    second tip vanishes into the first when the halves are glued.
    """
    comps = g.without_vertex(a).components
    spines = [c for c in comps if is_spine_component(g, a, c)]
    others = [c for c in comps if not is_spine_component(g, a, c)]
    if len(others) >= 2:
        side1 = others[0]
        side2 = frozenset().union(*(c for c in comps if c != side1))
    else:
        assert len(others) == 1 and len(spines) >= 2
        side1 = frozenset().union(*spines)
        side2 = others[0]
    m0 = max(g.vertices)
    a2 = m0 + 1

    def pad(base_graph: Graph, at: int, start: int):
        if base_graph.degree(at) < 2:
            return base_graph, at, (), start
        ids = tuple(range(start, start + k + 1))
        out = base_graph
        for prev, p in zip((at,) + ids, ids):
            out = out.with_edge(prev, p)
        return out, ids[-1], ids, start + k + 1

    g1 = g.induced(side1 | {a})
    g2 = g.induced(side2 | {a}).relabel({a: a2})
    g1p, tip1, probe1, nxt = pad(g1, a, m0 + 2)
    g2p, tip2, probe2, _ = pad(g2, a2, nxt)
    assert probe1 or probe2, "cut degree below 3"
    return g1p, g2p, tip1, tip2, frozenset(probe1 + probe2 + (a2,)) - {tip2}


def _t2_base_tree(g: Graph):
    if g.is_tree:
        return _base("base-tree", spanning_tree(g, g.edges))


def _t2_base_short(g: Graph, k: int):
    if g.v - k - 2 <= 0:
        return _base("base-short", spanning_tree(g, g.bfs_tree(min(g.vertices))))


def _t2_split(g: Graph, k: int):
    ess = essential_cutpoints(g)
    cuts = [x for x in sorted(ess) if g.degree(x) >= 3]
    if not cuts:
        assert not ess, "only degree-2 essential cutpoints found"
        return None
    a = cuts[0]
    g1, g2, tip1, tip2, fold = _split_theorem2(g, a, k)
    return _Step("1.1", "split", (a,), (g1, g2), _rejoin(g, a, tip1, tip2, fold))


def _t2_remove(g: Graph):
    if not _large_blocks(g):
        return None
    f = remove_large_blocks(g)
    args = tuple(x for e in sorted(f) for x in e)
    return _Step("1.2", "delete", args, (g.without_edges(f),), _keep_edges(g))


def _t2_base_spines(g: Graph) -> _Step:
    """Base of the girth/chain descent: pendant paths around one block.

    Every cutpoint detaches a single pendant path; what remains is a
    biconnected core.  The tree keeps every pendant path and spans the core
    so that, when the core has interior vertices, one of them is a leaf.
    """
    sp = find_spines(g)
    spine_vertices = set()
    spine_edges = set()
    for s in sp:
        spine_vertices.update(s.path)
        prev = s.base
        for p in s.path:
            spine_edges.add(norm_edge(prev, p))
            prev = p
    core = g.induced(g.vertices - spine_vertices)
    assert core.v >= 3 and core.is_connected
    assert not decompose_blocks(core).cutpoints, "core is not biconnected"
    bases = {s.base for s in sp}
    interior = sorted(core.vertices - bases)
    if interior:
        u0 = interior[0]
        rest = core.without_vertex(u0)
        edges = set(rest.bfs_tree(min(rest.vertices)))
        edges.add(norm_edge(u0, min(core.neighbors(u0))))
    else:
        edges = set(core.bfs_tree(min(core.vertices)))
    t = spanning_tree(g, edges | spine_edges)
    assert t.leaf_count >= len(sp) + (1 if interior else 0)
    return _base("base-spines", t)


def _theorem2(gg: int, k: int) -> _Theorem:
    def need(g: Graph, case: str):
        assert chain_metric(g) <= k, "descent produced an overlong chain"
        # trees meet the triangle-girth rate; larger declared girths need not
        # hold on bare trees, so every tree is certified at g=3
        return bound_theorem2(g.v, 3 if case == "base-tree" else gg, k).value

    cases = (
        _t2_base_tree,
        partial(_t2_base_short, k=k),
        partial(_t2_split, k=k),
        _t2_remove,
        _t2_base_spines,
    )
    return _Theorem(cases, need)


def theorem2_girth(g: Graph, k: int, girth_floor: Optional[int] = None) -> int:
    """Check the inputs of a girth/chain descent and return its girth parameter.

    k caps the chains of degree-2 vertices and must be at least 1.  The
    girth parameter is the measured girth unless a girth_floor between 3 and
    the measured girth is declared.  Acyclic graphs use 3, the only rate
    that holds for all trees.
    """
    _require_input(g, "the girth/chain descent")
    if isinstance(k, bool) or not isinstance(k, int) or k < 1:
        raise InvalidParamsError(f"k must be an integer >= 1, got {k!r}")
    ell = chain_metric(g)
    if ell > k:
        raise ChainTooLongError(f"chain of {ell} degree-2 vertices exceeds k={k}")
    measured = girth(g)
    if measured is None:
        return 3
    if girth_floor is None:
        return measured
    if girth_floor < 3 or girth_floor > measured:
        raise InvalidParamsError(f"girth_floor {girth_floor} not in [3, measured {measured}]")
    return girth_floor


def construct_theorem2(g: Graph, k: int, girth_floor: Optional[int] = None):
    """Spanning tree certified against the girth/chain bound, with trace.

    k and girth_floor are checked and resolved by theorem2_girth.  Tree
    inputs certify against the girth-3 rate.
    """
    t, root = _descend(g, _theorem2(theorem2_girth(g, k, girth_floor), k))
    return t, ConstructionTrace(root=root, tree=t)


# -- replay ------------------------------------------------------------------


def replay_trace(
    g: Graph,
    trace: ConstructionTrace,
    theorem: int = 1,
    k: Optional[int] = None,
    girth_floor: Optional[int] = None,
    collect=None,
) -> SpanningTree:
    """Re-run a recorded descent, checking every step against the record.

    The inputs are checked exactly as construction checks them.  Returns
    the reproduced tree; raises InvalidParams on the first step that
    disagrees with the trace.  collect, when a list, receives (depth, graph)
    pairs in preorder, one per descent node.
    """
    if theorem == 1:
        _require_input(g, "replay_trace")
        spec = _THEOREM1
    elif theorem == 2:
        if k is None:
            raise InvalidParamsError("replay of the girth/chain descent needs k")
        spec = _theorem2(theorem2_girth(g, k, girth_floor), k)
    else:
        raise InvalidParamsError(f"theorem must be 1 or 2, got {theorem!r}")
    t, _ = _descend(g, spec, trace.root, collect)
    if t != trace.tree:
        raise InvalidParamsError("replay produced a different tree")
    return t
