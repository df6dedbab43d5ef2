"""Constructive spanning-tree builders that certify the lower bounds.

Two recursive descents live here.  The first produces a tree whose leaf
count is certified against the degree-structure bound (the s-count form);
the second certifies the girth/chain bound.  Both record every reduction
step in a ConstructionTrace that can be replayed and audited.

Every recombination step asserts its exact leaf arithmetic, and every node
asserts the bound it is responsible for.  A BoundNotMet escaping from here
means the implementation (not the input) is wrong.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .blocks import decompose_blocks, essential_cutpoints, find_spines, is_spine_component
from .bounds import bound_kw, bound_theorem1, bound_theorem2
from .errors import (
    BoundNotMetError,
    ChainTooLongError,
    InvalidParamsError,
    PreconditionViolatedError,
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


class _Guide:
    """Cursor over a recorded trace; replay checks each step against it."""

    def __init__(self, node: Optional[TraceNode]):
        self.node = node

    def check(self, case: str, op: str, args: tuple) -> None:
        if self.node is None:
            return
        if (self.node.case, self.node.op, self.node.args) != (case, op, args):
            raise InvalidParamsError(
                f"trace mismatch: recorded {self.node.line()}, "
                f"replay derived case={case} op={op} args={args}"
            )

    def child(self, i: int) -> "_Guide":
        if self.node is None:
            return _Guide(None)
        if i >= len(self.node.children):
            raise InvalidParamsError("trace mismatch: missing child step")
        return _Guide(self.node.children[i])


def _require(ok: bool, msg: str) -> None:
    if not ok:
        raise BoundNotMetError(msg)


# -- degree-structure descent ----------------------------------------------


def _bound1_check(t: SpanningTree, g: Graph, case: str) -> None:
    need = bound_theorem1(s_count(g)).value
    _require(
        t.leaf_count >= need,
        f"case {case}: {t.leaf_count} leaves < required {need} at v={g.v}",
    )


def _split_theorem1(g: Graph, a: int):
    """Case-2 pieces: split g at a into two halves, each with a probe pendant.

    Single-vertex components of g-a are pendants of g and travel with the
    second half; the first half is the lowest component that carries core
    vertices.  Fresh ids sit above every real id so that contractions later
    merge back onto the real vertex a.
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
    return g1, g2, a2, x1, x2


def _recombine_theorem1(g, t1, t2, a, a2, x1, x2) -> SpanningTree:
    glued = glue(t1.host, x1, t2.host, x2)
    t = glue_trees(t1, t2, glued)
    before = t.leaf_count
    c1 = contract_edge(glued.graph, a, x1)
    assert c1.merged == a
    t = contract_tree_edge(t, c1)
    c2 = contract_edge(c1.graph, a, a2)
    assert c2.merged == a
    t = contract_tree_edge(t, c2)
    assert t.leaf_count == before, "contraction changed the leaf count"
    assert t.host == g, "recombination did not restore the split graph"
    return t


def _descend1(g: Graph, guide: _Guide, collect, depth: int):
    if collect is not None:
        collect.append((depth, g))

    def leaf_node(case, op, args, tree):
        guide.check(case, op, args)
        return tree, TraceNode(case, op, args, g.v, g.e, ())

    def inner_node(case, op, args, tree, children):
        guide.check(case, op, args)
        return tree, TraceNode(case, op, args, g.v, g.e, tuple(children))

    if g.v == 2:
        t = spanning_tree(g, g.edges)
        _bound1_check(t, g, "base-edge")
        return leaf_node("base-edge", "base", (), t)

    deg2 = [x for x in g.sorted_vertices if g.degree(x) == 2]
    if deg2:
        a = deg2[0]
        b = min(g.neighbors(a))
        if a in decompose_blocks(g).cutpoints:
            guide.check("1", "contract", (a, b))
            res = contract_edge(g, a, b)
            t_sub, node = _descend1(res.graph, guide.child(0), collect, depth + 1)
            t = lift_tree_through_contraction(t_sub, res, g)
            assert t.leaf_count >= t_sub.leaf_count
            _bound1_check(t, g, "1-contract")
            return inner_node("1", "contract", (a, b), t, [node])
        guide.check("1", "delete", (a, b))
        sub = g.without_edge(a, b)
        require_connected(sub, "degree-2 reduction")
        t_sub, node = _descend1(sub, guide.child(0), collect, depth + 1)
        t = spanning_tree(g, t_sub.tree_edges)
        _bound1_check(t, g, "1-delete")
        return inner_node("1", "delete", (a, b), t, [node])

    part = partition_uwxy(g)
    if not part.U:
        # mindeg 3 core: solve directly and certify the v/4 + 2 bound
        if g.v <= EXACT_BASE_LIMIT:
            t = exact_mlst(g).witness
            case = "base-core-exact"
        else:
            t = greedy_leafy(g)
            case = "base-core-greedy"
        need = bound_kw(g.v).value
        _require(
            t.leaf_count >= need,
            f"{case}: {t.leaf_count} leaves < {need} at v={g.v}",
        )
        _bound1_check(t, g, case)
        return leaf_node(case, "base", (), t)

    h = g.induced(g.vertices - part.U)
    if h.v <= 2:
        # star or double star: the graph is its own spanning tree
        assert g.is_tree
        t = spanning_tree(g, g.edges)
        _bound1_check(t, g, "base-small-core")
        return leaf_node("base-small-core", "base", (), t)

    h_cuts = decompose_blocks(h).cutpoints
    if h_cuts:
        a = min(h_cuts)
        guide.check("2", "split", (a,))
        g1, g2, a2, x1, x2 = _split_theorem1(g, a)
        t1, n1 = _descend1(g1, guide.child(0), collect, depth + 1)
        t2, n2 = _descend1(g2, guide.child(1), collect, depth + 1)
        t = _recombine_theorem1(g, t1, t2, a, a2, x1, x2)
        assert t.leaf_count == t1.leaf_count + t2.leaf_count - 2
        _bound1_check(t, g, "2")
        return inner_node("2", "split", (a,), t, [n1, n2])

    # h is biconnected from here on
    found = None
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
                found = (a, b, comp)
                break
        if found:
            break
    if found:
        a, b, comp = found
        guide.check("3", "extend", (a, b))
        sub = g.induced(comp)
        t_sub, node = _descend1(sub, guide.child(0), collect, depth + 1)
        t = extend_tree_lemma3(t_sub, a, b, g)
        assert t.leaf_count >= t_sub.leaf_count + 1
        _bound1_check(t, g, "3")
        return inner_node("3", "extend", (a, b), t, [node])

    heavy = next(
        (
            (x, y)
            for x, y in g.sorted_edges
            if g.degree(x) >= 4 and g.degree(y) >= 4
        ),
        None,
    )
    if heavy:
        x, y = heavy
        guide.check("4", "delete", (x, y))
        sub = g.without_edge(x, y)
        require_connected(sub, "heavy edge removal")
        assert s_count(sub) == s_count(g)
        t_sub, node = _descend1(sub, guide.child(0), collect, depth + 1)
        t = spanning_tree(g, t_sub.tree_edges)
        _bound1_check(t, g, "4")
        return inner_node("4", "delete", (x, y), t, [node])

    violation = check_lemma5_structure(g, part)
    assert violation is None, f"descent exhausted cases yet {violation}"
    w = min(part.W)
    xs = sorted(nb for nb in g.neighbors(w) if nb in part.X)
    x, x_other = xs[0], xs[1]
    a = min(nb for nb in g.neighbors(x) if nb != w)
    assert g.degree(a) == 3
    guide.check("5", "extend", (w, x, x_other, a))
    g_star = g.without_edge(w, x_other)
    comp = next(c for c in g_star.without_vertex(a).components if w in c)
    sub = g_star.induced(comp)
    t_sub, node = _descend1(sub, guide.child(0), collect, depth + 1)
    t_star = extend_tree_lemma3(t_sub, a, x, g_star)
    assert t_star.leaf_count >= t_sub.leaf_count + 1
    t = spanning_tree(g, t_star.tree_edges)
    _bound1_check(t, g, "5")
    return inner_node("5", "extend", (w, x, x_other, a), t, [node])


def construct_theorem1(g: Graph):
    """Spanning tree certified against the s-count bound, with its trace."""
    require_connected(g, "construct_theorem1")
    if g.v < 2:
        raise InvalidParamsError("need at least two vertices")
    t, root = _descend1(g, _Guide(None), None, 0)
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


def _tree_bound_check(t: SpanningTree, g: Graph, k: int, case: str) -> None:
    # trees meet the triangle-girth rate; larger declared girths need not
    # hold on bare trees, so every tree is certified at g=3
    need = bound_theorem2(g.v, 3, k).value
    _require(
        t.leaf_count >= need,
        f"{case}: tree with {t.leaf_count} leaves < required {need}",
    )


def _bound2_check(t: SpanningTree, g: Graph, gg: int, k: int, case: str) -> None:
    need = bound_theorem2(g.v, gg, k).value
    _require(
        t.leaf_count >= need,
        f"case {case}: {t.leaf_count} leaves < required {need} "
        f"at v={g.v}, g={gg}, k={k}",
    )


def _split_theorem2(g: Graph, a: int, k: int):
    """Split at an essential cutpoint; pad each half that keeps degree >= 2
    at the cut with a fresh probe path of k+1 vertices."""
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
        ids = list(range(start, start + k + 1))
        out = base_graph
        prev = at
        edges = []
        for p in ids:
            out = out.with_edge(prev, p)
            edges.append(norm_edge(prev, p))
            prev = p
        return out, ids[-1], tuple(edges), start + k + 1

    g1 = g.induced(side1 | {a})
    g2 = g.induced(side2 | {a}).relabel({a: a2})
    g1p, tip1, spine1, nxt = pad(g1, a, m0 + 2)
    g2p, tip2, spine2, _ = pad(g2, a2, nxt)
    assert spine1 or spine2, "cut degree below 3"
    return g1p, g2p, a2, tip1, tip2, spine1 + spine2


def _recombine_theorem2(g, t1, t2, a, a2, tip1, tip2, spine_edges) -> SpanningTree:
    glued = glue(t1.host, tip1, t2.host, tip2)
    t = glue_trees(t1, t2, glued)
    before = t.leaf_count
    cur = glued.graph
    # fold the probe paths and the relabeled cut copy back onto a; the
    # second glue point vanished into the first when the halves were joined
    fold = {x for e in spine_edges for x in e}
    fold.add(a2)
    fold -= {a, tip2}
    while fold:
        nb = next(p for p in sorted(fold) if cur.has_edge(a, p))
        res = contract_edge(cur, a, nb)
        assert res.merged == a
        t = contract_tree_edge(t, res)
        cur = res.graph
        fold.discard(nb)
    assert t.leaf_count == before, "contraction changed the leaf count"
    assert t.host == g, "recombination did not restore the split graph"
    return t


def _spine_base_tree(g: Graph) -> SpanningTree:
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
    return t


def _descend2(g: Graph, gg: int, k: int, guide: _Guide, collect, depth: int):
    if collect is not None:
        collect.append((depth, g))

    def leaf_node(case, op, args, tree):
        guide.check(case, op, args)
        return tree, TraceNode(case, op, args, g.v, g.e, ())

    def inner_node(case, op, args, tree, children):
        guide.check(case, op, args)
        return tree, TraceNode(case, op, args, g.v, g.e, tuple(children))

    assert chain_metric(g) <= k, "descent produced an overlong chain"

    if g.is_tree:
        t = spanning_tree(g, g.edges)
        _tree_bound_check(t, g, k, "base-tree")
        return leaf_node("base-tree", "base", (), t)

    if g.v - k - 2 <= 0:
        t = spanning_tree(g, g.bfs_tree(min(g.vertices)))
        _bound2_check(t, g, gg, k, "base-short")
        return leaf_node("base-short", "base", (), t)

    ess = [x for x in sorted(essential_cutpoints(g)) if g.degree(x) >= 3]
    if ess:
        a = ess[0]
        guide.check("1.1", "split", (a,))
        g1p, g2p, a2, tip1, tip2, spine_edges = _split_theorem2(g, a, k)
        t1, n1 = _descend2(g1p, gg, k, guide.child(0), collect, depth + 1)
        t2, n2 = _descend2(g2p, gg, k, guide.child(1), collect, depth + 1)
        t = _recombine_theorem2(g, t1, t2, a, a2, tip1, tip2, spine_edges)
        assert t.leaf_count == t1.leaf_count + t2.leaf_count - 2
        _bound2_check(t, g, gg, k, "1.1")
        return inner_node("1.1", "split", (a,), t, [n1, n2])
    assert not essential_cutpoints(g), "only degree-2 essential cutpoints found"

    if _large_blocks(g):
        f = remove_large_blocks(g)
        args = tuple(x for e in sorted(f) for x in e)
        guide.check("1.2", "delete", args)
        sub = g.without_edges(f)
        t_sub, node = _descend2(sub, gg, k, guide.child(0), collect, depth + 1)
        t = spanning_tree(g, t_sub.tree_edges)
        _bound2_check(t, g, gg, k, "1.2")
        return inner_node("1.2", "delete", args, t, [node])

    t = _spine_base_tree(g)
    _bound2_check(t, g, gg, k, "base-spines")
    return leaf_node("base-spines", "base", (), t)


def construct_theorem2(g: Graph, k: int, girth_floor: Optional[int] = None):
    """Spanning tree certified against the girth/chain bound, with trace.

    k caps the chains of degree-2 vertices and must be at least 1.  The
    bound's girth parameter defaults to the measured girth; a smaller
    girth_floor may be declared instead.  Tree inputs certify against the
    girth-3 rate, the only one that holds for all trees.
    """
    require_connected(g, "construct_theorem2")
    if g.v < 2:
        raise InvalidParamsError("need at least two vertices")
    if isinstance(k, bool) or not isinstance(k, int) or k < 1:
        raise InvalidParamsError(f"k must be an integer >= 1, got {k!r}")
    ell = chain_metric(g)
    if ell > k:
        raise ChainTooLongError(f"chain of {ell} degree-2 vertices exceeds k={k}")
    measured = girth(g)
    if measured is None:
        gg = 3
    elif girth_floor is None:
        gg = measured
    else:
        if girth_floor < 3 or girth_floor > measured:
            raise InvalidParamsError(
                f"girth_floor {girth_floor} not in [3, measured {measured}]"
            )
        gg = girth_floor
    t, root = _descend2(g, gg, k, _Guide(None), None, 0)
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

    Returns the reproduced tree; raises InvalidParams on the first step
    that disagrees with the trace.  collect, when a list, receives
    (depth, graph) pairs in preorder, one per descent node.
    """
    if theorem == 1:
        t, _ = _descend1(g, _Guide(trace.root), collect, 0)
    elif theorem == 2:
        if k is None:
            raise InvalidParamsError("replay of the girth/chain descent needs k")
        measured = girth(g)
        if measured is None:
            gg = 3
        else:
            gg = measured if girth_floor is None else girth_floor
        t, _ = _descend2(g, gg, k, _Guide(trace.root), collect, 0)
    else:
        raise InvalidParamsError(f"theorem must be 1 or 2, got {theorem!r}")
    if t != trace.tree:
        raise InvalidParamsError("replay produced a different tree")
    return t
