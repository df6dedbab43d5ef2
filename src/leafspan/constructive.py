"""Constructive spanning-tree builders that certify the lower bounds.

One iterative descent engine runs two case tables.  The first certifies
the degree-structure bound (the s-count form) with one base step, a greedy
tree proved to meet it; the second certifies the girth/chain bound, with
that same greedy tree as the base at every node where it has the leaves
the node needs, and descends elsewhere.  Both record every step in a
ConstructionTrace that can be replayed and audited, and the engine does
not use the Python call stack for the descent itself.

Every recombination step asserts its exact leaf arithmetic, and every node
asserts the bound it is responsible for.  A BoundNotMet escaping from here
means the implementation (not the input) is wrong.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import chain, count
from typing import Callable, NamedTuple, Optional

from .blocks import _run, large_blocks, lowpoint_blocks
from .bounds import BoundReport, _check_int, alpha, bound_theorem1, bound_theorem2
from .errors import (
    BoundNotMetError,
    ChainTooLongError,
    InvalidParamsError,
    NotConnectedError,
    SearchExhaustedError,
)
from .exact import greedy_leafy
from .graph import Graph, _edge, _parts, chain_metric, girth, require_connected, s_count
from .trees import SpanningTree, _pack

# -- traces -----------------------------------------------------------------


@dataclass(frozen=True)
class TraceNode:
    """One descent step: its case, operation and ids, the size of its graph and
    its children.  A split lists its cuts ascending, a cut shared by m pieces
    m - 1 times, so a split line has len(args) + 1 children."""

    case: str
    op: str  # delete | split | base
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
    TraceNode on replay else None, tried in order until one returns a _Step;
    need(g): the leaves g's tree must reach; bound: the root's BoundReport."""

    cases: tuple
    need: Callable
    bound: BoundReport


class _Frame(NamedTuple):
    g: Graph
    step: _Step
    record: Optional[TraceNode]
    done: list  # (tree, trace node) of each finished child


def _base(case: str, t: SpanningTree) -> _Step:
    return _Step(case, "base", (), (), lambda: t)


def _keep_edges(g: Graph):
    """Lift a tree of g less some edges to g: its edges span g as well, with
    the same vertices and so the same leaves."""
    return lambda t_sub: SpanningTree(g, t_sub.tree_edges, t_sub.leaf_count)


def _descend(root: Graph, theorem: _Theorem, record: Optional[TraceNode] = None):
    """Run a descent from root on an explicit stack; return (tree, trace root).

    With a record, every derived step and its child count must match the
    recorded one.
    """

    def enter(g: Graph, rec: Optional[TraceNode]) -> _Frame:
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
        return _Frame(g, step, rec, [])

    stack = [enter(root, record)]
    while True:
        top = stack[-1]
        i = len(top.done)
        if i < len(top.step.children):
            rec = None
            if top.record is not None:
                if i >= len(top.record.children):
                    raise InvalidParamsError("trace mismatch: missing child step")
                rec = top.record.children[i]
            stack.append(enter(top.step.children[i], rec))
            continue
        stack.pop()
        g, step = top.g, top.step
        if top.record is not None and len(top.record.children) != i:
            raise InvalidParamsError("trace mismatch: extra child step")
        t = step.build(*(tree for tree, _ in top.done))
        need = theorem.need(g)
        if t.leaf_count < need:
            raise BoundNotMetError(f"case {step.case}: {t.leaf_count} leaves < {need} at v={g.v}")
        node = TraceNode(step.case, step.op, step.args, g.v, g.e, tuple(n for _, n in top.done))
        if not stack:
            return t, node
        stack[-1].done.append((t, node))


def _split(g: Graph, groups: dict, k: int) -> tuple:
    """Split g at every cut in groups at once; return (pieces, build).

    groups maps each cut a, ascending, to its groups: a partition of a's
    neighbours into unions of components of g - a.  The first group keeps
    a, every other one gets a fresh copy of it, and a group of two or more
    arms gets a probe path of k + 1 fresh vertices at its copy; the group's
    tip is its last probe vertex, or the copy itself.  Fresh ids come per cut,
    copies then probes.  The pieces, the components of what is left in the
    order of their first group, are built each from its own vertices.  build
    folds every fresh id back onto its cut, and the probe edges collapse.
    Every tip is a leaf of its piece's tree, as it has one neighbour there.
    """
    adj, fresh = g.adjacency, count(max(g.vertices) + 1)
    side, paths = {}, []  # (cut, arm): the cut's id on the arm's side; (cut, arms, probe path)
    for a, arm_sets in groups.items():
        ids = [a] + [next(fresh) for _ in arm_sets[1:]]
        side.update(((a, y), c) for c, arms in zip(ids, arm_sets) for y in arms)
        paths += [(a, arms, (c, *(next(fresh) for _ in range(k + 1 if len(arms) > 1 else 0)))) for c, arms in zip(ids, arm_sets)]
        assert any(len(path) > 1 for _, _, path in paths[-len(ids) :]), "no group at the cut has a probe"
    nbrs = dict(adj)  # each cut's entry is overwritten by its first group's
    for a, arms, path in paths:
        nbrs[path[0]] = frozenset(side.get((y, a), y) for y in arms).union(path[1:2])
        nbrs.update((x, frozenset(path[i : i + 3 : 2])) for i, x in enumerate(path[1:]))
        nbrs.update((y, frozenset(side.get((z, y), z) for z in adj[y])) for y in arms if y not in groups)
    onto = {x: a for a, _, path in paths for x in path if x != a}  # fresh id -> its cut
    pieces = []
    for vs in _parts(nbrs, [path[0] for _, _, path in paths]):
        es = frozenset((x, y) for x in vs for y in nbrs[x] if x < y)
        pieces.append(Graph._derived(vs, es, {x: nbrs[x] for x in vs}))
    assert len(pieces) == 1 + sum(len(s) - 1 for s in groups.values()), "a group is not a union of components"

    def build(*trees: SpanningTree) -> SpanningTree:
        # each tip has one neighbour in its piece, so it is a leaf of any tree of it: a group
        # without a probe joins its copy (or the cut) to its one arm, a probe's end to the one before
        edges, rest = set(), set()
        for t in trees:
            for e in t.host.edges:
                u, v = onto.get(e[0], e[0]), onto.get(e[1], e[1])
                if u != v:
                    (edges if e in t.tree_edges else rest).add(_edge(u, v))
                else:
                    assert e in t.tree_edges, f"probe edge {e} is not a tree edge"
        assert edges | rest == g.edges, "recombination did not restore the split graph"
        t = _pack(g, edges)
        assert t.leaf_count == sum(x.leaf_count for x in trees) - len(paths), "leaf count drifted"
        return t

    return tuple(pieces), build


def _base_tree(g: Graph, rec):
    # a descent node is connected, so with v - 1 edges it is its own only
    # spanning tree; need holds it to the girth-3 rate
    if g.e == g.v - 1:
        return _base("base-tree", _pack(g, g.edges))


# -- degree-structure base ------------------------------------------------


def _t1_greedy(g: Graph, rec):
    # greedy_leafy's tree meets the s-count bound (s - 2)/4 + 2 on every
    # connected g, so theorem 1 is this one base (a tree is its own greedy
    # tree).  Let L count the tree's leaves, D its dead leaves (no neighbour
    # outside the tree) and N_s its vertices whose degree in g is not 2.
    # Greedy only expands leaves, and P = 3L + D - N_s never falls; D never
    # falls, as a dead leaf stays dead.
    # - An expansion onto k >= 2 vertices adds k - 1 leaves and at most k
    #   to N_s.
    # - An expansion onto one y happens only when every tree vertex has at
    #   most one outside neighbour.  y of degree 2 changes neither L nor
    #   N_s.  y of degree 1 is dead, so D and N_s both rise by 1.  y of
    #   degree 3 or more with at most one outside neighbour is dead, or has
    #   another tree neighbour w, a leaf whose only outside neighbour was y
    #   and which is now dead.  Otherwise y is the unique maximum and is
    #   expanded next: the pair adds k_y - 1 leaves for at most k_y + 1
    #   vertices of N_s.
    # The root has maximum degree d, so P >= 3d - (d + 1) = 2d - 1 after its
    # expansion.  At the end D = L and N_s = s, so 4L - s >= 2d - 1.  d >= 4
    # gives 4L >= s + 7.  For d = 3, s counts exactly the vertices of odd
    # degree, so s is even by the handshake lemma and 4L >= s + 6.  Either
    # way L >= (s + 6)/4 = (s - 2)/4 + 2.  With d <= 2, g is K2 or a path
    # (L = s = 2) or a cycle (L = 2, s = 0), which meet the bound directly.
    return _base("base-greedy", greedy_leafy(g))


def construct_theorem1(g: Graph):
    """Spanning tree certified against the s-count bound, with its trace."""
    return _certify(g, _theorem(g, 1))


# -- large-block elimination ------------------------------------------------


def _breaks_chain(adj, touched) -> bool:
    """Whether removing edges from a graph, adj its neighbours after the
    removal, made an adjacent pair of degree-2 vertices that was not there
    before.

    touched holds the ends of the removed edges.  Degrees only fall, so a
    vertex is newly of degree 2 exactly when it lost a removed edge.
    """
    return any(len(adj[x]) == 2 and any(len(adj[y]) == 2 for y in adj[x]) for x in touched)


def _removal_fault(reduced: Graph, f) -> Optional[str]:
    """The first postcondition of removal that reduced, a graph less the edge set f, breaks, or None."""
    adj = reduced.adjacency
    try:
        blocks, cuts = lowpoint_blocks(adj)
    except NotConnectedError:
        return "disconnects the graph"
    if large_blocks(blocks, cuts):
        return "leaves a large block"
    return "breaks the chain condition" if _breaks_chain(adj, set(chain.from_iterable(f))) else None


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
    degree above 3, which is a heuristic only.  The search runs one
    lowpoint_blocks pass per node on a working copy of g's adjacency that
    maps each neighbour to its edge id, the edge's index in g's sorted
    edges; each removed set is a bitmask over those ids, and a block's
    candidates are the edges between its vertices, ordered by id within
    each class, so every tie breaks as g's own ids would.
    """
    require_connected(g, "remove_large_blocks")
    if g.v <= 2:
        raise InvalidParamsError("need more than two vertices")
    edges = g.sorted_edges
    m = len(edges)
    adj: dict = {x: {} for x in g.adjacency}
    for eid, (a, b) in enumerate(edges):
        adj[a][b] = adj[b][a] = eid
    touched: list = []  # endpoints of the removed edges

    def rank(eid):
        da, db = (len(adj[x]) for x in edges[eid])
        return eid + m * (0 if da == db == 2 else 1 if da > 3 and db > 3 else 2)

    def block_edges(vs):
        members = set(vs)
        return [eid for x in vs for y, eid in adj[x].items() if x < y and y in members]

    failed: set = set()  # removed bitmasks searched in vain

    def expand(removed: int, budget: int):
        """True when the node that removed is an answer, else an iterator over
        the edges to try from it, in order, or None at a dead end."""
        # a set in failed was checked below and found wanting, so looking
        # it up first answers as checking it again would
        if removed in failed:
            return None
        # a graph that breaks the chain condition is no answer whatever its
        # blocks; removing more edges can still mend it while budget is left
        chain_ok = not _breaks_chain(adj, touched)
        if budget == 0 and not chain_ok:
            return None
        blocks, cuts = lowpoint_blocks(adj)
        large = large_blocks(blocks, cuts)
        if not large and chain_ok:
            return True
        # no second budget test: the search removes no bridge, so at budget 0 the
        # graph is a spanning tree, with no large block, and a return above ran
        large.sort(key=lambda b: (-b[0], sorted(b[1])))
        order = [eid for _, vs in large for eid in sorted(block_edges(vs), key=rank)]
        big = {id(vs) for _, vs in large}
        order += sorted((eid for vs in blocks if len(vs) > 2 and id(vs) not in big for eid in block_edges(vs)), key=rank)
        return iter(order)

    # a connected g - F keeps a spanning tree, so |F| is at most the cyclomatic number, and g - F
    # is that tree at equality; a set's budget left is that less its size, however it is reached.
    # The search runs on an explicit stack: path holds, for each node above
    # the current one, its removed set, its untried edges and the edge taken
    budget = g.e - g.v + 1
    removed, todo, path = 0, expand(0, budget), []
    while todo is not True:
        eid = None if todo is None else next(todo, None)
        if eid is not None:
            a, b = edges[eid]
            del adj[a][b], adj[b][a]
            touched.extend((a, b))
            path.append((removed, todo, eid))
            removed |= 1 << eid
            todo = expand(removed, budget - len(path))
            continue
        if todo is not None:
            failed.add(removed)
        if not path:
            raise SearchExhaustedError("no valid removal set; this should be impossible")
        removed, todo, eid = path.pop()
        a, b = edges[eid]
        del touched[-2:]
        adj[a][b] = adj[b][a] = eid
    return frozenset(edges[eid] for eid in range(m) if removed >> eid & 1)


def _removal(g: Graph, rec: Optional[TraceNode]) -> tuple:
    """The removal set of a 1.2 step, searched for in construction and read from
    the record on replay, and g less it, built once and checked either way."""
    f = remove_large_blocks(g) if rec is None else frozenset(zip(rec.args[::2], rec.args[1::2]))
    if rec is not None and not (f and f <= g.edges and tuple(x for e in sorted(f) for x in e) == rec.args):
        raise InvalidParamsError(f"trace mismatch: recorded {rec.line()}, replay needs a 1.2 edge list")
    reduced = g.without_edges(f)
    if fault := _removal_fault(reduced, f):
        if rec is None:
            raise AssertionError(f"removal set {sorted(f)} {fault}")
        raise InvalidParamsError(f"trace mismatch: recorded 1.2 set {sorted(f)} {fault}")
    return f, reduced


# -- girth/chain descent ----------------------------------------------------


def _t2_base_short(g: Graph, rec, k: int):
    # kept for speed, not proof: need <= 2 here, which greedy's tree always
    # meets, but a cycle (the ladder workload's main instance) is faster
    # through bfs_tree; without this case ladder instance_ms.p90 rose 0.91 ->
    # 1.15 ms, worse in 8 of 8 pairs on 2 CPUs (BENCH_29.json)
    if g.v - k - 2 <= 0:
        return _base("base-short", _pack(g, g.bfs_tree(min(g.vertices))))


def _t2_greedy(g: Graph, rec, need: Callable):
    # greedy's own tree, where it meets need; the engine checks need again and
    # replay rebuilds the tree, so this only decides whether to descend
    t = greedy_leafy(g)
    if t.leaf_count >= need(g):
        return _base("base-greedy", t)


def _block_arms(g: Graph, blocks: list, cuts: set):
    """For each cutpoint a of g, ascending, from a lowpoint pass of g: a and
    the sorted lists of its neighbours in each of its blocks, ordered by the
    block's lowest vertex other than a.  Two blocks at a share only a, so
    the order is total; the lowest vertex of a block is taken once, and the
    next one only for the cut that is the lowest, so the cost is linear in
    the total block size."""
    adj, at = g.adjacency, {a: [] for a in cuts}
    for vs in blocks:
        low, members = min(vs), set(vs)
        for a in members.intersection(cuts):
            key = low if a != low else min(members - {a})
            at[a].append((key, sorted(adj[a] & members)))
    for a in sorted(at):
        yield a, [arms for _, arms in sorted(at[a])]


def _t2_blocks(g: Graph, rec: Optional[TraceNode], k: int) -> _Step:
    """Split, removal or base of the girth/chain descent, read off one
    lowpoint pass of g.  A spine is a bridge arm at a cut of degree >= 3
    whose run of degree-2 vertices ends at a pendant.

    Case 1.1 walks the cutpoints of degree >= 3 upwards and splits g at
    once at each one still essential in the piece the earlier ones leave
    it in.  The groups at such a cut a are the components of g - a, each
    non-spine one alone and the spines at a together, a spider, which is a
    tree; a bridge run of degree-2 vertices to an earlier cut counts as a
    spine, as that cut's pendant copy ends it.  So splitting one cut at a
    time, upwards, gives the same pieces.  A group of d >= 2 arms gets a
    probe of k+1 vertices; when every group has one arm, the last two
    merge.  A cut with m groups, r of them without a probe, adds m - 1
    copies, (m - r)(k+1) probe vertices and m - 1 pieces, and the rejoin
    loses its m tips.  With x = (k+1)alpha < 1, as alpha(g, k) < 1/(k+2),
    the pieces' bounds less the lost tips exceed the parent's by the sum
    over cuts of (m - 2) + x(1 - r) >= (m - 2)(1 - x) >= 0, as r < m.  A
    tree piece is held to the girth-3 rate only; need checks the split
    node itself.

    With no cut taken, large blocks are removed (case 1.2).  Otherwise
    every cutpoint detaches one pendant path around a biconnected core,
    and the base tree keeps the paths and spans the core with one of its
    interior vertices, if it has any, a leaf.
    """
    adj = g.adjacency
    blocks, cuts = lowpoint_blocks(adj)
    spines = []  # the run of each spine, from its base out to its pendant
    spiny = set()  # (cut, arm) of spines and of runs to taken cuts
    groups = {}
    for a, arm_lists in _block_arms(g, blocks, cuts):
        if len(adj[a]) < 3:
            continue
        runs = {ys[0]: _run(adj, a, ys[0]) for ys in arm_lists if len(ys) == 1}  # bridge arms
        ends = [run for run in runs.values() if len(adj[run[-1]]) == 1]  # the spines at a
        spines += ends
        spiny.update((a, run[1]) for run in ends)
        own = [ys for ys in arm_lists if (a, ys[0]) not in spiny]
        spider = [ys[0] for ys in arm_lists if (a, ys[0]) in spiny]
        if len(own) + (len(spider) > 1) < 2:
            continue
        groups[a] = grouped = own + [spider] * bool(spider) if len(own) > 1 else [spider] + own
        if all(len(ys) == 1 for ys in grouped):
            grouped[-2:] = [grouped[-2] + grouped[-1]]
        spiny.update((runs[y][-1], runs[y][-2]) for (y,) in (ys for ys in grouped if len(ys) == 1))
    if groups:
        pieces, build = _split(g, groups, k)
        return _Step("1.1", "split", tuple(a for a, grouped in groups.items() for _ in grouped[1:]), pieces, build)
    # a large block means a non-empty removal set; replay checks the recorded one
    if large_blocks(blocks, cuts):
        f, reduced = _removal(g, rec)
        return _Step("1.2", "delete", tuple(x for e in sorted(f) for x in e), (reduced,), _keep_edges(g))
    on_spine = frozenset(x for run in spines for x in run[1:])
    cores = [vs for vs in blocks if on_spine.isdisjoint(vs)]
    assert len(cores) == 1 and 3 <= len(cores[0]) == g.v - len(on_spine), "core is not one block"
    # every cutpoint in the core block is a spine base, so the core's
    # interior is the block's; an interior vertex is no cutpoint, so all of
    # its neighbours lie in the core
    interior = sorted(x for x in cores[0] if x not in cuts)
    rest = g.induced(set(cores[0]).difference(interior[:1]))
    edges = set(rest.bfs_tree(min(rest.vertices)))
    edges.update(_edge(u0, min(g.adjacency[u0])) for u0 in interior[:1])
    edges.update(_edge(u, x) for run in spines for u, x in zip(run, run[1:]))
    t = _pack(g, edges)
    assert t.leaf_count >= len(spines) + (1 if interior else 0)
    return _base("base-spines", t)


# -- requests and replay ----------------------------------------------------


def _theorem(g: Graph, theorem, k=None) -> _Theorem:
    """Check a certification request and return its case table and bound.

    theorem is 1, the s-count bound, or 2, the girth/chain bound; g must be
    connected with at least two vertices.  Theorem 1 reads no k, so it
    refuses one.  Under theorem 2, k caps the chains of degree-2 vertices:
    when declared it must be an integer of at least 1 that no chain of g
    exceeds, and it defaults to the longest chain, at least 1.  The girth
    parameter is the measured girth: alpha never falls as the girth grows,
    so no smaller girth gives a larger valid bound.  Acyclic graphs use 3,
    the only rate that holds for all trees.
    """
    if type(theorem) is not int or theorem not in (1, 2):
        raise InvalidParamsError(f"theorem must be 1 or 2, got {theorem!r}")
    require_connected(g, "certification")
    if g.v < 2:
        raise InvalidParamsError("need at least two vertices")
    if theorem == 1:
        if k is not None:
            raise InvalidParamsError("k is theorem 2's parameter only")
        return _Theorem((_t1_greedy,), lambda h: bound_theorem1(s_count(h)).value, bound_theorem1(s_count(g)))
    ell = chain_metric(g)
    k = max(ell, 1) if k is None else _check_int("k", k, 1)
    if ell > k:
        raise ChainTooLongError(f"chain of {ell} degree-2 vertices exceeds k={k}")
    gg = girth(g) or 3

    rep = bound_theorem2(g.v, gg, k)
    rate, tree_rate = rep.params["alpha"], alpha(3, k)

    def need(h: Graph):
        # the request measured the root's chains.  Trees meet the girth-3 rate;
        # the root's girth need not hold on a tree child.  A node is a tree
        # exactly when _base_tree, first in the table, takes it
        assert h is g or chain_metric(h) <= k, "descent produced an overlong chain"
        value = (tree_rate if h.e == h.v - 1 else rate) * (h.v - k - 2) + 2
        assert h is not g or value == rep.value, "root need differs from the request's bound"
        return value

    cases = (_base_tree, partial(_t2_base_short, k=k), partial(_t2_greedy, need=need), partial(_t2_blocks, k=k))
    return _Theorem(cases, need, rep)


def _certify(g: Graph, request: _Theorem):
    """The tree and trace of a descent from g under a checked request."""
    t, root = _descend(g, request)
    return t, ConstructionTrace(root=root, tree=t)


def construct_theorem2(g: Graph, k: Optional[int] = None):
    """Spanning tree certified against the girth/chain bound, with trace.

    k caps the chains of degree-2 vertices and defaults to the longest
    chain, at least 1.  The bound is rated at the measured girth; tree
    inputs certify against the girth-3 rate.
    """
    return _certify(g, _theorem(g, 2, k))


def replay_trace(
    g: Graph,
    trace: ConstructionTrace,
    theorem: int = 1,
    k: Optional[int] = None,
) -> SpanningTree:
    """Re-run a recorded descent, checking every step against the record.

    The inputs are checked exactly as construction checks them: a
    theorem-2 k defaults as it does there, to the longest chain, and the
    bound is rated at the measured girth.  A recorded large-block removal
    (case 1.2) is checked against the postconditions of
    remove_large_blocks, not searched for again.  Returns the reproduced
    tree; raises InvalidParams on the first step that disagrees with the
    trace.
    """
    t, _ = _descend(g, _theorem(g, theorem, k), trace.root)
    if t != trace.tree:
        raise InvalidParamsError("replay produced a different tree")
    return t
