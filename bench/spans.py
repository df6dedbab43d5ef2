"""Spans around the library's public functions, installed from outside.

A ``Tracer`` replaces each traced function at every place it is looked up
(the package, its home module and every leafspan module that imported it by
name) and each traced ``Graph`` method on the class itself.  Wrappers keep a
stack of open spans; a span's self time is its duration minus the time of
the spans opened inside it.  ``restore`` puts every original back.

Nothing called once per vertex or per edge is wrapped.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

# span name -> (home module, public names); functions are wrapped wherever
# a leafspan module holds the same object under the same name
FUNCTIONS = {
    "corpus.verify": ("leafspan.corpus", ("verify_corpus",)),
    "corpus.gen": ("leafspan.corpus", ("random_constrained_graph",)),
    "exact": ("leafspan.exact", ("exact_mlst",)),
    "exact.greedy": ("leafspan.exact", ("greedy_leafy",)),
    "removal": ("leafspan.constructive", ("remove_large_blocks",)),
    "descent.t1": ("leafspan.constructive", ("construct_theorem1",)),
    "descent.t2": ("leafspan.constructive", ("construct_theorem2",)),
    "replay": ("leafspan.constructive", ("replay_trace",)),
    "blocks.decompose": ("leafspan.blocks", ("decompose_blocks",)),
    "blocks.essential": ("leafspan.blocks", ("essential_cutpoints",)),
    "graph.derive": ("leafspan.graph", ("glue", "contract_edge")),
    "graph.metrics": ("leafspan.graph", ("girth", "chain_metric", "s_count")),
    "trees": (
        "leafspan.trees",
        (
            "spanning_tree",
            "validate",
            "check_valid",
            "relabel_tree",
            "glue_trees",
            "contract_tree_edge",
            "lift_tree_through_contraction",
            "extend_tree_lemma3",
        ),
    ),
    "bounds": (
        "leafspan.bounds",
        ("bound_theorem1", "bound_theorem2", "bound_kw", "alpha", "beta", "beta_prime", "gamma"),
    ),
    "io.hash": ("leafspan.graph_io", ("graph_hash",)),
}

# Graph methods that derive a new graph; wrapped on the class
DERIVE_METHODS = ("induced", "without_vertex", "without_edge", "without_edges", "with_edge", "relabel")


def _derived_edges(result) -> int:
    graph = getattr(result, "graph", result)  # glue/contract return records
    return graph.e


class Tracer:
    def __init__(self):
        self.stack: list = []  # open spans: [name, start, child time]
        self.calls: Counter = Counter()
        self.total: Counter = Counter()
        self.self_time: Counter = Counter()
        self.counts: Counter = Counter()
        self.cases: Counter = Counter()
        self.max_depth = 0
        self._open: Counter = Counter()  # name -> spans of that name on the stack
        self._saved: list = []  # (owner, attribute, original)

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items()) if n == "leafspan" or n.startswith("leafspan.")]
        for span, (home, names) in FUNCTIONS.items():
            for fname in names:
                original = getattr(sys.modules[home], fname, None)
                if original is None:
                    continue
                wrapper = self._wrap(original, span, self._after(span))
                for mod in modules:
                    if mod.__dict__.get(fname) is original:
                        self._replace(mod, fname, wrapper)
        graph_cls = sys.modules["leafspan.graph"].Graph
        for meth in DERIVE_METHODS:
            original = graph_cls.__dict__.get(meth)
            if original is not None:
                self._replace(graph_cls, meth, self._wrap(original, "graph.derive", self._after("graph.derive")))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def snapshot(self):
        """Copy of the work counts, to drop those of a call that failed."""
        return self.calls.copy(), self.counts.copy(), self.cases.copy(), self.max_depth

    def rollback(self, snap) -> None:
        """Forget the counts since snap; times stay, the time was spent."""
        calls, counts, cases, self.max_depth = snap
        for live, old in ((self.calls, calls), (self.counts, counts), (self.cases, cases)):
            live.clear()
            live.update(old)

    def _replace(self, owner, attr, wrapper) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    # -- spans -------------------------------------------------------------------

    def _wrap(self, original, span, after):
        stack, opened = self.stack, self._open
        calls, total, self_time = self.calls, self.total, self.self_time
        clock = time.perf_counter
        counts = self.counts
        tries_edge = span == "graph.derive" and original.__name__ == "without_edge"

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            outer = not stack or stack[-1][0] != span
            if tries_edge and opened["removal"]:
                counts["removal.edges_tried"] += 1
            frame = [span, clock(), 0.0]
            stack.append(frame)
            opened[span] += 1
            try:
                result = original(*args, **kwargs)
            finally:
                dur = clock() - frame[1]
                stack.pop()
                opened[span] -= 1
                if stack:
                    stack[-1][2] += dur
                if outer:
                    calls[span] += 1
                    total[span] += dur
                self_time[span] += dur - frame[2]
            if outer and after is not None:
                after(result, dur)
            return result

        wrapper.__leafspan_bench_wrapper__ = True
        return wrapper

    def _after(self, span):
        counts = self.counts
        if span == "exact":
            def after(res, dur):
                counts["exact.done_s"] += dur  # time of calls that returned
                counts["exact.nodes"] += res.nodes_explored
                counts["exact.nonoptimal"] += not res.optimal
            return after
        if span == "removal":
            def after(res, dur):
                counts["removal.set_size"] += len(res)
            return after
        if span in ("descent.t1", "descent.t2"):
            return self._record_trace
        if span == "graph.derive":
            def after(res, dur):
                counts["graph.derive.edges_copied"] += _derived_edges(res)
            return after
        return None

    def _record_trace(self, result, dur) -> None:
        _, trace = result
        todo = [(trace.root, 0)]
        while todo:
            node, depth = todo.pop()
            self.counts["descent.nodes"] += 1
            self.cases[node.case] += 1
            self.max_depth = max(self.max_depth, depth)
            todo.extend((child, depth + 1) for child in node.children)
