"""Machine-speed reference: a fixed piece of the benchmark's own code.

Shared hosts change speed by up to 1.6x over minutes, and Python code
slows down with them, though not all code by the same factor.  So the pass
times a short reference task before every instance: the oracle's girth and
chain searches on one fixed 60-vertex graph.  It shares no code with the
library, so a faster or slower library leaves it unchanged.

Reported times are scaled to a machine on which that task takes
``NOMINAL_MS``: an instance's wall time is multiplied by ``NOMINAL_MS``
over the median reference time of the instances around it.  Wall times
are printed next to them.
"""

from __future__ import annotations

import random
import statistics
import time

import gen
import oracle

NOMINAL_MS = 2.0  # about the reference's time on a 2-vCPU x86-64 VM, CPython 3.11.7
WINDOW = 30  # reference samples on each side of an instance

_N = 60
_VERTS = range(_N)
_EDGES = gen.sparse_edges(_N, 10, random.Random(0))


def reference_s() -> float:
    """Seconds the reference task takes now."""
    t0 = time.perf_counter()
    oracle.girth(_VERTS, _EDGES)
    oracle.chain_metric(_VERTS, _EDGES)
    return time.perf_counter() - t0


def factors(refs: list) -> list:
    """Per-instance scale factors from the reference times taken before each."""
    out = []
    for j in range(len(refs)):
        local = statistics.median(refs[max(0, j - WINDOW) : j + WINDOW + 1])
        out.append(NOMINAL_MS * 1e-3 / local)
    return out
