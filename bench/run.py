"""leafspan benchmark: one workload, one seed, one JSON result line.

Usage, from the root of a checkout:

    python3 bench/run.py --workload exact --seed 1 --seconds 30 --trace 0

The library is imported from ``src/`` next to this directory; nothing is
installed.  Set-up (import plus input generation) runs five times and the
median is reported.  A pass then runs every instance once, each under its
own time cap, and checks every output against the benchmark's oracle.
End-to-end times are scaled to reference speed (see ``calib``), so that the
host's changing speed does not show as a change of the program; wall times
are printed in the summary lines.

With ``--trace 0`` the result holds the end-to-end metrics.  With
``--trace 1`` the pass runs with spans around the library's public
functions, every third instance also runs untraced just before to measure
the tracing overhead, and the result holds the per-layer metrics.  The
last line of standard output is the JSON result; summaries go before it.

Without src/leafspan next to this directory the script exits with status
2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUPS = 5
SETUP_REFS = 9
OVERHEAD_EVERY = 3  # traced runs time every third instance untraced too

import calib  # noqa: E402  (the script directory is on sys.path)
import oracle  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

CASES = (
    "base-edge", "base-small-core", "base-core-exact", "base-core-greedy",
    "1", "2", "3", "4", "5",
    "base-tree", "base-short", "base-spines", "1.1", "1.2",
)


class LibraryMissing(Exception):
    pass


class Timeout(BaseException):
    """Raised by the interval timer inside a call that outlived its cap."""


class _Alarm:
    armed = False

    def __call__(self, signum, frame):
        if self.armed:
            self.armed = False
            raise Timeout


ALARM = _Alarm()


def import_library():
    """Fresh import of leafspan from this checkout's src/."""
    for name in [n for n in sys.modules if n == "leafspan" or n.startswith("leafspan.")]:
        del sys.modules[name]
    if not (SRC / "leafspan" / "__init__.py").is_file():
        raise LibraryMissing(f"no leafspan package under {SRC}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    importlib.invalidate_caches()
    lib = importlib.import_module("leafspan")
    if Path(lib.__file__).resolve().parent != (SRC / "leafspan").resolve():
        raise LibraryMissing(f"leafspan imported from {lib.__file__}, not {SRC}")
    return lib


def setup(workload: str, seed: int, seconds: float):
    """Import and generate SETUPS times; return the last result and the median time.

    Each set-up time is scaled to reference speed like an instance's, by
    the median of SETUP_REFS reference times taken just before it.
    """
    times, keys = [], None
    for _ in range(SETUPS):
        ref = statistics.median(calib.reference_s() for _ in range(SETUP_REFS))
        t0 = time.perf_counter()
        lib = import_library()
        instances = workloads.build(workload, lib, seed, seconds)
        times.append((time.perf_counter() - t0) * calib.NOMINAL_MS * 1e-3 / ref)
        now = [inst.key for inst in instances]
        if keys is not None and now != keys:
            raise RuntimeError("input generation is not deterministic")
        keys = now
    return lib, instances, statistics.median(times)


def execute(inst, lib):
    """Run one instance under its cap: (status, seconds, output)."""
    args = inst.prepare(lib)
    out = None
    signal.setitimer(signal.ITIMER_REAL, inst.cap)
    ALARM.armed = True
    t0 = time.perf_counter()
    try:
        out = inst.call(*args)
        ALARM.armed = False
        status = "ok"
    except Timeout:
        status = "timeout"
    except Exception as exc:  # recorded per instance as error:<type>
        ALARM.armed = False
        status = f"error:{type(exc).__name__}"
        if not isinstance(exc, RecursionError):
            traceback.print_exc(file=sys.stderr)
    finally:
        elapsed = time.perf_counter() - t0
        ALARM.armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)
    return status, elapsed, out


class Pass:
    """Outcome of running a list of instances once."""

    def __init__(self, reference=True):
        self.reference = reference  # time calib's reference task before each instance
        self.refs: list = []  # reference seconds, one per instance
        self.wall: list = []  # wall seconds per instance, whatever the outcome
        self.caps: list = []  # per instance: its cap when it timed out, else None
        self.elapsed: list = []  # the same, inf for instances that failed
        self.times: list = []  # latency samples in wall seconds; failures count as inf
        self.sampled: list = []  # instance index of each latency sample
        self.total = 0.0
        self.fails: Counter = Counter()
        self.wrong: list = []
        self.slacks: list = []
        self.by_rung: dict = {}

    def run(self, instances, lib, check=True, tracer=None):
        """Run and check each instance; a tracer keeps counts of completed calls only."""
        for inst in instances:
            if self.reference:
                self.refs.append(calib.reference_s())
            snap = tracer.snapshot() if tracer else None
            status, elapsed, out = execute(inst, lib)
            if tracer and status != "ok":
                tracer.rollback(snap)
            index = len(self.wall)
            self.total += elapsed
            self.wall.append(elapsed)
            self.caps.append(inst.cap if status == "timeout" else None)
            self.elapsed.append(elapsed if status == "ok" else math.inf)
            rung = self.by_rung.setdefault(inst.rung, [])
            if status != "ok":
                self.fails[status] += 1
                self.times.append(math.inf)
                self.sampled.append(index)
                continue
            if check:
                try:
                    slack = inst.check(out)
                except oracle.WrongAnswer as exc:
                    self.wrong.append(f"{inst.rung} {inst.key}: {exc}")
                    continue  # a wrong answer is never a latency sample
                if slack is not None:
                    self.slacks.append(slack)
            self.times.append(elapsed)
            self.sampled.append(index)
            rung.append(elapsed)
            del out
        return self

    @property
    def attempted(self) -> int:
        return len(self.times) + len(self.wrong)

    @property
    def failed(self) -> int:
        return sum(self.fails.values()) + len(self.wrong)

    def scale(self) -> list:
        """Per-instance factors from wall time to reference-speed time."""
        return calib.factors(self.refs) if self.reference else [1.0] * len(self.wall)

    def scaled_total(self) -> float:
        """Scaled pass time; a timeout adds its cap, which the benchmark sets."""
        return sum(w * f if c is None else c for w, f, c in zip(self.wall, self.scale(), self.caps))

    def percentile_ms(self, q: float, scaled=True) -> float:
        f = self.scale() if scaled else [1.0] * len(self.wall)
        ordered = sorted(t * f[i] for t, i in zip(self.times, self.sampled))
        return ordered[max(0, math.ceil(q * len(ordered)) - 1)] * 1e3


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(p: Pass, setup_s: float) -> dict:
    ok = p.attempted - p.failed
    return {
        "setup_s": metric(setup_s, "s"),
        "run_s": metric(p.scaled_total(), "s"),
        "instance_ms.p50": metric(p.percentile_ms(0.5), "ms"),
        "instance_ms.p90": metric(p.percentile_ms(0.9), "ms"),
        "ok_frac": metric(ok / p.attempted, "ratio"),
        "slack_mean": metric(float(sum(p.slacks) / len(p.slacks)), "leaves"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(t: Tracer, traced: Pass, overhead: float) -> dict:
    s = t.self_time
    c = t.counts
    exact_s = c["exact.done_s"]
    tried = c["removal.edges_tried"]
    m = {
        "exact.calls": metric(t.calls["exact"], "count"),
        "exact.nodes": metric(c["exact.nodes"], "count"),
        "exact.self_s": metric(s["exact"], "s"),
        "exact.nodes_per_s": metric(c["exact.nodes"] / exact_s if exact_s else 0.0, "1/s"),
        "exact.nonoptimal": metric(c["exact.nonoptimal"], "count"),
        "exact.greedy.self_s": metric(s["exact.greedy"], "s"),
        "removal.calls": metric(t.calls["removal"], "count"),
        "removal.s": metric(t.total["removal"], "s"),
        "removal.share": metric(t.total["removal"] / traced.total, "ratio"),
        "removal.self_s": metric(s["removal"], "s"),
        "removal.edges_tried": metric(tried, "count"),
        "removal.set_size": metric(c["removal.set_size"], "count"),
        "removal.useful_ratio": metric(c["removal.set_size"] / tried if tried else 0.0, "ratio"),
        "descent.t1.self_s": metric(s["descent.t1"], "s"),
        "descent.t2.self_s": metric(s["descent.t2"], "s"),
        "descent.nodes": metric(c["descent.nodes"], "count"),
        "descent.max_depth": metric(t.max_depth, "count"),
    }
    for case in CASES:
        m[f"descent.case.{case}"] = metric(t.cases[case], "count")
    m["descent.case.other"] = metric(sum(n for k, n in t.cases.items() if k not in CASES), "count")
    m.update(
        {
            "replay.s": metric(t.total["replay"], "s"),
            "replay.share": metric(t.total["replay"] / traced.total, "ratio"),
            "blocks.decompose.calls": metric(t.calls["blocks.decompose"], "count"),
            "blocks.decompose.self_s": metric(s["blocks.decompose"], "s"),
            "blocks.essential.calls": metric(t.calls["blocks.essential"], "count"),
            "blocks.essential.self_s": metric(s["blocks.essential"], "s"),
            "graph.derive.calls": metric(t.calls["graph.derive"], "count"),
            "graph.derive.self_s": metric(s["graph.derive"], "s"),
            "graph.derive.edges_copied": metric(c["graph.derive.edges_copied"], "count"),
            "graph.metrics.self_s": metric(s["graph.metrics"], "s"),
            "trees.calls": metric(t.calls["trees"], "count"),
            "trees.self_s": metric(s["trees"], "s"),
            "bounds.self_s": metric(s["bounds"], "s"),
            "corpus.gen.calls": metric(t.calls["corpus.gen"], "count"),
            "corpus.gen.self_s": metric(s["corpus.gen"], "s"),
            "corpus.verify.self_s": metric(s["corpus.verify"], "s"),
            "io.hash.self_s": metric(s["io.hash"], "s"),
            "trace.overhead": metric(overhead, "ratio"),
            "traced.run_s": metric(traced.total, "s"),
            "instances": metric(traced.attempted, "count"),
            "fail_frac": metric(traced.failed / traced.attempted, "ratio"),
            "fail.timeout": metric(traced.fails["timeout"], "count"),
            "fail.error": metric(sum(n for k, n in traced.fails.items() if k.startswith("error:")), "count"),
            "recursion_limit": metric(sys.getrecursionlimit(), "count"),
        }
    )
    return m


def describe(workload, seed, p: Pass, setup_s, traced):
    print(
        f"# leafspan bench workload={workload} seed={seed} trace={int(traced)} "
        f"python={platform.python_version()} cpus={os.cpu_count()} recursionlimit={sys.getrecursionlimit()}"
    )
    print(f"# setup_s={setup_s:.4f} attempted={p.attempted} failed={p.failed} fails={dict(p.fails)}")
    if p.reference:
        print(
            f"# at reference speed: run_s={p.scaled_total():.3f} instance_ms p50={p.percentile_ms(0.5):.3f} "
            f"p90={p.percentile_ms(0.9):.3f} n={len(p.times)}; reference median_ms={statistics.median(p.refs) * 1e3:.4f}"
        )
    print(
        f"# wall: run_s={p.total:.3f} instance_ms p50={p.percentile_ms(0.5, scaled=False):.3f} "
        f"p90={p.percentile_ms(0.9, scaled=False):.3f} n={len(p.times)}"
    )
    for rung in sorted(p.by_rung):
        ts = p.by_rung[rung]
        med = f"{statistics.median(ts) * 1e3:.2f}" if ts else "-"
        print(f"#   {rung}: ok={len(ts)} sum_s={sum(ts):.3f} median_ms={med}")
    for line in p.wrong:
        print(f"# WRONG {line}")


def measure(workload: str, seed: int, seconds: float, trace: bool):
    """Set up, run one pass and return (result dict, the pass, setup seconds)."""
    lib, instances, setup_s = setup(workload, seed, seconds)
    previous = signal.signal(signal.SIGALRM, ALARM)
    gc.collect()
    gc.freeze()
    try:
        if not trace:
            p = Pass().run(instances, lib)
            metrics = end_to_end(p, setup_s)
        else:
            # each sampled instance runs untraced right before its traced run,
            # so both see the same machine speed
            tracer, plain, p = Tracer(), Pass(reference=False), Pass(reference=False)
            for i, inst in enumerate(instances):
                if i % OVERHEAD_EVERY == 0:
                    plain.run([inst], lib, check=False)
                tracer.install()
                try:
                    p.run([inst], lib, tracer=tracer)
                finally:
                    tracer.restore()
            pairs = [(a, b) for a, b in zip(plain.elapsed, p.elapsed[::OVERHEAD_EVERY]) if math.isfinite(a + b)]
            overhead = sum(b for _, b in pairs) / sum(a for a, _ in pairs)
            metrics = per_layer(tracer, p, overhead)
    finally:
        signal.signal(signal.SIGALRM, previous)
        gc.unfreeze()
    result = {
        "correct": not p.wrong,
        "attempted": p.attempted,
        "failed": p.failed,
        "metrics": metrics,
    }
    return result, p, setup_s


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=workloads.NOMINAL_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        result, p, setup_s = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except LibraryMissing as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    describe(args.workload, args.seed, p, setup_s, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
