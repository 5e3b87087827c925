#!/usr/bin/env python3
"""Closed-loop serving benchmark.

    python3 perfbench/run.py --workload live-ingest --seed 1 --seconds 40 --trace 0

One process drives the query service in-process from its main thread: a
fixed, seeded list of bursts (see ``workloads.py``) with ``OUTSTANDING``
bursts in flight and one ingest before each burst.  After the timed
part a sequential tail of ingests, each followed by one query, gives the
ingest latency; then every distinct answer is checked against
``reference.py``.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of a traced
run (``layers.py``) with ``--trace 1``.  The exit code is 0 only if no
operation failed and every answer matched.

Build products (the reference fixpoint library and the repository's
compiled kernel tier) go to ``$CARGO_TARGET_DIR`` or ``.bench_build``
under the checkout root, and so does the WAL.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import pathlib
import resource
import shutil
import statistics
import sys
import time

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parent.parent
#: setups per run; setup_s is their median
SETUPS = 5
QUERY_TIMEOUT_S = 60.0


def _quantile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def _worker_cpu_s(pids) -> float:
    ticks = os.sysconf("SC_CLK_TCK")
    total = 0
    for pid in pids:
        with open(f"/proc/{pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        total += int(fields[11]) + int(fields[12])  # utime, stime
    return total / ticks


def _worker_hwm_mb(pids) -> float:
    total = 0
    for pid in pids:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    total += int(line.split()[1])
    return total / 1024


def _coordinator_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def merge_answers(into: dict, answers: dict) -> dict:
    """Add ``answers`` to ``into``; both map ``(epoch, algo, source)`` to
    ``{answer: number of queries that got it}``."""
    for key, seen in answers.items():
        bucket = into.setdefault(key, {})
        for got, n in seen.items():
            bucket[got] = bucket.get(got, 0) + n
    return into


def wrong_queries(answers: dict, mismatches) -> int:
    """Queries that got a mismatching answer (warm-up queries included)."""
    return sum(answers[key][got] for key, got, _ in mismatches)


def _worker_pids(svc) -> set[int]:
    return set(svc.pool.worker_pids) | set(svc.pool.worker_backends)


def _deltas(svc, graph: str) -> list:
    """The delta log as ``((add_src, add_dst, add_wt), (del_src, del_dst))``."""
    return [
        ((d.add_src, d.add_dst, d.add_wt), (d.del_src, d.del_dst))
        for d in svc.graph_deltas(graph)
    ]


def _counters(svc) -> dict:
    stats = svc.service_stats()
    out = {
        k: stats[k]
        for k in ("plans", "plan_queries", "ingests", "stable_vertices", "slide_vertices")
    }
    out["cache_hits"] = svc.cache.hits
    out["cache_misses"] = svc.cache.misses
    return out


class Loop:
    """Drives bursts closed-loop and keeps every outcome."""

    def __init__(self, svc, graph: str) -> None:
        from repro.service import QueryRequest

        self.request = QueryRequest
        self.svc = svc
        self.graph = graph
        self.window: collections.deque = collections.deque()
        self.latencies: list[float] = []
        self.admit_waits: list[float] = []
        self.fresh: list[float] = []
        self.ingest_s: list[float] = []
        self.queries = self.query_failures = 0
        self.ingests = self.ingest_failures = 0
        #: (epoch, algo, source) -> {answer: number of queries}
        self.answers: dict = {}

    def run(self, bursts, measured: bool, outstanding: int) -> None:
        for burst in bursts:
            ingest = None
            if burst.ingest_seed is not None:
                self.ingests += 1
                t0 = time.monotonic()
                try:
                    epoch, ack = self.svc.ingest_with_ack(self.graph, seed=burst.ingest_seed)
                except Exception as exc:  # noqa: BLE001 - counted, reported
                    print(f"ingest failed: {exc!r}", file=sys.stderr)
                    self.ingest_failures += 1
                else:
                    self.ingest_s.append(time.monotonic() - t0)
                    self.ingest_failures += bool(ack.get("degraded"))
                    ingest = (t0, epoch)
            pending = [
                self.svc.submit(self.request(self.graph, burst.algo, s))
                for s in burst.sources
            ]
            self.window.append((burst, pending, ingest))
            if len(self.window) >= outstanding:
                self._finish(*self.window.popleft(), measured)
        self.drain(measured)

    def drain(self, measured: bool) -> None:
        while self.window:
            self._finish(*self.window.popleft(), measured)

    def _finish(self, burst, pending, ingest, measured: bool) -> None:
        fresh = []
        for source, p in zip(burst.sources, pending):
            self.queries += 1
            response = p.wait(QUERY_TIMEOUT_S)
            if response is None or not response.ok:
                status = "timeout" if response is None else response.status
                print(f"query failed: {burst.algo} {source}: {status}", file=sys.stderr)
                self.query_failures += 1
                continue
            answer = tuple((s.reached, s.checksum) for s in response.summaries)
            seen = self.answers.setdefault((response.epoch, burst.algo, source), {})
            seen[answer] = seen.get(answer, 0) + 1
            if measured:
                self.latencies.append(response.latency_s)
                marks = p.trace.marks
                if "plan_submit" in marks:
                    self.admit_waits.append((marks["plan_submit"] - marks["admit"]) * 1e3)
            if ingest and response.status == "ok" and response.epoch == ingest[1]:
                fresh.append(p.trace.marks["resolve"] - ingest[0])
        if fresh:
            self.fresh.append(min(fresh))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    # the compiled kernel tier caches its library under XDG_CACHE_HOME
    os.environ["XDG_CACHE_HOME"] = str(build_dir / "cache")
    sys.path.insert(0, str(ROOT / "src"))

    import layers
    import reference
    import workloads as W
    from repro.experiments.runner import clear_caches, scenario_cache
    from repro.perf.backend import resolve_backend

    if args.workload not in W.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(W.WORKLOADS)}")
    workload = W.WORKLOADS[args.workload]
    bursts = workload.traffic(args.seed, args.seconds)

    # build step, outside every timed part
    reference.load(build_dir)
    tier = resolve_backend().name

    recorder = layers.install() if args.trace else None
    wal_dir = build_dir / "work" / f"{workload.name}-{os.getpid()}"
    setup_s, warm, warm_queries = [], {}, 0
    svc = None
    try:
        for i in range(SETUPS):
            # every setup loads the graph afresh, as a service start does
            clear_caches()
            t0 = time.monotonic()
            svc = workload.start(str(wal_dir))
            loop = Loop(svc, W.GRAPH)
            loop.run([W.Burst(a, (0,)) for a in W.ALGOS], False, W.OUTSTANDING)
            setup_s.append(time.monotonic() - t0)
            if loop.query_failures:
                raise RuntimeError("warm-up query failed")
            merge_answers(warm, loop.answers)
            warm_queries += loop.queries
            if i < SETUPS - 1:
                svc.stop()
                svc = None
        svc.cache.clear()
        loop = Loop(svc, W.GRAPH)
        pids = _worker_pids(svc)
        before = _counters(svc)
        cpu0 = _coordinator_cpu_s() + _worker_cpu_s(pids)
        if recorder is not None:
            recorder.enabled = True
        t0 = time.monotonic()
        loop.run([b for b in bursts if b.measured], True, W.OUTSTANDING)
        wall = time.monotonic() - t0
        if recorder is not None:
            recorder.enabled = False
        cpu = _coordinator_cpu_s() + _worker_cpu_s(pids) - cpu0
        after = _counters(svc)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024 + _worker_hwm_mb(pids)
        answered = len(loop.latencies)
        # the ingest latency comes from a sequential tail, with no query
        # computing beside it
        tail = Loop(svc, W.GRAPH)
        tail.run([b for b in bursts if not b.measured], False, 1)

        base = scenario_cache(W.GRAPH, W.SCALE, n_snapshots=W.N_SNAPSHOTS)
        timeline = reference.Timeline(
            [
                reference.Edges.from_arrays(g.n_vertices, g.src_of_edge, g.dst, g.wt)
                for g in (base.snapshot_graph(k) for k in range(W.N_SNAPSHOTS))
            ],
            _deltas(svc, W.GRAPH),
        )
    finally:
        if svc is not None:
            svc.stop(timeout=30)
        shutil.rmtree(wal_dir, ignore_errors=True)

    answers = merge_answers(merge_answers(warm, loop.answers), tail.answers)
    mismatches = reference.check_answers(timeline, answers)
    wrong = wrong_queries(answers, mismatches)
    for key, got, want in mismatches[:5]:
        print(f"mismatch {key}: got {got} expected {want}", file=sys.stderr)

    latency_ms = [x * 1e3 for x in loop.latencies]
    tail_ms = [x * 1e3 for x in tail.ingest_s]
    e2e = {
        "setup_s": (statistics.median(setup_s), "s"),
        "query_qps": (answered / wall, "q/s"),
        "query_p50_ms": (_quantile(latency_ms, 50), "ms"),
        "query_p90_ms": (_quantile(latency_ms, 90), "ms"),
        "fresh_read_p50_ms": (_quantile([x * 1e3 for x in loop.fresh], 50), "ms"),
        "ingest_p50_ms": (_quantile(tail_ms, 50), "ms"),
        "cpu_ms_per_query": (cpu * 1e3 / max(answered, 1), "ms"),
        "rss_mb": (rss_mb, "MB"),
    }
    queries = warm_queries + loop.queries + tail.queries
    ingests = loop.ingests + tail.ingests
    query_failures = loop.query_failures + tail.query_failures + wrong
    ingest_failures = loop.ingest_failures + tail.ingest_failures
    beside_ms = [x * 1e3 for x in loop.ingest_s]
    print(
        f"{workload.name} seed {args.seed}: kernel tier {tier}; "
        f"queries {queries} attempted, {query_failures} failed; "
        f"ingests {ingests} attempted, {ingest_failures} failed; "
        f"{sum(len(s) for s in answers.values())} distinct answers checked, "
        f"{len(mismatches)} wrong; measured {wall:.2f} s; "
        f"query p99 {_quantile(latency_ms, 99):.2f} ms; "
        f"ingest (tail) p90 {_quantile(tail_ms, 90):.2f} ms, "
        f"beside queries p50 {_quantile(beside_ms, 50):.2f} ms, p90 {_quantile(beside_ms, 90):.2f} ms"
    )
    if recorder is not None:
        counters = {k: after[k] - before[k] for k in after}
        counters["admit_wait_ms"] = loop.admit_waits
        print(layers.format_report(recorder, counters))
        print("traced end-to-end: " + json.dumps({k: v for k, (v, _) in e2e.items()}))
        layer = layers.layer_metrics(recorder, counters, wall, W.WORKERS)
        metrics = {k: {"value": v, "unit": layers.unit(k)} for k, v in layer.items()}
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
    print(json.dumps({
        "correct": not mismatches,
        "attempted": queries + ingests,
        "failed": query_failures + ingest_failures,
        "metrics": metrics,
    }))
    return 0 if query_failures + ingest_failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
