"""Per-layer tracing for the serving benchmark (``--trace 1``).

:func:`install` wraps the public functions of each serving layer with
span recorders.  It must run before any service exists: pool workers are
forked from the coordinator, so they inherit the wrapped functions.

* Coordinator spans go straight into the :class:`Recorder`.
* Worker spans are buffered in the worker and shipped back on the
  ``PlanResult`` of the plan they ran in, as an extra attribute.  The
  coordinator attributes each span to its plan by worker pid and by the
  ``worker_start_mono``/``worker_end_mono`` stamps the result carries; a
  span outside that interval is counted as unattributed.
* The return path (``worker_end_mono`` to the moment the coordinator sees
  the result) is timed from outside, by a done-callback registered before
  the service's own.

Every span records its duration and its self time (duration minus the
spans nested inside it on the same thread).  Spans are kept only while
:attr:`Recorder.enabled` is set, that is during the measured phase.
"""

from __future__ import annotations

import functools
import json
import os
import pickle
import statistics
import threading
import time
from dataclasses import dataclass, field

__all__ = ["Recorder", "install", "layer_metrics", "format_report", "unit"]


@dataclass
class Span:
    layer: str
    name: str
    pid: int
    t0: float
    t1: float
    self_s: float
    info: dict = field(default_factory=dict)

    @property
    def ms(self) -> float:
        return (self.t1 - self.t0) * 1e3


@dataclass
class PlanRecord:
    kind: str
    pid: int
    submitted: float
    worker_start: float
    worker_end: float
    returned: float
    payload_bytes: int


class Recorder:
    """Spans and plan records of the measured phase."""

    def __init__(self) -> None:
        self.enabled = False
        self.coordinator_pid = os.getpid()
        self.spans: list[Span] = []
        self.plans: list[PlanRecord] = []
        self.unattributed = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        #: worker-side buffer, drained into each PlanResult
        self._worker_spans: list[Span] = []

    def _recording(self) -> bool:
        return self.enabled or os.getpid() != self.coordinator_pid

    def span(self, layer: str, name: str, info_fn=None):
        """Decorator: record every call of the wrapped function."""

        def wrap(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if not self._recording():
                    return fn(*args, **kwargs)
                stack = self._local.__dict__.setdefault("stack", [])
                stack.append(0.0)
                t0 = time.monotonic()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    t1 = time.monotonic()
                    children = stack.pop()
                    if stack:
                        stack[-1] += t1 - t0
                info = info_fn(args, kwargs, out) if info_fn else {}
                span = Span(
                    layer, name, os.getpid(), t0, t1, t1 - t0 - children, info
                )
                if os.getpid() == self.coordinator_pid:
                    with self._lock:
                        self.spans.append(span)
                else:
                    self._worker_spans.append(span)
                return out

            return wrapper

        return wrap

    def plan_done(self, kind, submitted, payload_bytes, future) -> None:
        returned = time.monotonic()
        if not self.enabled:
            return
        try:
            result = future.result()
        except Exception:  # noqa: BLE001 - the service accounts failures
            return
        spans = getattr(result, "perfbench_spans", [])
        with self._lock:
            self.plans.append(
                PlanRecord(
                    kind, result.worker_pid, submitted,
                    result.worker_start_mono, result.worker_end_mono,
                    returned, payload_bytes,
                )
            )
            for span in spans:
                inside = (
                    span.pid == result.worker_pid
                    and result.worker_start_mono <= span.t0
                    and span.t1 <= result.worker_end_mono
                )
                if inside:
                    self.spans.append(span)
                else:
                    self.unattributed += 1


def install() -> Recorder:
    """Wrap the serving layers; call before any service is constructed."""
    from repro.core import multi_query, window_server
    from repro.service import batcher, cache, core, pool, shm, wal

    rec = Recorder()

    def count(key):
        return lambda args, kwargs, out: {key: len(args[2])}

    def patch(module, attr, layer, name=None, info_fn=None):
        setattr(
            module, attr,
            rec.span(layer, name or attr, info_fn)(getattr(module, attr)),
        )

    core.coalesce = rec.span("batcher", "coalesce")(batcher.coalesce)
    patch(cache.ResultCache, "invalidate_graph", "cache",
          info_fn=lambda a, k, out: {"dropped": out})
    patch(cache.ResultCache, "rebase_graph", "cache",
          info_fn=lambda a, k, out: {"rebased": out[0], "dropped": out[1]})
    patch(shm.ScenarioPlane, "publish", "shm",
          info_fn=lambda a, k, out: {"bytes": out.nbytes})
    patch(pool, "attach_scenario", "shm", "attach")
    patch(pool, "_live_scenario", "shm", "replay")
    patch(core, "synthesize_delta", "ingest", "synthesize")
    patch(pool, "apply_delta", "ingest")
    patch(wal.WriteAheadLog, "append", "wal", info_fn=lambda a, k, out: {
        "bytes": len(json.dumps(a[1], sort_keys=True)) + 8})
    patch(wal.WriteAheadLog, "compact", "wal")
    patch(multi_query, "evaluate_multi_query", "engine", "eval", count("sources"))
    patch(window_server.WindowServer, "__init__", "window", "build")
    patch(window_server.WindowServer, "advance", "window")

    run = pool._worker_run

    @functools.wraps(run)
    def worker_run(payload):
        del rec._worker_spans[:]
        result = run(payload)
        result.perfbench_spans = list(rec._worker_spans)
        return result

    pool._worker_run = worker_run

    submit = pool.WorkerPool.submit

    @functools.wraps(submit)
    def pool_submit(self, payload):
        submitted = time.monotonic()
        traced = rec.enabled and payload.kind == "plan"
        size = len(pickle.dumps(payload)) if traced else 0
        future = submit(self, payload)
        if traced:
            future.add_done_callback(
                functools.partial(rec.plan_done, payload.kind, submitted, size)
            )
        return future

    pool.WorkerPool.submit = pool_submit
    return rec


def unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    for suffix, u in (("_ms", "ms"), ("_kb", "KB"), ("_mb", "MB"), ("_share", "ratio"),
                      ("_ratio", "ratio"), ("_per_plan", "1/plan"),
                      ("_per_ingest", "1/ingest"), ("_per_eval", "1/eval")):
        if name.endswith(suffix) or f"{suffix}_" in name:
            return u
    return "count"


def _p50(values) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(rec: Recorder, counters: dict, wall_s: float, workers: int) -> dict:
    """The per-layer metrics named in BENCHMARK.json.

    ``counters`` holds the service-side deltas over the measured phase:
    plans, plan_queries, cache_hits, cache_misses, ingests, stable/total
    slide vertices, and the admit-wait samples.
    """
    coord = rec.coordinator_pid

    def spans(layer, name, side=None):
        return [
            s for s in rec.spans
            if s.layer == layer and s.name == name
            and (side is None or (s.pid == coord) == (side == "coordinator"))
        ]

    def ms(items):
        return [s.ms for s in items]

    plans = rec.plans
    busy = [(p.worker_end - p.worker_start) * 1e3 for p in plans]
    ingests = counters["ingests"]
    cache_ops = spans("cache", "invalidate_graph") + spans("cache", "rebase_graph")
    lookups = counters["cache_hits"] + counters["cache_misses"]
    evals = spans("engine", "eval")
    publishes = spans("shm", "publish")
    appends = spans("wal", "append")
    compacts = spans("wal", "compact")
    builds = spans("window", "build")
    advances = spans("window", "advance")
    out = {
        "batcher.admit_wait_p50_ms": _p50(counters["admit_wait_ms"]),
        "batcher.queries_per_plan": (
            counters["plan_queries"] / counters["plans"] if counters["plans"] else 0.0
        ),
        "batcher.coalesce_busy_ms": sum(ms(spans("batcher", "coalesce"))),
        "cache.hit_ratio": counters["cache_hits"] / lookups if lookups else 0.0,
        "cache.dropped_per_ingest": (
            sum(s.info.get("dropped", 0) for s in cache_ops) / ingests if ingests else 0.0
        ),
        "cache.rebased_per_ingest": (
            sum(s.info.get("rebased", 0) for s in cache_ops) / ingests if ingests else 0.0
        ),
        "pool.plans": len(plans),
        "pool.payload_kb_mean": (
            statistics.fmean(p.payload_bytes for p in plans) / 1024 if plans else 0.0
        ),
        "pool.payload_kb_max": max((p.payload_bytes for p in plans), default=0) / 1024,
        "pool.dispatch_wait_p50_ms": _p50(
            [(p.worker_start - p.submitted) * 1e3 for p in plans]
        ),
        "pool.worker_busy_p50_ms": _p50(busy),
        "pool.return_p50_ms": _p50([(p.returned - p.worker_end) * 1e3 for p in plans]),
        "pool.worker_busy_share": sum(busy) / (workers * wall_s * 1e3),
        "shm.publishes": len(publishes),
        "shm.publish_p50_ms": _p50(ms(publishes)),
        "shm.published_mb": sum(s.info["bytes"] for s in publishes) / 2**20,
        "shm.attach_p50_ms": _p50(ms(spans("shm", "attach", "worker"))),
        "shm.replay_fallbacks": len(spans("shm", "replay", "worker")),
        "ingest.synthesize_p50_ms": _p50(ms(spans("ingest", "synthesize"))),
        "ingest.apply_delta_p50_ms": _p50(ms(spans("ingest", "apply_delta"))),
        "ingest.apply_delta_calls": len(spans("ingest", "apply_delta", "worker")),
        "wal.append_p50_ms": _p50(ms(appends)),
        "wal.append_kb": sum(s.info["bytes"] for s in appends) / 1024,
        "wal.compactions": len(compacts),
        "wal.compact_p50_ms": _p50(ms(compacts)),
        "engine.evals": len(evals),
        "engine.eval_p50_ms": _p50(ms(evals)),
        "engine.sources_per_eval": (
            statistics.fmean(s.info["sources"] for s in evals) if evals else 0.0
        ),
        "window.builds": len(builds),
        "window.build_p50_ms": _p50(ms(builds)),
        "window.advances": len(advances),
        "window.advance_p50_ms": _p50(ms(advances)),
        "window.stable_share": (
            counters["stable_vertices"] / counters["slide_vertices"]
            if counters["slide_vertices"] else 0.0
        ),
    }
    return out


def format_report(rec: Recorder, counters: dict) -> str:
    """Count, busy, self and waiting time per layer (ms, measured phase).

    Waiting is time a unit of work spent queued in front of the layer:
    admission-queue wait for the batcher, dispatch wait plus the return
    path for the pool.  Worker-side rows sum over both workers.
    """
    rows: dict[tuple[str, str], list[float]] = {}
    for s in rec.spans:
        side = "coordinator" if s.pid == rec.coordinator_pid else "worker"
        row = rows.setdefault((f"{s.layer}.{s.name}", side), [0, 0.0, 0.0, 0.0])
        row[0] += 1
        row[1] += s.ms
        row[2] += s.self_s * 1e3
    for p in rec.plans:
        row = rows.setdefault(("pool.plan", "worker"), [0, 0.0, 0.0, 0.0])
        row[0] += 1
        row[1] += (p.worker_end - p.worker_start) * 1e3
        row[3] += ((p.worker_start - p.submitted) + (p.returned - p.worker_end)) * 1e3
    waits = counters["admit_wait_ms"]
    rows[("batcher.admit", "coordinator")] = [len(waits), 0.0, 0.0, sum(waits)]
    lines = [f"{'layer':<28}{'side':<13}{'count':>8}{'busy_ms':>12}{'self_ms':>12}{'wait_ms':>12}"]
    for (name, side), (n, busy, own, wait) in sorted(rows.items()):
        lines.append(
            f"{name:<28}{side:<13}{n:>8}{busy:>12.1f}{own:>12.1f}{wait:>12.1f}"
        )
    lines.append(f"worker spans outside their plan's interval: {rec.unattributed}")
    return "\n".join(lines)
