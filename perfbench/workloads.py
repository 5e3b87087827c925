"""The two serving workloads and their seeded traffic.

Both serve PK at scale ``small`` with 8 snapshots, a WAL with
``fsync=always`` and 2 pool workers.  Traffic is a fixed list of bursts;
a burst is one algorithm and up to ``BURST`` sources, with one seeded
ingest before it.  The
amount of traffic is a fixed function of ``--seconds`` (calibrated so
that a run measures a little under that long on a 2-CPU host), never of
elapsed time, so every run with the same arguments does the same work.
"""

from __future__ import annotations

import dataclasses
import shutil
from dataclasses import dataclass

import numpy as np

GRAPH = "PK"
SCALE = "small"
N_SNAPSHOTS = 8
ALGOS = ("BFS", "SSSP", "SSWP", "SSNP", "Viterbi")
WORKERS = 2
BURST = 8
OUTSTANDING = 2
#: sliding-window checkpoint cadence of slide-ingest (ingests)
SLIDE_EVERY = 8
#: every run ends with this many ingests, each followed by one
#: single-query burst that is answered before the next ingest; they
#: supply the ingest latency, taken while no query computes beside it
TAIL_INGESTS = 80
#: calibration of the fixed work to --seconds on a 2-CPU host (the cost
#: of an epoch grows with the delta log)
EPOCHS_PER_S = {"live-ingest": 20.5, "slide-ingest": 8.5}


@dataclass(frozen=True)
class Burst:
    algo: str
    sources: tuple[int, ...]
    #: seed of the ingest that precedes the burst (None = no ingest)
    ingest_seed: int | None = None
    #: part of the measured phase (False for the tail)
    measured: bool = True


@dataclass(frozen=True)
class Workload:
    name: str
    slide_every: int = 0

    def config(self, wal_dir: str):
        from repro.service import ServiceConfig

        return ServiceConfig(
            scale=SCALE,
            n_snapshots=N_SNAPSHOTS,
            workers=WORKERS,
            max_batch=BURST,
            cache_size=4096,
            wal_dir=wal_dir,
            wal_fsync="always",
            window_slide_every=self.slide_every,
        )

    def start(self, wal_dir: str):
        """A started service for this workload over a fresh WAL dir."""
        from repro.service import QueryService

        shutil.rmtree(wal_dir, ignore_errors=True)
        return QueryService(self.config(wal_dir)).start()

    def traffic(self, seed: int, seconds: float) -> list[Burst]:
        epochs = max(1, round(seconds * EPOCHS_PER_S[self.name]))
        bursts = _zipf_bursts(np.random.default_rng([seed, 1]), epochs, seed)
        tail = _zipf_bursts(
            np.random.default_rng([seed, 2]), TAIL_INGESTS, seed, size=1, first=len(bursts)
        )
        return bursts + [dataclasses.replace(b, measured=False) for b in tail]


def _zipf_bursts(rng, n: int, seed: int, size: int = BURST, first: int = 0) -> list[Burst]:
    """``n`` bursts of ``size`` Zipf-repeated sources, one ingest before each;
    ingest ``first + i`` of the run precedes burst ``i``.

    Sources follow the repository's own serving traffic model
    (``repro.service.loadgen``): a Zipf law of exponent ``LoadSpec.zipf_s``
    over the ``LoadSpec.n_sources`` top-degree vertices of the common
    graph, the most popular first.  The pool depends only on the graph, so
    the hot sources (and the cost of serving them) do not depend on
    ``--seed``, which draws the sequence.  Algorithms rotate from a seeded
    offset so each gets an equal share.
    """
    from repro.service.loadgen import LoadSpec, _source_pool, _zipf_weights

    pool = np.array(_source_pool(GRAPH, SCALE, N_SNAPSHOTS, LoadSpec.n_sources))
    weights = _zipf_weights(pool.size, LoadSpec.zipf_s)
    offset = int(rng.integers(len(ALGOS)))
    return [
        Burst(
            ALGOS[(offset + i) % len(ALGOS)],
            tuple(int(s) for s in pool[rng.choice(pool.size, size, p=weights)]),
            ingest_seed=(seed * 1_000_003 + first + i) % 2**31,
        )
        for i in range(n)
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("live-ingest"),
        Workload("slide-ingest", slide_every=SLIDE_EVERY),
    )
}
