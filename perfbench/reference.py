"""Independent answers for the serving benchmark.

Nothing here imports the system under test.  The reference rebuilds the
edge set of every snapshot the service ever served and runs its own
label-correcting fixpoint on it, with its own table of the five Table 1
edge functions.

Timeline.  A service window holds ``K`` snapshots.  Every ingest slides
it by one: the oldest snapshot is dropped, and the new latest snapshot is
the old latest plus Δ+ minus Δ-.  So snapshot ``k`` at epoch ``e`` is
timeline snapshot ``T[e + k]``, where ``T[0..K-1]`` are the epoch-0
snapshots and ``T[K - 1 + i] = T[K - 2 + i] + Δ+_i - Δ-_i`` for the
``i``-th delta (``i >= 1``).  An answer for ``(epoch, algo, source)``
therefore depends on ``(algo, source, T[e..e+K-1])`` only, and answers
at different epochs share timeline snapshots.

Answers are compared on ``reached`` exactly and on ``checksum`` (the
sum of the finite values) to within a relative 1e-12.

The fixpoint itself is compiled (``fixpoint.c``) because the check runs
inside every benchmark run: on a 2-vCPU host a numpy Bellman-Ford over
all sources of one (algorithm, snapshot) at once took 11-25 s for the
40 solves of 400 sources that one round of every (algorithm, source)
pair needs, the C loop 0.9 s.
"""

from __future__ import annotations

import ctypes
import math
import pathlib
import subprocess
from dataclasses import dataclass

import numpy as np

__all__ = ["EDGE_FUNCTIONS", "Edges", "Timeline", "check_answers", "load", "solve"]

INF = math.inf

#: Table 1: name -> (minimize, identity, source value, edge function).
#: The edge functions are applied by ``fixpoint.c`` (op = table order).
EDGE_FUNCTIONS = {
    "BFS": (True, INF, 0.0, "val + 1"),
    "SSSP": (True, INF, 0.0, "val + wt"),
    "SSWP": (False, 0.0, INF, "min(val, wt)"),
    "SSNP": (True, INF, 0.0, "max(val, wt)"),
    "Viterbi": (False, 0.0, 1.0, "val / wt"),
}
_OPS = tuple(EDGE_FUNCTIONS)

_HERE = pathlib.Path(__file__).resolve().parent
_lib: ctypes.CDLL | None = None


@dataclass
class Edges:
    """One snapshot's edge set, sorted by ``key = src * n + dst``."""

    n_vertices: int
    keys: np.ndarray
    wt: np.ndarray

    @classmethod
    def from_arrays(cls, n_vertices, src, dst, wt) -> "Edges":
        keys = np.asarray(src, np.int64) * n_vertices + np.asarray(dst, np.int64)
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        if keys.size and np.any(keys[1:] == keys[:-1]):
            raise ValueError("duplicate edge in a snapshot")
        return cls(n_vertices, keys, np.asarray(wt, np.float64)[order])

    def apply(self, adds, dels) -> "Edges":
        """Next timeline snapshot: this one plus ``adds`` minus ``dels``.

        ``adds`` is ``(src, dst, wt)``, ``dels`` is ``(src, dst)``.  A
        deletion of an absent edge or an addition of a present one is an
        invalid delta log and raises.
        """
        n = self.n_vertices
        del_keys = np.asarray(dels[0], np.int64) * n + np.asarray(dels[1], np.int64)
        gone = np.isin(self.keys, del_keys)
        if int(gone.sum()) != np.unique(del_keys).size:
            raise ValueError("delta deletes an edge the snapshot does not have")
        add_keys = np.asarray(adds[0], np.int64) * n + np.asarray(adds[1], np.int64)
        if np.any(np.isin(add_keys, self.keys[~gone])):
            raise ValueError("delta adds an edge the snapshot already has")
        keep = ~gone
        return Edges(n, *_merge(self.keys[keep], self.wt[keep], add_keys, adds[2]))

    def csr(self):
        """``(indptr, dst, wt)``: out-edges grouped by source."""
        src, dst = np.divmod(self.keys, self.n_vertices)
        indptr = np.zeros(self.n_vertices + 1, np.int64)
        np.cumsum(np.bincount(src, minlength=self.n_vertices), out=indptr[1:])
        return indptr, np.ascontiguousarray(dst), np.ascontiguousarray(self.wt)


def _merge(keys, wt, add_keys, add_wt):
    keys = np.concatenate([keys, add_keys])
    wt = np.concatenate([wt, np.asarray(add_wt, np.float64)])
    order = np.argsort(keys, kind="stable")
    return keys[order], wt[order]


class Timeline:
    """Every snapshot edge set the service passed through, built lazily."""

    def __init__(self, base: list[Edges], deltas: list) -> None:
        self.n_snapshots = len(base)
        self._snaps: list[Edges] = list(base)
        self._deltas = list(deltas)

    def snapshot(self, t: int) -> Edges:
        while len(self._snaps) <= t:
            adds, dels = self._deltas[len(self._snaps) - self.n_snapshots]
            self._snaps.append(self._snaps[-1].apply(adds, dels))
        return self._snaps[t]


def build(build_dir: str) -> pathlib.Path:
    """Compile the fixpoint library with the package's Makefile."""
    out = pathlib.Path(build_dir).resolve()
    subprocess.run(
        ["make", "-s", "-C", str(_HERE), f"BUILD={out}"],
        check=True, stdout=subprocess.DEVNULL,
    )
    return out / "perfbench_fixpoint.so"


def load(build_dir: str) -> None:
    """Build (if needed) and load the fixpoint library once per process."""
    global _lib
    if _lib is not None:
        return
    lib = ctypes.CDLL(str(build(build_dir)))
    i64 = np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS")
    f64 = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")
    u8 = np.ctypeslib.ndpointer(np.uint8, flags="C_CONTIGUOUS")
    lib.perfbench_fixpoint.restype = ctypes.c_int64
    lib.perfbench_fixpoint.argtypes = [
        ctypes.c_int64, i64, i64, f64,
        ctypes.c_int, ctypes.c_int, ctypes.c_double, ctypes.c_double,
        ctypes.c_int64, i64, f64, i64, u8,
    ]
    _lib = lib


def solve(edges: Edges, algo: str, sources) -> np.ndarray:
    """Fixpoint values, one row per source: ``(len(sources), n_vertices)``.

    Label correcting with a FIFO work queue per source (``fixpoint.c``):
    a vertex whose value improved relaxes its out-edges again, and a
    candidate is kept only if it is strictly better.
    """
    if _lib is None:
        raise RuntimeError("reference.load(build_dir) first")
    minimize, identity, source_value, _ = EDGE_FUNCTIONS[algo]
    n = edges.n_vertices
    indptr, dst, wt = edges.csr()
    sources = np.ascontiguousarray(sources, dtype=np.int64)
    if sources.size and not (0 <= sources.min() and sources.max() < n):
        raise ValueError(f"source out of range [0, {n})")
    out = np.empty((sources.size, n), np.float64)
    _lib.perfbench_fixpoint(
        n, indptr, dst, wt,
        _OPS.index(algo), int(minimize), identity, source_value,
        sources.size, sources, out,
        np.empty(n + 1, np.int64), np.empty(n, np.uint8),
    )
    return out


def summarize(algo: str, values: np.ndarray) -> tuple[int, float]:
    """``(reached, checksum)`` of one value row."""
    identity = EDGE_FUNCTIONS[algo][1]
    finite = np.isfinite(values)
    return int((values != identity).sum()), float(values[finite].sum())


def check_answers(timeline: Timeline, answers) -> list[tuple]:
    """Compare answers against the reference.

    ``answers`` maps ``(epoch, algo, source)`` to the distinct answers
    seen for it, each a tuple of per-snapshot ``(reached, checksum)``.
    Returns the mismatches as ``(key, got, expected)``.
    """
    k = timeline.n_snapshots
    need: dict[tuple[str, int], set[int]] = {}
    for epoch, algo, source in answers:
        for t in range(epoch, epoch + k):
            need.setdefault((algo, t), set()).add(source)
    truth: dict[tuple[str, int, int], tuple[int, float]] = {}
    for (algo, t), sources in sorted(need.items()):
        ordered = sorted(sources)
        rows = solve(timeline.snapshot(t), algo, ordered)
        for row, source in zip(rows, ordered):
            truth[(algo, source, t)] = summarize(algo, row)
    mismatches = []
    for (epoch, algo, source), seen in sorted(answers.items()):
        expected = tuple(truth[(algo, source, epoch + i)] for i in range(k))
        for got in seen:
            if not _same(got, expected):
                mismatches.append(((epoch, algo, source), got, expected))
    return mismatches


def _same(got, expected) -> bool:
    if len(got) != len(expected):
        return False
    for (reached, checksum), (want_reached, want_checksum) in zip(got, expected):
        if reached != want_reached:
            return False
        if not math.isclose(checksum, want_checksum, rel_tol=1e-12, abs_tol=1e-9):
            return False
    return True
