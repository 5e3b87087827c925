"""Tests of the benchmark's answer checker on hand-computable graphs.

    python3 -m pytest perfbench/test_reference.py
"""

from __future__ import annotations

import math
import pathlib
import sys

import numpy as np
import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import reference  # noqa: E402
import run  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent
N = 5
#: 0->1 (2), 0->2 (5), 1->2 (1), 2->3 (3), 1->3 (7), 4->0 (1); from
#: source 0, vertex 4 is unreachable
EDGES = [(0, 1, 2.0), (0, 2, 5.0), (1, 2, 1.0), (2, 3, 3.0), (1, 3, 7.0), (4, 0, 1.0)]


def edges(rows) -> reference.Edges:
    src, dst, wt = zip(*rows)
    return reference.Edges.from_arrays(N, src, dst, wt)


@pytest.fixture(scope="module", autouse=True)
def library():
    reference.load(str(ROOT / ".bench_build"))


@pytest.mark.parametrize(
    "algo, values",
    [
        ("BFS", [0, 1, 1, 2, math.inf]),
        ("SSSP", [0, 2, 3, 6, math.inf]),  # 0-1-2-3
        ("SSWP", [math.inf, 2, 5, 3, 0]),  # widest: 0-2 (5), 0-2-3 (3)
        ("SSNP", [0, 2, 2, 3, math.inf]),  # narrowest: 0-1-2 (2), 0-1-2-3 (3)
        ("Viterbi", [1, 0.5, 0.5, 0.5 / 3, 0]),  # 0-1-2 (1/2 * 1), then / 3
    ],
)
def test_fixpoint_per_algorithm(algo, values):
    got = reference.solve(edges(EDGES), algo, [0])[0]
    np.testing.assert_array_equal(got, np.array(values, dtype=np.float64))
    reached, checksum = reference.summarize(algo, got)
    assert reached == 4
    assert checksum == sum(v for v in values if math.isfinite(v))


def test_slide_with_deletions():
    # window of two snapshots: T0, T1 = T0 - (1,2); one delta then adds
    # (3,4) and deletes (0,2), so epoch 1 serves (T1, T2)
    t0 = edges(EDGES)
    t1 = edges([e for e in EDGES if e[:2] != (1, 2)])
    delta = (([3], [4], [1.0]), ([0], [2]))
    timeline = reference.Timeline([t0, t1], [delta])
    assert set(timeline.snapshot(2).keys.tolist()) == {
        0 * N + 1, 2 * N + 3, 1 * N + 3, 4 * N + 0, 3 * N + 4
    }
    # SSSP from 0: T1 = [0, 2, 5, 8, inf], T2 = [0, 2, inf, 9, 10]
    right = ((4, 15.0), (4, 21.0))
    stale = ((4, 15.0), (3, 11.0))  # T2 without the delta applied
    mismatches = reference.check_answers(
        timeline, {(1, "SSSP", 0): {right: 1, stale: 1}}
    )
    assert mismatches == [((1, "SSSP", 0), stale, right)]


def test_wrong_warm_up_answer_fails_the_run():
    # warm-up answers are merged into the measured ones before the check;
    # a wrong one must count as a failed query even if no measured query
    # repeated it.  SSSP from 0 on one snapshot: [0, 2, 3, 6, inf]
    right, wrong = ((4, 11.0),), ((4, 12.0),)
    answers = run.merge_answers(
        {(0, "SSSP", 0): {wrong: 1}}, {(0, "SSSP", 0): {right: 3}, (0, "BFS", 0): {((4, 4.0),): 2}}
    )
    assert answers[(0, "SSSP", 0)] == {wrong: 1, right: 3}
    mismatches = reference.check_answers(reference.Timeline([edges(EDGES)], []), answers)
    assert [(key, got) for key, got, _ in mismatches] == [((0, "SSSP", 0), wrong)]
    assert run.wrong_queries(answers, mismatches) == 1


def test_invalid_delta_is_refused():
    timeline = reference.Timeline([edges(EDGES)], [(([], [], []), ([2], [1]))])
    with pytest.raises(ValueError, match="does not have"):
        timeline.snapshot(1)
    timeline = reference.Timeline([edges(EDGES)], [(([0], [1], [1.0]), ([], []))])
    with pytest.raises(ValueError, match="already has"):
        timeline.snapshot(1)
