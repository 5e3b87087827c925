#!/usr/bin/env python3
"""Steadiness check for the serving benchmark.

    python3 perfbench/steady.py --runs 10 [--workloads live-ingest,slide-ingest] [--trace]

Makes two sets, A and B, of ``--runs`` untraced runs of every workload,
each run with its own seed (set A seeds ``--first-seed`` onwards, set B
the ``--runs`` seeds after those).  Rounds interleave the sets and
alternate the order (A forward then B reversed, then B forward and A
reversed, ...) so a slow phase of the host does not land on one set or
one workload.  For every end-to-end metric it prints each set's median
and spread — the distance between the quartiles of
``statistics.quantiles(values, n=4)`` as a share of the median — and how
much worse set B's median is than set A's, as a share of A's, next to the
metric's bound in BENCHMARK.json.  A spread above a third of the bound,
or a median shift above the bound, is marked.  The share of failed
operations of the two sets is printed too.

With ``--trace`` every round also makes one traced run per workload, and
the tracing overhead is printed: the traced runs' end-to-end medians
against the untraced ones of both sets.  The exit code is 1 if any run
failed, a median shift exceeds its bound, or the failed shares differ.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if trace:
        traced = [ln for ln in lines if ln.startswith("traced end-to-end: ")]
        result["traced"] = json.loads(traced[0].split(": ", 1)[1])
    figures = ", ".join(
        f"{k} {m['value']:.4g}" for k, m in list(result["metrics"].items())[:4]
    )
    print(f"  {workload} seed {seed} trace {trace}: {figures}\n    {lines[0]}", flush=True)
    return result


def spread(values: list[float]) -> tuple[float, float]:
    """``(median, (q3 - q1) / median)``."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else float("inf")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    sets = ("A", "B")
    #: set -> workload -> metric -> values
    values = {s: {n: {} for n in names} for s in sets}
    #: set -> workload -> [attempted, failed]
    ops = {s: {n: [0, 0] for n in names} for s in sets}
    traced: dict[str, dict[str, list[float]]] = {n: {} for n in names}
    failed = False
    for r in range(args.runs):
        first, second = sets if r % 2 == 0 else sets[::-1]
        plan = [(first, n) for n in names] + [(second, n) for n in names[::-1]]
        for set_, name in plan:
            seed = args.first_seed + r + (args.runs if set_ == "B" else 0)
            try:
                result = run_once(spec, name, seed, 0)
                if args.trace and set_ == "A":
                    for k, v in run_once(spec, name, seed, 1)["traced"].items():
                        traced[name].setdefault(k, []).append(v)
            except (RuntimeError, subprocess.TimeoutExpired) as exc:
                print(exc, file=sys.stderr)
                failed = True
                continue
            failed |= result["failed"] > 0 or not result["correct"]
            ops[set_][name][0] += result["attempted"]
            ops[set_][name][1] += result["failed"]
            for k, m in result["metrics"].items():
                values[set_][name].setdefault(k, []).append(m["value"])

    metrics = {m["name"]: m for m in spec["end_to_end"]}
    print(f"\n{'workload':<14}{'metric':<20}{'median A':>11}{'spread A':>9}"
          f"{'median B':>11}{'spread B':>9}{'B worse':>9}{'bound':>7}")
    for name in names:
        for metric, a in values["A"][name].items():
            b = values["B"][name].get(metric, [])
            if len(a) < 2 or len(b) < 2:
                continue
            (med_a, sp_a), (med_b, sp_b) = spread(a), spread(b)
            bound = metrics[metric]["bound"]
            sign = 1 if metrics[metric]["better"] == "lower" else -1
            worse = sign * (med_b - med_a) / med_a if med_a else float("inf")
            marks = []
            if max(sp_a, sp_b) > bound / 3 and metric != "setup_s":
                marks.append("spread > bound/3")
            if worse > bound:
                marks.append("shift > bound")
                failed = True
            print(f"{name:<14}{metric:<20}{med_a:>11.4g}{sp_a:>9.3f}{med_b:>11.4g}"
                  f"{sp_b:>9.3f}{worse:>9.3f}{bound:>7.2f}  {', '.join(marks)}")
    print("\nfailed share (failed / attempted)")
    for name in names:
        shares = [f / a if a else 0.0 for a, f in (ops[s][name] for s in sets)]
        failed |= shares[0] != shares[1]
        print(f"{name:<14}" + "  ".join(f"{s} {x:.6f}" for s, x in zip(sets, shares)))
    if args.trace:
        print("\ntracing overhead (traced median / untraced median of both sets)")
        for name in names:
            ratios = {}
            for k, v in traced[name].items():
                untraced = values["A"][name].get(k, []) + values["B"][name].get(k, [])
                if untraced and statistics.median(untraced):
                    ratios[k] = statistics.median(v) / statistics.median(untraced)
            print(f"{name:<14}" + "  ".join(f"{k} {r:.3f}" for k, r in ratios.items()))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
