#!/usr/bin/env python3
"""Alternating parent/change pairs of benchmark runs, and the claim rule.

Runs ``bench/run.py --workload W --seed S --seconds 15 --trace 0`` in two
checkouts, N times each, alternating which side goes first, and prints every
run and a summary per end-to-end metric:

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --workload perm_test --pairs 10 --seed 1

A pair is won when the change's value is better than the parent's and tied
when they are equal. A claimed gain holds when the change wins at least nine
of ten pairs (90%) and its median beats the parent's by more than the
parent's interquartile spread. The metrics and their directions come from
the change checkout's ``BENCHMARK.json``. Standard library only.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

SECONDS = 15
WIN_SHARE = 0.9


def parse_result(stdout: str):
    """The result record, the last line a benchmark run prints, or None."""
    lines = stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None
    return record if isinstance(record, dict) and "metrics" in record else None


def quartiles(values: list) -> tuple:
    """(q1, median, q3) of the values, inclusive quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(pairs: list, metrics: dict) -> list:
    """One row per metric: parent and change quartiles, wins, ties and
    whether the claim rule holds. `pairs` holds (parent, change) result
    records; `metrics` maps each metric name to "lower" or "higher", the
    better direction. Pairs where either run lacks the metric are left out."""
    rows = []
    for name, better in metrics.items():
        sign = 1 if better == "lower" else -1
        both = [(p["metrics"][name]["value"], c["metrics"][name]["value"]) for p, c in pairs
                if name in p["metrics"] and name in c["metrics"]]
        if not both:
            continue
        parent, change = [p for p, _ in both], [c for _, c in both]
        wins = sum(sign * (p - c) > 0 for p, c in both)
        ties = sum(p == c for p, c in both)
        pq, cq = quartiles(parent), quartiles(change)
        holds = (wins >= math.ceil(WIN_SHARE * len(both))
                 and sign * (pq[1] - cq[1]) > pq[2] - pq[0])
        rows.append({"metric": name, "parent": pq, "change": cq, "pairs": len(both),
                     "wins": wins, "ties": ties, "claim_holds": holds})
    return rows


def format_summary(rows: list) -> str:
    out = [f"{'metric':<14}{'parent q1 / median / q3':>34}{'change q1 / median / q3':>34}"
           f"{'wins':>8}{'ties':>6}  claim"]
    for r in rows:
        parent = " / ".join(f"{v:.4f}" for v in r["parent"])
        change = " / ".join(f"{v:.4f}" for v in r["change"])
        out.append(f"{r['metric']:<14}{parent:>34}{change:>34}"
                   f"{r['wins']:>5}/{r['pairs']:<2}{r['ties']:>6}  "
                   f"{'holds' if r['claim_holds'] else 'does not hold'}")
    return "\n".join(out)


def run_once(checkout: Path, workload: str, seed: int):
    """One benchmark run in `checkout`; its result record, or None."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"],
                          cwd=checkout, env=env, capture_output=True, text=True)
    record = parse_result(proc.stdout)
    if record is None:
        print(f"  run in {checkout} gave no result (exit {proc.returncode}):\n"
              f"{proc.stderr[-2000:]}", file=sys.stderr)
    return record


def describe(side: str, index: int, record) -> str:
    if record is None:
        return f"pair {index + 1} {side}: no result"
    values = " ".join(f"{name}={m['value']:.4f}" for name, m in record["metrics"].items())
    return (f"pair {index + 1} {side}: {values} correct={record['correct']} "
            f"failed/attempted={record['failed']}/{record['attempted']}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    p.add_argument("--change", type=Path, required=True, help="checkout of the change")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m["better"] for m in spec["end_to_end"]}
    pairs = []
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        got = {}
        for side in order:
            got[side] = run_once(getattr(args, side), args.workload, args.seed)
            print(describe(side, i, got[side]), flush=True)
        if got["parent"] is not None and got["change"] is not None:
            pairs.append((got["parent"], got["change"]))
    print(f"\n{args.workload}, seed {args.seed}: {len(pairs)} complete pairs")
    print(format_summary(summarize(pairs, metrics)))
    return 0 if len(pairs) == args.pairs else 1


if __name__ == "__main__":
    sys.exit(main())
