#!/usr/bin/env python3
"""Alternating parent/change pairs of benchmark runs, the claim rule, the
no-regression rule and the trajectory of runs.

Runs ``bench/run.py --workload W --seed S --seconds 15 --trace 0`` in two
checkouts, N times each, alternating which side goes first, and prints every
run and a summary per end-to-end metric. Compare two plain copies, made with
``git archive``; when exactly one checkout holds ``.git`` a warning is
printed before the runs and again after the summary, since the same tree
has read perm_test peak_rss_mb about 1% higher from a git working tree:

    python3 tools/bench_pairs.py --parent ../parent --change ../change \\
        --workload perm_test --pairs 10 --seed 1

A pair is won when the change's value is better than the parent's and tied
when they are equal. A claimed gain holds when the change wins at least nine
of ten pairs (90%) and its median beats the parent's by more than the
parent's interquartile spread.

Each metric also gets a verdict from its ``bound``, a share of the median:
"regressed" when the change's median is worse than the parent's by more than
the bound; else "unresolved" when either side's interquartile spread exceeds
the bound times that side's median, unless every change run beats every
parent run; else "ok". Each side's failed/attempted operations are printed;
a run that reports ``correct: false`` counts at least one failed operation.
The exit status is 1 when a run gave no result, a metric regressed, or the
change failed a larger share than the parent. The metrics, their directions
and bounds come from the change checkout's ``BENCHMARK.json``.

Every run, a failed one too, is appended to ``BENCH_<workload>.json`` at the
change checkout's root: a JSON list with one entry per run, one per line,
holding every JSON record the run printed, its side, its pair index, its
order within the pair (0 or 1), the seed and both checkouts' source hashes
(:func:`source_hash`), which tell apart two working trees as well as two
commits. The file is written whole through a temporary file and a rename,
so an interrupted write leaves the previous trajectory. Standard library
only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SECONDS = 15
WIN_SHARE = 0.9


def parse_records(stdout: str) -> list:
    """Every JSON record a benchmark run printed, in order; other lines are
    left out."""
    records = []
    for line in stdout.splitlines():
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError:
            pass
    return records


def parse_result(stdout: str):
    """The result record, the last line a benchmark run prints, or None."""
    lines = stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None
    return record if isinstance(record, dict) and "metrics" in record else None


def source_hash(checkout: Path) -> str:
    """The code a checkout runs: ``sha256:`` and a hash over the paths and
    bytes of the files under src/ and bench/, compiled caches left out."""
    digest = hashlib.sha256()
    for path in sorted(p for top in ("src", "bench") for p in (checkout / top).rglob("*")
                       if p.is_file() and "__pycache__" not in p.parts):
        digest.update(path.relative_to(checkout).as_posix().encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return "sha256:" + digest.hexdigest()


def append_trajectory(path: Path, entry: dict) -> None:
    """Append `entry` to the JSON list in `path` (a new list when there is
    no file), writing the file whole through a temporary file in its
    directory and a rename. A write that fails leaves the old file as it
    was and no temporary file behind."""
    trajectory = json.loads(path.read_text()) if path.exists() else []
    fd, tmp = tempfile.mkstemp(prefix=path.name + ".", suffix=".tmp", dir=path.parent)
    try:
        with os.fdopen(fd, "w") as f:  # one run per line
            f.write("[\n" + ",\n".join(map(json.dumps, trajectory + [entry])) + "\n]\n")
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def quartiles(values: list) -> tuple:
    """(q1, median, q3) of the values, inclusive quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def verdict(parent: list, change: list, sign: int, bound: float) -> str:
    """The no-regression verdict on one metric's runs: "regressed",
    "unresolved" or "ok". `sign` is 1 when lower is better, -1 when higher
    is; `bound` is a share of the median."""
    pq, cq = quartiles(parent), quartiles(change)
    if sign * (cq[1] - pq[1]) > bound * abs(pq[1]):
        return "regressed"
    every_run_better = max(sign * c for c in change) < min(sign * p for p in parent)
    if not every_run_better and any(q[2] - q[0] > bound * abs(q[1]) for q in (pq, cq)):
        return "unresolved"
    return "ok"


def summarize(pairs: list, metrics: dict) -> list:
    """One row per metric: parent and change quartiles, wins, ties, whether
    the claim rule holds and the no-regression verdict. `pairs` holds
    (parent, change) result records; `metrics` maps each metric name to
    ("lower" or "higher", the better direction, and its bound). Pairs where
    either run lacks the metric are left out."""
    rows = []
    for name, (better, bound) in metrics.items():
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
                     "wins": wins, "ties": ties, "claim_holds": holds,
                     "verdict": verdict(parent, change, sign, bound)})
    return rows


def failed_share(records: list) -> tuple:
    """(failed, attempted) operations over one side's result records. A run
    that reports ``correct: false`` counts at least one failed operation,
    whatever its ``failed`` field reads."""
    return (sum(max(r["failed"], int(not r["correct"])) for r in records),
            sum(r["attempted"] for r in records))


def regression_found(rows: list, parent: tuple, change: tuple) -> bool:
    """Whether a metric regressed, or the change failed a larger share of its
    operations than the parent; `parent` and `change` are
    :func:`failed_share` pairs."""
    return (any(r["verdict"] == "regressed" for r in rows)
            or change[0] * parent[1] > parent[0] * change[1])


def format_summary(rows: list) -> str:
    out = [f"{'metric':<14}{'parent q1 / median / q3':>34}{'change q1 / median / q3':>34}"
           f"{'wins':>8}{'ties':>6}  {'claim':<15}verdict"]
    for r in rows:
        parent = " / ".join(f"{v:.4f}" for v in r["parent"])
        change = " / ".join(f"{v:.4f}" for v in r["change"])
        out.append(f"{r['metric']:<14}{parent:>34}{change:>34}"
                   f"{r['wins']:>5}/{r['pairs']:<2}{r['ties']:>6}  "
                   f"{'holds' if r['claim_holds'] else 'does not hold':<15}{r['verdict']}")
    return "\n".join(out)


def git_warning(parent: Path, change: Path) -> str:
    """A warning when exactly one of the two checkouts holds ``.git``, else
    the empty string."""
    with_git = [side for side, checkout in (("parent", parent), ("change", change))
                if (checkout / ".git").exists()]
    if len(with_git) != 1:
        return ""
    return (f"warning: only the {with_git[0]} checkout holds .git; the same tree has read "
            "perm_test peak_rss_mb about 1% higher from a git working tree than from a "
            "plain copy, so compare two plain copies (git archive)")


def run_once(checkout: Path, workload: str, seed: int) -> tuple:
    """One benchmark run in `checkout`: its result record, or None, and
    every JSON record it printed."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"],
                          cwd=checkout, env=env, capture_output=True, text=True)
    record = parse_result(proc.stdout)
    if record is None:
        print(f"  run in {checkout} gave no result (exit {proc.returncode}):\n"
              f"{proc.stderr[-2000:]}", file=sys.stderr)
    return record, parse_records(proc.stdout)


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
    metrics = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    sources = {side: source_hash(getattr(args, side)) for side in ("parent", "change")}
    trajectory = args.change / f"BENCH_{args.workload}.json"
    warning = git_warning(args.parent, args.change)
    if warning:
        print(warning, flush=True)
    pairs = []
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        got = {}
        for position, side in enumerate(order):
            got[side], records = run_once(getattr(args, side), args.workload, args.seed)
            print(describe(side, i, got[side]), flush=True)
            append_trajectory(trajectory, {
                "workload": args.workload, "side": side, "pair": i, "order": position,
                "seed": args.seed, "sources": sources, "records": records})
        if got["parent"] is not None and got["change"] is not None:
            pairs.append((got["parent"], got["change"]))
    print(f"\n{args.workload}, seed {args.seed}: {len(pairs)} complete pairs")
    rows = summarize(pairs, metrics)
    print(format_summary(rows))
    shares = [failed_share([pair[i] for pair in pairs]) for i in (0, 1)]
    for side, (failed, attempted) in zip(("parent", "change"), shares):
        print(f"{side} failed/attempted: {failed}/{attempted}")
    if warning:
        print(warning)
    return 0 if len(pairs) == args.pairs and not regression_found(rows, *shares) else 1


if __name__ == "__main__":
    sys.exit(main())
