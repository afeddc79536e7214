#!/usr/bin/env python3
"""Alternating rounds of the README's ``coef`` command on data files, run
from two checkouts, with the wall time and peak memory of each run.

Each round runs ``python -m xiboost coef --method xi-nm -M 20 FILE`` once
per file and checkout, with the checkout's ``src`` on PYTHONPATH, and
alternates which checkout goes first from one round to the next:

    python3 tools/cli_rounds.py --parent ../parent --change . --rounds 7 \\
        clean.csv trailing.csv bad_cell.csv

Every command is started by ``os.posix_spawn`` and reaped by ``os.wait4``,
whose resource usage gives the run's peak RSS. A spawned child reports at
least the high-water RSS of the process that spawned it, so this tool
imports only the standard library and stays far below the command's own
peak. The wall time runs from the spawn to the reap, start-up included. The
command's output is discarded. Prints every run, then, per file and
checkout, the median wall time, the median and range of the peak RSS and
the exit codes seen. Standard library only.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import time
from pathlib import Path

COMMAND = ["-m", "xiboost", "coef", "--method", "xi-nm", "-M", "20"]
SIDES = ("parent", "change")


def run_once(checkout: Path, data: Path) -> tuple:
    """(wall seconds, peak RSS in MB, exit code) of one ``coef`` run."""
    env = dict(os.environ, PYTHONPATH=str(checkout.resolve() / "src"))
    quiet = [(os.POSIX_SPAWN_OPEN, fd, os.devnull, os.O_WRONLY, 0) for fd in (1, 2)]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *COMMAND, str(data)], env,
                         file_actions=quiet)
    _, status, usage = os.wait4(pid, 0)
    seconds = time.perf_counter() - start
    return seconds, usage.ru_maxrss / 1024, os.waitstatus_to_exitcode(status)


def summarize(runs: dict) -> list:
    """One row per (file, side) of `runs`, which maps them to lists of
    run_once results."""
    rows = []
    for (data, side), results in runs.items():
        seconds, peaks, codes = zip(*results)
        rows.append({"file": data, "side": side, "runs": len(results),
                     "median_s": statistics.median(seconds),
                     "median_mb": statistics.median(peaks), "min_mb": min(peaks),
                     "max_mb": max(peaks), "exit_codes": sorted(set(codes))})
    return rows


def format_summary(rows: list) -> str:
    lines = [f"{'file':<24} {'side':<7} {'runs':>4} {'median s':>9} "
             f"{'peak MB (min-max)':>24}  exit codes"]
    for r in rows:
        peak = f"{r['median_mb']:.1f} ({r['min_mb']:.1f}-{r['max_mb']:.1f})"
        lines.append(f"{Path(r['file']).name:<24} {r['side']:<7} {r['runs']:>4} "
                     f"{r['median_s']:>9.3f} {peak:>24}  "
                     f"{','.join(map(str, r['exit_codes']))}")
    return "\n".join(lines)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    p.add_argument("--change", type=Path, required=True, help="checkout of the change")
    p.add_argument("--rounds", type=int, default=5)
    p.add_argument("files", type=Path, nargs="+", help="data files for coef")
    args = p.parse_args(argv)
    runs: dict = {(str(data), side): [] for data in args.files for side in SIDES}
    for i in range(args.rounds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for data in args.files:
            for side in order:
                result = run_once(getattr(args, side), data)
                runs[str(data), side].append(result)
                print(f"round {i + 1} {data.name} {side}: {result[0]:.3f} s "
                      f"{result[1]:.1f} MB exit {result[2]}", flush=True)
    print()
    print(format_summary(summarize(runs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
