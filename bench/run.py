#!/usr/bin/env python3
"""xiboost benchmark: four closed-loop workloads, timed end to end, and a
separate traced run that times each module from outside.

Run from the repository root:

    python3 bench/run.py --workload perm_test --seed 1 --seconds 15 --trace 0

Workloads are ``cli_coef``, ``perm_test``, ``power_study`` and
``consistency``; ``workloads.py`` says why each was chosen. The run measures
its workload for ``--seconds`` seconds (at least one operation), checks every
output, and prints JSON records (machine, settings, outputs, failures)
followed, as its last line, by the result::

    {"correct": true, "attempted": 41, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, the same on every
workload:

- ``setup_s``: median wall time for a fresh interpreter to import
  ``xiboost.cli``, over several cold starts made after the workload ran.
- ``op_s``: wall time of the fastest operation of the run (best of N). An
  operation is a CLI ``coef`` call (cli_coef), one cycle of the five
  permutation tests (perm_test) or one study on a two-worker pool
  (power_study, consistency). Interference from other tenants of the host
  only adds time and comes in bursts, so the fastest operation varies less
  from run to run than the median; the median, the tail and the count are
  printed in the ``timings`` record.
- ``peak_rss_mb``: peak resident memory of the processes doing the work
  (the CLI processes, the benchmark process, or it and its pool workers).

With ``--trace 1`` the run first times a third of ``--seconds`` untraced,
then traces operations for the rest and prints the per-layer metrics, named
``<module>.<metric>``. Metrics ending in ``.<kind>`` are per test of that
kind; the other times are per operation; counts are computed from the
configuration, not measured. A module or kind that a workload never calls
reads 0. ``trace.overhead_frac`` compares the traced operations with the
untraced ones. Spans are written to ``.bench_out/`` at the end.

``--smoke`` runs the same code at tiny sizes. Outputs of the default seed are
checked against ``references.json``; ``fail_frac`` = failed / attempted.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
DEFAULT_SEED = 1
UNTRACED_SHARE = 1 / 3

END_TO_END = {"setup_s": "s", "op_s": "s", "peak_rss_mb": "MB"}


def per_layer_units(kinds) -> dict:
    """Name -> unit of every per-layer metric, in output order."""
    units = {
        "cli.process_s": "s",
        "dataio.load_s": "s",
        "dataio.load_MB_per_s": "MB/s",
        "ranks.order_s": "s",
        "power.sample_s": "s",
        "coefficients.scalar_s": "s",
    }
    units.update({f"coefficients.kernel_s.{k}": "s" for k in kinds})
    units.update({f"coefficients.pair_mins.{k}": "count" for k in kinds if k != "hoeffding_d"})
    units.update({f"coefficients.bytes_computed.{k}": "B" for k in kinds})
    units["coefficients.hoeffding_cmps"] = "count"
    units.update({f"inference.test_s.{k}": "s" for k in kinds + ("pearson",)})
    units.update({f"inference.self_s.{k}": "s" for k in kinds})
    units.update({
        "simulation.self_s": "s",
        "simulation.scaling_eff": "ratio",
        "trace.op_s": "s",
        "trace.overhead_frac": "ratio",
    })
    return units


def emit(record: dict) -> None:
    print(json.dumps(record), flush=True)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["cli_coef", "perm_test", "power_study", "consistency"])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, for a quick check")
    return p.parse_args(argv)


def read_text(path: str):
    try:
        return Path(path).read_text()
    except OSError:
        return None


def loadavg():
    text = read_text("/proc/loadavg")
    return text.split()[:3] if text else None


def machine() -> dict:
    import numpy
    import scipy

    import xiboost

    cpu = None
    for line in (read_text("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (read_text(index / f) for f in ("level", "type", "size"))
        if level and size:
            caches[f"L{level.strip()} {(kind or '').strip()}".strip()] = size.strip()
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((SRC / "xiboost").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"record": "machine", "cpu": cpu, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "caches": caches,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "xiboost": xiboost.__version__,
            "commit": commit, "source_sha256": source.hexdigest()}


def cold_starts(count: int, env: dict) -> list[float]:
    """Wall time of fresh interpreters importing xiboost.cli."""
    times = []
    for _ in range(count):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import xiboost.cli"], env=env, cwd=ROOT,
                       check=True, stdout=subprocess.DEVNULL, timeout=120)
        times.append(time.perf_counter() - t0)
    return times


def tail(values: list[float]) -> dict:
    """Median and the highest percentile with at least ten samples beyond it."""
    xs = sorted(values)
    out = {"n": len(xs), "median": statistics.median(xs) if xs else None}
    if len(xs) >= 11:
        out.update(percentile=100 * (len(xs) - 10) / len(xs), value=xs[-11])
    return out


def loop(fn, seconds: float, checks, what: str) -> list[float]:
    """Closed loop: call fn until `seconds` have passed (at least once);
    returns the seconds of each operation whose output checked out."""
    walls = []
    deadline = time.perf_counter() + seconds
    while True:
        try:
            seconds_taken = fn(checks)
        except Exception as exc:  # a failed operation is counted, and the loop goes on
            traceback.print_exc()
            checks.fail(what, exc)
        else:
            if seconds_taken is not None:
                walls.append(seconds_taken)
        if time.perf_counter() >= deadline:
            return walls


def timed_run(w, args, sizes, checks, env) -> dict:
    walls = loop(w.op, args.seconds, checks, f"{w.name} op")
    peak_kb = w.peak_rss_kb()
    setup = cold_starts(sizes.cold_starts, env)
    emit({"record": "timings", "op_s": tail(walls), "setup_s": setup,
          **{k: tail(v) for k, v in w.per_kind_s.items()}})
    if not walls:
        return {}
    return {"setup_s": statistics.median(setup), "op_s": min(walls),
            "peak_rss_mb": peak_kb / 1024}


def traced_run(w, args, checks, units, kinds, workers) -> dict:
    from tracing import Tracer

    tr = Tracer()

    def traced_op(checks):
        tr.begin_op()
        w.traced_op(checks, tr)
        return tr.op_wall(tr.op)

    untraced = loop(w.op, args.seconds * UNTRACED_SHARE, checks, f"{w.name} op")
    traced = loop(traced_op, args.seconds * (1 - UNTRACED_SHARE), checks, f"{w.name} traced op")
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tr.write(out_dir / f"trace-{w.name}-seed{args.seed}.jsonl")
    if not (untraced and traced):
        return {}
    return layer_metrics(tr, untraced, traced, w.counters, units, kinds, workers)


def layer_metrics(tr, untraced, traced, counters, units, kinds, workers) -> dict:
    ops = tr.op + 1
    own = tr.self_times()
    by_name = defaultdict(float)
    by_kind = defaultdict(lambda: [0.0, 0.0, 0])  # seconds, self seconds, spans
    for s, o in zip(tr.spans, own):
        by_name[s.name] += o
        acc = by_kind[(s.name, s.kind)]
        acc[0] += s.seconds
        acc[1] += o
        acc[2] += 1

    def mean(name, kind, field=0):
        acc = by_kind.get((name, kind))
        return acc[field] / acc[2] if acc else 0.0

    load_s = by_kind.get(("dataio.load", None), [0.0])[0]
    serial = tr.notes.get("simulation.serial_s")
    studies = [s.seconds for s in tr.spans if s.name == "simulation.study"]
    m = {
        "cli.process_s": by_name["cli.call"] / ops,
        "dataio.load_s": by_name["dataio.load"] / ops,
        "dataio.load_MB_per_s": sum(tr.notes.get("dataio.MB", [])) / load_s if load_s else 0.0,
        "ranks.order_s": by_name["ranks.order"] / ops,
        "power.sample_s": by_name["power.sample"] / ops,
        "coefficients.scalar_s": by_name["coefficients.scalar"] / ops,
        "simulation.self_s": by_name["simulation.study"] / ops,
        "simulation.scaling_eff": (
            statistics.median(serial) / (workers * statistics.median(studies))
            if serial and studies else 0.0),
        "trace.op_s": statistics.median(traced),
        "trace.overhead_frac": statistics.median(traced) / statistics.median(untraced) - 1,
    }
    for k in kinds + ("pearson",):
        m[f"coefficients.kernel_s.{k}"] = mean("coefficients.kernel", k)
        m[f"inference.test_s.{k}"] = mean("inference.test", k)
        m[f"inference.self_s.{k}"] = mean("inference.test", k, field=1)
    for name in units:
        if name not in m:
            m[name] = counters.get(name, 0)
    # every layer's self time plus the caller's remainder adds up to the
    # traced wall time (times the pool size, for a study)
    top = [s for s in tr.spans if s.parent is None]
    emit({"record": "accounting", "ops": ops,
          "worker_wall_s": sum(s.seconds * s.workers for s in top) / ops,
          "self_s": {name: by_name[name] / ops for name in sorted({s.name for s in tr.spans})},
          "sum_self_s": sum(by_name.values()) / ops,
          "remainder": sorted({s.name for s in top}),
          "untraced_op_s": statistics.median(untraced), "traced_op_s": statistics.median(traced)})
    return {name: m[name] for name in units}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "xiboost" / "__init__.py").is_file():
        print(f"run.py: no xiboost package at {SRC / 'xiboost'}", file=sys.stderr)
        return 2
    for path in (str(SRC), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import workloads as wl

    if Path(wl.xiboost.__file__).resolve().parent != SRC / "xiboost":
        print(f"run.py: imported xiboost from {wl.xiboost.__file__}, not {SRC}", file=sys.stderr)
        return 2
    sizes = wl.SMOKE if args.smoke else wl.FULL
    refs = None
    if args.seed == DEFAULT_SEED:
        stored = json.loads((HERE / "references.json").read_text())
        refs = stored["smoke" if args.smoke else "full"][args.workload]
    speed = wl.ReferenceTask()
    load_start, speed_start = loadavg(), speed()
    emit(machine())
    (ROOT / ".bench_tmp").mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".bench_tmp"))
    checks = wl.Checks()
    try:
        w = wl.WORKLOADS[args.workload](args.seed, sizes, tmp, refs)
        emit({"record": "settings", "workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
              "generator": w.settings()})
        w.prepare(checks)
        if args.trace:
            units = per_layer_units(wl.KINDS)
            metrics = traced_run(w, args, checks, units, wl.KINDS, wl.WORKERS)
        else:
            units = END_TO_END
            metrics = timed_run(w, args, sizes, checks, wl.program_env())
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    emit({"record": "outputs", **w.outputs})
    emit({"record": "failures", "fail_frac": checks.failed / max(checks.attempted, 1),
          "messages": checks.messages[:20]})
    emit({"record": "host", "loadavg": [load_start, loadavg()],
          "reference_task_s": [speed_start, speed()]})
    if not metrics:
        print("run.py: no operation completed correctly; no metrics to report", file=sys.stderr)
        return 1
    emit({"correct": checks.failed == 0, "attempted": checks.attempted, "failed": checks.failed,
          "metrics": {name: {"value": metrics[name], "unit": unit}
                      for name, unit in units.items()}})
    return 0


if __name__ == "__main__":
    sys.exit(main())
