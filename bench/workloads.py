"""The benchmark's four workloads.

Each workload is a closed loop with one caller, the benchmark process: the
next operation starts only when the previous one has returned. A workload
makes its inputs from the benchmark seed, so the program receives only the
generated data (or a master seed derived from it). It checks every output,
and for the traced run it replays the layer functions hidden inside an
operation on the same inputs (see ``tracing.py``).

Why these four, and what each should and should not move:

- ``cli_coef``: the README's ``coef --method xi-nm -M 20`` example on a
  generated 1e6-row CSV, in a fresh process per call. Interpreter start-up,
  imports and CSV ingest dominate; it is the only workload where they do, so
  kernel work should leave it unmoved.
- ``perm_test``: the acceptance suite's permutation tests at n=1000, in a
  fixed cycle of five kinds. Permutation draws and the O(nM) kernels dominate;
  ordering is under 1%. M=600 sits in the far-distance regime M > (n-1)/2 and
  Hoeffding's D is the O(n^2) path.
- ``power_study``: a desk-scale power study (acceptance criteria 05-07 at
  n=1000, B=999) on a two-worker pool, one task per replicate. Its pearson
  cells are almost pure pool overhead.
- ``consistency``: the consistency study of acceptance criterion 11 (n=5000,
  M=20) on a two-worker pool: many cheap replicates where sampling and rank
  ordering dominate, so batch-kernel and draw work should leave it unmoved.
"""

from __future__ import annotations

import hashlib
import math
import os
import re
import resource
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import xiboost
from xiboost import (
    Method,
    PermutationTestConfig,
    PowerStudyConfig,
    Sample,
    compute_ranks,
    consistency_study,
    dataio,
    derive_rng,
    derive_seed,
    gaussian_population_xi,
    hoeffding_d,
    pearson_test,
    permutation_test,
    power_study,
    sample_rotation,
    sorted_y_ranks,
    symmetric_nn_sum,
    xi_nm,
    xi_nm_reflected,
)
from xiboost.coefficients import (
    batch_min_rank_sums,
    batch_symmetric_min_sums,
    hoeffding_numerator,
)

SRC = Path(xiboost.__file__).resolve().parent.parent

# The package has no __main__ and the console script may not be installed,
# so the CLI is started through its entry function, as the tests do.
CLI_CODE = "from xiboost.cli import main; main()"
COEF_LINE = re.compile(r"xi-nm = (\S+) \(n=(\d+), M=(\d+)\)\n")

WORKERS = 2  # matches the two cores the studies were sized for
ALPHA = 0.05
COEF_M = 20
CSV_RHO = 0.3
PERM_RHO = 0.1
POWER_METHODS = ("xi-pm", "pearson")
POWER_M = 20
POWER_RHO0 = (0.0, 2.0)
CONSISTENCY_RHO = (0.0, 0.2, 0.4, 0.6, 0.8)
CONSISTENCY_M = 20

# (label, method, M) in the order of the perm_test cycle
PERM_KINDS = (
    ("xi_pm_M20", Method.XI_PM, 20),
    ("xi_pm_M200", Method.XI_PM, 200),
    ("xi_pm_M600", Method.XI_PM, 600),
    ("symmetric_nn_M20", Method.SYMMETRIC_NN, 20),
    ("hoeffding_d", Method.HOEFFDING_D, None),
)
KINDS = tuple(label for label, _, _ in PERM_KINDS)

# Computed byte counts, not measured traffic: every operand here fits in
# cache, so no bandwidth claim can rest on them.
BYTES_PER_PAIR_MIN = 12  # two int32 operands read, one int32 minimum written
BYTES_PER_CMP = 38  # two int64 comparisons (32 B read, 2 bools written),
#                     their AND (2 read, 1 written) and the row sum (1 read)


@dataclass(frozen=True)
class Sizes:
    cold_starts: int
    csv_rows: int
    perm_n: int
    perm_B: int
    hoeffding_B: int
    power_n: int
    power_replicates: int
    power_B: int
    consistency_n: int
    consistency_replicates: int


FULL = Sizes(cold_starts=3, csv_rows=1_000_000, perm_n=1000, perm_B=999, hoeffding_B=199,
             power_n=1000, power_replicates=50, power_B=999,
             consistency_n=5000, consistency_replicates=300)
# Tiny sizes that keep every code path and every M of the cycle (n=700 keeps
# M=600 in the far-distance regime).
SMOKE = Sizes(cold_starts=1, csv_rows=2000, perm_n=700, perm_B=19, hoeffding_B=9,
              power_n=200, power_replicates=4, power_B=19,
              consistency_n=500, consistency_replicates=10)


class ReferenceTask:
    """A fixed mix of Python float parsing and numpy sorting, permuting and
    elementwise work, owned by the benchmark and independent of xiboost.

    The speed of a shared host can drift by tens of percent within a minute,
    for Python and numpy code alike. Timing this task at the start and end of
    a run, beside the load average, shows how fast the host ran.
    """

    def __init__(self):
        rng = np.random.default_rng(12345)
        self.tokens = [repr(v) for v in rng.standard_normal(20_000).tolist()]
        self.values = rng.standard_normal(50_000)
        self.rows = np.tile(np.arange(1, 1001, dtype=np.int32), (100, 1))

    def once(self) -> float:
        t0 = time.perf_counter()
        [float(token) for token in self.tokens]
        np.argsort(self.values, kind="stable")
        np.random.default_rng(0).permuted(self.rows, axis=1, out=self.rows)
        for m in (1, 2, 4, 8, 16, 32):
            np.minimum(self.rows[:, :-m], self.rows[:, m:]).sum(axis=1, dtype=np.int64)
        return time.perf_counter() - t0

    def __call__(self) -> float:
        """Median seconds of three runs."""
        return sorted(self.once() for _ in range(3))[1]


class Checks:
    """Counts checked operations and those that raised or gave wrong output."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def verify(self, what: str, errors: list[str]) -> bool:
        self.attempted += 1
        if errors:
            self.failed += 1
            self.messages.append(f"{what}: {'; '.join(errors)}")
        return not errors

    def fail(self, what: str, exc: BaseException) -> None:
        self.attempted += 1
        self.failed += 1
        self.messages.append(f"{what}: {exc!r}")


def same(label: str, got, want) -> list[str]:
    return [] if got == want else [f"{label}: got {got!r}, expected {want!r}"]


def pvalue_errors(p: float, B: int) -> list[str]:
    """A permutation p-value must equal (1+k)/(1+B) for an integer 0 <= k <= B."""
    k = round(p * (B + 1)) - 1
    if 0 <= k <= B and (1 + k) / (1 + B) == p:
        return []
    return [f"p-value {p!r} is not (1+k)/(1+{B}) for an integer 0 <= k <= {B}"]


def draw_pair(rng: np.random.Generator, n: int, rho: float) -> tuple[np.ndarray, np.ndarray]:
    """n tie-free pairs: standard normal x and y with correlation rho."""
    while True:
        x = rng.standard_normal(n)
        y = rho * x + math.sqrt(1.0 - rho * rho) * rng.standard_normal(n)
        if np.unique(x).size == n and np.unique(y).size == n:
            return x, y


def write_csv(path: Path, x: np.ndarray, y: np.ndarray) -> None:
    """Two-column CSV with a header; repr floats, so every value round-trips."""
    with open(path, "w") as f:
        f.write("x,y\n")
        for lo in range(0, x.size, 100_000):
            f.writelines(f"{a!r},{b!r}\n" for a, b in
                         zip(x[lo:lo + 100_000].tolist(), y[lo:lo + 100_000].tolist()))


def null_rows(rng: np.random.Generator, B: int, n: int) -> np.ndarray:
    """B uniform permutations of 1..n as int32 rows, the shape a test's batch has."""
    rows = np.tile(np.arange(1, n + 1, dtype=np.int32), (B, 1))
    return rng.permuted(rows, axis=1, out=rows)


def replay_kernel(method: Method, M, rows: np.ndarray) -> None:
    """The kernel a permutation test runs on its B null rows."""
    if method is Method.XI_PM:
        batch_min_rank_sums(rows, M)
    elif method is Method.SYMMETRIC_NN:
        batch_symmetric_min_sums(rows, M)
    else:
        identity = np.arange(1, rows.shape[1] + 1, dtype=np.int64)
        for row in rows:
            hoeffding_numerator(identity, row.astype(np.int64))


def kind_counters(label: str, method: Method, M, B: int, n: int) -> dict:
    """Work of one test computed from its configuration; rows = B null rows
    plus the observed sample."""
    rows = B + 1
    if method is Method.HOEFFDING_D:
        return {"coefficients.hoeffding_cmps": rows * n * n,
                f"coefficients.bytes_computed.{label}": rows * n * n * BYTES_PER_CMP}
    # each point meets M neighbours under the symmetric rule; the right-neighbour
    # rule pairs n-m points at distance m
    pairs = n * M if method is Method.SYMMETRIC_NN else n * M - M * (M + 1) // 2
    return {f"coefficients.pair_mins.{label}": rows * pairs,
            f"coefficients.bytes_computed.{label}": rows * pairs * BYTES_PER_PAIR_MIN}


def program_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def report_sha(report) -> str:
    return hashlib.sha256(dataio.report_to_json(report).encode()).hexdigest()


def max_rss_kb(who) -> int:
    return resource.getrusage(who).ru_maxrss


class Workload:
    """One workload: :meth:`prepare` makes the inputs (untimed), :meth:`op`
    runs and checks one timed operation and returns its seconds (None when
    its output was wrong), :meth:`traced_op` runs one operation under spans."""

    name = ""

    def __init__(self, seed: int, sizes: Sizes, tmp: Path, refs):
        self.seed = seed
        self.sizes = sizes
        self.tmp = tmp
        self.refs = refs  # stored outputs for the default seed, or None
        self.outputs: dict = {}  # the checked outputs, in the references' format
        self.counters: dict = {}  # computed per-layer counters
        self.per_kind_s: dict = {}  # seconds of each timed test, by kind

    def settings(self) -> dict:
        raise NotImplementedError

    def prepare(self, checks: Checks) -> None:
        raise NotImplementedError

    def op(self, checks: Checks):
        raise NotImplementedError

    def traced_op(self, checks: Checks, tr) -> None:
        raise NotImplementedError

    def peak_rss_kb(self) -> int:
        """Peak resident memory of the processes that did the work."""
        return max(max_rss_kb(resource.RUSAGE_SELF), max_rss_kb(resource.RUSAGE_CHILDREN))

    def check_reference(self, checks: Checks, key: str) -> None:
        if self.refs is not None:
            checks.verify(f"reference {key}", same(key, self.outputs[key], self.refs[key]))


class CliCoef(Workload):
    name = "cli_coef"

    def settings(self) -> dict:
        return {"rows": self.sizes.csv_rows, "rho": CSV_RHO, "M": COEF_M,
                "data": "numpy default_rng(seed): x ~ N(0,1), y = rho*x + sqrt(1-rho^2)*N(0,1), "
                        "redrawn on a tie",
                "csv": "header x,y; repr floats", "command": ["-c", CLI_CODE, "coef", "--method",
                                                               "xi-nm", "-M", str(COEF_M)]}

    def prepare(self, checks):
        x, y = draw_pair(np.random.default_rng(self.seed), self.sizes.csv_rows, CSV_RHO)
        self.csv = self.tmp / "sample.csv"
        write_csv(self.csv, x, y)
        self.x, self.y = x, y
        self.expected = xi_nm(Sample(x, y), COEF_M).value
        self.outputs["xi_nm"] = self.expected
        self.check_reference(checks, "xi_nm")

    def _call(self) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "-c", CLI_CODE, "coef", "--method", "xi-nm", "-M", str(COEF_M),
             str(self.csv)],
            env=program_env(), capture_output=True, text=True, timeout=150)

    def _check_call(self, checks, proc) -> bool:
        errors = []
        match = COEF_LINE.fullmatch(proc.stdout)
        if proc.returncode != 0:
            errors.append(f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}")
        elif not proc.stdout:
            errors.append("empty stdout")
        elif match is None:
            errors.append(f"unexpected stdout {proc.stdout[:200]!r}")
        else:
            # bit for bit: the printed value must parse to the in-process value
            errors += same("value", float(match[1]).hex(), self.expected.hex())
            errors += same("n", int(match[2]), self.sizes.csv_rows)
            errors += same("M", int(match[3]), COEF_M)
        return checks.verify("coef call", errors)

    def op(self, checks):
        t0 = time.perf_counter()
        proc = self._call()
        seconds = time.perf_counter() - t0
        return seconds if self._check_call(checks, proc) else None

    def traced_op(self, checks, tr):
        with tr.span("cli.call") as call:
            proc = self._call()
        self._check_call(checks, proc)
        with tr.span("dataio.load", parent=call):
            s = dataio.load_sample(self.csv)
        with tr.span("coefficients.scalar", parent=call) as scalar:
            value = xi_nm(s, COEF_M).value
        with tr.span("ranks.order", parent=scalar):
            sorted_y_ranks(s)
        tr.note("dataio.MB", self.csv.stat().st_size / 1e6)
        errors = same("replayed xi_nm", value.hex(), self.expected.hex())
        if not (np.array_equal(s.x, self.x) and np.array_equal(s.y, self.y)):
            errors.append("load_sample did not return the written values")
        checks.verify("replayed load and xi_nm", errors)

    def peak_rss_kb(self) -> int:
        # the CLI processes are the largest children; the benchmark's own
        # generator is not part of the work
        return max_rss_kb(resource.RUSAGE_CHILDREN)


class PermTest(Workload):
    name = "perm_test"

    def settings(self) -> dict:
        s = self.sizes
        return {"n": s.perm_n, "rho": PERM_RHO, "alpha": ALPHA,
                "cycle": [[label, m.value, M, self._B(m)] for label, m, M in PERM_KINDS],
                "data": "numpy default_rng([seed, cycle, position]) per test: a tie-free "
                        "normal pair and a 63-bit test seed"}

    def _B(self, method) -> int:
        return self.sizes.hoeffding_B if method is Method.HOEFFDING_D else self.sizes.perm_B

    def prepare(self, checks):
        self.cycle = 0
        self.per_kind_s = {label: [] for label in KINDS}
        self.rows: dict = {}
        n = self.sizes.perm_n
        for label, method, M in PERM_KINDS:
            self.counters.update(kind_counters(label, method, M, self._B(method), n))

    def _inputs(self, position: int):
        rng = np.random.default_rng([self.seed, self.cycle, position])
        x, y = draw_pair(rng, self.sizes.perm_n, PERM_RHO)
        return Sample(x, y), int(rng.integers(2 ** 63))

    def _check(self, checks, label, method, M, s, result) -> bool:
        if method is Method.XI_PM:
            want = max(xi_nm(s, M).value, xi_nm_reflected(s, M).value)
        elif method is Method.SYMMETRIC_NN:
            want = symmetric_nn_sum(s, M).value
        else:
            want = hoeffding_d(s).value
        B = self._B(method)
        errors = (same("statistic", result.statistic, want) + pvalue_errors(result.p_value, B)
                  + same("n", result.n, s.n) + same("B", result.B, B))
        if self.cycle == 0:
            self.outputs[label] = [result.statistic, result.p_value]
            if self.refs is not None:
                errors += same("reference", self.outputs[label], self.refs[label])
        return checks.verify(f"{label} test", errors)

    def _config(self, method, M, seed) -> PermutationTestConfig:
        return PermutationTestConfig(B=self._B(method), alpha=ALPHA, seed=seed, method=method, M=M)

    def op(self, checks):
        total, ok = 0.0, True
        for position, (label, method, M) in enumerate(PERM_KINDS):
            s, seed = self._inputs(position)
            cfg = self._config(method, M, seed)
            t0 = time.perf_counter()
            result = permutation_test(s, cfg)
            seconds = time.perf_counter() - t0
            total += seconds
            if self._check(checks, label, method, M, s, result):
                self.per_kind_s[label].append(seconds)
            else:
                ok = False
        self.cycle += 1
        return total if ok else None

    def traced_op(self, checks, tr):
        for position, (label, method, M) in enumerate(PERM_KINDS):
            s, seed = self._inputs(position)
            cfg = self._config(method, M, seed)
            with tr.span("inference.test", kind=label) as test:
                result = permutation_test(s, cfg)
            self._check(checks, label, method, M, s, result)
            with tr.span("ranks.order", parent=test):
                if method is Method.HOEFFDING_D:
                    compute_ranks(s.x)
                    compute_ranks(s.y)
                else:
                    sorted_y_ranks(s)
            rows = self._null_rows(cfg.B)
            with tr.span("coefficients.kernel", parent=test, kind=label):
                replay_kernel(method, M, rows)
        self.cycle += 1

    def _null_rows(self, B: int) -> np.ndarray:
        if B not in self.rows:
            rng = np.random.default_rng([self.seed, B])
            self.rows[B] = null_rows(rng, B, self.sizes.perm_n)
        return self.rows[B]


class Study(Workload):
    """A study run on a pool of WORKERS processes. The serial run made in
    :meth:`prepare` warms the process up and gives the report that every
    pooled run must reproduce byte for byte."""

    def _run(self, workers: int):
        raise NotImplementedError

    def _check_report(self, report) -> list[str]:
        raise NotImplementedError

    def _replay(self, checks, tr, parent, report) -> None:
        raise NotImplementedError

    def prepare(self, checks):
        self.master_seed = int(np.random.default_rng(self.seed).integers(2 ** 32))
        report = self._run(1)
        self.sha = report_sha(report)
        self.outputs["sha256"] = self.sha
        checks.verify(f"{self.name} report at workers=1", self._check_report(report))
        self.check_reference(checks, "sha256")

    def op(self, checks):
        t0 = time.perf_counter()
        report = self._run(WORKERS)
        seconds = time.perf_counter() - t0
        ok = checks.verify(f"{self.name} report at workers={WORKERS}",
                           same("sha256", report_sha(report), self.sha))
        return seconds if ok else None

    def traced_op(self, checks, tr):
        with tr.span("simulation.study", workers=WORKERS) as study:
            report = self._run(WORKERS)
        checks.verify(f"{self.name} report at workers={WORKERS}",
                      same("sha256", report_sha(report), self.sha))
        t0 = time.perf_counter()
        serial = self._run(1)
        tr.note("simulation.serial_s", time.perf_counter() - t0)
        checks.verify(f"{self.name} report at workers=1",
                      same("sha256", report_sha(serial), self.sha))
        self._replay(checks, tr, study, report)


class PowerStudyWorkload(Study):
    name = "power_study"

    def settings(self) -> dict:
        s = self.sizes
        return {"methods": list(POWER_METHODS), "n": s.power_n, "M": POWER_M,
                "rho0": list(POWER_RHO0), "replicates": s.power_replicates, "B": s.power_B,
                "alpha": ALPHA, "workers": WORKERS,
                "data": "master_seed = numpy default_rng(seed).integers(2**32)"}

    def prepare(self, checks):
        super().prepare(checks)
        self.counters.update(kind_counters(f"xi_pm_M{POWER_M}", Method.XI_PM, POWER_M,
                                           self.sizes.power_B, self.sizes.power_n))
        self.rows = null_rows(np.random.default_rng([self.seed, 1]), self.sizes.power_B,
                              self.sizes.power_n)

    def _run(self, workers):
        s = self.sizes
        return power_study(PowerStudyConfig(
            n_values=(s.power_n,), M_values=(POWER_M,), rho0_values=POWER_RHO0,
            methods=POWER_METHODS, replicates=s.power_replicates, B=s.power_B, alpha=ALPHA,
            master_seed=self.master_seed, workers=workers))

    def _check_report(self, report):
        reps = self.sizes.power_replicates
        errors = same("rows", len(report.rows), len(POWER_METHODS) * len(POWER_RHO0))
        for row in report.rows:
            k = round(row["rejection_frequency"] * reps)
            if not (0 <= k <= reps and k / reps == row["rejection_frequency"]):
                errors.append(f"rejection frequency {row['rejection_frequency']!r} "
                              f"is not a count out of {reps}")
        return errors

    def _replay(self, checks, tr, parent, report):
        """Replicate (cell ci, rep ri) draws its sample from derive_rng(master, ci, ri, 0)
        and its test seed from derive_seed(master, ci, ri, 1); cells are the report rows."""
        reps = self.sizes.power_replicates
        errors = []
        for ci, row in enumerate(report.rows):
            method, n, M = Method(row["method"]), row["n"], row["M"]
            rejects = 0
            for ri in range(reps):
                rng = derive_rng(self.master_seed, ci, ri, 0)
                with tr.span("power.sample", parent=parent):
                    s = sample_rotation(rng, n, row["rho0"] / math.sqrt(n))
                if method is Method.PEARSON:
                    with tr.span("inference.test", parent=parent, kind="pearson"):
                        result = pearson_test(s, ALPHA)
                else:
                    cfg = PermutationTestConfig(B=self.sizes.power_B, alpha=ALPHA, method=method,
                                                seed=derive_seed(self.master_seed, ci, ri, 1), M=M)
                    label = f"xi_pm_M{M}"
                    with tr.span("inference.test", parent=parent, kind=label) as test:
                        result = permutation_test(s, cfg)
                    with tr.span("ranks.order", parent=test):
                        sorted_y_ranks(s)
                    with tr.span("coefficients.kernel", parent=test, kind=label):
                        replay_kernel(method, M, self.rows)
                rejects += result.reject
            errors += same(f"cell {ci} replayed rejection frequency", rejects / reps,
                           row["rejection_frequency"])
        checks.verify("power_study replay", errors)


class ConsistencyWorkload(Study):
    name = "consistency"

    def settings(self) -> dict:
        s = self.sizes
        return {"rho": list(CONSISTENCY_RHO), "n": s.consistency_n, "M": CONSISTENCY_M,
                "replicates": s.consistency_replicates, "workers": WORKERS,
                "data": "master_seed = numpy default_rng(seed).integers(2**32)"}

    def _run(self, workers):
        s = self.sizes
        return consistency_study(CONSISTENCY_RHO, (s.consistency_n,), (CONSISTENCY_M,),
                                 s.consistency_replicates, self.master_seed, workers=workers)

    def _check_report(self, report):
        errors = same("rows", len(report.rows), len(CONSISTENCY_RHO))
        for row in report.rows:
            errors += same(f"rho={row['rho']} population_xi", row["population_xi"],
                           gaussian_population_xi(row["rho"]).xi)
            if not row["q25"] <= row["median"] <= row["q75"]:
                errors.append(f"rho={row['rho']}: quartiles out of order")
        return errors

    def _replay(self, checks, tr, parent, report):
        """Replicate (cell ci, rep) draws its sample from derive_rng(master, ci, rep)."""
        reps = self.sizes.consistency_replicates
        errors = []
        for ci, row in enumerate(report.rows):
            values = np.empty(reps)
            for rep in range(reps):
                rng = derive_rng(self.master_seed, ci, rep)
                with tr.span("power.sample", parent=parent):
                    s = sample_rotation(rng, row["n"], row["rho"])
                with tr.span("coefficients.scalar", parent=parent) as scalar:
                    values[rep] = xi_nm(s, row["M"]).value
                with tr.span("ranks.order", parent=scalar):
                    sorted_y_ranks(s)
            errors += same(f"cell {ci} replayed mean", float(values.mean()), row["mean"])
        checks.verify("consistency replay", errors)


WORKLOADS = {w.name: w for w in (CliCoef, PermTest, PowerStudyWorkload, ConsistencyWorkload)}
