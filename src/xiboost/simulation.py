"""Deterministic Monte Carlo studies: power tables, null calibration,
consistency trajectories, and timing benchmarks.

Every replicate derives its generator from (master seed, cell index,
replicate index), never from worker identity, so reports are byte-identical
for any worker count. Timing studies are the one exception: wall-clock
medians are physical measurements and cannot be reproduced bitwise.
"""

from __future__ import annotations

import math
import statistics
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .coefficients import (
    METHODS,
    Method,
    batch_min_rank_sums,
    gaussian_population_xi,
    xi_denominator,
    xi_nm,
    xi_pm,
)
from .errors import ConfigError, StudyError, XiBoostError
from .inference import (
    PermutationTestConfig,
    null_variance_asymptotic,
    pearson_test,
    permutation_test,
)
from .power import sample_rotation
from .ranks import derive_rng, derive_seed, row_chunks, validate_neighbor_count

SCHEMA_VERSION = 1

# the permutation-testable methods, and Pearson's r by its parametric t-test
POWER_METHODS = tuple(m for m in Method if METHODS[m].score is not None) + (Method.PEARSON,)


@dataclass(frozen=True)
class PowerStudyConfig:
    """Grid and budget for a rejection-frequency study.

    Alternatives are local: each cell draws from the rotation model with
    rho = rho0 / sqrt(n).
    """

    n_values: tuple
    M_values: tuple
    rho0_values: tuple
    methods: tuple
    replicates: int = 500
    B: int = 999
    alpha: float = 0.05
    master_seed: int = 0
    workers: int = 1

    def __post_init__(self):
        object.__setattr__(self, "n_values", tuple(int(n) for n in self.n_values))
        object.__setattr__(self, "M_values", tuple(int(m) for m in self.M_values))
        object.__setattr__(self, "rho0_values", tuple(float(r) for r in self.rho0_values))
        object.__setattr__(self, "methods", tuple(Method(m) for m in self.methods))
        for name in ("n_values", "M_values", "rho0_values", "methods"):
            if not getattr(self, name):
                raise ConfigError(f"{name} must be nonempty")
        for method in self.methods:
            if method not in POWER_METHODS:
                raise ConfigError(
                    f"method {method.value} has no test for a power study; choose from "
                    + ",".join(m.value for m in POWER_METHODS))
        if self.replicates < 1:
            raise ConfigError(f"replicates must be >= 1, got {self.replicates}")
        if self.B < 1:
            raise ConfigError(f"B must be >= 1, got {self.B}")
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")


@dataclass
class StudyReport:
    """Tabular Monte Carlo output; serialized through xiboost.dataio only."""

    kind: str
    meta: dict
    rows: list
    schema_version: int = SCHEMA_VERSION


def _map_tasks(fn, tasks: list, workers: int) -> list:
    """Run tasks in submission order; results are position-aligned with tasks
    so aggregation never depends on scheduling."""
    if workers <= 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    chunksize = max(1, math.ceil(len(tasks) / (workers * 8)))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks, chunksize=chunksize))


# ---------------------------------------------------------------------------
# power study


def _power_cells(cfg: PowerStudyConfig) -> list:
    cells = []
    for method in cfg.methods:
        m_grid: tuple = cfg.M_values if METHODS[method].needs_m else (None,)
        for n in cfg.n_values:
            for M in m_grid:
                for rho0 in cfg.rho0_values:
                    cells.append((method, n, M, rho0))
    return cells


def _replicate_error(cell: str, key: tuple, exc: XiBoostError) -> StudyError:
    """Name the failing cell, replicate and seed key (master_seed, cell, replicate)."""
    return StudyError(f"cell ({cell}) replicate {key[2]}, seed key {key}: {exc}")


def _power_task(args) -> int:
    (cell_idx, rep_idx, method_value, n, M, rho0, B, alpha, master_seed) = args
    method = Method(method_value)
    try:
        rho = rho0 / math.sqrt(n)
        sample_rng = derive_rng(master_seed, cell_idx, rep_idx, 0)
        s = sample_rotation(sample_rng, n, rho)
        if method is Method.PEARSON:
            result = pearson_test(s, alpha)
        else:
            test_seed = derive_seed(master_seed, cell_idx, rep_idx, 1)
            cfg = PermutationTestConfig(B=B, alpha=alpha, seed=test_seed, method=method, M=M)
            result = permutation_test(s, cfg)
        return int(result.reject)
    except XiBoostError as exc:
        raise _replicate_error(f"method={method.value}, n={n}, M={M}, rho0={rho0}",
                               (master_seed, cell_idx, rep_idx), exc) from exc


def power_study(cfg: PowerStudyConfig) -> StudyReport:
    """Rejection frequency per (method, n, M, rho0) cell over seeded replicates."""
    cells = _power_cells(cfg)
    for method, n, M, rho0 in cells:
        if M is not None:
            validate_neighbor_count(n, M)
        if not abs(rho0 / math.sqrt(n)) < 1.0:
            raise ConfigError(f"rho0={rho0} gives |rho| >= 1 at n={n}")
    tasks = [
        (ci, ri, method.value, n, M, rho0, cfg.B, cfg.alpha, cfg.master_seed)
        for ci, (method, n, M, rho0) in enumerate(cells)
        for ri in range(cfg.replicates)
    ]
    flags = _map_tasks(_power_task, tasks, cfg.workers)
    rows = []
    for ci, (method, n, M, rho0) in enumerate(cells):
        cell_flags = flags[ci * cfg.replicates:(ci + 1) * cfg.replicates]
        rows.append({
            "method": method.value,
            "n": n,
            "M": M,
            "rho0": rho0,
            "rejection_frequency": sum(cell_flags) / cfg.replicates,
            "replicates": cfg.replicates,
        })
    meta = {
        "B": cfg.B,
        "alpha": cfg.alpha,
        "master_seed": cfg.master_seed,
        "rho_rule": "rho0/sqrt(n)",
    }
    return StudyReport(kind="power", meta=meta, rows=rows)


# ---------------------------------------------------------------------------
# null calibration


def _null_chunk_task(args) -> np.ndarray:
    (n, M, seed, start, stop) = args
    rows = np.empty((stop - start, n), dtype=np.int32)
    for k, rep in enumerate(range(start, stop)):
        rows[k] = derive_rng(seed, rep).permutation(n)
    rows += 1
    direct, _ = batch_min_rank_sums(rows, M)
    # same integer-sum-then-divide route as the scalar path, so values match it
    return (24 * direct) / xi_denominator(n, M) - 2.0


def null_calibration_study(n: int, M: int, replicates: int, seed: int,
                           workers: int = 1) -> StudyReport:
    """Sample moments of the coefficient under independence.

    Draws `replicates` uniform rank permutations (identity x-order shortcut),
    reports their mean and variance, the ratio against the asymptotic
    variance, and, in the normal-limit regime M**4 <= n, the KS distance of
    sqrt(nM) times the statistic from N(0, 2/5).
    """
    from scipy.stats import kstest

    if replicates < 2:
        raise ConfigError(f"replicates must be >= 2, got {replicates}")
    M = validate_neighbor_count(n, M)
    tasks = [(n, M, seed, start, stop) for start, stop in row_chunks(n, replicates)]
    values = np.concatenate(_map_tasks(_null_chunk_task, tasks, workers))
    var_asym = null_variance_asymptotic(n, M)
    variance = float(values.var(ddof=1))
    row = {
        "n": n,
        "M": M,
        "replicates": replicates,
        "mean": float(values.mean()),
        "variance": variance,
        "variance_asymptotic": var_asym,
        "variance_ratio": variance / var_asym,
    }
    if M ** 4 <= n:
        z = math.sqrt(n * M) * values
        row["ks_distance"] = float(kstest(z, "norm", args=(0.0, math.sqrt(0.4))).statistic)
    else:
        row["ks_distance"] = None
    return StudyReport(kind="null-calibration",
                       meta={"master_seed": seed},
                       rows=[row])


# ---------------------------------------------------------------------------
# consistency


def _consistency_chunk_task(args) -> np.ndarray:
    (cell_idx, rho, n, M, seed, start, stop) = args
    out = np.empty(stop - start, dtype=np.float64)
    for k, rep in enumerate(range(start, stop)):
        try:
            s = sample_rotation(derive_rng(seed, cell_idx, rep), n, rho)
            out[k] = xi_nm(s, M).value
        except XiBoostError as exc:
            raise _replicate_error(f"rho={rho}, n={n}, M={M}", (seed, cell_idx, rep),
                                   exc) from exc
    return out


def consistency_study(rho_values: Sequence[float], n_values: Sequence[int],
                      M_values: Sequence[int], replicates: int, seed: int,
                      workers: int = 1) -> StudyReport:
    """Mean and quartiles of the coefficient across replicates per (rho, n, M),
    next to the population value it estimates."""
    if replicates < 1:
        raise ConfigError(f"replicates must be >= 1, got {replicates}")
    cells = [(float(rho), int(n), int(M))
             for rho in rho_values for n in n_values for M in M_values]
    for rho, n, M in cells:
        validate_neighbor_count(n, M)
        if not -1.0 < rho < 1.0:
            raise ConfigError(f"rho={rho} outside (-1, 1)")
    tasks = []
    cell_task_counts = []
    for ci, (rho, n, M) in enumerate(cells):
        chunks = row_chunks(n, replicates)
        cell_task_counts.append(len(chunks))
        tasks.extend((ci, rho, n, M, seed, start, stop) for start, stop in chunks)
    results = _map_tasks(_consistency_chunk_task, tasks, workers)
    rows = []
    offset = 0
    for ci, (rho, n, M) in enumerate(cells):
        values = np.concatenate(results[offset:offset + cell_task_counts[ci]])
        offset += cell_task_counts[ci]
        q25, q50, q75 = np.quantile(values, [0.25, 0.5, 0.75])
        rows.append({
            "rho": rho,
            "n": n,
            "M": M,
            "replicates": replicates,
            "mean": float(values.mean()),
            "q25": float(q25),
            "median": float(q50),
            "q75": float(q75),
            "population_xi": gaussian_population_xi(rho).xi,
        })
    return StudyReport(kind="consistency", meta={"master_seed": seed}, rows=rows)


# ---------------------------------------------------------------------------
# timing


def timing_study(n_values: Sequence[int], M_values: Sequence[int],
                 repetitions: int = 30, warmup: int = 5, seed: int = 0) -> StudyReport:
    """Median wall time of one two-direction coefficient evaluation per cell.

    Runs serially regardless of any worker setting (concurrent timing would
    measure contention, not cost); medians over >= 30 repetitions after
    warm-up, monotonic clock. Absolute times are hardware-bound; compare
    ratios.
    """
    if repetitions < 1:
        raise ConfigError(f"repetitions must be >= 1, got {repetitions}")
    cells = [(int(n), int(M)) for n in n_values for M in M_values]
    for n, M in cells:
        validate_neighbor_count(n, M)
    rows = []
    for ci, (n, M) in enumerate(cells):
        rng = derive_rng(seed, ci)
        s = sample_rotation(rng, n, 0.0)
        for _ in range(warmup):
            xi_pm(s, M)
        times = []
        for _ in range(repetitions):
            t0 = time.perf_counter()
            xi_pm(s, M)
            times.append(time.perf_counter() - t0)
        rows.append({
            "n": n,
            "M": M,
            "median_seconds": statistics.median(times),
            "repetitions": repetitions,
        })
    return StudyReport(kind="timing",
                       meta={"master_seed": seed, "warmup": warmup},
                       rows=rows)
