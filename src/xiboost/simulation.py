"""Deterministic Monte Carlo studies: power tables, null calibration,
consistency trajectories, and timing benchmarks.

Every replicate derives its generator from (master seed, cell index,
replicate index), never from worker identity, so reports are byte-identical
for any worker count. Timing studies are the one exception: wall-clock
medians are physical measurements and cannot be reproduced bitwise.

A pooled study (power, null calibration, consistency) is a list of cells
and one block task, run by `_run_replicates`, the one driver and the one
place a process pool starts: one pool task per block of `_replicate_blocks`,
about 8 per worker. A power block runs its replicates one by one. A
consistency block orders each replicate's sample into one row of a narrow
rank batch and scores the whole block with one batch-kernel call, and a null
calibration block draws its permutation rows into such a batch.

A power replicate keeps only its test's accept/reject, so it calls
`inference.permutation_reject`: the replicate's null draws stop once so many
null scores reach the observed one that the test must accept. The rows drawn
are the ones `permutation_test` would draw, so power reports are
byte-identical to running the full test; `permutation_test` itself, and its
p-value, still use all B rows.
"""

from __future__ import annotations

import contextlib
import functools
import math
import statistics
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .coefficients import (
    METHODS,
    TESTED_METHODS,
    Method,
    gaussian_population_xi,
    validate_method,
    xi_pm,
)
from .errors import ConfigError, StudyError, XiBoostError
from .inference import (
    PermutationTestConfig,
    null_variance_asymptotic,
    pearson_test,
    permutation_reject,
)
from .power import sample_rotation
from .ranks import (derive_rng, derive_seed, max_batch_rows, random_rank_permutation,
                    rank_dtype, sorted_y_ranks, validate_alpha, validate_count, validate_grid,
                    validate_neighbor_count, validate_rho, validate_rho0, validate_sizes)

SCHEMA_VERSION = 1

# the permutation-testable methods, and Pearson's r by its parametric t-test
POWER_METHODS = TESTED_METHODS + (Method.PEARSON,)


# a study's n is a count >= 2; each entry of an M grid is checked against each n later
_study_n = functools.partial(validate_count, "n", least=2)
_whole_m = functools.partial(validate_neighbor_count, None)


@dataclass(frozen=True)
class PowerStudyConfig:
    """Grid and budget for a rejection-frequency study.

    Alternatives are local: each cell draws from the rotation model with
    rho = rho0 / sqrt(n). Each field holds the plain value its rule returns:
    nonempty grids of counts n >= 2, whole numbers M, finite reals rho0 and
    POWER_METHODS, counts replicates, B and workers >= 1 and master_seed >= 0,
    alpha in (0, 1).
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
        store = functools.partial(object.__setattr__, self)
        store("n_values", validate_grid("n_values", self.n_values, _study_n))
        store("M_values", validate_grid("M_values", self.M_values, _whole_m))
        store("rho0_values", validate_grid("rho0_values", self.rho0_values, validate_rho0))
        store("methods", validate_grid("methods", self.methods, lambda m: validate_method(
            m, POWER_METHODS, "test for a power study")))
        store("replicates", validate_count("replicates", self.replicates, 1))
        store("B", validate_count("B", self.B, 1))
        store("alpha", validate_alpha(self.alpha))
        store("master_seed", validate_count("seed", self.master_seed, 0))
        store("workers", validate_count("workers", self.workers, 1))


@dataclass
class StudyReport:
    """Tabular Monte Carlo output; serialized through xiboost.dataio only."""

    kind: str
    meta: dict
    rows: list
    schema_version: int = SCHEMA_VERSION


def _replicate_blocks(ns: Sequence[int], replicates: int,
                      workers: int) -> list[tuple[int, int, int]]:
    """The one rule for chunking pooled work: (cell index, start, stop)
    blocks of each cell's replicates 0..replicates-1, where cell ci has
    sample size ns[ci]. A block holds at most ceil(cells * replicates /
    (workers * 8)) replicates, so each worker takes about 8 blocks, and at
    most `ranks.max_batch_rows(n)`, the memory cap of a (k, n) rank batch.
    Blocks never change a result, only which process computes it. `workers`
    is read by the count rule before any block exists."""
    workers = validate_count("workers", workers, 1)
    per = math.ceil(len(ns) * replicates / (workers * 8))
    blocks = []
    for ci, n in enumerate(ns):
        size = min(per, max_batch_rows(n))
        blocks += [(ci, start, min(replicates, start + size))
                   for start in range(0, replicates, size)]
    return blocks


@contextlib.contextmanager
def _replicate(cell: dict, key: tuple):
    """Re-raise a domain error of one replicate as a StudyError naming its
    cell, replicate and seed key."""
    try:
        yield
    except XiBoostError as exc:
        where = ", ".join(f"{k}={v}" for k, v in cell.items())
        raise StudyError(f"cell ({where}) replicate {key[2]}, seed key {key}: {exc}") from exc


def _run_replicates(task, cells: list, replicates: int, master_seed: int,
                    workers: int) -> list:
    """`task(cell, keys)` for every block of :func:`_replicate_blocks`, one
    pool task each when workers > 1, where keys are the block's seed keys
    (master_seed, cell index, replicate) and the task returns one result per
    key. Returns each cell's results in replicate order, whatever the
    scheduling."""
    blocks = _replicate_blocks([cell["n"] for cell in cells], replicates, workers)
    block_cells = [cells[ci] for ci, _, _ in blocks]
    block_keys = [[(master_seed, ci, ri) for ri in range(start, stop)]
                  for ci, start, stop in blocks]
    if workers == 1 or len(blocks) <= 1:
        outputs = map(task, block_cells, block_keys)
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            outputs = list(pool.map(task, block_cells, block_keys))
    results = [[] for _ in cells]
    for (ci, _, _), block in zip(blocks, outputs):
        results[ci] += block
    return results


# ---------------------------------------------------------------------------
# power study


def _power_block(B: int, alpha: float, cell: dict, keys: list) -> list:
    """The rejections (1 or 0) of a block of power replicates, run one by one."""
    n, method = cell["n"], Method(cell["method"])
    flags = []
    for key in keys:
        with _replicate(cell, key):
            s = sample_rotation(derive_rng(*key, 0), n, cell["rho0"] / math.sqrt(n))
            if method is Method.PEARSON:
                flags.append(int(pearson_test(s, alpha).reject))
            else:
                cfg = PermutationTestConfig(B=B, alpha=alpha, seed=derive_seed(*key, 1),
                                            method=method, M=cell["M"])
                flags.append(int(permutation_reject(s, cfg)))
    return flags


def power_study(cfg: PowerStudyConfig) -> StudyReport:
    """Rejection frequency per (method, n, M, rho0) cell over seeded replicates."""
    cells = [{"method": method.value, "n": n, "M": M, "rho0": rho0}
             for method in cfg.methods
             for n in cfg.n_values
             for M in ([validate_neighbor_count(n, m) for m in cfg.M_values]
                       if METHODS[method].needs_m else (None,))
             for rho0 in cfg.rho0_values]
    for cell in cells:
        if not abs(cell["rho0"] / math.sqrt(cell["n"])) < 1.0:
            raise ConfigError(f"rho0={cell['rho0']} gives |rho| >= 1 at n={cell['n']}")
    task = functools.partial(_power_block, cfg.B, cfg.alpha)
    flags = _run_replicates(task, cells, cfg.replicates, cfg.master_seed, cfg.workers)
    rows = [{**cell,
             "rejection_frequency": sum(cell_flags) / cfg.replicates,
             "replicates": cfg.replicates}
            for cell, cell_flags in zip(cells, flags)]
    meta = {
        "B": cfg.B,
        "alpha": cfg.alpha,
        "master_seed": cfg.master_seed,
        "rho_rule": "rho0/sqrt(n)",
    }
    return StudyReport(kind="power", meta=meta, rows=rows)


# ---------------------------------------------------------------------------
# null calibration


def _null_block(cell: dict, keys: list) -> list:
    """The coefficients of a block of null replicates: uniform rank permutations
    (identity x-order) drawn into a narrow rank batch, scored by one kernel call."""
    n, M = cell["n"], cell["M"]
    rows = np.empty((len(keys), n), dtype=rank_dtype(n))
    for row, (seed, _, rep) in zip(rows, keys):
        # the null stream predates cell keys: replicate r draws (seed, r), not (seed, 0, r)
        row[...] = random_rank_permutation(derive_rng(seed, rep), n)
    spec = METHODS[Method.XI_NM]
    return [spec.scale(int(S), n, M) for S in spec.score(rows, M)]


def _ks_distance(z: np.ndarray, scale: float) -> float:
    """The Kolmogorov-Smirnov distance of the sample `z` from N(0, scale**2),
    computed as ``scipy.stats.kstest`` computes it, without loading that layer."""
    from scipy.special import ndtr

    cdf = ndtr(np.sort(z) / scale)
    m = len(cdf)
    return float(max((np.arange(1.0, m + 1) / m - cdf).max(),
                     (cdf - np.arange(0.0, m) / m).max()))


def null_calibration_study(n: int, M: int, replicates: int, seed: int,
                           workers: int = 1) -> StudyReport:
    """Sample moments of the coefficient under independence.

    Draws `replicates` uniform rank permutations (identity x-order shortcut),
    reports their mean and variance, the ratio against the asymptotic
    variance, and, in the normal-limit regime M**4 <= n, the KS distance of
    sqrt(nM) times the statistic from N(0, 2/5).
    """
    replicates = validate_count("replicates", replicates, 2)
    n, M = validate_sizes(n, M)
    seed = validate_count("seed", seed, 0)
    workers = validate_count("workers", workers, 1)
    cell = {"n": n, "M": M}
    values = np.asarray(_run_replicates(_null_block, [cell], replicates, seed, workers)[0])
    var_asym = null_variance_asymptotic(n, M)
    variance = float(values.var(ddof=1))
    row = {
        **cell,
        "replicates": replicates,
        "mean": float(values.mean()),
        "variance": variance,
        "variance_asymptotic": var_asym,
        "variance_ratio": variance / var_asym,
        "ks_distance": None if M ** 4 > n else _ks_distance(math.sqrt(n * M) * values,
                                                            math.sqrt(0.4)),
    }
    return StudyReport(kind="null-calibration",
                       meta={"master_seed": seed},
                       rows=[row])


# ---------------------------------------------------------------------------
# consistency


def _consistency_block(cell: dict, keys: list) -> list:
    """The coefficients of a block of replicates: each replicate's sample is
    ordered into one row of a narrow rank batch, and the batch is scored by
    one kernel call. Each value equals the replicate's `xi_nm(...).value`
    bit for bit: the kernel's scores are exact, and each is scaled as a
    Python int."""
    n, M = cell["n"], cell["M"]
    rows = np.empty((len(keys), n), dtype=rank_dtype(n))
    for row, key in zip(rows, keys):
        with _replicate(cell, key):
            row[...] = sorted_y_ranks(sample_rotation(derive_rng(*key), n, cell["rho"]))
    spec = METHODS[Method.XI_NM]
    return [spec.scale(int(S), n, M) for S in spec.score(rows, M)]


def consistency_study(rho_values: Sequence[float], n_values: Sequence[int],
                      M_values: Sequence[int], replicates: int, seed: int,
                      workers: int = 1) -> StudyReport:
    """Mean and quartiles of the coefficient across replicates per (rho, n, M),
    next to the population value it estimates."""
    replicates = validate_count("replicates", replicates, 1)
    seed = validate_count("seed", seed, 0)
    workers = validate_count("workers", workers, 1)
    rhos = validate_grid("rho_values", rho_values, validate_rho)
    ns = validate_grid("n_values", n_values, _study_n)
    Ms = validate_grid("M_values", M_values, _whole_m)
    cells = [{"rho": rho, "n": n, "M": validate_neighbor_count(n, M)}
             for rho in rhos for n in ns for M in Ms]
    rows = []
    for cell, results in zip(cells, _run_replicates(_consistency_block, cells,
                                                    replicates, seed, workers)):
        values = np.asarray(results, dtype=np.float64)
        q25, q50, q75 = np.quantile(values, [0.25, 0.5, 0.75])
        rows.append({
            **cell,
            "replicates": replicates,
            "mean": float(values.mean()),
            "q25": float(q25),
            "median": float(q50),
            "q75": float(q75),
            "population_xi": gaussian_population_xi(cell["rho"]).xi,
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
    repetitions = validate_count("repetitions", repetitions, 1)
    warmup = validate_count("warmup", warmup, 0)
    seed = validate_count("seed", seed, 0)
    ns = validate_grid("n_values", n_values, _study_n)
    Ms = validate_grid("M_values", M_values, _whole_m)
    cells = [(n, validate_neighbor_count(n, M)) for n in ns for M in Ms]
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
