"""Independence tests and null-moment utilities for the rank coefficients.

The simulation-based test calibrates a statistic against B uniformly drawn
rank permutations, exploiting distribution-freeness under independence; the
reported p-value (1 + #{replicates >= observed}) / (1 + B) is conservative
and valid for any n, B, and M. Replicate statistics are compared to the
observed one on exact integer scores, so ties are resolved without any
float edge cases.

The permutation-testable methods are those with a batch score in
:data:`~xiboost.coefficients.METHODS` (xi-pm, symmetric-nn, hoeffding-d);
the test runs the same code for each of them. :func:`permutation_test`
counts over all B rows for its p-value. :func:`permutation_reject`, which
power studies call, keeps only the decision: it stops drawing once so many
rows reach the observed score that the test must accept (the exact,
decision-preserving form of the curtailed Monte Carlo test of Besag and
Clifford, 1991), and always equals ``permutation_test(s, cfg).reject``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .coefficients import (
    METHODS,
    Method,
    pearson_r,
    xi_denominator,
    xi_nm,
    xi_nm_from_ranks,
)
from .errors import ConfigError, RegimeError, SizeError
from .ranks import (
    Sample,
    block_rows,
    derive_rng,
    max_batch_rows,
    rank_dtype,
    sorted_y_ranks,
    validate_neighbor_count,
)


@dataclass(frozen=True)
class PermutationTestConfig:
    """Settings for the simulation-based independence test."""

    B: int
    alpha: float
    seed: int
    method: Method = Method.XI_PM
    M: Optional[int] = None

    def __post_init__(self):
        if self.B < 1:
            raise ConfigError(f"B must be >= 1, got {self.B}")
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError(f"alpha must lie in (0, 1), got {self.alpha}")
        object.__setattr__(self, "method", Method(self.method))
        spec = METHODS[self.method]
        if spec.score is None:
            raise ConfigError(f"unsupported permutation-test method {self.method!r}")
        if spec.needs_m and self.M is None:
            raise ConfigError(f"method {self.method.value} requires M")
        if not spec.needs_m and self.M is not None:
            raise ConfigError(f"method {self.method.value} does not take M")


@dataclass(frozen=True)
class TestResult:
    """Outcome of an independence test."""

    statistic: float
    p_value: float
    reject: bool
    method: Method
    n: int
    alpha: float
    M: Optional[int] = None
    B: Optional[int] = None
    seed: Optional[int] = None


@dataclass(frozen=True)
class NullMoments:
    """Exact and asymptotic moments of the M-neighbor coefficient under
    independence. Exact fields come from full permutation enumeration."""

    n: int
    M: int
    mean: Fraction
    variance_exact: Fraction
    variance_asymptotic: float


def _permutation_batches(rng: np.random.Generator, n: int, B: int):
    """Yield (k, n) permutation matrices with rows drawn uniformly, B rows in all.

    Chunks hold 64, 64, 128, 256, ... rows (each as many as all before it,
    and at least 64), each capped by `ranks.max_batch_rows(n)`, so a test
    that stops early has drawn at most about twice the rows it needed. Rows
    are drawn one after another from `rng`, so the draws do not depend on
    the chunk sizes. They are int16 when n <= 32767, where int16 holds every
    rank, and int32 above; narrow rows halve the memory the min-rank kernel
    streams through. Each chunk is drawn through one reused int64 staging
    block of `ranks.block_rows(n, 8)` rows (32 at n = 1000) and cast into
    the chunk: `rng.permuted` is faster on int64 rows, and it shuffles the
    same way for every dtype, so the rows equal an int32 draw's."""
    cap = max_batch_rows(n)
    stage = np.empty((min(block_rows(n, 8), B), n), dtype=np.int64)
    base = np.arange(1, n + 1, dtype=np.int64)
    done = 0
    while done < B:
        mat = np.empty((min(max(64, done), cap, B - done), n), dtype=rank_dtype(n))
        for start in range(0, len(mat), len(stage)):
            block = stage[: len(mat) - start]
            block[...] = base
            rng.permuted(block, axis=1, out=block)
            mat[start:start + len(block)] = block
        done += len(mat)
        yield mat


def _observed(s: Sample, cfg: PermutationTestConfig):
    """The prologue of every permutation test: (statistic, observed score).
    The coefficient runs first, so its checks (ties, a too-small n) raise
    the same errors whichever entry point is called."""
    spec = METHODS[cfg.method]
    return spec.coefficient(s, cfg.M).value, spec.score(sorted_y_ranks(s)[None], cfg.M)[0]


def _count_exceed(s: Sample, cfg: PermutationTestConfig, observed,
                  alpha: Optional[float] = None) -> int:
    """Number of the B null rows scoring >= `observed`, the one counting loop
    of both entry points. With an `alpha` it stops after the chunk that takes
    (1 + count) / (1 + B) past `alpha`, and then returns that partial count:
    the ratio never falls as the count grows, so the test must accept."""
    score = METHODS[cfg.method].score
    exceed = 0
    for mat in _permutation_batches(derive_rng(cfg.seed), s.n, cfg.B):
        exceed += int(np.count_nonzero(score(mat, cfg.M) >= observed))
        if alpha is not None and (1 + exceed) / (1 + cfg.B) > alpha:
            break
    return exceed


def permutation_test(s: Sample, cfg: PermutationTestConfig) -> TestResult:
    """Simulation-based independence test; deterministic given cfg.seed.

    The observed sample is scored as its one row of y-ranks in ascending-x
    order. Each replicate draws one uniform rank permutation and scores it as
    such a row (right neighbors are positions i+m, so no sorting is needed).
    Cost is O(B n M) for the rank statistics and O(B n log^2 n) for
    Hoeffding's D, whose merge counting runs on a whole batch of rows at once.
    The p-value counts over all B rows.
    """
    statistic, observed = _observed(s, cfg)
    p_value = (1 + _count_exceed(s, cfg, observed)) / (1 + cfg.B)
    return TestResult(
        statistic=statistic,
        p_value=p_value,
        reject=p_value <= cfg.alpha,
        method=cfg.method,
        n=s.n,
        alpha=cfg.alpha,
        M=cfg.M,
        B=cfg.B,
        seed=cfg.seed,
    )


def permutation_reject(s: Sample, cfg: PermutationTestConfig) -> bool:
    """``permutation_test(s, cfg).reject``, drawing only the rows that decide it.

    The same rows are drawn in the same order, but drawing stops once so many
    of them score >= the observed one that (1 + count) / (1 + B) exceeds
    alpha: the test must then accept, whatever the remaining rows score.
    When 1 / (1 + B) > alpha, no row is drawn. A test that rejects still
    scores all B rows."""
    _, observed = _observed(s, cfg)
    return (1 / (1 + cfg.B) <= cfg.alpha
            and (1 + _count_exceed(s, cfg, observed, cfg.alpha)) / (1 + cfg.B) <= cfg.alpha)


def asymptotic_test(s: Sample, M: int, alpha: float, override: bool = False) -> TestResult:
    """One-sided normal test of sqrt(nM) * xi against N(0, 2/5).

    The normal limit needs M to grow slower than n**(1/4); the guard
    M**4 <= n enforces a finite-sample proxy of that regime and can be
    overridden explicitly.
    """
    from scipy.special import ndtr

    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"alpha must lie in (0, 1), got {alpha}")
    n = s.n
    M = validate_neighbor_count(n, M)
    if M ** 4 > n and not override:
        raise RegimeError(
            f"M**4 = {M ** 4} exceeds n = {n}; the normal approximation is "
            "unreliable here (pass override=True to force)"
        )
    xi = xi_nm(s, M).value
    z = math.sqrt(n * M) * xi / math.sqrt(0.4)
    p_value = max(float(ndtr(-z)), math.ulp(0.0))
    return TestResult(
        statistic=z,
        p_value=p_value,
        reject=p_value <= alpha,
        method=Method.XI_NM,
        n=n,
        alpha=alpha,
        M=M,
    )


def pearson_test(s: Sample, alpha: float) -> TestResult:
    """Two-sided parametric t-test on the Pearson correlation."""
    from scipy.stats import t as student_t

    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"alpha must lie in (0, 1), got {alpha}")
    r = pearson_r(s).value
    n = s.n
    if abs(r) >= 1.0:
        p_value = math.ulp(0.0)
    else:
        t_stat = r * math.sqrt((n - 2) / (1.0 - r * r))
        p_value = max(2.0 * float(student_t.sf(abs(t_stat), df=n - 2)), math.ulp(0.0))
    return TestResult(
        statistic=r,
        p_value=min(p_value, 1.0),
        reject=p_value <= alpha,
        method=Method.PEARSON,
        n=n,
        alpha=alpha,
    )


def null_variance_asymptotic(n: int, M: int) -> float:
    """Leading-order null variance (2/5)/(nM) + (8/15) M/n**2."""
    M = validate_neighbor_count(n, M)
    return 0.4 / (n * M) + (8.0 / 15.0) * M / (n * n)


def null_moments_enumerate(n: int, M: int) -> NullMoments:
    """Exact null mean and variance by enumerating all n! rank permutations.

    Fixes x at 1..n (the statistic is conditionally distribution-free given
    the x-order, so this loses nothing) and averages in exact rational
    arithmetic. Limited to n <= 8.
    """
    if n > 8:
        raise SizeError(f"enumeration is limited to n <= 8, got {n}")
    if n < 2:
        raise SizeError(f"need n >= 2, got {n}")
    M = validate_neighbor_count(n, M)
    denom = xi_denominator(n, M)
    count = 0
    acc = Fraction(0)
    acc_sq = Fraction(0)
    for perm in itertools.permutations(range(1, n + 1)):
        S = 0
        for i in range(n):
            ri = perm[i]
            for m in range(1, M + 1):
                j = i + m
                S += min(ri, perm[j]) if j < n else ri
        value = Fraction(24 * S, denom) - 2
        acc += value
        acc_sq += value * value
        count += 1
    mean = acc / count
    variance = acc_sq / count - mean * mean
    return NullMoments(
        n=n,
        M=M,
        mean=mean,
        variance_exact=variance,
        variance_asymptotic=null_variance_asymptotic(n, M),
    )


def replicate_statistic_from_permutation(r: Sequence[int], M: int) -> float:
    """Null-replicate statistic straight from a drawn rank permutation.

    Under the identity x-order the m-th right neighbor of index i is i+m (or
    i itself past the end), so the coefficient is evaluated with no sorting.
    """
    return xi_nm_from_ranks(r, None, M).value


def permutation_test_fast_path_equivalence(r: Sequence[int], M: int) -> tuple[float, float]:
    """Both routes to a null-replicate statistic: (shortcut, full pipeline).

    The first value skips sorting entirely; the second builds the synthetic
    sample (x_i = i, y_i = r_i) and runs the full coefficient path. The two
    must agree bit-exactly.
    """
    arr = np.asarray(r, dtype=np.int64)
    a = replicate_statistic_from_permutation(arr, M)
    synthetic = Sample(np.arange(1, arr.size + 1, dtype=np.float64),
                       arr.astype(np.float64))
    b = xi_nm(synthetic, M).value
    return a, b
