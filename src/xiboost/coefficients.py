"""Correlation coefficients built on y-ranks in ascending-x order.

All rank statistics accumulate integer min-rank sums exactly and perform a
single float division at the end, so values are bit-identical across
platforms. Exact rational variants back the enumeration and extremal-identity
checks.

Each sum has one kernel over a batch of rank rows: a coefficient is a batch
of one row, a permutation null a batch of drawn rows. :data:`METHODS` says
which methods take M (xi-nm, xi-nm-reflected, xi-pm, symmetric-nn) and which
have a permutation test (xi-pm, symmetric-nn, hoeffding-d).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DegenerateError, RhoRangeError, SizeError
from .ranks import (
    Sample,
    XOrder,
    is_rank_permutation,
    row_chunks,
    sorted_y_ranks,
    validate_neighbor_count,
)


class Method(str, Enum):
    """Statistic identifiers, shared by the CLI and report schemas."""

    XI_CLASSIC = "xi-classic"
    XI_NM = "xi-nm"
    XI_NM_REFLECTED = "xi-nm-reflected"
    XI_PM = "xi-pm"
    SYMMETRIC_NN = "symmetric-nn"
    PEARSON = "pearson"
    HOEFFDING_D = "hoeffding-d"


@dataclass(frozen=True)
class CoefficientValue:
    """A computed coefficient with its method and sample metadata."""

    value: float
    method: Method
    n: int
    M: Optional[int] = None


@dataclass(frozen=True)
class PopulationXi:
    """Population dependence measure for the Gaussian rotation model."""

    rho: float
    xi: float
    quadrature_tolerance: float


# ---------------------------------------------------------------------------
# integer kernels


def batch_min_rank_sums(rows: np.ndarray, M: int) -> tuple[np.ndarray, np.ndarray]:
    """Min-rank sums of each row and of its rank reflection, in one pass.

    Each row holds y-ranks in ascending-x order (a permutation of 1..n), so
    the m-th right neighbor of position p is position p+m, and the last m
    positions pair with themselves. Per distance m the direct sum is P_m + T_m
    (P = pair minima, T = sum of the last m entries). The reflected sum, over
    ranks n+1-r, uses min(n+1-a, n+1-b) = (n+1) - a - b + min(a, b); the
    linear terms collapse to P_m + H_m (H = sum of the first m entries). The
    head and tail sums over m = 1..M are closed-form weighted sums, so only
    the pair minima need the loop. Exact int64 arithmetic throughout.
    """
    k, n = rows.shape
    pairs = np.zeros(k, dtype=np.int64)
    for m in range(1, M + 1):
        pairs += np.minimum(rows[:, : n - m], rows[:, m:]).sum(axis=1, dtype=np.int64)
    # for m = 1..M, position n-M+j is among the last m entries j+1 times and
    # position j among the first m entries M-j times
    weights = np.arange(1, M + 1, dtype=np.int64)
    tails = rows[:, n - M:] @ weights
    heads = rows[:, :M] @ weights[::-1]
    return pairs + tails, pairs + heads


def min_rank_sum(rs: np.ndarray, M: int) -> int:
    """Sum over all points and m = 1..M of min(rank, rank of m-th right neighbor);
    a one-row :func:`batch_min_rank_sums`."""
    return int(batch_min_rank_sums(np.asarray(rs)[None], M)[0][0])


def symmetric_neighbor_spans(n: int, M: int) -> list[tuple[int, int, int]]:
    """Ordered-pair slice bounds for the symmetric M-nearest-neighbor rule.

    Each position takes its M nearest positions in x-rank distance, preferring
    the right side on distance ties, shifting inward at the edges. Every
    (anchor, neighbor) incidence maps to exactly one unordered gap (q, q+d);
    the returned triples (d, lo, hi) mean: positions q in [lo, hi) pair with
    q+d. Incidences anchored on both sides of the same gap yield the gap
    twice.
    """
    right_reach = (M + 1) // 2
    left_reach = M // 2
    spans: list[tuple[int, int, int]] = []
    for d in range(1, M + 1):
        # anchors taking their d-th right neighbor
        if d <= right_reach:
            spans.append((d, 0, n - d))
        else:
            spans.append((d, 0, M - d + 1))
        # anchors taking their d-th left neighbor, re-expressed from the left end
        if d <= left_reach:
            spans.append((d, 0, n - d))
        else:
            spans.append((d, n - 1 - M, n - d))
    return spans


def batch_symmetric_min_sums(rows: np.ndarray, M: int) -> np.ndarray:
    """Row-wise symmetric-neighbor min sums over the spans of
    :func:`symmetric_neighbor_spans`. Exact int64 arithmetic."""
    k, n = rows.shape
    out = np.zeros(k, dtype=np.int64)
    for d, lo, hi in symmetric_neighbor_spans(n, M):
        out += np.minimum(rows[:, lo:hi], rows[:, lo + d:hi + d]).sum(axis=1, dtype=np.int64)
    return out


def symmetric_min_sum(rs: np.ndarray, M: int) -> int:
    """Raw symmetric-neighbor statistic: sum of min ranks over all incidences;
    a one-row :func:`batch_symmetric_min_sums`."""
    return int(batch_symmetric_min_sums(np.asarray(rs)[None], M)[0])


def xi_denominator(n: int, M: int) -> int:
    """Exact integer 4 * (n+1) * (nM + M(M+1)/4)."""
    return (n + 1) * (4 * n * M + M * (M + 1))


def xi_from_min_sum(S: int, n: int, M: int) -> float:
    """-2 + 24*S / denominator, as a single correctly rounded float division."""
    return -2.0 + (24 * S) / xi_denominator(n, M)


def xi_fraction_from_min_sum(S: int, n: int, M: int) -> Fraction:
    return Fraction(24 * S, xi_denominator(n, M)) - 2


# ---------------------------------------------------------------------------
# coefficients


def chatterjee_xi(s: Sample) -> CoefficientValue:
    """Classic right-neighbor rank correlation, 1 - 3*sum|dR| / (n^2 - 1).

    The sum runs over consecutive rank differences in ascending-x order; the
    largest x pairs with itself and contributes nothing.
    """
    rs = sorted_y_ranks(s)
    n = rs.size
    jumps = int(np.abs(np.diff(rs)).sum())
    value = 1.0 - (3 * jumps) / (n * n - 1)
    return CoefficientValue(value=value, method=Method.XI_CLASSIC, n=n)


def xi_nm(s: Sample, M: int) -> CoefficientValue:
    """Rank correlation using each point's M right nearest neighbors.

    Normalized so the expectation under independence is exactly zero for any
    M in 1..n-1. Cost is O(n log n + n M).
    """
    rs = sorted_y_ranks(s)
    M = validate_neighbor_count(rs.size, M)
    value = xi_from_min_sum(min_rank_sum(rs, M), rs.size, M)
    return CoefficientValue(value=value, method=Method.XI_NM, n=rs.size, M=M)


def xi_nm_from_ranks(r: Sequence[int], ord: Optional[XOrder], M: int) -> CoefficientValue:
    """Same statistic as :func:`xi_nm`, evaluated from precomputed ranks.

    `ord` sorts the x coordinate; pass None for the identity order, which is
    the null-replicate fast path where the m-th right neighbor of index i is
    simply i+m.
    """
    arr = np.asarray(r, dtype=np.int64)
    if not is_rank_permutation(arr):
        raise SizeError("r must be a permutation of 1..n")
    rs = arr if ord is None else arr[ord.order]
    M = validate_neighbor_count(rs.size, M)
    value = xi_from_min_sum(min_rank_sum(rs, M), rs.size, M)
    return CoefficientValue(value=value, method=Method.XI_NM, n=rs.size, M=M)


def xi_nm_reflected(s: Sample, M: int) -> CoefficientValue:
    """:func:`xi_nm` on (x, -y), computed by rank reflection without re-sorting."""
    rs = sorted_y_ranks(s)
    M = validate_neighbor_count(rs.size, M)
    _, reflected = batch_min_rank_sums(rs[None], M)
    value = xi_from_min_sum(int(reflected[0]), rs.size, M)
    return CoefficientValue(value=value, method=Method.XI_NM_REFLECTED, n=rs.size, M=M)


def _two_direction_sums(rows: np.ndarray, M: int) -> np.ndarray:
    """Row-wise max of the direct and reflected min-rank sums."""
    return np.maximum(*batch_min_rank_sums(rows, M))


def xi_pm(s: Sample, M: int) -> CoefficientValue:
    """Max of :func:`xi_nm` on (x, y) and on (x, -y); the two-direction test statistic."""
    rs = sorted_y_ranks(s)
    M = validate_neighbor_count(rs.size, M)
    n = rs.size
    best = int(_two_direction_sums(rs[None], M)[0])
    return CoefficientValue(value=xi_from_min_sum(best, n, M), method=Method.XI_PM, n=n, M=M)


def symmetric_nn_sum(s: Sample, M: int) -> CoefficientValue:
    """Raw min-rank sum over each point's M nearest x-rank neighbors, both sides.

    Distance ties prefer the right neighbor, so at M=1 every point takes its
    right neighbor except the largest x. The statistic is left uncentered;
    calibrate it by permutation (any affine normalization would cancel).
    """
    rs = sorted_y_ranks(s)
    M = validate_neighbor_count(rs.size, M)
    value = float(symmetric_min_sum(rs, M))
    return CoefficientValue(value=value, method=Method.SYMMETRIC_NN, n=rs.size, M=M)


def pearson_r(s: Sample) -> CoefficientValue:
    """Sample Pearson correlation; requires n >= 3 and nonzero variances."""
    if s.n < 3:
        raise SizeError(f"Pearson correlation needs n >= 3, got {s.n}")
    dx = s.x - s.x.mean()
    dy = s.y - s.y.mean()
    denom = math.sqrt(float((dx * dx).sum()) * float((dy * dy).sum()))
    if denom == 0.0:
        raise DegenerateError("zero variance in a coordinate")
    value = min(1.0, max(-1.0, float((dx * dy).sum()) / denom))
    return CoefficientValue(value=value, method=Method.PEARSON, n=s.n)


def _quadrant_counts(rx: np.ndarray, ry: np.ndarray) -> np.ndarray:
    """c_i = #{j : rx_j < rx_i and ry_j < ry_i}, blockwise to bound memory."""
    n = rx.size
    c = np.empty(n, dtype=np.int64)
    for lo, hi in row_chunks(n, n):
        c[lo:hi] = (
            (rx[None, :] < rx[lo:hi, None]) & (ry[None, :] < ry[lo:hi, None])
        ).sum(axis=1)
    return c


def hoeffding_numerator(rx: np.ndarray, ry: np.ndarray) -> int:
    """Exact integer numerator A - 2(n-2)B + (n-2)(n-3)C of the D statistic."""
    n = rx.size
    c = _quadrant_counts(rx, ry)
    lx, ly, lc = rx.tolist(), ry.tolist(), c.tolist()
    A = sum((a - 1) * (a - 2) * (b - 1) * (b - 2) for a, b in zip(lx, ly))
    B = sum((a - 2) * (b - 2) * q for a, b, q in zip(lx, ly, lc))
    C = sum(q * (q - 1) for q in lc)
    return A - 2 * (n - 2) * B + (n - 2) * (n - 3) * C


def batch_hoeffding_numerators(rows: np.ndarray) -> np.ndarray:
    """Row-wise :func:`hoeffding_numerator` of y-rank rows in ascending-x order
    (x-ranks 1..n; a sum over points, it ignores their order), as exact Python
    integers in an object array."""
    identity = np.arange(1, rows.shape[1] + 1, dtype=np.int64)
    return np.array([hoeffding_numerator(identity, row.astype(np.int64)) for row in rows],
                    dtype=object)


def hoeffding_denominator(n: int) -> int:
    return n * (n - 1) * (n - 2) * (n - 3) * (n - 4)


def hoeffding_d(s: Sample) -> CoefficientValue:
    """Hoeffding's dependence statistic from y-ranks in ascending-x order
    (x-ranks 1..n) and quadrant counts, like its permutation score.

    Unscaled convention: the population functional ranges over [-1/60, 1/30],
    with 0 under independence. Requires tie-free data and n >= 5.
    """
    if s.n < 5:
        raise SizeError(f"Hoeffding's D needs n >= 5, got {s.n}")
    rx = np.arange(1, s.n + 1, dtype=np.int64)
    value = hoeffding_numerator(rx, sorted_y_ranks(s)) / hoeffding_denominator(s.n)
    return CoefficientValue(value=value, method=Method.HOEFFDING_D, n=s.n)


# ---------------------------------------------------------------------------
# method table


@dataclass(frozen=True)
class MethodSpec:
    """Per-method facts. `coefficient(s, M)` takes M=None unless `needs_m`.
    `score(rows, M)` gives exact integer scores of y-rank rows in ascending-x
    order, larger for stronger dependence; it is None for a method without a
    permutation test."""

    needs_m: bool
    coefficient: Callable[[Sample, Optional[int]], CoefficientValue]
    score: Optional[Callable[[np.ndarray, Optional[int]], np.ndarray]] = None


METHODS: dict[Method, MethodSpec] = {
    Method.XI_CLASSIC: MethodSpec(False, lambda s, M: chatterjee_xi(s)),
    Method.XI_NM: MethodSpec(True, xi_nm),
    Method.XI_NM_REFLECTED: MethodSpec(True, xi_nm_reflected),
    Method.XI_PM: MethodSpec(True, xi_pm, _two_direction_sums),
    Method.SYMMETRIC_NN: MethodSpec(True, symmetric_nn_sum, batch_symmetric_min_sums),
    Method.PEARSON: MethodSpec(False, lambda s, M: pearson_r(s)),
    Method.HOEFFDING_D: MethodSpec(False, lambda s, M: hoeffding_d(s),
                                   lambda rows, M: batch_hoeffding_numerators(rows)),
}


# ---------------------------------------------------------------------------
# population measure for the Gaussian rotation model


@lru_cache(maxsize=256)
def _population_xi_value(rho: float, tol: float) -> float:
    from scipy import integrate
    from scipy.special import ndtr

    sig = math.sqrt(1.0 - rho * rho)
    sqrt2pi = math.sqrt(2.0 * math.pi)

    def phi(t: float) -> float:
        return math.exp(-0.5 * t * t) / sqrt2pi

    def sf(t: float) -> float:
        return float(ndtr(-t))

    def conditional_sf_sq_mean(y: float) -> float:
        # E_x[(P(Y >= y | X = x))**2] with x ~ N(0,1)
        def f(x: float) -> float:
            return sf((y - rho * x) / sig) ** 2 * phi(x)

        val, _ = integrate.quad(f, -np.inf, np.inf, epsabs=tol * 1e-2, limit=200)
        return val

    def integrand(y: float) -> float:
        # Var_x P(Y >= y | X = x), weighted by the marginal density of y
        return (conditional_sf_sq_mean(y) - sf(y) ** 2) * phi(y)

    num, _ = integrate.quad(integrand, -np.inf, np.inf, epsabs=tol * 1e-1, limit=200)
    return 6.0 * num


def gaussian_population_xi(rho: float, tol: float = 1e-9) -> PopulationXi:
    """Population dependence measure of a standard bivariate normal.

    Evaluates the variance-of-conditional-survival functional by nested
    adaptive quadrature; the marginal-variance denominator is exactly 1/6, so
    only the numerator is integrated. Even in rho, 0 at independence.
    """
    if not -1.0 < rho < 1.0:
        raise RhoRangeError(f"rho must lie in (-1, 1), got {rho}")
    if rho == 0.0:
        return PopulationXi(rho=0.0, xi=0.0, quadrature_tolerance=tol)
    return PopulationXi(rho=float(rho), xi=_population_xi_value(abs(float(rho)), tol),
                        quadrature_tolerance=tol)


# ---------------------------------------------------------------------------
# finite-sample range


def extremal_bounds_exact(n: int, M: int) -> tuple[Fraction, Fraction]:
    """Exact (upper, lower) attainable range of the M-neighbor coefficient."""
    validate_neighbor_count(n, M)
    upper = 1 - Fraction(3 * (M + 1), 4 * n + M + 1)
    lower = Fraction(-1, 2) + Fraction(3 * (4 * n - (n + 1) * (M + 1)),
                                       2 * (n + 1) * (4 * n + M + 1))
    return upper, lower


def extremal_bounds(n: int, M: int) -> tuple[float, float]:
    """Float (upper, lower) range bounds; see :func:`extremal_bounds_exact`."""
    upper, lower = extremal_bounds_exact(n, M)
    return float(upper), float(lower)


def monotone_extremal_values_exact(n: int, M: int) -> tuple[Fraction, Fraction]:
    """Exact coefficient when y is a strictly increasing resp. decreasing
    function of x. The increasing case coincides with the upper range bound."""
    validate_neighbor_count(n, M)
    increasing = 1 - Fraction(3 * (M + 1), 4 * n + M + 1)
    decreasing = 1 - Fraction((M + 1) * (15 * n - 8 * M - 1), (n + 1) * (4 * n + M + 1))
    return increasing, decreasing


def xi_nm_exact(s: Sample, M: int) -> Fraction:
    """Exact rational value of the statistic :func:`xi_nm` evaluates."""
    rs = sorted_y_ranks(s)
    M = validate_neighbor_count(rs.size, M)
    return xi_fraction_from_min_sum(min_rank_sum(rs, M), rs.size, M)
