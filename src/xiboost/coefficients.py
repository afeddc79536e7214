"""Correlation coefficients built on y-ranks in ascending-x order.

All rank statistics accumulate integer min-rank sums exactly and perform a
single float division at the end, so values are bit-identical across
platforms. Exact rational variants back the enumeration and extremal-identity
checks.

Each sum has one kernel over a batch of rank rows: a coefficient is a batch
of one int64 row, a permutation null a batch of drawn int16 or int32 rows.
Every min-rank sum runs one pair-minimum loop over neighbor distances;
symmetric-nn takes about M/2 full distances of it plus two windows M+1 wide,
and the right-neighbor sums take min(M, n-1-M) distances. The loop takes a
batch of narrow rows one cache-sized block of rows at a time and adds the
minima of several distances in the row dtype before each int64 sum; the one
int64 row takes one minimum and one int64 sum per distance. :data:`METHODS`
says which methods take M (xi-nm, xi-nm-reflected, xi-pm, symmetric-nn) and
which have a permutation test (xi-pm, symmetric-nn, hoeffding-d).
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
    block_rows,
    is_rank_permutation,
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


def _pair_min_sums(rows: np.ndarray, first: int, last: int) -> np.ndarray:
    """Row-wise int64 sum over d = first..last and positions p of min(row[p], row[p+d]);
    the one pair-minimum loop under every min-rank kernel.

    Rows are transposed to contiguous (n, k) columns, so each distance is one
    `np.minimum` of two contiguous blocks into a reused buffer. int64 rows,
    the one row a coefficient scores, are transposed whole and take one
    minimum and one int64 column sum per distance. The block loop below
    would take them too, and for a row that fits in cache it is faster (one
    row at n = 5000, M = 200: 0.96-1.33 ms against 1.29-1.66 ms), but for
    one long row it is slower and larger: at n = 1e6, M = 20 it took
    38-40 ms and 24 MB against 25 ms and 8 MB here (medians of interleaved
    calls, 2 cores), and the benchmark's `cli_coef` (that row) read op_s
    1.35-1.44 s against 1.19-1.38 s over three pairs.

    Narrower rows (the int16 and int32 permutation draws) are transposed one
    cache-sized block of rows (:func:`ranks.block_rows`) at a time. The
    minima of G consecutive distances are added up in the row dtype, and
    each group takes one int64 column sum. With V the largest magnitude in
    the rows, G = max(1, dtype max // V), so a running sum of G minima stays
    within [-G V, G V] and cannot wrap: G = 32 for int16 ranks at n = 1000,
    and G = 1 from n = 16384. The bound comes from the values, not from the
    width: callers pass windows (symmetric-nn's edges) that hold ranks up to
    the full row length.
    """
    k, n = rows.shape
    out = np.zeros(k, dtype=np.int64)
    if first > last or k == 0:
        return out
    if rows.itemsize == 8:
        cols = np.ascontiguousarray(rows.T)
        buf = np.empty((n - first, k), dtype=cols.dtype)
        for d in range(first, last + 1):
            np.minimum(cols[: n - d], cols[d:], out=buf[: n - d])
            out += buf[: n - d].sum(axis=0, dtype=np.int64)
        return out
    group = max(1, np.iinfo(rows.dtype).max // max(int(rows.max()), -int(rows.min()), 1))
    step = min(block_rows(n, rows.itemsize), k)
    store = np.empty((3, n * step), dtype=rows.dtype)
    for start in range(0, k, step):
        block = rows[start:start + step]
        cols, mins, sums = (flat[: block.size].reshape(n, len(block)) for flat in store)
        cols[...] = block.T
        for head in range(first, last + 1, group):
            np.minimum(cols[: n - head], cols[head:], out=sums[: n - head])
            for d in range(head + 1, min(head + group, last + 1)):
                np.minimum(cols[: n - d], cols[d:], out=mins[: n - d])
                sums[: n - d] += mins[: n - d]
            out[start:start + step] += sums[: n - head].sum(axis=0, dtype=np.int64)
    return out


def batch_min_rank_sums(rows: np.ndarray, M: int) -> tuple[np.ndarray, np.ndarray]:
    """Min-rank sums of each row and of its rank reflection, in one pass.

    Each row holds y-ranks in ascending-x order (a permutation of 1..n), so
    the m-th right neighbor of position p is position p+m, and the last m
    positions pair with themselves. Per distance m the direct sum is P_m + T_m
    (P = pair minima, T = sum of the last m entries). The reflected sum, over
    ranks n+1-r, uses min(n+1-a, n+1-b) = (n+1) - a - b + min(a, b); the
    linear terms collapse to P_m + H_m (H = sum of the first m entries). The
    head and tail sums over m = 1..M are closed-form weighted sums, so only
    the pair minima need the loop.

    Far distances: over all pairs p < q, sum min(r_p, r_q) = sum_r r(n-r) =
    (n^3-n)/6, since rank r is the smaller of a pair with each of the n-r
    larger ranks. When 2M > n-1 the pair minima over distances 1..M are
    therefore (n^3-n)/6 less those over the n-1-M distances M+1..n-1, the
    shorter loop. The total is below 2^63 for n <= 3,810,778. Exact int64
    arithmetic throughout.
    """
    n = rows.shape[1]
    if 2 * M > n - 1:
        pairs = (n ** 3 - n) // 6 - _pair_min_sums(rows, M + 1, n - 1)
    else:
        pairs = _pair_min_sums(rows, 1, M)
    # for m = 1..M, position n-M+j is among the last m entries j+1 times and
    # position j among the first m entries M-j times
    weights = np.arange(1, M + 1, dtype=np.int64)
    # einsum casts narrow rows to int64 through small buffers; `@` would copy
    # each (k, M) slice to int64 whole
    tails = np.einsum("km,m->k", rows[:, n - M:], weights)
    heads = np.einsum("km,m->k", rows[:, :M], weights[::-1])
    return pairs + tails, pairs + heads


def min_rank_sum(rs: np.ndarray, M: int) -> int:
    """Sum over all points and m = 1..M of min(rank, rank of m-th right neighbor);
    a one-row :func:`batch_min_rank_sums`."""
    return int(batch_min_rank_sums(np.asarray(rs)[None], M)[0][0])


def batch_symmetric_min_sums(rows: np.ndarray, M: int) -> np.ndarray:
    """Row-wise int64 min-rank sums over each position's M nearest positions
    in x-rank distance; distance ties go to the right, edges shift inward.
    Every position takes its d-th right neighbor for d <= R = ceil(M/2) and
    its d-th left one for d <= L = floor(M/2); the first M+1-d positions also
    take a d-th right one for d > R, the last M+1-d a d-th left one for d > L.
    With S = :func:`_pair_min_sums` the sum is therefore 2 S(rows, 1, L) +
    S(rows, L+1, R) + S(first M+1 columns, R+1, M) + S(last M+1, L+1, M).
    """
    right, left = (M + 1) // 2, M // 2
    return (2 * _pair_min_sums(rows, 1, left) + _pair_min_sums(rows, left + 1, right)
            + _pair_min_sums(rows[:, : M + 1], right + 1, M)
            + _pair_min_sums(rows[:, -(M + 1):], left + 1, M))


def symmetric_min_sum(rs: np.ndarray, M: int) -> int:
    """Raw symmetric-neighbor statistic: sum of min ranks over all incidences;
    a one-row :func:`batch_symmetric_min_sums`."""
    return int(batch_symmetric_min_sums(np.asarray(rs)[None], M)[0])


def xi_denominator(n: int, M: int) -> int:
    """Exact integer 4 * (n+1) * (nM + M(M+1)/4)."""
    return (n + 1) * (4 * n * M + M * (M + 1))


def xi_from_min_sum(S: int, n: int, M: int) -> float:
    """-2 + 24*S / denominator in one correctly rounded division (per entry of an array S)."""
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


# Largest n at which batch_hoeffding_numerators sums in int64; see its docstring.
HOEFFDING_INT64_MAX_N = 7041


def _earlier_smaller_counts(rows: np.ndarray) -> np.ndarray:
    """c[r, i] = #{j < i : rows[r, j] < rows[r, i]} for rows that are
    permutations of 1..n, by bottom-up merge counting (Knight 1966) over all
    rows at once: O(n log^2 n) per row.

    Each row is padded with n+1..P up to P = 2^L; padding sits after every
    real entry, so it adds to no real count. An entry is one key
    (value-1) << (L+1) | count << 1 | origin, below 2^(2L+1), so sorting keys
    sorts values and int32 holds them for L <= 15. At level w = 1, 2, ..., P/2
    each 2w-block holds a sorted left run and a sorted right run; setting the
    origin bit on the right run and sorting the block merges them. A right
    entry then gains the left entries before it in the merged block: the left
    entries before it in its row, less the w left entries of each earlier
    block.
    """
    k, n = rows.shape
    levels = max(n - 1, 0).bit_length()
    P = 1 << levels
    dt = np.int32 if 2 * levels + 1 < 32 else np.int64
    keys = np.empty((k, P), dtype=dt)
    keys[:, :n] = rows
    keys[:, n:] = np.arange(n + 1, P + 1, dtype=dt)
    keys -= 1
    keys <<= levels + 1
    col = np.arange(P, dtype=dt)
    for lw in range(levels):
        keys &= ~1
        keys |= (col >> lw) & 1
        keys.reshape(-1, 2 << lw).sort(axis=-1)
        right = keys & 1
        left_before = np.cumsum(right ^ 1, axis=1, dtype=dt)
        left_before -= (col >> (lw + 1)) << lw
        left_before *= right
        keys += left_before << 1
    by_value = (keys[:, :n] >> 1) & (P - 1)
    return np.take_along_axis(by_value, rows.astype(np.intp) - 1, axis=1)


def batch_hoeffding_numerators(rows: np.ndarray) -> np.ndarray:
    """Row-wise exact numerator A - 2(n-2)B + (n-2)(n-3)C of Hoeffding's D
    for y-rank rows in ascending-x order, so the x-rank of position i is
    a = i+1. With b the y-rank and c the count of earlier, smaller entries:
    A = sum (a-1)(a-2)(b-1)(b-2), B = sum (a-2)(b-2)c, C = sum c(c-1).

    Exactness: every term of A, B and C is >= 0 (c = 0 when a = 1 or b = 1)
    and below n^4, so each partial sum is at most its row total. Each total is at most its
    value on the identity row (b = a, c = a-1): for A by the rearrangement
    inequality on the nondecreasing (a-1)(a-2) and (b-1)(b-2); for C since
    c <= a-1; for B since c <= a-1 bounds a term by (a-1)(a-2)max(b-2, 0),
    again a product of nondecreasing factors. The result is evaluated as
    (A + (n-2)(n-3)C) - 2(n-2)B, so int64 is exact when the identity row's
    A + (n-2)(n-3)C and 2(n-2)B are below 2^63. That holds up to
    n = HOEFFDING_INT64_MAX_N = 7041 and fails at 7042; above it the same
    sums run on Python ints (an object array).
    """
    n = rows.shape[1]
    dt = np.int64 if n <= HOEFFDING_INT64_MAX_N else object
    c = _earlier_smaller_counts(rows).astype(dt)
    a = np.arange(1, n + 1, dtype=np.int64).astype(dt)
    b = rows.astype(dt)
    A = ((b - 1) * (b - 2)) @ ((a - 1) * (a - 2))
    B = ((b - 2) * c) @ (a - 2)
    C = (c * (c - 1)).sum(axis=1)
    return A + (n - 2) * (n - 3) * C - 2 * (n - 2) * B


def hoeffding_numerator(rx: np.ndarray, ry: np.ndarray) -> int:
    """Exact integer numerator of the D statistic for x-ranks `rx` and
    y-ranks `ry`; a one-row :func:`batch_hoeffding_numerators`."""
    ry = np.asarray(ry)
    return int(batch_hoeffding_numerators(ry[np.argsort(rx)][None])[0])


def hoeffding_denominator(n: int) -> int:
    return n * (n - 1) * (n - 2) * (n - 3) * (n - 4)


def hoeffding_d(s: Sample) -> CoefficientValue:
    """Hoeffding's dependence statistic: the numerator of its y-ranks in
    ascending-x order (x-ranks 1..n), the row its permutation test scores,
    over n(n-1)(n-2)(n-3)(n-4) in one correctly rounded division.

    Unscaled convention: the population functional ranges over [-1/60, 1/30],
    with 0 under independence. Requires tie-free data and n >= 5.
    """
    if s.n < 5:
        raise SizeError(f"Hoeffding's D needs n >= 5, got {s.n}")
    numerator = int(batch_hoeffding_numerators(sorted_y_ranks(s)[None])[0])
    value = numerator / hoeffding_denominator(s.n)
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
