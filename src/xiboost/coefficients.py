"""Correlation coefficients built on y-ranks in ascending-x order.

All rank statistics accumulate integer scores exactly and perform a single
float division at the end, so values are bit-identical across platforms.
Exact rational variants back the enumeration and extremal-identity checks.

:data:`METHODS` defines each rank statistic by its batch `score` kernel and
its `scale`, and says which methods take M and which have a permutation
test. A coefficient is the scaled score of a batch of one int64 row
(:func:`score_sample`), a permutation null the scores of drawn int16 or
int32 rows. Every min-rank sum runs one pair-minimum loop over neighbor
distances; symmetric-nn takes about M/2 full distances of it plus two
windows M+1 wide, and the right-neighbor sums take min(M, n-1-M)
distances. The loop takes a batch of narrow rows one cache-sized block of
rows at a time and adds the minima of several distances in the row dtype
before each column sum, which runs over long rows of the block: int32
partial sums for int16 rows, exact while fewer than 2^16 long rows are
added, folded in int64; the one int64 row takes one minimum and one int64
sum per distance. Hoeffding's D counts earlier, smaller entries by merge
counting on one key per entry, below 2^(2L+1) for rows padded to 2^L
entries: int32 keys up to n = 32768, int64 keys above. Its numerator is
exact up to HOEFFDING_MAX_N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigError, DegenerateError, SizeError
from .ranks import (
    Sample,
    XOrder,
    block_rows,
    sorted_y_ranks,
    validate_neighbor_count,
    validate_ranks,
    validate_rho,
    validate_sizes,
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
    the one row a sample's coefficient scores, are transposed whole and take
    one minimum and one int64 column sum per distance. The block loop below
    would take them too, and for a row that fits in cache it is faster (one
    row at n = 5000, M = 200: 0.96-1.33 ms against 1.29-1.66 ms), but for
    one long row it is slower and larger: at n = 1e6, M = 20 it took
    38-40 ms and 24 MB against 25 ms and 8 MB here (medians of interleaved
    calls, 2 cores), and the benchmark's `cli_coef` (that row) read op_s
    1.35-1.44 s against 1.19-1.38 s over three pairs.

    Narrower rows (the int16 and int32 permutation draws) are transposed one
    cache-sized block of rows (:func:`ranks.block_rows`) at a time. The
    minima of G consecutive distances are added up in the row dtype, and
    each group takes one int64 column sum, run over rows of at least 512
    entries by :func:`_column_sums`: a block holds few rows when n is large
    (6 int16 rows at n = 20000), and a plain column sum over so narrow a
    block cost more than the minima. With V the largest magnitude in
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
            out[start:start + step] += _column_sums(sums[: n - head])
    return out


# Least length of the rows :func:`_column_sums` reduces over.
_SUM_ROW_LENGTH = 512


def _column_sums(a: np.ndarray) -> np.ndarray:
    """int64 column sums of a C-contiguous (m, k) array, taken over rows of
    at least :data:`_SUM_ROW_LENGTH` entries.

    A column sum of a narrow block is a strided reduction whose inner loop
    runs k entries long, and it gets slower as k shrinks. So each r =
    ceil(512 / k) consecutive rows are viewed as one row of r k entries (no
    copy), those rows are summed, the r partial rows are folded into k
    columns, and the m % r tail rows are added. On a (20000, 6) int16 block
    (n = 20000) this took 70-90 µs against 470 µs for the plain column sum
    (2-vCPU Xeon host).

    The long rows of an int16 array are summed in int32 when there are
    fewer than 2^16 of them, and the r partial rows folded in int64. Each
    partial sum adds at most 2^16 - 1 entries of magnitude at most 2^15, so
    it stays within int32, and every int16 rank batch (n <= 32767) meets
    the bound. Other dtypes, and longer int16 arrays, sum in int64.
    """
    m, k = a.shape
    r = -(-_SUM_ROW_LENGTH // k)
    whole = m - m % r
    partial = np.int32 if a.dtype == np.int16 and whole // r < 2 ** 16 else np.int64
    out = a[:whole].reshape(whole // r, r * k).sum(axis=0, dtype=partial)
    out = out.reshape(r, k).sum(axis=0, dtype=np.int64)
    out += a[whole:].sum(axis=0, dtype=np.int64)
    return out


def _check_min_sum_bound(n: int, M: int) -> None:
    """SizeError past M n(n+1)/2 = 2^63 - 1 (from n = 2,642,246 at M = n-1), which bounds
    every min-rank sum and partial sum: each position adds at most M copies of its rank."""
    if int(M) * n * (n + 1) // 2 > 2 ** 63 - 1:  # a Python int, so a numpy M cannot wrap
        raise SizeError(f"min-rank sums need M*n*(n+1)/2 <= 2^63 - 1, got n = {n}, M = {M}")


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
    shorter loop. Exact int64 arithmetic, within :func:`_check_min_sum_bound`.
    """
    n = rows.shape[1]
    _check_min_sum_bound(n, M)
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
    a one-row :func:`batch_min_rank_sums` of `rs` read by :func:`ranks.validate_ranks`."""
    rs = validate_ranks("rs", rs)
    return int(batch_min_rank_sums(rs[None], validate_neighbor_count(rs.size, M))[0][0])


def batch_symmetric_min_sums(rows: np.ndarray, M: int) -> np.ndarray:
    """Row-wise int64 min-rank sums over each position's M nearest positions
    in x-rank distance; distance ties go to the right, edges shift inward.
    Every position takes its d-th right neighbor for d <= R = ceil(M/2) and
    its d-th left one for d <= L = floor(M/2); the first M+1-d positions also
    take a d-th right one for d > R, the last M+1-d a d-th left one for d > L.
    With S = :func:`_pair_min_sums` the sum is therefore 2 S(rows, 1, L) +
    S(rows, L+1, R) + S(first M+1 columns, R+1, M) + S(last M+1, L+1, M).
    """
    _check_min_sum_bound(rows.shape[1], M)
    right, left = (M + 1) // 2, M // 2
    return (2 * _pair_min_sums(rows, 1, left) + _pair_min_sums(rows, left + 1, right)
            + _pair_min_sums(rows[:, : M + 1], right + 1, M)
            + _pair_min_sums(rows[:, -(M + 1):], left + 1, M))


def symmetric_min_sum(rs: np.ndarray, M: int) -> int:
    """Raw symmetric-neighbor statistic: sum of min ranks over all incidences;
    a one-row :func:`batch_symmetric_min_sums` of `rs` read by :func:`ranks.validate_ranks`."""
    rs = validate_ranks("rs", rs)
    return int(batch_symmetric_min_sums(rs[None], validate_neighbor_count(rs.size, M))[0])


def xi_denominator(n: int, M: int) -> int:
    """Exact integer 4 * (n+1) * (nM + M(M+1)/4)."""
    return (n + 1) * (4 * n * M + M * (M + 1))


def xi_from_min_sum(S: int, n: int, M: int) -> float:
    """-2 + 24*S / denominator in one correctly rounded division."""
    return -2.0 + (24 * S) / xi_denominator(n, M)


def xi_fraction_from_min_sum(S: int, n: int, M: int) -> Fraction:
    return Fraction(24 * S, xi_denominator(n, M)) - 2


# ---------------------------------------------------------------------------
# coefficients


def _score_row(rs: np.ndarray, method: Method,
               M: Optional[int] = None) -> tuple[CoefficientValue, int]:
    """:func:`score_sample` of a row of y-ranks already in ascending-x order."""
    method = validate_method(method, tuple(Method), "coefficient")
    spec = METHODS[method]
    if spec.score is None:
        raise ConfigError(f"method {method.value} has no rank score; use pearson_r")
    n = rs.size
    M = validate_method_m(method, n, M)
    score = int(spec.score(rs[None], M)[0])
    return CoefficientValue(value=spec.scale(score, n, M), method=method, n=n, M=M), score


def score_sample(s: Sample, method: Method,
                 M: Optional[int] = None) -> tuple[CoefficientValue, int]:
    """The coefficient of a rank method of :data:`METHODS` and its exact
    integer score: orders the sample (so a tie is reported before the method,
    M or n is checked), reads the method by :func:`validate_method` and M by
    :func:`validate_method_m`, scores the one row as a batch of one and
    scales the score."""
    return _score_row(sorted_y_ranks(s), method, M)


def chatterjee_xi(s: Sample) -> CoefficientValue:
    """Classic right-neighbor rank correlation, 1 - 3*sum|dR| / (n^2 - 1).

    The sum runs over consecutive rank differences in ascending-x order; the
    largest x pairs with itself and contributes nothing.
    """
    return score_sample(s, Method.XI_CLASSIC)[0]


def xi_nm(s: Sample, M: int) -> CoefficientValue:
    """Rank correlation using each point's M right nearest neighbors.

    Normalized so the expectation under independence is exactly zero for any
    M in 1..n-1. Cost is O(n log n + n M).
    """
    return score_sample(s, Method.XI_NM, M)[0]


def xi_nm_from_ranks(r: Sequence[int], ord: Optional[XOrder], M: int) -> CoefficientValue:
    """Same statistic as :func:`xi_nm`, evaluated from precomputed ranks.

    `ord` sorts the x coordinate and must have one position per rank; pass
    None for the identity order, which is the null-replicate fast path where
    the m-th right neighbor of index i is simply i+m; `r` is read in the null rows' dtype.
    """
    arr = validate_ranks("r", r)
    if ord is not None and ord.n != arr.size:
        raise SizeError(f"ord orders {ord.n} values but r holds {arr.size} ranks")
    return _score_row(arr if ord is None else arr[ord.order], Method.XI_NM, M)[0]


def xi_nm_reflected(s: Sample, M: int) -> CoefficientValue:
    """:func:`xi_nm` on (x, -y), computed by rank reflection without re-sorting."""
    return score_sample(s, Method.XI_NM_REFLECTED, M)[0]


def xi_pm(s: Sample, M: int) -> CoefficientValue:
    """Max of :func:`xi_nm` on (x, y) and on (x, -y); the two-direction test statistic."""
    return score_sample(s, Method.XI_PM, M)[0]


def symmetric_nn_sum(s: Sample, M: int) -> CoefficientValue:
    """Raw min-rank sum over each point's M nearest x-rank neighbors, both sides.

    Distance ties prefer the right neighbor, so at M=1 every point takes its
    right neighbor except the largest x. The statistic is left uncentered;
    calibrate it by permutation (any affine normalization would cancel).
    """
    return score_sample(s, Method.SYMMETRIC_NN, M)[0]


def pearson_r(s: Sample) -> CoefficientValue:
    """Sample Pearson correlation; requires n >= 3 and no constant coordinate. Each
    coordinate, then each centred one, is scaled exactly by the power of two that brings
    its largest magnitude into [0.5, 1), so r holds at any finite magnitude."""
    def unit(v):
        return np.ldexp(v, -np.frexp(np.abs(v).max())[1])

    if s.n < 3:
        raise SizeError(f"Pearson correlation needs n >= 3, got {s.n}")
    if s.x.min() == s.x.max() or s.y.min() == s.y.max():  # its mean may not round back
        raise DegenerateError("zero variance in a coordinate")
    dx, dy = (unit(v - v.mean()) for v in map(unit, (s.x, s.y)))
    denom = math.sqrt(float((dx * dx).sum()) * float((dy * dy).sum()))
    value = min(1.0, max(-1.0, float((dx * dy).sum()) / denom))
    return CoefficientValue(value=value, method=Method.PEARSON, n=s.n)


# Positions per float block of batch_hoeffding_numerators' estimate, and the
# largest n at which its two words give the exact numerator; see its docstring.
_HOEFFDING_BLOCK = 1024
HOEFFDING_MAX_N = 1_940_492


def _exchange(a: np.ndarray, b: np.ndarray, tmp: np.ndarray) -> None:
    """Compare-exchange: a, b = min(a, b), max(a, b), entry by entry."""
    np.minimum(a, b, out=tmp)
    np.maximum(a, b, out=b)
    a[...] = tmp


def _flag_right_runs(block: np.ndarray, pattern: np.ndarray, w: int, L: int) -> None:
    """Before a merge of :func:`_earlier_smaller_counts`' 2w-blocks: each
    right-run entry of the keys `block`, at column c of its block, takes the
    flag and adds 2w - c to its count. `pattern` is a buffer with one entry
    per column of `block`, broadcast over its rows."""
    runs = pattern.reshape(-1, 2, w)
    runs[:, 0] = 0
    runs[:, 1] = np.arange(w + (1 << L), 1 << L, -1)
    block += pattern


def _add_merged_gains(block: np.ndarray, tmp: np.ndarray, pattern: np.ndarray, w: int,
                      L: int) -> None:
    """After the merge: each flagged entry, now at column q of its block,
    adds q - w and drops the flag. `tmp` is scratch of `block`'s shape."""
    pattern.reshape(-1, 2 * w)[:] = np.arange(-w - (1 << L), w - (1 << L))
    np.right_shift(block, L, out=tmp)
    tmp &= 1
    tmp *= pattern
    block += tmp


def _earlier_smaller_counts(rows: np.ndarray) -> np.ndarray:
    """c[r, i] = #{j < i : rows[r, j] < rows[r, i]} for rows that are
    permutations of 1..n, by bottom-up merge counting (Knight 1966) over all
    rows at once: O(n log^2 n) per row.

    Each row is padded with n+1..P up to P = 2^L; padding sits after every
    real entry, so it adds to no real count. An entry is one key
    (value-1) << (L+1) | flag << L | field, so sorting keys sorts values.
    At level w = 1, 2, ..., P/2 each 2w-block holds a sorted left run and a
    sorted right run, and the field holds the entry's count so far, at most
    w - 1. Merging keeps each run's order, so the right entry at column c of
    its block (index c - w of its run) lands at some index q with c - w right
    entries before it: it gains q - c + w, the smaller left entries. So
    before the merge a right entry takes the flag and adds 2w - c to its
    field (now at most 2w - 1), and after it each flagged entry adds
    q - w - flag, which leaves count + q - c + w and clears the flag. Keys
    stay below 2^(2L+1): int32 holds them for L <= 15 (n <= 32768), int64
    for L <= 31, past HOEFFDING_MAX_N.

    Levels 0 and 1 work on four planes, plane j holding positions j, j+4,
    ..., and merge by compare-exchanges of whole planes: (0, 1) and (2, 3),
    then Batcher's (0, 2), (1, 3) and (1, 2). Each later level sorts its
    2w-blocks. Every level runs in the keys and one scratch array, and after
    the last one row r holds value v at column v - 1, so the counts are
    gathered through one intp index.
    """
    k, n = rows.shape
    L = max(n - 1, 0).bit_length()
    P = 1 << L
    dt = np.int32 if 2 * L + 1 < 32 else np.int64
    keys = np.empty((k, P), dtype=dt)
    spare = np.empty_like(keys)
    keys[:, :n] = rows
    keys[:, n:] = np.arange(n + 1, P + 1, dtype=dt)
    keys -= 1
    keys <<= L + 1
    D = min(P, 4)
    planes, tmp = spare.reshape(k, D, P // D), keys.reshape(k, D, P // D)
    for j in range(D):
        planes[:, j] = keys[:, j::D]
    pattern = np.empty((D, 1), dtype=dt)
    if L > 0:
        _flag_right_runs(planes, pattern, 1, L)
        _exchange(planes[:, 0::2], planes[:, 1::2], tmp[:, 0::2])
        _add_merged_gains(planes, tmp, pattern, 1, L)
    if L > 1:
        _flag_right_runs(planes, pattern, 2, L)
        _exchange(planes[:, :2], planes[:, 2:], tmp[:, :2])
        _exchange(planes[:, 1], planes[:, 2], tmp[:, 0])
        _add_merged_gains(planes, tmp, pattern, 2, L)
    for j in range(D):
        keys[:, j::D] = planes[:, j]
    pattern = np.empty(P, dtype=dt)
    for lw in range(2, L):
        _flag_right_runs(keys, pattern, 1 << lw, L)
        keys.reshape(-1, 2 << lw).sort(axis=-1)
        _add_merged_gains(keys, spare, pattern, 1 << lw, L)
    del spare, planes, tmp, pattern
    index = rows.astype(np.intp)
    index += (np.arange(k) * P - 1)[:, None]
    counts = np.take(keys, index)
    counts &= P - 1
    return counts


def batch_hoeffding_numerators(rows: np.ndarray) -> np.ndarray:
    """Row-wise exact numerator N = A - 2(n-2)B + (n-2)(n-3)C of Hoeffding's
    D, as an object array of Python ints, for y-rank rows in ascending-x
    order, so the x-rank of position i is a = i+1. With b the y-rank and c
    the count of earlier, smaller entries: A = sum (a-1)(a-2)(b-1)(b-2),
    B = sum (a-2)(b-2)c, C = sum c(c-1). Rows longer than HOEFFDING_MAX_N
    = 1,940,492 raise SizeError.

    Two words. Each sum is a dot product of a factor of b and c with a
    weight of a, all below n^2 < 2^53 in magnitude, so int64 and float64
    hold them exactly. The low word evaluates N in uint64, which wraps, so
    it is N mod 2^64. The estimate e evaluates N in float64 with each dot
    product taken over blocks of 1024 positions and the block sums added in
    turn. Then N = int(e) + d, d the representative of (low - int(e)) mod
    2^64 in [-2^63, 2^63), whenever |N - int(e)| < 2^63.

    Bound. Every term of A, B and C is >= 0 (c = 0 when a = 1 or b = 1),
    and each total is at most its value on the identity row (b = a,
    c = a-1): for A by the rearrangement inequality on the nondecreasing
    (a-1)(a-2) and (b-1)(b-2); for C since c <= a-1; for B since c <= a-1
    bounds a term by (a-1)(a-2)max(b-2, 0), again a product of
    nondecreasing factors. So S = A + (n-2)(n-3)C + 2(n-2)B is at most
    S_id(n) = 4 C(n,5) + 8(n-2)(3 C(n,4) + C(n,3)). Whatever order a dot
    product adds in, each of the 3n signed terms of N reaches e through at
    most K = 1026 + ceil(n/1024) roundings: its product, 1023 additions in
    its block, ceil(n/1024) - 1 additions of block sums, and at most three
    operations that scale and add A, B and C. So |e - N| <= g_K S, with
    g_K = Ku/(1 - Ku) and u = 2^-53 (Higham, Accuracy and Stability of
    Numerical Algorithms, Lemma 3.1), and |N - int(e)| < g_K S_id(n) + 1,
    which is at most 2^63 up to n = HOEFFDING_MAX_N and not one past it.
    """
    k, n = rows.shape
    if n > HOEFFDING_MAX_N:
        raise SizeError(f"Hoeffding's D is exact for n <= {HOEFFDING_MAX_N}, got {n}")
    c = _earlier_smaller_counts(rows)
    a = np.arange(1, n + 1, dtype=np.int64)
    low, estimate = np.zeros(k, dtype=np.uint64), np.zeros(k)

    def terms():
        # A, C and B as (factor, weight, scale), each built at its turn: the
        # operands of a factor are freed by its multiply
        yield np.multiply(rows - 1, rows - 2, dtype=np.int64), (a - 1) * (a - 2), 1
        yield np.multiply(c, c - 1, dtype=np.int64), np.ones(n, dtype=np.int64), (n - 2) * (n - 3)
        yield np.multiply(rows - 2, c, dtype=np.int64), a - 2, -2 * (n - 2)

    for factor, weight, scale in terms():
        with np.errstate(over="ignore"):
            low += factor.view(np.uint64) @ weight.view(np.uint64) * np.uint64(scale % 2**64)
        factor, weight = factor.astype(np.float64), weight.astype(np.float64)
        estimate += scale * sum(factor[:, j:j + _HOEFFDING_BLOCK] @ weight[j:j + _HOEFFDING_BLOCK]
                                for j in range(0, n, _HOEFFDING_BLOCK))
    return np.array([e + (lo - e + 2**63) % 2**64 - 2**63
                     for e, lo in zip(map(int, estimate.tolist()), low.tolist())], dtype=object)


def hoeffding_numerator(rx: np.ndarray, ry: np.ndarray) -> int:
    """Exact integer numerator of the D statistic for x-ranks `rx` and
    y-ranks `ry`, two permutations of 1..n; a one-row
    :func:`batch_hoeffding_numerators`."""
    rx, ry = validate_ranks("rx", rx), validate_ranks("ry", ry)
    if rx.size != ry.size:
        raise SizeError(f"rx holds {rx.size} ranks but ry holds {ry.size}")
    return int(batch_hoeffding_numerators(ry[np.argsort(rx)][None])[0])


def hoeffding_denominator(n: int) -> int:
    return n * (n - 1) * (n - 2) * (n - 3) * (n - 4)


def hoeffding_d(s: Sample) -> CoefficientValue:
    """Hoeffding's dependence statistic: the numerator of its y-ranks in
    ascending-x order (x-ranks 1..n), the row its permutation test scores,
    over n(n-1)(n-2)(n-3)(n-4) in one correctly rounded division.

    Unscaled convention: the population functional ranges over [-1/60, 1/30],
    with 0 under independence. Requires tie-free data and n >= 5, checked in
    that order.
    """
    return score_sample(s, Method.HOEFFDING_D)[0]


def _hoeffding_scale(numerator: int, n: int, M: Optional[int]) -> float:
    if n < 5:
        raise SizeError(f"Hoeffding's D needs n >= 5, got {n}")
    return numerator / hoeffding_denominator(n)


# ---------------------------------------------------------------------------
# method table


@dataclass(frozen=True)
class MethodSpec:
    """Per-method facts. A rank method's `score(rows, M)` gives exact integer
    scores of a batch of y-rank rows in ascending-x order, and `scale(S, n,
    M)` turns one score into the coefficient in one float step (a division,
    or a cast for the raw symmetric-nn sum); M is None unless `needs_m`. A
    `tested` method has a permutation test, which compares scores, so its
    score is larger for stronger dependence. Pearson's r is no rank
    statistic and has neither."""

    needs_m: bool
    score: Optional[Callable[[np.ndarray, Optional[int]], np.ndarray]] = None
    scale: Optional[Callable[[int, int, Optional[int]], float]] = None
    tested: bool = False


METHODS: dict[Method, MethodSpec] = {
    Method.XI_CLASSIC: MethodSpec(
        False, lambda rows, M: np.abs(np.diff(rows, axis=1)).sum(axis=1, dtype=np.int64),
        lambda S, n, M: 1.0 - (3 * S) / (n * n - 1)),
    Method.XI_NM: MethodSpec(True, lambda rows, M: batch_min_rank_sums(rows, M)[0],
                             xi_from_min_sum),
    Method.XI_NM_REFLECTED: MethodSpec(True, lambda rows, M: batch_min_rank_sums(rows, M)[1],
                                       xi_from_min_sum),
    Method.XI_PM: MethodSpec(True, lambda rows, M: np.maximum(*batch_min_rank_sums(rows, M)),
                             xi_from_min_sum, tested=True),
    Method.SYMMETRIC_NN: MethodSpec(True, batch_symmetric_min_sums,
                                    lambda S, n, M: float(S), tested=True),
    Method.PEARSON: MethodSpec(False),
    Method.HOEFFDING_D: MethodSpec(False, lambda rows, M: batch_hoeffding_numerators(rows),
                                   _hoeffding_scale, tested=True),
}

TESTED_METHODS = tuple(m for m in Method if METHODS[m].tested)


def validate_method(method, choices: tuple, purpose: str) -> Method:
    """The one reading of a method setting: a :class:`Method` or its name among
    `choices`; anything else raises :class:`ConfigError` naming the choices."""
    if method not in choices:
        raise ConfigError(f"method {getattr(method, 'value', method)} has no {purpose}; "
                          "choose from " + ",".join(m.value for m in choices))
    return Method(method)


def validate_method_m(method: Method, n: Optional[int], M) -> Optional[int]:
    """The one rule that M is given exactly when the method `needs_m`: M read
    by :func:`validate_neighbor_count`, or None; else a ConfigError."""
    needs_m = METHODS[method].needs_m
    if needs_m != (M is not None):
        verb = "requires" if needs_m else "does not take"
        raise ConfigError(f"method {method.value} {verb} M")
    return validate_neighbor_count(n, M) if needs_m else None


# ---------------------------------------------------------------------------
# population measure for the Gaussian rotation model

_QUAD_TOL = 1e-9  # target error of xi; its nested quadratures run at 1/10 and 1/100 of it


@lru_cache(maxsize=256)
def _population_xi_value(rho: float) -> float:
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

        val, _ = integrate.quad(f, -np.inf, np.inf, epsabs=_QUAD_TOL * 1e-2, limit=200)
        return val

    def integrand(y: float) -> float:
        # Var_x P(Y >= y | X = x), weighted by the marginal density of y
        return (conditional_sf_sq_mean(y) - sf(y) ** 2) * phi(y)

    num, _ = integrate.quad(integrand, -np.inf, np.inf, epsabs=_QUAD_TOL * 1e-1, limit=200)
    return 6.0 * num


def gaussian_population_xi(rho: float) -> PopulationXi:
    """Population dependence measure of a standard bivariate normal.

    Evaluates the variance-of-conditional-survival functional by nested
    adaptive quadrature; the marginal-variance denominator is exactly 1/6, so
    only the numerator is integrated. Even in rho, 0 at independence.
    """
    rho = validate_rho(rho)
    if rho == 0.0:
        return PopulationXi(rho=0.0, xi=0.0, quadrature_tolerance=_QUAD_TOL)
    return PopulationXi(rho=rho, xi=_population_xi_value(abs(rho)),
                        quadrature_tolerance=_QUAD_TOL)


# ---------------------------------------------------------------------------
# finite-sample range


def extremal_bounds_exact(n: int, M: int) -> tuple[Fraction, Fraction]:
    """Exact (upper, lower) attainable range of the M-neighbor coefficient."""
    n, M = validate_sizes(n, M)
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
    n, M = validate_sizes(n, M)
    increasing, _ = extremal_bounds_exact(n, M)
    decreasing = 1 - Fraction((M + 1) * (15 * n - 8 * M - 1), (n + 1) * (4 * n + M + 1))
    return increasing, decreasing


def xi_nm_exact(s: Sample, M: int) -> Fraction:
    """Exact rational value of the statistic :func:`xi_nm` evaluates."""
    value, score = score_sample(s, Method.XI_NM, M)
    return xi_fraction_from_min_sum(score, value.n, value.M)
