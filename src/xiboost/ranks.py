"""Rank substrate: ranking, x-ordering, right-neighbor lookup, permutation sampling.

Index conventions: observation indices in the public right-neighbor API are
1-based (rank-style), while array positions inside :class:`XOrder` and the
positions reported by :class:`~xiboost.errors.TieError` are 0-based. All
conversions happen inside this module.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (ConfigError, DegenerateError, MRangeError, NonFiniteError, RhoRangeError,
                     SizeError, TieError)


def _seed_sequence(master_seed: int, key: tuple) -> np.random.SeedSequence:
    """The one place a seed enters numpy, read by :func:`validate_count`."""
    return np.random.SeedSequence(entropy=validate_count("seed", master_seed, 0), spawn_key=key)


def derive_rng(master_seed: int, *key: int) -> np.random.Generator:
    """Deterministic child generator for (master_seed, *key).

    Distinct key tuples give independent streams and the mapping is injective,
    so results derived per replicate id never depend on scheduling or worker
    count.
    """
    return np.random.default_rng(_seed_sequence(master_seed, key))


def derive_seed(master_seed: int, *key: int) -> int:
    """64-bit child seed for (master_seed, *key); companion to :func:`derive_rng`."""
    return int(_seed_sequence(master_seed, key).generate_state(1, np.uint64)[0])


def _as_float_array(values: Sequence[float], name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise SizeError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        bad = int(np.flatnonzero(~np.isfinite(arr))[0])
        raise NonFiniteError(f"{name}[{bad}] = {float(arr[bad])} is not finite")
    return arr


def _strict_order(arr: np.ndarray, coordinate: str) -> np.ndarray:
    """Ascending order of `arr`; a tie raises :class:`TieError` naming the
    smallest tied value at its two lowest indices, found by a stable re-sort
    made only then."""
    order = np.argsort(arr)
    srt = arr[order]
    eq = srt[1:] == srt[:-1]
    if eq.any():
        p = int(np.flatnonzero(eq)[0])
        order = np.argsort(arr, kind="stable")
        raise TieError(int(order[p]), int(order[p + 1]), float(srt[p]), coordinate)
    return order


@dataclass(frozen=True)
class Sample:
    """Paired observations (x_i, y_i), the universal input.

    Coordinates must be finite, one-dimensional, and of equal length n >= 2.
    Ties are not rejected at construction: Pearson's r accepts them, and every
    rank statistic raises :class:`TieError` through :func:`sorted_y_ranks`.
    Use :meth:`jittered` to resolve ties explicitly.
    """

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", _as_float_array(self.x, "x"))
        object.__setattr__(self, "y", _as_float_array(self.y, "y"))
        if self.x.size != self.y.size:
            raise SizeError(f"x and y differ in length: {self.x.size} vs {self.y.size}")
        if self.x.size < 2:
            raise SizeError(f"need at least 2 observations, got {self.x.size}")

    @property
    def n(self) -> int:
        return int(self.x.size)

    def reflected(self) -> "Sample":
        """Same x, negated y."""
        return Sample(self.x, -self.y)

    def jittered(self, seed: int) -> "Sample":
        """Tie-breaking copy that moves only tied values: each group of equal
        values, in seeded random order, is spread over equal steps inside half
        the gap to the next larger distinct value (for the largest group, the
        next smaller). Distinct values keep their order. A constant coordinate
        raises :class:`DegenerateError`, a gap too narrow to hold the group as
        distinct floats :class:`TieError`.
        """
        rng = derive_rng(seed, 0x71)
        cols = []
        for name, arr in (("x", self.x), ("y", self.y)):
            order = np.lexsort((rng.random(arr.size), arr))
            srt = arr[order]
            starts = np.flatnonzero(np.r_[True, srt[1:] != srt[:-1]])
            if starts.size == 1:
                raise DegenerateError(f"{name} is constant; jitter cannot define ranks")
            sizes = np.diff(np.r_[starts, arr.size])
            half_gaps = np.diff(srt[starts] / 2)  # halved first: no overflow near 1e308
            steps = np.repeat(np.r_[half_gaps, -half_gaps[-1]] / sizes, sizes)
            col = arr.copy()
            col[order] += (np.arange(arr.size) - np.repeat(starts, sizes)) * steps
            _strict_order(col, name)
            cols.append(col)
        return Sample(*cols)


@dataclass(frozen=True)
class XOrder:
    """Ascending order of the x coordinate.

    ``order[p]`` is the 0-based original index of the (p+1)-th smallest x
    value; ``pos`` is the inverse map (original index -> sorted position).
    """

    order: np.ndarray
    pos: np.ndarray

    @property
    def n(self) -> int:
        return int(self.order.size)


def compute_ranks(values: Sequence[float]) -> np.ndarray:
    """Ranks 1..n of `values`, where rank_i = #{j : values_j <= values_i}.

    Requires tie-free finite input; the result is a permutation of 1..n.
    """
    arr = _as_float_array(values, "values")
    order = _strict_order(arr, "values")
    ranks = np.empty(arr.size, dtype=np.int64)
    ranks[order] = np.arange(1, arr.size + 1)
    return ranks


def x_order(x: Sequence[float]) -> XOrder:
    """Sorting permutation of x and its inverse; requires tie-free finite x."""
    arr = _as_float_array(x, "x")
    order = _strict_order(arr, "x")
    pos = np.empty(arr.size, dtype=np.int64)
    pos[order] = np.arange(arr.size)
    return XOrder(order=order, pos=pos)


def right_neighbor(ord: XOrder, i: int, m: int) -> int:
    """1-based index of the m-th right nearest neighbor of x_i.

    The m-th right nearest neighbor is the index j whose x value is the m-th
    smallest among those strictly larger than x_i. When fewer than m larger
    values exist the point is its own neighbor and `i` is returned.
    """
    n = ord.n
    if not 1 <= i <= n:
        raise IndexError(f"index {i} out of range 1..{n}")
    p = int(ord.pos[i - 1]) + validate_count("m", m, 1, MRangeError)
    if p >= n:
        return i
    return int(ord.order[p]) + 1


def reflect_ranks(r: Sequence[int]) -> np.ndarray:
    """Map each rank to n+1-rank: the ranks of -y given the ranks of y, as int64."""
    arr = validate_ranks("r", r)
    return arr.size + 1 - arr.astype(np.int64)


def random_rank_permutation(rng: np.random.Generator, n: int) -> np.ndarray:
    """Uniform random permutation of 1..n (Fisher-Yates, via numpy)."""
    return rng.permutation(validate_count("n", n, 1, SizeError)).astype(np.int64) + 1


def sorted_y_ranks(s: Sample) -> np.ndarray:
    """Ranks of y arranged in ascending-x order.

    This one array drives every rank statistic here: the m-th right neighbor
    of the element at sorted position p sits at position p+m.

    A tie raises :class:`TieError` for coordinate "x" or "y"; a y tie, found
    in x order, is named by :func:`_strict_order` on ``s.y``.

    Each array is dropped once it is no longer needed, so on a tie-free
    sample at most three n-long arrays beyond the sample are live at a time:
    y in x order, its order and its sorted copy, then that order, the ranks
    and the values 1..n written into them.
    """
    ox = _strict_order(s.x, "x")
    ys = s.y[ox]
    del ox
    oy = np.argsort(ys)
    ys = ys[oy]
    if (ys[1:] == ys[:-1]).any():
        _strict_order(s.y, "y")
    del ys
    rs = np.empty(s.n, dtype=np.int64)
    rs[oy] = np.arange(1, s.n + 1)
    return rs


def rank_dtype(n: int) -> type:
    """Narrowest integer dtype of a batch of rank rows of width n: int16 while
    it holds every rank 1..n (n <= 32767), int32 above."""
    return np.int16 if n <= np.iinfo(np.int16).max else np.int32


def max_batch_rows(n: int) -> int:
    """Most rows of width `n` in one (k, n) batch matrix: 2e6 cells, or one row."""
    return max(1, 2_000_000 // max(n, 1))


# Bytes of one cache-sized block of rows. The permutation draw stages its
# int64 rows in one such block, and the min-rank kernel keeps three such
# arrays (a transposed block, the minima and their running sums) live at a
# time, which fits a 1-2 MB L2 cache where one (k, n) batch does not.
BLOCK_BYTES = 2 ** 18


def block_rows(n: int, itemsize: int) -> int:
    """Rows of width `n` and `itemsize` bytes per entry in one cache-sized
    block of :data:`BLOCK_BYTES`, or one row."""
    return max(1, BLOCK_BYTES // (max(n, 1) * itemsize))


def _is_whole(value) -> bool:
    """M's and every count's test: an integer (no bool) or a float with no fractional part."""
    return ((isinstance(value, (int, np.integer)) and not isinstance(value, bool))
            or (isinstance(value, (float, np.floating)) and value.is_integer()))


def validate_neighbor_count(n: Optional[int], M) -> int:
    """The one reading of M: a whole number in 1..n-1 (only the first half
    when n is None), returned as a plain int; anything else raises
    :class:`MRangeError`."""
    if not _is_whole(M):
        raise MRangeError(f"M must be a whole number, got {M!r}")
    M = int(M)
    if n is not None and not 1 <= M <= n - 1:
        raise MRangeError(f"M must satisfy 1 <= M <= n-1 = {n - 1}, got {M}")
    return M


def validate_count(name: str, value, least: int, error: type = ConfigError) -> int:
    """The one reading of a count (B, replicates, repetitions, warmup, workers, a
    seed, a sample size n): a plain int >= `least`; anything else raises `error`."""
    if _is_whole(value):
        value = int(value)  # a whole float or numpy integer is named as the plain int
        if value >= least:
            return value
    raise error(f"{name} must be >= {least}, got {value!r}")


def validate_sizes(n, M) -> tuple[int, int]:
    """The one reading of a sample size n and its neighbor count M: n by the count
    rule (at least 2), then M against it, both returned as plain ints."""
    n = validate_count("n", n, 2)
    return n, validate_neighbor_count(n, M)


def _read_real(value, low: float, high: float, error: type, message: str) -> float:
    """alpha's, rho's and rho0's test: a real number (no bool) in (low, high),
    returned as a plain float; anything else raises `error`."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool) and low < value < high:
        return float(value)
    raise error(f"{message}, got {value!r}")


def validate_alpha(alpha) -> float:
    """The one reading of a test level: a plain float in (0, 1), or a ConfigError."""
    return _read_real(alpha, 0.0, 1.0, ConfigError, "alpha must lie in (0, 1)")


def validate_rho(rho) -> float:
    """The one reading of a rotation-model rho: a plain float in (-1, 1), or a RhoRangeError."""
    return _read_real(rho, -1.0, 1.0, RhoRangeError, "rho must lie in (-1, 1)")


def validate_rho0(rho0) -> float:
    """The one reading of a power study's rho0: a finite plain float, or a ConfigError."""
    return _read_real(rho0, -math.inf, math.inf, ConfigError,
                      "rho0_values must hold finite real numbers")


def validate_grid(name: str, values, rule) -> tuple:
    """The one reading of a study grid: a nonempty tuple of entries read by `rule`."""
    values = tuple(map(rule, values))
    if not values:
        raise ConfigError(f"{name} must be nonempty")
    return values


def validate_ranks(name: str, r) -> np.ndarray:
    """The one reading of a rank row: each of 1..n once, as real numbers (a bool, int,
    uint or float array, or an object array of real numbers), returned in the dtype of
    every drawn null row, :func:`rank_dtype` (n); anything else raises SizeError."""
    arr = np.asarray(r)
    n = arr.size
    # in range before the cast, so neither a huge int nor a nan reaches it
    if arr.ndim == 1 and arr.dtype.kind == "O" and all(
            isinstance(v, numbers.Real) and 1 <= v <= n for v in arr):
        arr = arr.astype(np.float64)
    if (arr.ndim == 1 and n and arr.dtype.kind in "biuf"
            and (arr.dtype.kind != "f" or (arr == np.trunc(arr)).all())  # 1.5 is no rank
            and arr.min() >= 1 and arr.max() <= n):
        arr = arr.astype(rank_dtype(n), copy=False)
        if (np.bincount(arr, minlength=n + 1)[1:] == 1).all():
            return arr
    raise SizeError(f"{name} must be a permutation of 1..n")
