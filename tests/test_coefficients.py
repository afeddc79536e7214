"""Tests for the correlation coefficients against hand values, enumeration
oracles, and independent quadrature cross-checks."""

import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xiboost import (
    DegenerateError,
    MRangeError,
    RhoRangeError,
    Sample,
    SizeError,
    chatterjee_xi,
    extremal_bounds,
    extremal_bounds_exact,
    gaussian_population_xi,
    hoeffding_d,
    monotone_extremal_values_exact,
    pearson_r,
    symmetric_nn_sum,
    x_order,
    xi_nm,
    xi_nm_exact,
    xi_nm_from_ranks,
    xi_nm_reflected,
    xi_pm,
)
from xiboost.coefficients import (
    HOEFFDING_INT64_MAX_N,
    METHODS,
    Method,
    _earlier_smaller_counts,
    _pair_min_sums,
    batch_hoeffding_numerators,
    batch_min_rank_sums,
    batch_symmetric_min_sums,
    hoeffding_denominator,
    hoeffding_numerator,
    min_rank_sum,
    symmetric_min_sum,
    xi_fraction_from_min_sum,
)
from xiboost.inference import _permutation_batches
from xiboost.ranks import BLOCK_BYTES, block_rows, compute_ranks, derive_rng, sorted_y_ranks


def right_neighbor_brute(v, M):
    """Sum over p and m = 1..M of min(v[p], v[p+m]), or v[p] past the end."""
    n = len(v)
    return sum(min(v[p], v[p + m]) if p + m < n else v[p]
               for p in range(n) for m in range(1, M + 1))


def symmetric_brute(v, M):
    """Literal construction of each position's M nearest positions (ties to
    the right, edges shift inward), summing the min ranks."""
    n = len(v)
    total = 0
    for p in range(n):
        left, right = 1, 1
        chosen = []
        for _ in range(M):
            left_ok = p - left >= 0
            right_ok = p + right <= n - 1
            if right_ok and (not left_ok or right <= left):
                chosen.append(p + right)
                right += 1
            else:
                chosen.append(p - left)
                left += 1
        total += sum(min(v[p], v[q]) for q in chosen)
    return total


def right_neighbor_rows(rows, M):
    """:func:`right_neighbor_brute` of every row, in int64, vectorized over
    positions: per m, the pair minima of positions p < n-m and the last m
    entries, which pair with themselves."""
    rows = np.asarray(rows, dtype=np.int64)
    n = rows.shape[1]
    return sum(np.minimum(rows[:, : n - m], rows[:, m:]).sum(axis=1) + rows[:, n - m:].sum(axis=1)
               for m in range(1, M + 1))


def symmetric_rows(rows, M):
    """:func:`symmetric_brute` of every row, in int64: the same choice of
    each position's next nearest neighbor, made for all positions at once."""
    rows = np.asarray(rows, dtype=np.int64)
    n = rows.shape[1]
    p = np.arange(n)
    left, right = np.ones(n, dtype=np.int64), np.ones(n, dtype=np.int64)
    total = np.zeros(len(rows), dtype=np.int64)
    for _ in range(M):
        left_ok, right_ok = p - left >= 0, p + right <= n - 1
        take_right = right_ok & (~left_ok | (right <= left))
        total += np.minimum(rows, rows[:, np.where(take_right, p + right, p - left)]).sum(axis=1)
        right += take_right
        left += ~take_right
    return total


def kernel_cases(rng, n, k, dtype):
    """k rows of width n: the identity, the reversal, and random permutations."""
    rows = [np.arange(1, n + 1), np.arange(n, 0, -1)] + [rng.permutation(n) + 1
                                                         for _ in range(k - 2)]
    return np.array(rows[:k], dtype=dtype)


def hoeffding_brute(rx, ry):
    """Numerator A - 2(n-2)B + (n-2)(n-3)C of Hoeffding's D from O(n^2)
    quadrant counts c_i = #{j : rx_j < rx_i and ry_j < ry_i}, in Python ints."""
    n = len(rx)
    c = [sum(rx[j] < rx[i] and ry[j] < ry[i] for j in range(n)) for i in range(n)]
    return hoeffding_from_counts(rx, ry, c)


def hoeffding_from_counts(rx, ry, c):
    n = len(rx)
    A = sum((a - 1) * (a - 2) * (b - 1) * (b - 2) for a, b in zip(rx, ry))
    B = sum((a - 2) * (b - 2) * q for a, b, q in zip(rx, ry, c))
    C = sum(q * (q - 1) for q in c)
    return A - 2 * (n - 2) * B + (n - 2) * (n - 3) * C


def random_sample(rng, n):
    """Tie-free sample built from jittered permutations."""
    return Sample(rng.permutation(n) + rng.random(n) * 0.5,
                  rng.permutation(n) + rng.random(n) * 0.5)


class TestChatterjeeXi:
    def test_increasing(self):
        s = Sample([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert chatterjee_xi(s).value == 0.25

    def test_decreasing(self):
        s = Sample([1.0, 2.0, 3.0], [3.0, 2.0, 1.0])
        assert chatterjee_xi(s).value == 0.25

    def test_near_zero_under_independence(self):
        rng = derive_rng(10)
        s = random_sample(rng, 4000)
        # under independence the statistic is O_P(n**-1/2)
        assert abs(chatterjee_xi(s).value) < 5 / math.sqrt(4000)

    def test_size_guard(self):
        with pytest.raises(SizeError):
            Sample([1.0], [1.0])


class TestXiNM:
    def test_increasing_n3(self):
        s = Sample([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert xi_nm(s, 1).value == pytest.approx(4 / 7, abs=1e-15)
        assert xi_nm_exact(s, 1) == Fraction(4, 7)

    def test_decreasing_n3(self):
        s = Sample([1.0, 2.0, 3.0], [3.0, 2.0, 1.0])
        assert xi_nm_exact(s, 1) == Fraction(-2, 7)

    def test_middle_permutation_n3(self):
        value = xi_nm_from_ranks([1, 3, 2], None, 1)
        assert value.value == pytest.approx(1 / 7, abs=1e-15)

    def test_enumeration_mean_zero_small(self):
        """Average over all rank permutations is exactly zero (exact arithmetic)."""
        for n in (3, 4, 5):
            for M in (1, n - 1):
                total = Fraction(0)
                x = [float(i) for i in range(1, n + 1)]
                for perm in itertools.permutations(range(1, n + 1)):
                    rs = np.array(perm, dtype=np.int64)
                    total += xi_fraction_from_min_sum(min_rank_sum(rs, M), n, M)
                assert total == 0, (n, M)

    def test_m_range(self):
        s = Sample([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        with pytest.raises(MRangeError):
            xi_nm(s, 3)
        with pytest.raises(MRangeError):
            xi_nm(s, 0)

    def test_from_ranks_matches_sample_path(self):
        rng = derive_rng(11)
        for _ in range(25):
            n = int(rng.integers(3, 60))
            M = int(rng.integers(1, n))
            s = random_sample(rng, n)
            via_ranks = xi_nm_from_ranks(compute_ranks(s.y), x_order(s.x), M)
            assert via_ranks.value == xi_nm(s, M).value

    @given(st.permutations(list(range(1, 9))), st.integers(min_value=1, max_value=7))
    @settings(max_examples=60, deadline=None)
    def test_monotone_invariance(self, perm, M):
        """The coefficient depends on the data only through coordinate ranks."""
        x = [float(i) for i in range(1, 9)]
        y = [float(v) for v in perm]
        s = Sample(x, y)
        u = Sample([v ** 3 + v for v in x], [math.atan(v) for v in y])
        assert xi_nm(s, M).value == xi_nm(u, M).value


class TestXiPM:
    def test_increasing(self):
        s = Sample([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert xi_pm(s, 1).value == pytest.approx(4 / 7, abs=1e-15)

    def test_decreasing_reflection_symmetry(self):
        s = Sample([1.0, 2.0, 3.0], [3.0, 2.0, 1.0])
        assert xi_pm(s, 1).value == pytest.approx(4 / 7, abs=1e-15)

    def test_dominates_xi_nm_and_reflection_invariant(self):
        rng = derive_rng(12)
        for _ in range(30):
            n = int(rng.integers(3, 50))
            M = int(rng.integers(1, n))
            s = random_sample(rng, n)
            pm = xi_pm(s, M).value
            assert pm >= xi_nm(s, M).value
            assert pm >= xi_nm_reflected(s, M).value
            assert pm == xi_pm(s.reflected(), M).value


class TestSymmetricNN:
    def test_hand_case_n3(self):
        s = Sample([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert symmetric_nn_sum(s, 1).value == 5.0

    def test_n2_double_min(self):
        s = Sample([1.0, 2.0], [5.0, 7.0])
        assert symmetric_nn_sum(s, 1).value == 2.0

    def test_monotone_invariance(self):
        rng = derive_rng(13)
        s = random_sample(rng, 40)
        t = Sample(np.exp(s.x / 10), np.arctan(s.y / 5))
        for M in (1, 7, 39):
            assert symmetric_nn_sum(s, M).value == symmetric_nn_sum(t, M).value

    def test_against_two_pointer_oracle(self):
        """The span decomposition must reproduce a literal construction of the
        M nearest positions (ties to the right, edges shift inward)."""
        rng = derive_rng(14)
        for _ in range(150):
            n = int(rng.integers(2, 30))
            M = int(rng.integers(1, n))
            v = (rng.permutation(n) + 1).astype(np.int64)
            assert symmetric_min_sum(v, M) == symmetric_brute(v.tolist(), M), (n, M, v)

    def test_m1_pairs_right_except_largest(self):
        rng = derive_rng(15)
        s = random_sample(rng, 12)
        rs = sorted_y_ranks(s)
        expected = sum(min(rs[p], rs[p + 1]) for p in range(11)) + min(rs[11], rs[10])
        assert symmetric_nn_sum(s, 1).value == float(expected)


class TestBatchKernels:
    """The batch kernels are the only min-rank kernels; check them row by row
    against brute-force Python sums."""

    @pytest.mark.parametrize("dtype", [np.int16, np.int32, np.int64])
    def test_against_brute_force(self, dtype):
        rng = derive_rng(16)
        # every shape up to n=10, where the edge windows overlap or span the row
        shapes = [(n, M) for n in range(2, 11) for M in range(1, n)]
        for _ in range(40):
            n = int(rng.integers(2, 40))
            shapes.append((n, int(rng.integers(1, n))))
        for n, M in shapes:
            rows = np.array([rng.permutation(n) + 1 for _ in range(3)], dtype=dtype)
            direct, reflected = batch_min_rank_sums(rows, M)
            symmetric = batch_symmetric_min_sums(rows, M)
            for k, row in enumerate(rows.tolist()):
                flipped = [n + 1 - r for r in row]
                assert direct[k] == right_neighbor_brute(row, M), (n, M, row)
                assert reflected[k] == right_neighbor_brute(flipped, M), (n, M, row)
                assert symmetric[k] == symmetric_brute(row, M), (n, M, row)
            # the vectorized references of the wider cases below
            assert right_neighbor_rows(rows, M).tolist() == direct.tolist()
            assert symmetric_rows(rows, M).tolist() == symmetric.tolist()

    def check_against_references(self, rows, M):
        n = rows.shape[1]
        direct, reflected = batch_min_rank_sums(rows, M)
        symmetric = batch_symmetric_min_sums(rows, M)
        assert (direct.dtype, reflected.dtype, symmetric.dtype) == (np.int64,) * 3
        assert direct.tolist() == right_neighbor_rows(rows, M).tolist(), (n, M, rows.dtype)
        assert reflected.tolist() == right_neighbor_rows(n + 1 - rows.astype(np.int64),
                                                         M).tolist(), (n, M, rows.dtype)
        assert symmetric.tolist() == symmetric_rows(rows, M).tolist(), (n, M, rows.dtype)

    @pytest.mark.parametrize("dtype", [np.int16, np.int32, np.int64])
    def test_row_blocks_and_small_groups(self, dtype):
        """At n = 16000 a block holds 8 int16 or 4 int32 rows, and int16 rows
        add G = 32767 // 16000 = 2 distances per group. Row counts one below,
        at and one above a block, and one that splits into unequal blocks,
        each at M = G-1, G and G+1."""
        n = 16000
        step = block_rows(n, np.dtype(dtype).itemsize)
        assert np.iinfo(np.int16).max // n == 2 and block_rows(n, 2) == 8
        rng = derive_rng(24, np.dtype(dtype).itemsize)
        for k in (step - 1, step, step + 1, 2 * step + step // 2 + 1):
            rows = kernel_cases(rng, n, k, dtype)
            for M in (1, 2, 3):
                self.check_against_references(rows, M)

    @pytest.mark.parametrize("dtype", [np.int16, np.int32, np.int64])
    def test_groups_and_far_distances_across_blocks(self, dtype):
        """At n = 1000 int16 rows add G = 32 distances per group; M = 31, 32
        and 33 straddle one group, and M = 499 and 500 the far-distance
        switch, whose 499 far distances end in a partial group. Two rows more
        than a block make a second, shorter block."""
        n = 1000
        assert np.iinfo(np.int16).max // n == 32
        rows = kernel_cases(derive_rng(25), n, block_rows(n, np.dtype(dtype).itemsize) + 2, dtype)
        for M in (31, 32, 33, 499, 500):
            self.check_against_references(rows, M)

    def test_scoring_and_drawing_stay_within_a_few_blocks(self):
        """Scoring a 999-row int16 batch at n = 1000 allocates a few cache
        blocks beyond its input, not a transposed copy of the batch; drawing
        it allocates each chunk and one int64 staging block, not an int64
        copy of a chunk."""
        assert 4 * BLOCK_BYTES < 999 * 1000 * 2
        tracemalloc.start()
        try:
            chunks = []
            draws = _permutation_batches(derive_rng(26), 1000, 999)
            while True:
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                chunk = next(draws, None)
                if chunk is None:
                    break
                extra = tracemalloc.get_traced_memory()[1] - before - chunk.nbytes
                assert extra <= BLOCK_BYTES + 2 ** 14, (len(chunk), extra)
                chunks.append(chunk)
            rows = np.concatenate(chunks)
            assert rows.dtype == np.int16
            for method, M in ((Method.XI_PM, 200), (Method.SYMMETRIC_NN, 20)):
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                METHODS[method].score(rows, M)
                extra = tracemalloc.get_traced_memory()[1] - before
                assert extra <= 4 * BLOCK_BYTES, (method, extra)
        finally:
            tracemalloc.stop()

    def test_scalar_wrappers_are_one_row_batches(self):
        rng = derive_rng(17)
        for _ in range(30):
            n = int(rng.integers(2, 60))
            M = int(rng.integers(1, n))
            rs = rng.permutation(n) + 1
            assert min_rank_sum(rs, M) == batch_min_rank_sums(rs[None], M)[0][0]
            assert symmetric_min_sum(rs, M) == batch_symmetric_min_sums(rs[None], M)[0]

    @pytest.mark.parametrize("n", [*range(2, 13), 64, 65, 1000])
    def test_far_distance_switch(self, n):
        """M = floor((n-1)/2) sums distances 1..M; one more, and M = n-1, take
        the closed-form total less the far distances."""
        rng = derive_rng(18, n)
        perms = [rng.permutation(n) + 1, np.arange(1, n + 1), np.arange(n, 0, -1)]
        for M in sorted({(n - 1) // 2, (n - 1) // 2 + 1, n - 1} & set(range(1, n))):
            for row in perms[: 1 if n > 65 else 3]:
                want = (right_neighbor_brute(row.tolist(), M),
                        right_neighbor_brute((n + 1 - row).tolist(), M))
                for dtype in (np.int16, np.int32, np.int64):
                    direct, reflected = batch_min_rank_sums(row.astype(dtype)[None], M)
                    assert (direct.dtype, reflected.dtype) == (np.int64, np.int64)
                    assert (direct[0], reflected[0]) == want, (n, M, dtype, row)

    def test_window_sums_are_exact_for_large_ranks(self):
        """A window of an int32 row holds ranks up to the full row length, as
        symmetric-nn's edge windows do; its sums stay exact past 2^31."""
        N, w = 200_000, 46_340
        window = np.arange(N, 0, -1, dtype=np.int32)[None, :w]
        # min(row[p], row[p+d]) = row[p+d] = N-p-d for p = 0..w-1-d
        want = [sum(range(N - w + 1, N - d + 1)) for d in (1, 2)]
        assert min(want) > 2 ** 31
        assert _pair_min_sums(window, 1, 2)[0] == sum(want)
        assert _pair_min_sums(window, 2, 2)[0] == want[1]

    @pytest.mark.parametrize("fill", [32767, -32768])
    @pytest.mark.parametrize("width", [2 ** 16, 2 ** 16 + 2])
    def test_int16_column_sums_at_their_bound(self, fill, width):
        """int16 rows of -2^15 or 2^15 - 1 take one distance per group (G = 1),
        and each column sum is taken in int64: at 2^16 + 2 a column sum of
        -32768s passes -2^31 without wrapping."""
        rows = np.full((2, width), fill, dtype=np.int16)
        assert _pair_min_sums(rows, 1, 2).tolist() == [fill * (2 * width - 3)] * 2

    @pytest.mark.parametrize("n, dtype", [(7, np.int16), (1000, np.int16),
                                          (32767, np.int16), (32768, np.int32),
                                          (40000, np.int32)])
    def test_permutation_draw_dtype(self, n, dtype):
        """Test draws are int16 while int16 holds every rank. On the chunk
        schedule 64, 64, 128, ... (50-row chunks at n=40000, the memory cap)
        they equal one draw of all B rows, in that dtype and in int32. Each
        chunk is drawn through int64 staging blocks: of 32 rows at n=1000,
        so the 487-row chunk ends in a 7-row block, and of one row at
        n >= 32767, so every chunk spans many."""
        schedules = {(1000, 999): [64, 64, 128, 256, 487], (40000, 129): [50, 50, 29]}
        stage = block_rows(n, 8)
        for B in (1, 63, 64, 65, 127, 128, 129, 999) if n <= 1000 else (1, 65, 129):
            chunks = list(_permutation_batches(derive_rng(20), n, B))
            if (n, B) in schedules:
                assert [len(c) for c in chunks] == schedules[n, B]
            if n >= 1000 and B >= 65:
                assert len(chunks[0]) > stage
            if (n, B) == (1000, 999):
                assert (stage, len(chunks[-1]) % stage) == (32, 7)
            drawn = np.concatenate(chunks)
            assert drawn.dtype == dtype
            for want_dtype in (dtype, np.int32):
                want = np.tile(np.arange(1, n + 1, dtype=want_dtype), (B, 1))
                derive_rng(20).permuted(want, axis=1, out=want)
                assert np.array_equal(drawn, want), (B, want_dtype)


class TestPearson:
    def test_perfect_linear(self):
        x = np.arange(1.0, 11.0)
        assert pearson_r(Sample(x, 2 * x + 1)).value == 1.0
        assert pearson_r(Sample(x, -x)).value == -1.0

    def test_hand_value(self):
        assert pearson_r(Sample([1.0, 2.0, 3.0], [1.0, 3.0, 2.0])).value == pytest.approx(0.5)

    def test_degenerate(self):
        with pytest.raises(DegenerateError):
            pearson_r(Sample([1.0, 2.0, 3.0], [5.0, 5.0, 5.0]))

    def test_size_guard(self):
        with pytest.raises(SizeError):
            pearson_r(Sample([1.0, 2.0], [1.0, 2.0]))


class TestHoeffdingD:
    def test_maximal_at_identity_n5(self):
        """Enumerating all 120 rank pairings at n=5, y=x attains the maximum."""
        x = [1.0, 2.0, 3.0, 4.0, 5.0]
        identity = hoeffding_d(Sample(x, x)).value
        assert identity == pytest.approx(1 / 30)
        best = max(
            hoeffding_d(Sample(x, [float(v) for v in perm])).value
            for perm in itertools.permutations(range(1, 6))
        )
        assert identity == best

    def test_near_zero_under_independence(self):
        rng = derive_rng(16)
        s = random_sample(rng, 600)
        assert abs(hoeffding_d(s).value) < 0.005

    def test_monotone_invariance(self):
        rng = derive_rng(17)
        s = random_sample(rng, 30)
        t = Sample(s.x ** 3 + s.x, np.tanh(s.y / 40))
        assert hoeffding_d(s).value == hoeffding_d(t).value

    def test_size_guard(self):
        with pytest.raises(SizeError):
            hoeffding_d(Sample([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0]))


# sizes around powers of two, where the merge counting pads rows
_HOEFFDING_SIZES = st.one_of(st.integers(5, 70),
                             st.sampled_from([7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65]))


class TestHoeffdingKernel:
    """The merge-counting kernel against O(n^2) quadrant counts, and its
    int64 / Python-int split at HOEFFDING_INT64_MAX_N."""

    @given(n=_HOEFFDING_SIZES, k=st.integers(1, 5), seed=st.integers(0, 2**32 - 1),
           dtype=st.sampled_from([np.int32, np.int64]))
    @settings(max_examples=150, deadline=None)
    def test_against_quadrant_counts(self, n, k, seed, dtype):
        rng = np.random.default_rng(seed)
        rows = np.array([rng.permutation(n) + 1 for _ in range(k)], dtype=dtype)
        identity = list(range(1, n + 1))
        got = batch_hoeffding_numerators(rows)
        assert [int(v) for v in got] == [hoeffding_brute(identity, row)
                                         for row in rows.tolist()]
        rx, ry = rng.permutation(n) + 1, rng.permutation(n) + 1
        want = int(batch_hoeffding_numerators(ry[np.argsort(rx)][None])[0])
        assert hoeffding_numerator(rx, ry) == want == hoeffding_brute(rx.tolist(), ry.tolist())

    def test_int64_bound_is_tight(self):
        """The identity row maximizes A, B and C; its A + (n-2)(n-3)C and
        2(n-2)B fit in int64 at the bound and not one past it."""
        def fits(n):
            A = sum(((i - 1) * (i - 2)) ** 2 for i in range(1, n + 1))
            B = sum((i - 1) * (i - 2) ** 2 for i in range(1, n + 1))
            C = sum((i - 1) * (i - 2) for i in range(1, n + 1))
            return max(A + (n - 2) * (n - 3) * C, 2 * (n - 2) * B) < 2**63

        assert fits(HOEFFDING_INT64_MAX_N) and not fits(HOEFFDING_INT64_MAX_N + 1)

    @pytest.mark.parametrize("n", [HOEFFDING_INT64_MAX_N, HOEFFDING_INT64_MAX_N + 1])
    @pytest.mark.parametrize("reverse", [False, True])
    def test_exact_on_both_sides_of_the_bound(self, n, reverse):
        row = np.arange(n, 0, -1) if reverse else np.arange(1, n + 1)
        counts = _earlier_smaller_counts(row[None])[0]
        assert counts.tolist() == ([0] * n if reverse else list(range(n)))
        got = batch_hoeffding_numerators(row[None])
        assert got.dtype == (np.int64 if n <= HOEFFDING_INT64_MAX_N else object)
        assert int(got[0]) == hoeffding_from_counts(list(range(1, n + 1)), row.tolist(),
                                                    counts.tolist())

    def test_d_divides_the_exact_numerator(self):
        """At the bound the denominator exceeds 2**53, so a float-converted
        numerator would round twice."""
        n = HOEFFDING_INT64_MAX_N
        rng = derive_rng(23)
        for _ in range(10):
            s = random_sample(rng, n)
            exact = Fraction(int(batch_hoeffding_numerators(sorted_y_ranks(s)[None])[0]),
                             hoeffding_denominator(n))
            assert hoeffding_d(s).value == float(exact)


class TestGaussianPopulationXi:
    def test_zero_at_independence(self):
        assert gaussian_population_xi(0.0).xi == 0.0

    def test_value_at_half(self):
        # frozen from the adaptive quadrature itself and double-checked against
        # an independent arcsine expression below
        assert gaussian_population_xi(0.5).xi == pytest.approx(0.144703124, abs=1e-7)
        assert round(gaussian_population_xi(0.5).xi, 4) == 0.1447

    def test_even_in_rho(self):
        for rho in (0.2, 0.5, 0.77):
            assert gaussian_population_xi(rho).xi == gaussian_population_xi(-rho).xi

    def test_matches_arcsine_form(self):
        """Independent closed-form oracle for the bivariate normal."""
        for rho in (0.1, 0.3, 0.5, 0.8, 0.95):
            expected = 3 / math.pi * math.asin((1 + rho * rho) / 2) - 0.5
            assert gaussian_population_xi(rho).xi == pytest.approx(expected, abs=1e-7)

    def test_nondecreasing_in_abs_rho(self):
        grid = [0.0, 0.1, 0.25, 0.4, 0.6, 0.8, 0.9]
        values = [gaussian_population_xi(r).xi for r in grid]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_range_guard(self):
        with pytest.raises(RhoRangeError):
            gaussian_population_xi(1.0)
        with pytest.raises(RhoRangeError):
            gaussian_population_xi(-1.2)

    def test_derivative_consistency(self):
        """Finite differences of the quadrature value agree with quadrature of
        the analytic rho-derivative (differentiation under the integral)."""
        nodes, weights = np.polynomial.hermite.hermgauss(120)
        xg = math.sqrt(2.0) * nodes
        wg = weights / math.sqrt(math.pi)
        from scipy.special import ndtr

        def derivative(rho):
            sig = math.sqrt(1 - rho * rho)
            X = xg[:, None]
            Y = xg[None, :]
            U = (Y - rho * X) / sig
            sf = ndtr(-U)
            phi_u = np.exp(-0.5 * U * U) / math.sqrt(2 * math.pi)
            du = (-X + rho * U / sig) / sig
            vals = 2.0 * sf * (-phi_u) * du
            return 6.0 * float(wg @ vals @ wg)

        h = 1e-4
        for rho in (0.2, 0.5, 0.7):
            fd = (gaussian_population_xi(rho + h).xi
                  - gaussian_population_xi(rho - h).xi) / (2 * h)
            assert abs(fd - derivative(rho)) < 1e-4, rho


class TestExtremalBounds:
    def test_n3_m1(self):
        upper, _ = extremal_bounds_exact(3, 1)
        assert upper == Fraction(4, 7)

    def test_n10_m1(self):
        upper, _ = extremal_bounds(10, 1)
        assert upper == pytest.approx(1 - 1.5 / 10.5)
        assert extremal_bounds_exact(10, 1)[0] == Fraction(6, 7)

    def test_values_inside_bounds(self):
        rng = derive_rng(18)
        for _ in range(60):
            n = int(rng.integers(3, 80))
            M = int(rng.integers(1, n))
            s = random_sample(rng, n)
            upper, lower = extremal_bounds_exact(n, M)
            value = xi_nm_exact(s, M)
            assert lower <= value <= upper, (n, M)

    def test_monotone_data_attains_formulas(self):
        rng = derive_rng(19)
        for _ in range(40):
            n = int(rng.integers(2, 60))
            M = int(rng.integers(1, n))
            x = np.sort(rng.standard_normal(n))
            increasing, decreasing = monotone_extremal_values_exact(n, M)
            assert xi_nm_exact(Sample(x, np.exp(x)), M) == increasing
            assert xi_nm_exact(Sample(x, -np.exp(x)), M) == decreasing

    def test_m_range(self):
        with pytest.raises(MRangeError):
            extremal_bounds(5, 5)


class TestBridgeIdentity:
    def test_bound_holds_and_is_attained_at_n3(self):
        """|((n+1/2)/(n-1)) * xi_{n,1} - xi_n| <= 3/(n+1), with equality at the
        documented 3-point monotone case."""
        s = Sample([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        lhs = abs((3.5 / 2) * xi_nm(s, 1).value - chatterjee_xi(s).value)
        assert lhs == pytest.approx(0.75, abs=1e-12)

        rng = derive_rng(20)
        for _ in range(1000):
            n = int(rng.integers(2, 40))
            t = random_sample(rng, n)
            gap = abs((n + 0.5) / (n - 1) * xi_nm(t, 1).value - chatterjee_xi(t).value)
            assert gap <= 3 / (n + 1) + 1e-12, n
