"""Tests for the correlation coefficients against hand values, enumeration
oracles, and independent quadrature cross-checks."""

import itertools
import math
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
    batch_min_rank_sums,
    batch_symmetric_min_sums,
    min_rank_sum,
    symmetric_min_sum,
    xi_fraction_from_min_sum,
)
from xiboost.ranks import compute_ranks, derive_rng, sorted_y_ranks


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
        shapes = [(2, 1), (3, 2), (7, 6)]
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

    def test_scalar_wrappers_are_one_row_batches(self):
        rng = derive_rng(17)
        for _ in range(30):
            n = int(rng.integers(2, 60))
            M = int(rng.integers(1, n))
            rs = rng.permutation(n) + 1
            assert min_rank_sum(rs, M) == batch_min_rank_sums(rs[None], M)[0][0]
            assert symmetric_min_sum(rs, M) == batch_symmetric_min_sums(rs[None], M)[0]


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
