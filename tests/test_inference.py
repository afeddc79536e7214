"""Tests for the permutation and asymptotic independence tests and the exact
null-moment utilities."""

import dataclasses
import functools
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from xiboost import (
    ConfigError,
    Method,
    PermutationTestConfig,
    RegimeError,
    Sample,
    SizeError,
    TieError,
    asymptotic_test,
    derive_rng,
    derive_seed,
    null_moments_enumerate,
    null_variance_asymptotic,
    pearson_test,
    permutation_test,
    permutation_test_fast_path_equivalence,
    reflect_ranks,
    replicate_statistic_from_permutation,
    sample_rotation,
)
from xiboost import coefficients, inference
from xiboost.coefficients import METHODS
from xiboost.inference import permutation_reject


def monotone_sample(n):
    x = np.arange(1.0, n + 1.0)
    return Sample(x, x)


class TestConfigValidation:
    def test_bad_b(self):
        with pytest.raises(ConfigError):
            PermutationTestConfig(B=0, alpha=0.05, seed=1, method=Method.XI_PM, M=1)

    def test_bad_alpha(self):
        with pytest.raises(ConfigError):
            PermutationTestConfig(B=9, alpha=1.0, seed=1, method=Method.XI_PM, M=1)

    def test_missing_m(self):
        with pytest.raises(ConfigError):
            PermutationTestConfig(B=9, alpha=0.05, seed=1, method=Method.XI_PM)

    def test_m_on_m_free_method(self):
        with pytest.raises(ConfigError):
            PermutationTestConfig(B=9, alpha=0.05, seed=1, method=Method.HOEFFDING_D, M=2)

    def test_unsupported_method(self):
        for method, name in ((Method.PEARSON, "pearson"), (Method.XI_NM, "xi-nm"),
                             ("xi-nm", "xi-nm"), ("nope", "nope"), (None, "None")):
            with pytest.raises(ConfigError, match=rf"^method {name} has no permutation test; "
                                                  "choose from xi-pm,symmetric-nn,hoeffding-d$"):
                PermutationTestConfig(B=9, alpha=0.05, seed=1, method=method)

    def test_every_method_has_a_table_entry(self):
        assert set(METHODS) == set(Method)

    def test_method_given_by_name(self):
        cfg = PermutationTestConfig(B=9, alpha=0.05, seed=1, method="symmetric-nn", M=2)
        assert cfg.method is Method.SYMMETRIC_NN

    @pytest.mark.parametrize("entry", [permutation_test, permutation_reject],
                             ids=["test", "reject"])
    @pytest.mark.parametrize("B, alpha, method, M", [
        (9, 0.05, "xi-pm", 2),  # 1/(1+B) > alpha: permutation_reject draws no row
        (99, 0.05, "xi-pm", 2),
        (9, 0.05, "hoeffding-d", None),
        (99, 0.5, "symmetric-nn", 3),
    ])
    @pytest.mark.parametrize("seed", [-1, -(2 ** 40)])
    def test_negative_seed_refused_by_both_entry_points(self, entry, B, alpha, method, M,
                                                         seed):
        s = sample_rotation(derive_rng(2), 50, 0.0)
        with pytest.raises(ConfigError, match=rf"^seed must be >= 0, got {seed}$"):
            entry(s, PermutationTestConfig(B=B, alpha=alpha, seed=seed, method=method, M=M))
        entry(s, PermutationTestConfig(B=B, alpha=alpha, seed=0, method=method, M=M))


class TestPermutationTest:
    def test_p_value_formula_when_observed_beats_all(self):
        """Perfect dependence beats every replicate, so p = 1/(1+B)."""
        s = monotone_sample(200)
        for alpha, expect_reject in ((0.2, True), (0.05, False)):
            cfg = PermutationTestConfig(B=9, alpha=alpha, seed=3, method=Method.XI_PM, M=20)
            res = permutation_test(s, cfg)
            assert res.p_value == pytest.approx(0.1)
            assert res.reject is expect_reject

    def test_perfect_dependence_rejects(self):
        s = monotone_sample(200)
        cfg = PermutationTestConfig(B=999, alpha=0.05, seed=4, method=Method.XI_PM, M=20)
        res = permutation_test(s, cfg)
        assert res.reject and res.p_value == pytest.approx(1 / 1000)

    def test_p_value_floor(self):
        s = monotone_sample(50)
        cfg = PermutationTestConfig(B=49, alpha=0.05, seed=5, method=Method.XI_PM, M=5)
        assert permutation_test(s, cfg).p_value >= 1 / 50

    def test_deterministic(self):
        rng = derive_rng(21)
        s = sample_rotation(rng, 120, 0.3)
        cfg = PermutationTestConfig(B=199, alpha=0.05, seed=77, method=Method.XI_PM, M=10)
        assert permutation_test(s, cfg) == permutation_test(s, cfg)

    def test_reject_iff_p_below_alpha(self):
        rng = derive_rng(22)
        for _ in range(10):
            s = sample_rotation(rng, 60, 0.4)
            cfg = PermutationTestConfig(B=99, alpha=0.1, seed=int(rng.integers(1 << 30)),
                                        method=Method.XI_PM, M=5)
            res = permutation_test(s, cfg)
            assert res.reject == (res.p_value <= res.alpha)

    def test_p_monotone_in_observed_statistic(self):
        """Fixing the replicate set (same seed, n, M), a larger observed
        statistic cannot raise the p-value."""
        rng = derive_rng(23)
        base = sample_rotation(rng, 150, 0.0)
        stronger = Sample(base.x, 0.8 * base.x + 0.2 * base.y)
        cfg = PermutationTestConfig(B=199, alpha=0.05, seed=6, method=Method.XI_PM, M=10)
        weak = permutation_test(base, cfg)
        strong = permutation_test(stronger, cfg)
        assert strong.statistic > weak.statistic
        assert strong.p_value <= weak.p_value

    def test_rank_invariance_of_p_values(self):
        rng = derive_rng(24)
        s = sample_rotation(rng, 80, 0.5)
        t = Sample(np.exp(s.x), np.arctan(s.y) * 3 + 1)
        for method, M in ((Method.XI_PM, 8), (Method.SYMMETRIC_NN, 8), (Method.HOEFFDING_D, None)):
            cfg = PermutationTestConfig(B=99, alpha=0.05, seed=8, method=method, M=M)
            assert permutation_test(s, cfg) == permutation_test(t, cfg)

    def test_symmetric_nn_method(self):
        s = monotone_sample(100)
        cfg = PermutationTestConfig(B=199, alpha=0.05, seed=9,
                                    method=Method.SYMMETRIC_NN, M=10)
        res = permutation_test(s, cfg)
        assert res.reject and res.p_value == pytest.approx(1 / 200)

    def test_hoeffding_method(self):
        s = monotone_sample(60)
        cfg = PermutationTestConfig(B=99, alpha=0.05, seed=10, method=Method.HOEFFDING_D)
        res = permutation_test(s, cfg)
        assert res.reject and res.p_value == pytest.approx(1 / 100)

    @pytest.mark.parametrize("method, n, M, B, rho, statistic_hex, p_value", [
        (Method.XI_PM, 200, 20, 199, 0.15, "0x1.dd0a96f059c40p-5", 0.02),
        (Method.SYMMETRIC_NN, 200, 10, 199, 0.15, "0x1.04ca000000000p+17", 0.645),
        (Method.HOEFFDING_D, 200, None, 49, 0.15, "0x1.e665b21b7ce35p-12", 0.04),
        # rows of 2500 ranks: the null is drawn in two chunks
        (Method.XI_PM, 2500, 5, 999, 0.0, "0x1.04e4635900200p-7", 0.106),
    ])
    def test_pinned_results(self, method, n, M, B, rho, statistic_hex, p_value):
        """Statistic bits and p-value are pinned, so a kernel, chunking or
        draw change that alters any result fails here."""
        s = sample_rotation(derive_rng(2026, n), n, rho)
        cfg = PermutationTestConfig(B=B, alpha=0.05, seed=11, method=method, M=M)
        res = permutation_test(s, cfg)
        assert res.statistic.hex() == statistic_hex
        assert res.p_value == p_value

    def test_size_by_enumeration_n4(self):
        """All 24 rank configurations at n=4 are equally likely under the
        null; with a fixed replicate seed the rejection fraction stays at or
        below alpha for each tested (B, alpha)."""
        x = [1.0, 2.0, 3.0, 4.0]
        for B, alpha in ((199, 0.05), (99, 0.1), (19, 0.2)):
            rejections = 0
            for perm in itertools.permutations([1.0, 2.0, 3.0, 4.0]):
                cfg = PermutationTestConfig(B=B, alpha=alpha, seed=12345,
                                            method=Method.XI_PM, M=1)
                rejections += permutation_test(Sample(x, list(perm)), cfg).reject
            assert rejections / 24 <= alpha, (B, alpha)

    def test_size_monte_carlo_n100(self):
        """Null rejection rate over 2000 seeded trials stays within binomial
        slack of the nominal level."""
        rejections = 0
        trials = 2000
        for rep in range(trials):
            s = sample_rotation(derive_rng(303, 0, rep, 0), 100, 0.0)
            cfg = PermutationTestConfig(B=199, alpha=0.05,
                                        seed=derive_seed(303, 0, rep, 1),
                                        method=Method.XI_PM, M=10)
            rejections += permutation_test(s, cfg).reject
        assert rejections / trials <= 0.05 + 0.015


class TestPermutationReject:
    """The decision-only path equals the full test's `reject` on the same rows."""

    # (B, alpha, e*), e* the largest count e with (1 + e)/(1 + B) <= alpha:
    # alpha on a boundary, just below one, and below 1/(1 + B) (e* = -1),
    # where every test accepts
    LIMITS = [
        (1, 0.5, 0), (1, 0.3, -1),
        (19, 0.05, 0), (19, math.nextafter(0.05, 0), -1), (19, 0.2, 3),
        (99, 0.05, 4), (99, math.nextafter(0.05, 0), 3), (99, 0.005, -1),
        (999, 0.05, 49), (999, math.nextafter(0.05, 0), 48), (999, 0.0009, -1),
    ]
    METHOD_M = [(Method.XI_PM, 4), (Method.SYMMETRIC_NN, 4), (Method.HOEFFDING_D, None)]

    @pytest.mark.parametrize("method, M", METHOD_M)
    @pytest.mark.parametrize("B, alpha, e_star", LIMITS)
    def test_decision_equals_full_test(self, method, M, B, alpha, e_star):
        decisions = set()
        for rep, rho in itertools.product(range(6), (0.0, 0.35)):
            s = sample_rotation(derive_rng(29, rep), 40, rho)
            cfg = PermutationTestConfig(B=B, alpha=alpha, seed=derive_seed(29, rep, 1),
                                        method=method, M=M)
            full = permutation_test(s, cfg).reject
            assert permutation_reject(s, cfg) is full, (rep, rho)
            decisions.add(full)
        if e_star < 0:
            assert decisions == {False}

    def test_draws_stop_once_the_test_must_accept(self, monkeypatch):
        drawn = []

        def counting(rng, n, B):
            for mat in batches(rng, n, B):
                drawn.append(len(mat))
                yield mat

        batches = inference._permutation_batches
        monkeypatch.setattr(inference, "_permutation_batches", counting)
        null = sample_rotation(derive_rng(30), 200, 0.0)
        for sample, alpha, reject, rows in ((null, 0.05, False, range(1, 999)),
                                            (null, 0.0009, False, [0]),
                                            (monotone_sample(200), 0.05, True, [999])):
            cfg = PermutationTestConfig(B=999, alpha=alpha, seed=31, method=Method.XI_PM, M=5)
            drawn.clear()
            assert permutation_reject(sample, cfg) is reject
            assert sum(drawn) in rows

    @pytest.mark.parametrize("entry", [permutation_test, permutation_reject],
                             ids=["test", "reject"])
    @pytest.mark.parametrize("method, M", METHOD_M)
    def test_observed_sample_is_scored_once(self, monkeypatch, method, M, entry):
        """The observed sample is ordered once and its one row scored once;
        every other score call takes a batch of drawn rows."""
        orderings, observed_rows = [], []

        def counting_order(s):
            orderings.append(s)
            return order(s)

        def counting_score(rows, M):
            if len(rows) == 1:
                observed_rows.append(rows)
            return spec.score(rows, M)

        order, spec = coefficients.sorted_y_ranks, METHODS[method]
        monkeypatch.setattr(coefficients, "sorted_y_ranks", counting_order)
        monkeypatch.setattr(inference, "sorted_y_ranks", counting_order, raising=False)
        monkeypatch.setitem(METHODS, method, dataclasses.replace(spec, score=counting_score))
        cfg = PermutationTestConfig(B=9, alpha=0.05, seed=1, method=method, M=M)
        entry(sample_rotation(derive_rng(32), 40, 0.3), cfg)
        assert (len(orderings), len(observed_rows)) == (1, 1)

    @pytest.mark.parametrize("method, M", METHOD_M)
    def test_tie_error_text_matches(self, method, M):
        s = Sample([1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [3.0, 1.0, 3.0, 2.0, 5.0, 6.0])
        cfg = PermutationTestConfig(B=9, alpha=0.05, seed=1, method=method, M=M)
        with pytest.raises(TieError) as full:
            permutation_test(s, cfg)
        with pytest.raises(TieError) as decision:
            permutation_reject(s, cfg)
        assert str(decision.value) == str(full.value)


class TestAsymptoticTest:
    def test_zero_statistic_gives_half(self):
        # ranks (5,4,3,2,1) give a min-rank sum that lands exactly on the
        # null mean, so the standardized statistic is exactly 0
        s = Sample([1.0, 2.0, 3.0, 4.0, 5.0], [5.0, 4.0, 3.0, 2.0, 1.0])
        res = asymptotic_test(s, 1, 0.05)
        assert res.statistic == 0.0
        assert res.p_value == 0.5
        assert not res.reject

    def test_p_value_formula(self):
        rng = derive_rng(25)
        s = sample_rotation(rng, 10_000, 0.05)
        res = asymptotic_test(s, 5, 0.05)
        from xiboost import xi_nm

        z = math.sqrt(10_000 * 5) * xi_nm(s, 5).value / math.sqrt(0.4)
        assert res.statistic == pytest.approx(z)
        assert res.p_value == pytest.approx(0.5 * math.erfc(z / math.sqrt(2)), rel=1e-12)

    def test_documented_z_example(self):
        # z = sqrt(50000) * 0.01 / sqrt(0.4) ~ 3.5355, p ~ 2.0e-4
        z = math.sqrt(50_000) * 0.01 / math.sqrt(0.4)
        p = 0.5 * math.erfc(z / math.sqrt(2))
        assert z == pytest.approx(3.5355, abs=5e-4)
        assert p == pytest.approx(2.0e-4, abs=5e-5)

    def test_regime_guard(self):
        rng = derive_rng(26)
        s = sample_rotation(rng, 100, 0.0)
        with pytest.raises(RegimeError):
            asymptotic_test(s, 10, 0.05)
        assert asymptotic_test(s, 10, 0.05, override=True).p_value > 0

    def test_rejects_under_strong_dependence(self):
        s = monotone_sample(5000)
        res = asymptotic_test(s, 7, 0.05)
        assert res.reject and res.p_value < 1e-10


class TestPearsonTest:
    def test_linear_rejects(self):
        x = np.arange(1.0, 31.0)
        res = pearson_test(Sample(x, 2 * x + 1), 0.05)
        assert res.reject and res.statistic == 1.0

    def test_null_calibration_rough(self):
        rejections = 0
        for rep in range(400):
            s = sample_rotation(derive_rng(404, rep), 50, 0.0)
            rejections += pearson_test(s, 0.05).reject
        assert rejections / 400 <= 0.05 + 3 * math.sqrt(0.05 * 0.95 / 400)

    @pytest.mark.parametrize("n", [3, 4, 5, 12, 61, 100, 1000, 20_000])
    def test_p_value_is_the_student_t_tail(self, n):
        """The p-value is 2 P(T >= |t|) for Student's t with n - 2 degrees of
        freedom, as scipy.stats computes it, at t from near 0 to far tails."""
        from scipy.stats import t as student_t

        for rep, rho in enumerate([0.0, 0.01, 0.1, 0.3, 0.6, 0.9, 0.99]):
            res = pearson_test(sample_rotation(derive_rng(n, rep), n, rho), 0.05)
            r = res.statistic
            t_stat = r * math.sqrt((n - 2) / (1.0 - r * r))
            expected = max(2.0 * float(student_t.sf(abs(t_stat), n - 2)), math.ulp(0.0))
            assert res.p_value == min(expected, 1.0)


class TestNullVariance:
    def test_documented_values(self):
        assert null_variance_asymptotic(1000, 20) == pytest.approx(3.0667e-5, rel=1e-4)
        assert null_variance_asymptotic(1000, 1) == pytest.approx(4.005e-4, rel=1e-3)
        # exact expression
        assert null_variance_asymptotic(1000, 20) == 0.4 / 20_000 + (8 / 15) * 20 / 1e6

    def test_argmin_scales_as_sqrt_n(self):
        argmins = []
        sizes = [10 ** 3, 10 ** 4, 10 ** 5]
        for n in sizes:
            grid = np.arange(1, n)
            values = 0.4 / (n * grid) + (8 / 15) * grid / n ** 2
            argmins.append(int(grid[np.argmin(values)]))
        for n, m_star in zip(sizes, argmins):
            assert m_star == pytest.approx(math.sqrt(0.75 * n), rel=0.05)


@functools.lru_cache(maxsize=None)
def brute_min_sums(n):
    """Per M = 1..n-1, the min-rank sum of every permutation of 1..n: the sum
    over positions p and m = 1..M of min(r[p], r[p+m]), or r[p] past the end."""
    sums = {M: [] for M in range(1, n)}
    for r in itertools.permutations(range(1, n + 1)):
        S = 0
        for M in range(1, n):
            S += sum(min(r[p], r[p + M]) if p + M < n else r[p] for p in range(n))
            sums[M].append(S)
    return sums


class TestNullMomentsEnumerate:
    @pytest.mark.parametrize("n, M", [(n, M) for n in range(2, 8) for M in range(1, n)]
                             + [(8, 1), (8, 7)])
    def test_against_brute_force(self, n, M):
        """Mean and variance of xi_{n,M} = -2 + 6 S / ((n+1)(nM + M(M+1)/4))
        over all n! permutations, in exact fractions."""
        values = [Fraction(6 * S) / ((n + 1) * (n * M + Fraction(M * (M + 1), 4))) - 2
                  for S in brute_min_sums(n)[M]]
        mean = sum(values) / len(values)
        variance = sum((v - mean) ** 2 for v in values) / len(values)
        nm = null_moments_enumerate(n, M)
        assert (nm.n, nm.M, nm.mean, nm.variance_exact) == (n, M, mean, variance)
        assert nm.mean == 0

    def test_n3_m1(self):
        nm = null_moments_enumerate(3, 1)
        assert nm.mean == 0
        assert nm.variance_exact == Fraction(5, 49)

    def test_n4_m2_mean_zero(self):
        assert null_moments_enumerate(4, 2).mean == 0

    def test_n5_variance_vs_asymptotic(self):
        nm = null_moments_enumerate(5, 1)
        ratio = float(nm.variance_exact) / nm.variance_asymptotic
        assert nm.variance_exact > 0
        assert 1 / 3 <= ratio <= 3

    def test_size_guard(self):
        with pytest.raises(SizeError):
            null_moments_enumerate(9, 1)
        with pytest.raises(SizeError, match="^need n >= 2, got 1$"):
            null_moments_enumerate(1, 1)

    def test_n_by_the_count_rule(self):
        assert repr(null_moments_enumerate(5.0, 2)) == repr(null_moments_enumerate(5, 2))
        with pytest.raises(ConfigError, match=r"^n must be >= 2, got 4\.5$"):
            null_moments_enumerate(4.5, 2)
        for n, shown in (("5", "'5'"), (None, "None"), (True, "True")):
            with pytest.raises(ConfigError, match=rf"^n must be >= 2, got {shown}$"):
                null_moments_enumerate(n, 1)


def _identity_like(r):
    """A valid rank row 1..len(r), at least one long: the other argument of
    hoeffding_numerator."""
    return list(range(1, max(len(r), 1) + 1))


# Every public function that reads a rank row, with the name its error gives
# the row: both argument positions of hoeffding_numerator.
RANK_ENTRIES = {
    "xi_nm_from_ranks": ("r", lambda r: coefficients.xi_nm_from_ranks(r, None, 1)),
    "replicate_statistic": ("r", lambda r: replicate_statistic_from_permutation(r, 1)),
    "fast_path_equivalence": ("r", lambda r: permutation_test_fast_path_equivalence(r, 1)),
    "hoeffding_numerator_rx": ("rx", lambda r: coefficients.hoeffding_numerator(
        r, _identity_like(r))),
    "hoeffding_numerator_ry": ("ry", lambda r: coefficients.hoeffding_numerator(
        _identity_like(r), r)),
    "min_rank_sum": ("rs", lambda r: coefficients.min_rank_sum(r, 1)),
    "symmetric_min_sum": ("rs", lambda r: coefficients.symmetric_min_sum(r, 1)),
    "reflect_ranks": ("r", reflect_ranks),
}


class TestFastPathEquivalence:
    def test_identity_permutation(self):
        a, b = permutation_test_fast_path_equivalence([1, 2, 3], 1)
        assert a == b == pytest.approx(4 / 7, abs=1e-15)

    def test_example_n3_m2(self):
        a, b = permutation_test_fast_path_equivalence([3, 1, 2], 2)
        assert a == b

    def test_fuzz(self):
        rng = derive_rng(27)
        for _ in range(500):
            n = int(rng.integers(2, 120))
            M = int(rng.integers(1, n))
            perm = rng.permutation(n) + 1
            a, b = permutation_test_fast_path_equivalence(perm, M)
            assert a == b, (n, M)

    def test_replicate_statistic_validates(self):
        with pytest.raises(SizeError):
            replicate_statistic_from_permutation([1, 1, 2], 1)
        with pytest.raises(SizeError):  # not truncated to the ranks [1, 2]
            permutation_test_fast_path_equivalence([1.5, 2], 1)

    @pytest.mark.parametrize("r", [
        [1 + 1j, 2], [2 + 0j, 1], ["2", "1"], [b"1", b"2"], np.array(["1", "2"]),
        np.array(["2", "1"], dtype=object), [None, 1], np.array([2 + 0j, 1], dtype=object),
        np.array(["2001-01-02", "2001-01-01"], dtype="M8[D]"),
        np.array([(2,), (1,)], dtype=[("r", "i8")]),
        np.array([2, 1], dtype="m8[D]"),  # a duration is no rank
        np.array([[1, 2]]), [],
    ], ids=repr)
    @pytest.mark.parametrize("entry", RANK_ENTRIES.values(), ids=RANK_ENTRIES)
    def test_non_real_ranks_raise(self, entry, r):
        name, call = entry
        with pytest.raises(SizeError, match=rf"^{name} must be a permutation of 1\.\.n$"):
            call(r)

    @pytest.mark.parametrize("r", [[2, 1, 3], [2.0, 1.0, 3.0], np.array([2, 1, 3], np.int16),
                                   np.array([2, 1, 3], dtype=object)], ids=repr)
    @pytest.mark.parametrize("entry", RANK_ENTRIES.values(), ids=RANK_ENTRIES)
    def test_real_ranks_accepted(self, entry, r):
        _, call = entry
        got, expected = call(r), call([2, 1, 3])
        if isinstance(expected, np.ndarray):
            assert got.dtype == expected.dtype and got.tolist() == expected.tolist()
        else:
            assert got == expected
        if isinstance(got, tuple):  # the fast path and the full pipeline agree
            assert got[0] == got[1]
