"""Tests for ranking, x-ordering, right neighbors, and permutation sampling."""

import inspect
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import xiboost
from xiboost import (
    ConfigError,
    DegenerateError,
    Method,
    MRangeError,
    NonFiniteError,
    PermutationTestConfig,
    PowerStudyConfig,
    Sample,
    SizeError,
    TieError,
    asymptotic_test,
    compute_ranks,
    consistency_study,
    derive_rng,
    derive_seed,
    extremal_bounds,
    extremal_bounds_exact,
    gaussian_population_xi,
    monotone_extremal_values_exact,
    null_calibration_study,
    null_moments_enumerate,
    null_variance_asymptotic,
    pearson_test,
    permutation_test,
    permutation_test_fast_path_equivalence,
    power_study,
    random_rank_permutation,
    reflect_ranks,
    regime_ok,
    replicate_statistic_from_permutation,
    RhoRangeError,
    right_neighbor,
    sample_rotation,
    sorted_y_ranks,
    symmetric_nn_sum,
    timing_study,
    x_order,
    xi_nm,
    xi_nm_exact,
    xi_nm_from_ranks,
    xi_nm_reflected,
    xi_pm,
    zeta,
)
from xiboost.coefficients import min_rank_sum, score_sample, symmetric_min_sum
from xiboost.dataio import report_to_json
from xiboost.ranks import rank_dtype, validate_count, validate_neighbor_count, validate_ranks


class TestComputeRanks:
    def test_basic(self):
        assert compute_ranks([3.1, 1.2, 2.7]).tolist() == [3, 1, 2]

    def test_singleton(self):
        assert compute_ranks([5.0]).tolist() == [1]

    def test_tie_reports_first_pair(self):
        with pytest.raises(TieError) as exc:
            compute_ranks([1.0, 1.0, 2.0])
        assert (exc.value.index_a, exc.value.index_b) == (0, 1)
        assert exc.value.value == 1.0

    def test_non_finite(self):
        with pytest.raises(NonFiniteError):
            compute_ranks([1.0, float("nan"), 2.0])
        with pytest.raises(NonFiniteError):
            compute_ranks([1.0, float("inf")])

    def test_is_permutation(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(1, 50))
            r = compute_ranks(rng.permutation(n) + rng.random())
            assert sorted(r.tolist()) == list(range(1, n + 1))

    @given(st.permutations(list(range(1, 13))))
    def test_monotone_invariance(self, values):
        """Ranks are unchanged by strictly increasing maps."""
        base = compute_ranks([float(v) for v in values])
        transformed = compute_ranks([float(v) ** 3 + v for v in values])
        assert base.tolist() == transformed.tolist()


class TestXOrder:
    def test_basic(self):
        ord_ = x_order([2.0, 0.5, 1.5])
        # 1-based reading: order = (2, 3, 1)
        assert (ord_.order + 1).tolist() == [2, 3, 1]

    def test_identity(self):
        assert (x_order([1.0, 2.0, 3.0]).order + 1).tolist() == [1, 2, 3]

    def test_singleton(self):
        assert (x_order([9.9]).order + 1).tolist() == [1]

    def test_mutually_inverse(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(100)
        ord_ = x_order(x)
        assert (ord_.order[ord_.pos] == np.arange(100)).all()
        assert (ord_.pos[ord_.order] == np.arange(100)).all()
        assert (np.diff(x[ord_.order]) > 0).all()

    def test_ties_rejected(self):
        with pytest.raises(TieError):
            x_order([1.0, 2.0, 1.0])


class TestRightNeighbor:
    def test_first_neighbor(self):
        ord_ = x_order([2.0, 0.5, 1.5])
        assert right_neighbor(ord_, 2, 1) == 3

    def test_self_fallback_at_maximum(self):
        ord_ = x_order([2.0, 0.5, 1.5])
        assert right_neighbor(ord_, 1, 1) == 1

    def test_second_neighbor(self):
        ord_ = x_order([1.0, 2.0, 3.0])
        assert right_neighbor(ord_, 1, 2) == 3

    def test_out_of_range(self):
        ord_ = x_order([1.0, 2.0])
        with pytest.raises(IndexError):
            right_neighbor(ord_, 3, 1)
        with pytest.raises(IndexError):
            right_neighbor(ord_, 0, 1)
        with pytest.raises(MRangeError):
            right_neighbor(ord_, 1, 0)

    def test_counting_definition(self):
        """j is the unique index with #{k : x_i < x_k <= x_j} = m when it exists."""
        rng = np.random.default_rng(2)
        x = rng.standard_normal(40)
        ord_ = x_order(x)
        for i in range(1, 41):
            for m in (1, 3, 7):
                j = right_neighbor(ord_, i, m)
                if j == i:
                    assert np.sum(x > x[i - 1]) < m
                else:
                    assert np.sum((x > x[i - 1]) & (x <= x[j - 1])) == m

    def test_self_fallback_count_equals_m(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(30)
        ord_ = x_order(x)
        for m in range(1, 31):
            fallbacks = sum(right_neighbor(ord_, i, m) == i for i in range(1, 31))
            assert fallbacks == m

    def test_successor_graph(self):
        """With m=1, every non-maximal point maps to its sorted successor."""
        rng = np.random.default_rng(4)
        x = rng.standard_normal(25)
        ord_ = x_order(x)
        for p in range(24):
            i = int(ord_.order[p]) + 1
            assert right_neighbor(ord_, i, 1) == int(ord_.order[p + 1]) + 1


class TestValidateRanks:
    @pytest.mark.parametrize("n, dtype", [(32767, np.int16), (32768, np.int32)])
    def test_read_into_the_null_draws_dtype(self, n, dtype):
        r = np.arange(n, 0, -1)
        got = validate_ranks("r", r)
        assert got.dtype == dtype == rank_dtype(n)
        assert (got == r).all()


class TestReflectRanks:
    def test_basic(self):
        assert reflect_ranks(np.array([1, 2, 3])).tolist() == [3, 2, 1]
        assert reflect_ranks(np.array([2, 1])).tolist() == [1, 2]

    @pytest.mark.parametrize("n", [32767, 32768])
    def test_int64_where_n_plus_1_leaves_the_row_dtype(self, n):
        """n + 1 does not fit in int16 at n = 32767."""
        for r in (np.arange(1, n + 1), np.arange(1, n + 1, dtype=rank_dtype(n))):
            refl = reflect_ranks(r)
            assert refl.dtype == np.int64
            assert refl.tolist() == list(range(n, 0, -1))

    @given(st.permutations(list(range(1, 10))))
    def test_involution(self, perm):
        r = np.array(perm)
        assert (reflect_ranks(reflect_ranks(r)) == r).all()

    def test_swaps_extremes(self):
        r = compute_ranks([0.3, 0.9, 0.5])
        refl = reflect_ranks(r)
        assert refl[np.argmax(r == 1)] == 3
        assert refl[np.argmax(r == 3)] == 1


class TestRandomRankPermutation:
    def test_singleton(self):
        assert random_rank_permutation(derive_rng(0), 1).tolist() == [1]

    def test_deterministic(self):
        a = random_rank_permutation(derive_rng(42), 10)
        b = random_rank_permutation(derive_rng(42), 10)
        assert (a == b).all()

    def test_uniform_over_six_permutations(self):
        """Each of the 3! = 6 permutations should appear about 1/6 of the time."""
        rng = derive_rng(2024)
        counts = {}
        draws = 60_000
        for _ in range(draws):
            key = tuple(random_rank_permutation(rng, 3))
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == 6
        for key, count in counts.items():
            assert 0.15 <= count / draws <= 0.185, (key, count / draws)

    def test_invalid_size(self):
        with pytest.raises(SizeError):
            random_rank_permutation(derive_rng(0), 0)


class TestSample:
    def test_length_mismatch(self):
        with pytest.raises(SizeError):
            Sample([1.0, 2.0], [1.0, 2.0, 3.0])

    def test_too_small(self):
        with pytest.raises(SizeError):
            Sample([1.0], [1.0])

    def test_two_dimensional_coordinate(self):
        with pytest.raises(SizeError, match=r"^x must be one-dimensional, got shape \(2, 2\)$"):
            Sample([[1.0, 2.0], [3.0, 4.0]], [1.0, 2.0])

    def test_non_finite(self):
        with pytest.raises(NonFiniteError):
            Sample([1.0, float("nan")], [1.0, 2.0])

    def test_reflected(self):
        s = Sample([1.0, 2.0], [3.0, 4.0])
        assert s.reflected().y.tolist() == [-3.0, -4.0]

    def test_jitter_breaks_ties_preserving_strict_order(self):
        s = Sample([1.0, 1.0, 2.0, 5.0], [4.0, 3.0, 3.0, 1.0])
        j = s.jittered(seed=11)
        compute_ranks(j.x)
        compute_ranks(j.y)
        # distinct values keep their relative order
        assert j.x[2] < j.x[3]
        assert j.y[3] < j.y[1]

    def test_jitter_deterministic(self):
        s = Sample([1.0, 1.0, 2.0], [4.0, 3.0, 3.0])
        a = s.jittered(seed=5)
        b = s.jittered(seed=5)
        assert (a.x == b.x).all() and (a.y == b.y).all()

    def test_jitter_constant_coordinate(self):
        s = Sample([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
        with pytest.raises(DegenerateError):
            s.jittered(seed=0)

    def test_jitter_keeps_distinct_values_at_mixed_magnitudes(self):
        x = [0.0, 1e-13, 2e-13, 1000.0, 500.0]
        for seed in range(200):
            assert Sample(x, [1.0, 2.0, 3.0, 4.0, 5.0]).jittered(seed).x.tolist() == x

    def test_jitter_breaks_ties_at_large_magnitude(self):
        j = Sample([1e10, 1e10, 1e10 + 1], [1.0, 2.0, 3.0]).jittered(1)
        assert j.x[2] == 1e10 + 1
        assert 1e10 <= min(j.x[:2]) < max(j.x[:2]) < 1e10 + 1
        # a gap wider than the largest float
        j = Sample([-1e308, -1e308, 1e308], [1.0, 2.0, 3.0]).jittered(1)
        assert j.x[2] == 1e308 and -1e308 <= min(j.x[:2]) < max(j.x[:2]) < 0.0

    def test_jitter_too_narrow_gap_names_tie(self):
        s = Sample([1.0, np.nextafter(1.0, 2.0), 1.0, 1.0], [1.0, 2.0, 3.0, 4.0])
        assert self.tie_of(s.jittered, 0) == (0, 2, 1.0, "x")

    @given(st.lists(st.integers(-3, 3), min_size=2, max_size=30),
           st.lists(st.integers(-3, 3), min_size=2, max_size=30),
           st.sampled_from([1e-13, 1e-7, 1.0, 1e3, 1e10]),
           st.integers(0, 2**32 - 1))
    def test_jitter_moves_only_ties_and_keeps_order(self, kx, ky, scale, seed):
        n = min(len(kx), len(ky))
        assume(len(set(kx[:n])) > 1 and len(set(ky[:n])) > 1)
        s = Sample(np.array(kx[:n]) * scale, np.array(ky[:n]) * scale)
        j = s.jittered(seed)
        for before, after in ((s.x, j.x), (s.y, j.y)):
            assert np.unique(after).size == n
            values, counts = np.unique(before, return_counts=True)
            untied = np.isin(before, values[counts == 1])
            assert (after[untied] == before[untied]).all()
            order = np.sign(before[:, None] - before[None, :])
            distinct = order != 0
            assert (np.sign(after[:, None] - after[None, :])[distinct] == order[distinct]).all()

    def test_sorted_y_ranks(self):
        s = Sample([3.0, 1.0, 2.0], [10.0, 30.0, 20.0])
        # ascending x visits y = 30, 20, 10 whose ranks are 3, 2, 1
        assert sorted_y_ranks(s).tolist() == [3, 2, 1]

    @staticmethod
    def tie_of(fn, *args):
        with pytest.raises(TieError) as exc:
            fn(*args)
        e = exc.value
        return e.index_a, e.index_b, e.value, e.coordinate

    def test_sorted_y_ranks_x_tie_names_lowest_stable_pair(self):
        assert self.tie_of(sorted_y_ranks, Sample([2.0, 1.0, 1.0, 1.0, 0.0], np.arange(5.0))) \
            == (1, 2, 1.0, "x")
        # many tie groups of three or more: the smallest tied value, at its
        # two lowest indices
        rng = np.random.default_rng(5)
        x = np.round(rng.standard_normal(300), 1)
        values, counts = np.unique(x, return_counts=True)
        v = values[counts > 1][0]
        i, j = np.flatnonzero(x == v)[:2]
        assert self.tie_of(sorted_y_ranks, Sample(x, rng.standard_normal(300))) \
            == (i, j, v, "x")

    @given(st.permutations(list(range(40))), st.permutations(list(range(40))))
    def test_sorted_y_ranks_matches_definition(self, px, py):
        x = np.array(px, dtype=np.float64)
        y = np.array(py, dtype=np.float64) * 0.5
        assert sorted_y_ranks(Sample(x, y)).tolist() == \
            (compute_ranks(y)[x_order(x).order]).tolist()

    def test_sorted_y_ranks_holds_three_arrays(self):
        """Beyond its input, ordering a tie-free sample allocates at most three
        n-long arrays at a time, its result among them."""
        n = 200_000
        rng = derive_rng(28)
        s = Sample(rng.standard_normal(n), rng.standard_normal(n))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            sorted_y_ranks(s)
            extra = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert extra <= 3 * 8 * n + 2 ** 16, extra / (8 * n)


class TestSeedDerivation:
    def test_distinct_keys_distinct_seeds(self):
        seeds = {derive_seed(7, c, r) for c in range(20) for r in range(50)}
        assert len(seeds) == 1000

    def test_same_key_same_stream(self):
        a = derive_rng(7, 3, 4).standard_normal(5)
        b = derive_rng(7, 3, 4).standard_normal(5)
        assert (a == b).all()

    @pytest.mark.parametrize("derive", [derive_rng, derive_seed])
    def test_negative_seed_is_a_config_error(self, derive):
        with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
            derive(-1, 2)


RULE_SAMPLE = sample_rotation(derive_rng(41), 30, 0.6)
RULE_RANKS = compute_ranks(RULE_SAMPLE.y)


def _timing_cells(M):
    report = timing_study([30], [M], repetitions=1, warmup=0, seed=1)
    return [(row["n"], row["M"]) for row in report.rows]


# every entry point that takes M, called with it as a user would; repr (and a
# report's JSON) tells a plain int from a numpy integer or a float
M_ENTRY_POINTS = {
    "xi_nm": lambda M: xi_nm(RULE_SAMPLE, M),
    "xi_pm": lambda M: xi_pm(RULE_SAMPLE, M),
    "xi_nm_reflected": lambda M: xi_nm_reflected(RULE_SAMPLE, M),
    "symmetric_nn_sum": lambda M: symmetric_nn_sum(RULE_SAMPLE, M),
    "xi_nm_exact": lambda M: xi_nm_exact(RULE_SAMPLE, M),
    "xi_nm_from_ranks": lambda M: xi_nm_from_ranks(RULE_RANKS, None, M),
    "replicate_statistic_from_permutation": lambda M: replicate_statistic_from_permutation(
        RULE_RANKS, M),
    "permutation_test_fast_path_equivalence": lambda M: permutation_test_fast_path_equivalence(
        RULE_RANKS, M),
    "score_sample": lambda M: score_sample(RULE_SAMPLE, Method.SYMMETRIC_NN, M),
    "min_rank_sum": lambda M: min_rank_sum(RULE_RANKS, M),
    "symmetric_min_sum": lambda M: symmetric_min_sum(RULE_RANKS, M),
    "PermutationTestConfig": lambda M: PermutationTestConfig(
        B=19, alpha=0.05, seed=3, method=Method.XI_PM, M=M),
    "permutation_test": lambda M: permutation_test(RULE_SAMPLE, PermutationTestConfig(
        B=19, alpha=0.05, seed=3, method=Method.XI_PM, M=M)),
    "asymptotic_test": lambda M: asymptotic_test(RULE_SAMPLE, M, 0.05, override=True),
    "null_variance_asymptotic": lambda M: null_variance_asymptotic(30, M),
    "null_moments_enumerate": lambda M: null_moments_enumerate(5, M),
    "zeta": lambda M: zeta(30, M),
    "regime_ok": lambda M: regime_ok(10_000, M),
    "extremal_bounds": lambda M: extremal_bounds(30, M),
    "extremal_bounds_exact": lambda M: extremal_bounds_exact(30, M),
    "monotone_extremal_values_exact": lambda M: monotone_extremal_values_exact(30, M),
    "null_calibration_study": lambda M: report_to_json(
        null_calibration_study(30, M, replicates=3, seed=1)),
    "power_study": lambda M: report_to_json(power_study(PowerStudyConfig(
        n_values=[30], M_values=[M], rho0_values=[2.0], methods=["xi-pm", "symmetric-nn"],
        replicates=3, B=19, master_seed=1))),
    "consistency_study": lambda M: report_to_json(
        consistency_study([0.5], [30], [M], replicates=3, seed=1)),
    "timing_study": _timing_cells,
}


class TestNeighborCountRule:
    """`validate_neighbor_count` is the one reading of M: every entry point
    computes with the plain int it returns, or raises its MRangeError."""

    @pytest.mark.parametrize("M", [np.int64(3), np.int32(3), 3.0, np.float64(3.0)],
                             ids=["int64", "int32", "float", "float64"])
    @pytest.mark.parametrize("entry", M_ENTRY_POINTS)
    def test_whole_numbers_act_as_the_plain_int(self, entry, M):
        assert repr(M_ENTRY_POINTS[entry](M)) == repr(M_ENTRY_POINTS[entry](3))

    @pytest.mark.parametrize("M", [2.5, np.float64(9.5), "3", None, True, float("nan")],
                             ids=["2.5", "float64-9.5", "str", "None", "bool", "nan"])
    @pytest.mark.parametrize("entry", M_ENTRY_POINTS)
    def test_other_values_raise_m_range_error(self, entry, M):
        with pytest.raises((MRangeError, ConfigError)):
            M_ENTRY_POINTS[entry](M)

    def test_plain_int_results(self):
        assert type(validate_neighbor_count(10, np.int64(3))) is int
        assert type(validate_neighbor_count(None, 3.0)) is int
        cfg = PermutationTestConfig(B=9, alpha=0.05, seed=1, method=Method.XI_PM, M=3.0)
        assert type(cfg.M) is int
        assert type(permutation_test(RULE_SAMPLE, cfg).M) is int

    def test_range_and_whole_number_halves(self):
        assert validate_neighbor_count(None, 0) == 0  # no n: only the whole-number half
        with pytest.raises(MRangeError, match=r"^M must be a whole number, got 2\.5$"):
            validate_neighbor_count(None, 2.5)
        for M in (0, 10):
            with pytest.raises(MRangeError, match=rf"^M must satisfy 1 <= M <= n-1 = 9, got {M}$"):
                validate_neighbor_count(10, M)
        with pytest.raises(MRangeError, match="got 10$"):
            validate_neighbor_count(10, 10.0)
        for one_row in (min_rank_sum, symmetric_min_sum):  # read against the row's own n
            for M in (-1, 0, 3):
                with pytest.raises(MRangeError, match=rf"n-1 = 2, got {M}$"):
                    one_row([2, 1, 3], M)


def _power(**settings):
    return report_to_json(power_study(PowerStudyConfig(**{
        "n_values": [30], "M_values": [2], "rho0_values": [2.0], "methods": ["xi-pm", "pearson"],
        "replicates": 3, "B": 9, "alpha": 0.25, "master_seed": 1, "workers": 1, **settings})))


def _null(**settings):
    return report_to_json(null_calibration_study(
        **{"n": 30, "M": 2, "replicates": 3, "seed": 1, "workers": 1, **settings}))


def _consistency(**settings):
    return report_to_json(consistency_study(**{
        "rho_values": [0.5], "n_values": [30], "M_values": [2], "replicates": 3, "seed": 1,
        "workers": 1, **settings}))


def _timing(**settings):
    report = timing_study(**{"n_values": [30], "M_values": [2], "repetitions": 1, "warmup": 0,
                             "seed": 1, **settings})
    for row in report.rows:
        row["median_seconds"] = 0.0  # a wall time: the one value that differs run to run
    return report_to_json(report)


def _perm(**settings):
    return permutation_test(RULE_SAMPLE, PermutationTestConfig(
        **{"B": 9, "alpha": 0.25, "seed": 3, "method": Method.XI_PM, "M": 2, **settings}))


# (entry point, count setting) -> (call with the setting's value, a valid plain
# int, the name in the error, its least value); workers stays at 1, so no pool
# starts
COUNT_ENTRY_POINTS = {
    ("permutation_test", "B"): (lambda v: _perm(B=v), 9, "B", 1),
    ("permutation_test", "seed"): (lambda v: _perm(seed=v), 3, "seed", 0),
    ("derive_rng", "seed"): (lambda v: derive_rng(v, 2).random(), 3, "seed", 0),
    ("power_study", "n"): (lambda v: _power(n_values=[v]), 30, "n", 2),
    ("power_study", "replicates"): (lambda v: _power(replicates=v), 3, "replicates", 1),
    ("power_study", "B"): (lambda v: _power(B=v), 9, "B", 1),
    ("power_study", "seed"): (lambda v: _power(master_seed=v), 1, "seed", 0),
    ("power_study", "workers"): (lambda v: _power(workers=v), 1, "workers", 1),
    ("null_calibration_study", "n"): (lambda v: _null(n=v), 30, "n", 2),
    ("null_calibration_study", "replicates"): (lambda v: _null(replicates=v), 3,
                                               "replicates", 2),
    ("null_calibration_study", "seed"): (lambda v: _null(seed=v), 1, "seed", 0),
    ("null_calibration_study", "workers"): (lambda v: _null(workers=v), 1, "workers", 1),
    ("consistency_study", "n"): (lambda v: _consistency(n_values=[v]), 30, "n", 2),
    ("consistency_study", "replicates"): (lambda v: _consistency(replicates=v), 3,
                                          "replicates", 1),
    ("consistency_study", "seed"): (lambda v: _consistency(seed=v), 1, "seed", 0),
    ("consistency_study", "workers"): (lambda v: _consistency(workers=v), 1, "workers", 1),
    ("timing_study", "n"): (lambda v: _timing(n_values=[v]), 30, "n", 2),
    ("timing_study", "repetitions"): (lambda v: _timing(repetitions=v), 2, "repetitions", 1),
    ("timing_study", "warmup"): (lambda v: _timing(warmup=v), 1, "warmup", 0),
    ("timing_study", "seed"): (lambda v: _timing(seed=v), 1, "seed", 0),
    ("zeta", "n"): (lambda v: zeta(v, 3), 30, "n", 2),
    ("regime_ok", "n"): (lambda v: regime_ok(v, 3), 10_000, "n", 2),
    ("null_variance_asymptotic", "n"): (lambda v: null_variance_asymptotic(v, 3), 30, "n", 2),
    ("extremal_bounds", "n"): (lambda v: extremal_bounds(v, 3), 30, "n", 2),
    ("extremal_bounds_exact", "n"): (lambda v: extremal_bounds_exact(v, 3), 30, "n", 2),
    ("monotone_extremal_values_exact", "n"): (
        lambda v: monotone_extremal_values_exact(v, 3), 30, "n", 2),
    ("sample_rotation", "n"): (lambda v: sample_rotation(derive_rng(5), v, 0.3).y.tolist(),
                               30, "n", 2),
}

# public callables whose n or M the tables above leave out, each with its reason
UNTABLED_SIZES = {
    "CoefficientValue": "a result record: it stores the n and M its function read",
    "NullMoments": "a result record: it stores the n and M null_moments_enumerate read",
    "TestResult": "a result record: it stores the n and M its test read",
    "null_moments_enumerate": "its two SizeError guards on a whole n, pinned by test_size_guard, "
                              "come first",
    "random_rank_permutation": "its n is a SizeError count with least 1",
}

ALPHA_ENTRY_POINTS = {
    "permutation_test": lambda a: _perm(alpha=a),
    "asymptotic_test": lambda a: asymptotic_test(RULE_SAMPLE, 2, a, override=True),
    "pearson_test": lambda a: pearson_test(RULE_SAMPLE, a),
    "power_study": lambda a: _power(alpha=a),
}

RHO_ENTRY_POINTS = {
    "sample_rotation": lambda r: sample_rotation(derive_rng(5), 30, r).y.tolist(),
    "gaussian_population_xi": gaussian_population_xi,
    "consistency_study": lambda r: _consistency(rho_values=[r]),
}


class TestSettingRules:
    """Each study setting has one rule in `xiboost.ranks`: a count is a whole
    number of at least its least value, alpha a real number in (0, 1) and rho
    one in (-1, 1). Every entry point computes with the plain value the rule
    returns, or raises the rule's error."""

    @pytest.mark.parametrize("kind", [np.int64, np.int32, float, np.float64],
                             ids=["int64", "int32", "float", "float64"])
    @pytest.mark.parametrize("entry", COUNT_ENTRY_POINTS, ids="-".join)
    def test_whole_counts_act_as_the_plain_int(self, entry, kind):
        call, value, _, _ = COUNT_ENTRY_POINTS[entry]
        assert repr(call(kind(value))) == repr(call(value))

    @pytest.mark.parametrize("value", [2.5, True, "3", None, float("nan")],
                             ids=["2.5", "bool", "str", "None", "nan"])
    @pytest.mark.parametrize("entry", COUNT_ENTRY_POINTS, ids="-".join)
    def test_other_counts_raise_config_error(self, entry, value):
        call, _, name, least = COUNT_ENTRY_POINTS[entry]
        with pytest.raises(ConfigError, match=rf"^{name} must be >= {least}, got "):
            call(value)

    @pytest.mark.parametrize("entry", COUNT_ENTRY_POINTS, ids="-".join)
    def test_count_below_least_names_the_plain_int(self, entry):
        call, _, name, least = COUNT_ENTRY_POINTS[entry]
        with pytest.raises(ConfigError, match=rf"^{name} must be >= {least}, got {least - 1}$"):
            call(np.int64(least - 1))

    def test_plain_results(self):
        res = _perm(B=np.int64(9), alpha=np.float64(0.25), seed=np.int64(3))
        assert (type(res.p_value), type(res.reject), type(res.B), type(res.alpha),
                type(res.seed)) == (float, bool, int, float, int)
        cfg = PowerStudyConfig(n_values=np.array([30]), M_values=[2.0], rho0_values=[1],
                               methods=["pearson"], replicates=3.0, B=np.int32(9),
                               master_seed=np.int64(1), workers=1.0)
        assert repr(cfg) == repr(PowerStudyConfig(n_values=[30], M_values=[2],
                                                  rho0_values=[1.0], methods=["pearson"],
                                                  replicates=3, B=9, master_seed=1))

    @pytest.mark.parametrize("kind", [np.float64, np.float32], ids=["float64", "float32"])
    @pytest.mark.parametrize("entry", ALPHA_ENTRY_POINTS)
    def test_real_alpha_acts_as_the_plain_float(self, entry, kind):
        assert repr(ALPHA_ENTRY_POINTS[entry](kind(0.25))) == \
            repr(ALPHA_ENTRY_POINTS[entry](0.25))

    @pytest.mark.parametrize("alpha", [0, 1.0, "0.25", None, float("nan")],
                             ids=["0", "1", "str", "None", "nan"])
    @pytest.mark.parametrize("entry", ALPHA_ENTRY_POINTS)
    def test_other_alpha_raises_config_error(self, entry, alpha):
        with pytest.raises(ConfigError, match=r"^alpha must lie in \(0, 1\), got "):
            ALPHA_ENTRY_POINTS[entry](alpha)

    @pytest.mark.parametrize("kind", [np.float64, np.float32], ids=["float64", "float32"])
    @pytest.mark.parametrize("entry", RHO_ENTRY_POINTS)
    def test_real_rho_acts_as_the_plain_float(self, entry, kind):
        assert repr(RHO_ENTRY_POINTS[entry](kind(0.5))) == repr(RHO_ENTRY_POINTS[entry](0.5))

    @pytest.mark.parametrize("rho", [1, -1.0, "0.5", None, float("nan"), False],
                             ids=["1", "-1", "str", "None", "nan", "bool"])
    @pytest.mark.parametrize("entry", RHO_ENTRY_POINTS)
    def test_other_rho_raises_rho_range_error(self, entry, rho):
        with pytest.raises(RhoRangeError, match=r"^rho must lie in \(-1, 1\), got "):
            RHO_ENTRY_POINTS[entry](rho)

    @pytest.mark.parametrize("rho0", [2, np.int64(2), np.float64(2.0), np.float32(2.0)],
                             ids=["int", "int64", "float64", "float32"])
    def test_real_rho0_acts_as_the_plain_float(self, rho0):
        assert _power(rho0_values=[rho0]) == _power(rho0_values=[2.0])

    @pytest.mark.parametrize("rho0", ["2", None, True, float("nan"), float("inf")],
                             ids=["str", "None", "bool", "nan", "inf"])
    def test_other_rho0_raises_config_error(self, rho0):
        with pytest.raises(ConfigError,
                           match=r"^rho0_values must hold finite real numbers, got "):
            _power(rho0_values=[2.0, rho0])

    def test_n_is_read_before_m(self):
        with pytest.raises(ConfigError, match=r"^n must be >= 2, got 1$"):
            null_calibration_study(1, 1, replicates=3, seed=1)
        with pytest.raises(ConfigError, match=r"^n must be >= 2, got True$"):
            null_variance_asymptotic(True, 1)
        with pytest.raises(ConfigError, match=r"^n must be >= 2, got 50\.7$"):
            consistency_study([0.5], [50.7], [2], replicates=3, seed=1)
        for rule in (zeta, regime_ok):
            with pytest.raises(ConfigError, match=r"^n must be >= 2, got 50\.7$"):
                rule(50.7, 3)

    def test_every_public_n_and_m_is_tabled(self):
        missing = []
        for name in xiboost.__all__:
            try:
                params = inspect.signature(getattr(xiboost, name)).parameters
            except (TypeError, ValueError):  # a constant or an exception class
                continue
            if name in UNTABLED_SIZES:
                continue
            if "n" in params and (name, "n") not in COUNT_ENTRY_POINTS:
                missing.append((name, "n"))
            if "M" in params and name not in M_ENTRY_POINTS:
                missing.append((name, "M"))
        assert missing == []

    def test_internal_counts_keep_their_error_class(self):
        with pytest.raises(MRangeError, match=r"^m must be >= 1, got 2\.5$"):
            right_neighbor(x_order([1.0, 2.0, 3.0]), 1, 2.5)
        with pytest.raises(SizeError, match=r"^n must be >= 1, got 0$"):
            random_rank_permutation(derive_rng(0), 0.0)
        assert type(validate_count("k", np.uint8(4), 0)) is int
