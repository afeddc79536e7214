"""Tests for ranking, x-ordering, right neighbors, and permutation sampling."""

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from xiboost import (
    ConfigError,
    DegenerateError,
    MRangeError,
    NonFiniteError,
    Sample,
    SizeError,
    TieError,
    compute_ranks,
    derive_rng,
    derive_seed,
    random_rank_permutation,
    reflect_ranks,
    right_neighbor,
    sorted_y_ranks,
    x_order,
)


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


class TestReflectRanks:
    def test_basic(self):
        assert reflect_ranks(np.array([1, 2, 3])).tolist() == [3, 2, 1]
        assert reflect_ranks(np.array([2, 1])).tolist() == [1, 2]

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
