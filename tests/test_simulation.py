"""Tests for the Monte Carlo study harness: schemas, determinism across
worker counts, and error propagation."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import xiboost
from xiboost import (
    ConfigError,
    DegenerateError,
    MRangeError,
    PowerStudyConfig,
    StudyError,
    consistency_study,
    gaussian_population_xi,
    null_calibration_study,
    null_variance_asymptotic,
    derive_rng,
    power_study,
    sample_rotation,
    timing_study,
    xi_nm,
)
from xiboost.dataio import report_to_json
from xiboost.ranks import max_batch_rows
from xiboost.simulation import _consistency_block, _replicate_blocks, _run_replicates


def _echo_keys(cell, keys):
    """A block task that returns its seed keys; module-level, so a pool can run it."""
    return list(keys)


SMALL_CFG = dict(n_values=[40], M_values=[2], rho0_values=[0.0, 3.0],
                 methods=["xi-pm"], replicates=40, B=49, alpha=0.05,
                 master_seed=123)


class TestPowerStudy:
    def test_report_shape(self):
        report = power_study(PowerStudyConfig(**SMALL_CFG))
        assert report.kind == "power"
        assert len(report.rows) == 2
        for row in report.rows:
            assert 0.0 <= row["rejection_frequency"] <= 1.0
            assert row["replicates"] == 40
        assert report.meta["B"] == 49
        assert "workers" not in report.meta

    def test_alternative_beats_null_cell(self):
        report = power_study(PowerStudyConfig(**SMALL_CFG))
        by_rho = {row["rho0"]: row["rejection_frequency"] for row in report.rows}
        assert by_rho[3.0] > by_rho[0.0]

    def test_m_free_methods_get_single_cell(self):
        cfg = PowerStudyConfig(n_values=[30], M_values=[1, 2], rho0_values=[0.0],
                               methods=["pearson"], replicates=5, B=9,
                               alpha=0.05, master_seed=1)
        report = power_study(cfg)
        assert len(report.rows) == 1
        assert report.rows[0]["M"] is None

    def test_byte_identical_across_worker_counts(self):
        serial = power_study(PowerStudyConfig(**SMALL_CFG, workers=1))
        parallel = power_study(PowerStudyConfig(**SMALL_CFG, workers=2))
        assert report_to_json(serial) == report_to_json(parallel)

    def test_invalid_m_rejected_upfront(self):
        cfg = PowerStudyConfig(n_values=[10], M_values=[10], rho0_values=[0.0],
                               methods=["xi-pm"], replicates=2, B=9,
                               alpha=0.05, master_seed=1)
        with pytest.raises(MRangeError):
            power_study(cfg)

    def test_cell_failure_carries_cell_id(self):
        # Hoeffding needs n >= 5; n=4 only fails inside the cell
        cfg = PowerStudyConfig(n_values=[4], M_values=[1], rho0_values=[0.0],
                               methods=["hoeffding-d"], replicates=2, B=9,
                               alpha=0.05, master_seed=1)
        with pytest.raises(StudyError, match="hoeffding-d"):
            power_study(cfg)

    def test_cell_failure_names_replicate_and_seed_key(self):
        cfg = PowerStudyConfig(n_values=[4], M_values=[1], rho0_values=[0.0],
                               methods=["hoeffding-d"], replicates=2, B=9,
                               alpha=0.05, master_seed=1)
        with pytest.raises(StudyError, match=r"replicate 0, seed key \(1, 0, 0\):"):
            power_study(cfg)

    def test_pooled_failure_names_cell_like_serial(self):
        # the worker-side wrapper builds the same text at any worker count
        cfg = dict(n_values=[4], M_values=[1], rho0_values=[0.0], methods=["hoeffding-d"],
                   replicates=2, B=9, alpha=0.05, master_seed=1)
        expected = ("cell (method=hoeffding-d, n=4, M=None, rho0=0.0) replicate 0, "
                    "seed key (1, 0, 0): Hoeffding's D needs n >= 5, got 4")
        for workers in (1, 2):
            with pytest.raises(StudyError) as exc:
                power_study(PowerStudyConfig(**cfg, workers=workers))
            assert str(exc.value) == expected

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            PowerStudyConfig(n_values=[], M_values=[1], rho0_values=[0.0],
                             methods=["xi-pm"])
        with pytest.raises(ConfigError):
            PowerStudyConfig(n_values=[10], M_values=[1], rho0_values=[0.0],
                             methods=["xi-pm"], alpha=2.0)
        with pytest.raises(ValueError):
            PowerStudyConfig(n_values=[10], M_values=[1], rho0_values=[0.0],
                             methods=["no-such-method"])

    @pytest.mark.parametrize("method", ["xi-nm", "xi-classic", "xi-nm-reflected"])
    def test_untestable_method_rejected_in_config(self, method):
        with pytest.raises(ConfigError, match=method):
            PowerStudyConfig(n_values=[10], M_values=[1], rho0_values=[0.0],
                             methods=["xi-pm", method])

    def test_pearson_cells_load_no_scipy_stats(self):
        """Pearson's t-test takes its tail from scipy.special; a power study
        runs without loading the scipy.stats layer."""
        code = (
            "import sys\n"
            "from xiboost import PowerStudyConfig, power_study\n"
            "power_study(PowerStudyConfig(n_values=[40], M_values=[2], rho0_values=[0.0, 3.0],\n"
            "    methods=['xi-pm', 'pearson'], replicates=5, B=19, master_seed=3, workers=1))\n"
            "assert 'scipy.special' in sys.modules\n"
            "assert 'scipy.stats' not in sys.modules\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(xiboost.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True)
        assert proc.returncode == 0, proc.stderr


class TestNullCalibrationStudy:
    def test_ks_distance_loads_no_scipy_stats(self):
        """The KS distance takes the normal CDF from scipy.special; a null
        calibration in the normal-limit regime runs without loading scipy.stats."""
        code = (
            "import sys\n"
            "from xiboost import null_calibration_study\n"
            "row = null_calibration_study(50, 2, 20, seed=1).rows[0]\n"
            "assert row['ks_distance'] is not None\n"
            "assert 'scipy.special' in sys.modules\n"
            "assert 'scipy.stats' not in sys.modules\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(xiboost.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True)
        assert proc.returncode == 0, proc.stderr

    def test_moments_close_to_theory(self):
        report = null_calibration_study(200, 5, 4000, seed=9)
        row = report.rows[0]
        sigma = np.sqrt(null_variance_asymptotic(200, 5) / 4000)
        assert abs(row["mean"]) < 4 * sigma
        assert 0.7 < row["variance_ratio"] < 1.3

    def test_ks_only_in_normal_regime(self):
        with_ks = null_calibration_study(100, 3, 200, seed=1)
        assert with_ks.rows[0]["ks_distance"] is not None
        without_ks = null_calibration_study(100, 4, 200, seed=1)
        assert without_ks.rows[0]["ks_distance"] is None

    def test_deterministic_across_workers(self):
        a = null_calibration_study(150, 4, 600, seed=3, workers=1)
        b = null_calibration_study(150, 4, 600, seed=3, workers=2)
        assert report_to_json(a) == report_to_json(b)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("n, M, replicates, seed, digest", [
        (512, 3, 400, 8, "916fc7e3c3778e0e1cc0cbd3356e1375dd08b87513685b0470594d18880d942b"),
        (150, 4, 600, 3, "76826c0406d70a874e5413f60b6d5ba4492b07af6a46e9a5aa6a2c55e2274b0e"),
    ], ids=["criterion-13", "n150"])
    def test_pinned_report_bytes(self, n, M, replicates, seed, digest, workers):
        """The null stream is pinned: replicate r draws derive_rng(seed, r)."""
        report = null_calibration_study(n, M, replicates, seed=seed, workers=workers)
        assert hashlib.sha256(report_to_json(report).encode()).hexdigest() == digest


class TestConsistencyStudy:
    def test_reference_column_and_convergence(self):
        report = consistency_study([0.0, 0.5], [800], [5], replicates=60, seed=4)
        rows = {row["rho"]: row for row in report.rows}
        assert rows[0.5]["population_xi"] == gaussian_population_xi(0.5).xi
        assert abs(rows[0.0]["mean"]) < 0.02
        assert abs(rows[0.5]["mean"] - rows[0.5]["population_xi"]) < 0.05
        assert rows[0.5]["q25"] <= rows[0.5]["median"] <= rows[0.5]["q75"]

    def test_replicate_failure_names_replicate_and_seed_key(self, monkeypatch):
        calls = []

        def failing_sample_rotation(rng, n, rho):
            calls.append(n)
            if len(calls) == 8:  # cell 1, replicate 2
                raise DegenerateError("injected")
            return sample_rotation(rng, n, rho)

        monkeypatch.setattr("xiboost.simulation.sample_rotation", failing_sample_rotation)
        with pytest.raises(StudyError) as exc:
            consistency_study([0.0, 0.3], [50], [2], replicates=5, seed=9, workers=1)
        assert str(exc.value) == ("cell (rho=0.3, n=50, M=2) replicate 2, "
                                  "seed key (9, 1, 2): injected")

    @pytest.mark.parametrize("grid, name", [
        (([], [50], [2]), "rho_values"),
        (([0.3], [], [2]), "n_values"),
        (([0.3], [50], []), "M_values"),
    ], ids=["rho", "n", "M"])
    def test_empty_grid_rejected(self, grid, name):
        with pytest.raises(ConfigError, match=f"^{name} must be nonempty$"):
            consistency_study(*grid, replicates=3, seed=1)

    def test_deterministic_across_workers(self):
        a = consistency_study([0.3], [100], [2, 4], replicates=50, seed=5, workers=1)
        b = consistency_study([0.3], [100], [2, 4], replicates=50, seed=5, workers=2)
        assert report_to_json(a) == report_to_json(b)


class TestReplicateBlocks:
    @pytest.mark.parametrize("ns, replicates, workers", [
        ([40], 1, 1), ([40, 40], 5, 1), ([40, 40], 5, 2), ([1000], 20_000, 1),
        ([1000], 20_000, 2), ([100_000, 50], 300, 2), ([5000] * 5, 300, 2), ([30], 7, 64),
    ])
    def test_blocks_cover_each_cell_within_both_caps(self, ns, replicates, workers):
        blocks = _replicate_blocks(ns, replicates, workers)
        per = -(-len(ns) * replicates // (workers * 8))
        covered = {ci: [] for ci in range(len(ns))}
        for ci, start, stop in blocks:
            assert 0 < stop - start <= min(per, max_batch_rows(ns[ci]))
            covered[ci] += range(start, stop)
        assert all(covered[ci] == list(range(replicates)) for ci in covered)
        assert [ci for ci, _, _ in blocks] == sorted(ci for ci, _, _ in blocks)

    def test_block_sizes(self):
        # 2 cells x 5 replicates on one worker: ceil(10 / 8) = 2 per block
        assert _replicate_blocks([50, 50], 5, 1) == [
            (0, 0, 2), (0, 2, 4), (0, 4, 5), (1, 0, 2), (1, 2, 4), (1, 4, 5)]
        # n = 1000 caps a block at 2000 rows
        assert _replicate_blocks([1000], 20_000, 1) == [
            (0, start, start + 2000) for start in range(0, 20_000, 2000)]

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_checked_before_any_block(self, workers):
        with pytest.raises(ConfigError, match=f"^workers must be >= 1, got {workers}$"):
            _replicate_blocks([50], 5, workers)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_run_replicates_gives_each_cell_its_keys_in_order(self, workers):
        # n = 400000 caps a block at 5 rows, so that cell spans several blocks
        cells = [{"n": 50}, {"n": 400_000}, {"n": 30}]
        assert _run_replicates(_echo_keys, cells, 13, 7, workers) == [
            [(7, ci, r) for r in range(13)] for ci in range(len(cells))]

    @pytest.mark.parametrize("n, sizes", [
        (50, [1, 4, 3]), (5000, [3, 1, 2]), (20000, [2, 1]), (40000, [1, 2]),
    ], ids=["n50", "n5000", "n20000-int16", "n40000-int32"])
    def test_consistency_block_equals_xi_nm(self, n, sizes):
        cell = {"rho": 0.4, "n": n, "M": 7}
        start = 0
        for size in sizes:
            keys = [(11, 3, ri) for ri in range(start, start + size)]
            expected = [xi_nm(sample_rotation(derive_rng(*key), n, 0.4), 7).value
                        for key in keys]
            assert _consistency_block(cell, keys) == expected
            start += size


class TestTimingStudy:
    def test_schema(self):
        report = timing_study([300], [1, 4], repetitions=5, warmup=1, seed=6)
        assert [row["M"] for row in report.rows] == [1, 4]
        for row in report.rows:
            assert row["median_seconds"] > 0.0
            assert row["repetitions"] == 5

    @pytest.mark.parametrize("grid, name", [
        (([], [1]), "n_values"),
        (([300], []), "M_values"),
    ], ids=["n", "M"])
    def test_empty_grid_rejected(self, grid, name):
        with pytest.raises(ConfigError, match=f"^{name} must be nonempty$"):
            timing_study(*grid, repetitions=1, warmup=0, seed=1)
