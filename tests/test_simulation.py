"""Tests for the Monte Carlo study harness: schemas, determinism across
worker counts, and error propagation."""

import numpy as np
import pytest

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
    power_study,
    timing_study,
    xi_nm,
)
from xiboost.dataio import report_to_json


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


class TestNullCalibrationStudy:
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

        def failing_xi_nm(s, M):
            calls.append(M)
            if len(calls) == 8:  # cell 1, replicate 2
                raise DegenerateError("injected")
            return xi_nm(s, M)

        monkeypatch.setattr("xiboost.simulation.xi_nm", failing_xi_nm)
        with pytest.raises(StudyError) as exc:
            consistency_study([0.0, 0.3], [50], [2], replicates=5, seed=9, workers=1)
        assert str(exc.value) == ("cell (rho=0.3, n=50, M=2) replicate 2, "
                                  "seed key (9, 1, 2): injected")

    def test_deterministic_across_workers(self):
        a = consistency_study([0.3], [100], [2, 4], replicates=50, seed=5, workers=1)
        b = consistency_study([0.3], [100], [2, 4], replicates=50, seed=5, workers=2)
        assert report_to_json(a) == report_to_json(b)


class TestTimingStudy:
    def test_schema(self):
        report = timing_study([300], [1, 4], repetitions=5, warmup=1, seed=6)
        assert [row["M"] for row in report.rows] == [1, 4]
        for row in report.rows:
            assert row["median_seconds"] > 0.0
            assert row["repetitions"] == 5
