"""Tests for dataset loading, report serialization, and the CLI surface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import xiboost
from xiboost import ParseError, SizeError, TieError, beta_of_gamma, xi_nm
from xiboost.cli import cli_dispatch
from xiboost.dataio import (
    load_sample,
    parse_config_file,
    report_from_csv,
    report_from_json,
    report_to_csv,
    report_to_json,
    write_report,
)
from xiboost.simulation import StudyReport


class TestLoadSample:
    def test_comma_with_header(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x,y\n1,2\n3,4\n")
        s = load_sample(p)
        assert s.x.tolist() == [1.0, 3.0] and s.y.tolist() == [2.0, 4.0]

    def test_tab_delimited(self, tmp_path):
        p = tmp_path / "d.tsv"
        p.write_text("1\t2\n3\t4\n")
        s = load_sample(p)
        assert s.x.tolist() == [1.0, 3.0] and s.y.tolist() == [2.0, 4.0]

    def test_parse_error_position(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1,foo\n2,3\n")
        with pytest.raises(ParseError) as exc:
            load_sample(p)
        assert exc.value.line == 1 and exc.value.column == 2

    def test_wrong_column_count(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1,2\n3,4,5\n")
        with pytest.raises(ParseError) as exc:
            load_sample(p)
        assert exc.value.line == 2

    def test_missing_value(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1,2\n3,\n")
        with pytest.raises(ParseError) as exc:
            load_sample(p)
        assert (exc.value.line, exc.value.column) == (2, 2)

    def test_too_few_rows(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x,y\n1,2\n")
        with pytest.raises(SizeError):
            load_sample(p)

    def test_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x,y\n\n1,2\n\n3,4\n\n")
        assert load_sample(p).n == 2

    def test_ties_surface_value(self, tmp_path, capsys):
        # the loader keeps tied rows; a rank statistic rejects them, Pearson's r does not
        p = tmp_path / "d.csv"
        p.write_text("1,5\n2,5\n3,6\n")
        assert load_sample(p).y.tolist() == [5.0, 5.0, 6.0]
        assert cli_dispatch(["coef", "--method", "xi-nm", "-M", "1", str(p)]) == 1
        assert str(TieError(0, 1, 5.0, "y")) in capsys.readouterr().err
        assert cli_dispatch(["coef", "--method", "pearson", str(p)]) == 0


class TestReportSerialization:
    def make_report(self):
        return StudyReport(
            kind="power",
            meta={"B": 999, "alpha": 0.05, "master_seed": 42, "rho_rule": "rho0/sqrt(n)"},
            rows=[
                {"method": "xi-pm", "n": 1000, "M": 20, "rho0": 5.0,
                 "rejection_frequency": 0.8510000000000001, "replicates": 500},
                {"method": "pearson", "n": 1000, "M": None, "rho0": 0.0,
                 "rejection_frequency": 1.0, "replicates": 500},
            ],
        )

    def test_json_round_trip(self):
        report = self.make_report()
        assert report_from_json(report_to_json(report)) == report

    def test_csv_round_trip(self):
        report = self.make_report()
        assert report_from_csv(report_to_csv(report)) == report

    def test_csv_17_digit_floats(self):
        text = report_to_csv(self.make_report())
        assert format(0.8510000000000001, ".17g") in text
        assert float(format(0.8510000000000001, ".17g")) == 0.8510000000000001

    def test_write_report_format_by_extension(self, tmp_path):
        report = self.make_report()
        write_report(report, tmp_path / "r.csv")
        write_report(report, tmp_path / "r.json")
        assert report_from_csv((tmp_path / "r.csv").read_text()) == report
        assert report_from_json((tmp_path / "r.json").read_text()) == report


class TestConfigFile:
    def test_parse(self, tmp_path):
        p = tmp_path / "study.cfg"
        p.write_text("# grid\nn-values=1000,2000\nreplicates = 50\nmethods=xi-pm\n")
        cfg = parse_config_file(p)
        assert cfg == {"n_values": "1000,2000", "replicates": "50", "methods": "xi-pm"}

    def test_bad_line(self, tmp_path):
        p = tmp_path / "study.cfg"
        p.write_text("replicates\n")
        with pytest.raises(ParseError):
            parse_config_file(p)


@pytest.fixture
def data_file(tmp_path):
    p = tmp_path / "data.csv"
    p.write_text("x,y\n" + "".join(f"{i},{i}\n" for i in range(1, 101)))
    return str(p)


class TestCli:
    def test_coef(self, data_file, capsys):
        assert cli_dispatch(["coef", "--method", "xi-nm", "-M", "20", data_file]) == 0
        out = capsys.readouterr().out
        assert "xi-nm" in out and "n=100" in out and "M=20" in out

    def test_coef_json(self, data_file, capsys):
        assert cli_dispatch(["coef", "--method", "xi-pm", "-M", "5", "--json", data_file]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n"] == 100 and payload["M"] == 5

    def test_coef_delimiter_invariance(self, tmp_path, capsys):
        comma = tmp_path / "a.csv"
        tab = tmp_path / "b.csv"
        comma.write_text("1.5,2\n2.5,1\n3.5,4\n4.5,3\n")
        tab.write_text("1.5\t2\n2.5\t1\n3.5\t4\n4.5\t3\n")
        cli_dispatch(["coef", "--method", "xi-nm", "-M", "2", str(comma)])
        out_a = capsys.readouterr().out
        cli_dispatch(["coef", "--method", "xi-nm", "-M", "2", str(tab)])
        assert capsys.readouterr().out == out_a

    def test_test_command_json_and_determinism(self, data_file, capsys):
        argv = ["test", "--method", "xi-pm", "-M", "20", "-B", "99",
                "--alpha", "0.05", "--seed", "42", data_file]
        assert cli_dispatch(argv) == 0
        first = capsys.readouterr().out
        assert cli_dispatch(argv) == 0
        assert capsys.readouterr().out == first
        payload = json.loads(first)
        assert payload["reject"] is True and payload["method"] == "xi-pm"

    def test_exit_on_reject(self, data_file, capsys):
        argv = ["test", "--method", "xi-pm", "-M", "20", "-B", "99",
                "--alpha", "0.05", "--seed", "42", "--exit-on-reject", data_file]
        assert cli_dispatch(argv) == 3

    def test_asymptotic_method(self, data_file, capsys):
        rc = cli_dispatch(["test", "--method", "xi-asymptotic", "-M", "3",
                           "--alpha", "0.05", data_file])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["reject"] is True

    def test_usage_errors_exit_2(self, data_file, capsys):
        assert cli_dispatch(["coef", "--method", "nope", data_file]) == 2
        assert cli_dispatch(["coef", "--method", "xi-nm", data_file]) == 2  # missing -M
        assert cli_dispatch(["test", "--method", "xi-pm", "-M", "2", data_file]) == 2  # no seed
        assert cli_dispatch(["no-such-command"]) == 2

    def test_domain_errors_exit_1(self, tmp_path, capsys):
        tied = tmp_path / "tied.csv"
        tied.write_text("1,5\n2,5\n3,6\n")
        assert cli_dispatch(["coef", "--method", "xi-nm", "-M", "1", str(tied)]) == 1
        big_m = tmp_path / "ok.csv"
        big_m.write_text("1,2\n2,3\n3,1\n")
        assert cli_dispatch(["coef", "--method", "xi-nm", "-M", "5", str(big_m)]) == 1

    @pytest.mark.parametrize("method", ["hoeffding-d", "pearson"])
    def test_test_rejects_m_for_m_free_methods(self, data_file, capsys, method):
        argv = ["test", "--method", method, "-B", "9", "--seed", "1", data_file]
        assert cli_dispatch(argv[:3] + ["-M", "20"] + argv[3:]) == 2
        assert f"--method {method} does not take -M" in capsys.readouterr().err
        assert cli_dispatch(argv) == 0
        assert json.loads(capsys.readouterr().out)["M"] is None

    @pytest.mark.parametrize("method", ["xi-pm", "xi-asymptotic"])
    def test_test_requires_m_for_m_methods(self, data_file, capsys, method):
        argv = ["test", "--method", method, "-B", "9", "--seed", "1", data_file]
        assert cli_dispatch(argv) == 2
        assert f"--method {method} requires -M" in capsys.readouterr().err
        assert cli_dispatch(argv[:3] + ["-M", "3"] + argv[3:]) == 0
        assert json.loads(capsys.readouterr().out)["M"] == 3

    def test_jitter_resolves_ties(self, tmp_path, capsys):
        tied = tmp_path / "tied.csv"
        tied.write_text("1,5\n2,5\n3,6\n4,7\n")
        rc = cli_dispatch(["coef", "--method", "xi-nm", "-M", "1", "--jitter",
                           "--seed", "9", str(tied)])
        assert rc == 0

    def test_seed_env_fallback(self, data_file, capsys, monkeypatch):
        monkeypatch.setenv("XI_BOOST_SEED", "314")
        argv = ["test", "--method", "xi-pm", "-M", "5", "-B", "49",
                "--alpha", "0.05", data_file]
        assert cli_dispatch(argv) == 0
        assert json.loads(capsys.readouterr().out)["seed"] == 314

    def test_boundary_gamma_grid(self, capsys):
        assert cli_dispatch(["boundary", "--gamma-grid", "0.1:0.9:0.1"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "gamma,beta"
        assert len(lines) == 10
        for line in lines[1:]:
            g, b = (float(tok) for tok in line.split(","))
            assert b == pytest.approx(beta_of_gamma(g))

    def test_boundary_zeta(self, capsys):
        assert cli_dispatch(["boundary", "--n", "10000", "--M-values", "1,10,100"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "n,M,zeta"
        n, M, z = lines[1].split(",")
        assert float(z) == pytest.approx(10000 ** -0.25)

    def test_power_study_cli_with_config(self, tmp_path, capsys):
        cfg = tmp_path / "study.cfg"
        cfg.write_text("n-values=30\nm-values=2\nrho0-values=0\nmethods=xi-pm\n"
                       "replicates=4\nb=9\nseed=5\n")
        out = tmp_path / "report.json"
        rc = cli_dispatch(["power-study", "--config", str(cfg), "-o", str(out)])
        assert rc == 0
        report = report_from_json(out.read_text())
        assert report.kind == "power" and report.rows[0]["replicates"] == 4

    def test_power_study_untestable_method_exits_1_before_pool(self, monkeypatch, capsys):
        def no_study(cfg):
            raise AssertionError("the study started")

        monkeypatch.setattr("xiboost.cli.power_study", no_study)
        rc = cli_dispatch(["power-study", "--methods", "xi-nm", "--workers", "2",
                           "--seed", "1"])
        assert rc == 1
        assert "xi-nm" in capsys.readouterr().err

    def test_null_calibration_cli_csv(self, tmp_path):
        out = tmp_path / "null.csv"
        rc = cli_dispatch(["null-calibration", "--n", "100", "-M", "3",
                           "--replicates", "100", "--seed", "7", "-o", str(out)])
        assert rc == 0
        report = report_from_csv(out.read_text())
        assert report.kind == "null-calibration"
        assert report.rows[0]["n"] == 100

    def test_consistency_cli(self, tmp_path):
        out = tmp_path / "cons.json"
        rc = cli_dispatch(["consistency", "--rho-values", "0.4", "--n-values", "80",
                           "--M-values", "2", "--replicates", "10", "--seed", "3",
                           "-o", str(out)])
        assert rc == 0
        report = report_from_json(out.read_text())
        assert report.rows[0]["population_xi"] == pytest.approx(0.0908, abs=1e-3)

    def test_timing_cli(self, tmp_path):
        out = tmp_path / "timing.json"
        rc = cli_dispatch(["timing", "--n-values", "200", "--M-values", "1,2",
                           "--repetitions", "3", "--warmup", "1", "--seed", "1",
                           "-o", str(out)])
        assert rc == 0
        assert len(report_from_json(out.read_text()).rows) == 2


@pytest.mark.parametrize("module", ["xiboost", "xiboost.cli"])
def test_python_dash_m_runs_the_cli(module, data_file):
    env = dict(os.environ, PYTHONPATH=str(Path(xiboost.__file__).parents[1]))

    def run(*argv):
        return subprocess.run([sys.executable, "-m", module, *argv], env=env,
                              capture_output=True, text=True)

    ok = run("coef", "--method", "xi-nm", "-M", "3", data_file)
    expected = xi_nm(load_sample(data_file), 3).value
    assert (ok.returncode, ok.stdout) == (0, f"xi-nm = {expected!r} (n=100, M=3)\n")
    assert run("coef", "--method", "xi-nm", "-M", "500", data_file).returncode == 1
    assert run("coef", "--method", "xi-nm", data_file).returncode == 2
    assert run("test", "--method", "xi-pm", "-M", "20", "-B", "99", "--seed", "42",
               "--exit-on-reject", data_file).returncode == 3
