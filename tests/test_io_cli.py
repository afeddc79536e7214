"""Tests for dataset loading, report serialization, and the CLI surface."""

import argparse
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import xiboost
from xiboost import ConfigError, ParseError, SizeError, TieError, beta_of_gamma, xi_nm
from xiboost.cli import build_parser, cli_dispatch
from xiboost.dataio import (
    _parse_cell,
    format_report,
    load_sample,
    parse_config_file,
    report_from_csv,
    report_from_json,
    report_to_csv,
    report_to_json,
    write_report,
)
from xiboost.simulation import PowerStudyConfig, StudyReport


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

    def test_csv_bytes(self):
        assert report_to_csv(self.make_report()) == (
            "# schema_version=1\n# kind=power\n# meta.B=999\n# meta.alpha=0.050000000000000003\n"
            "# meta.master_seed=42\n# meta.rho_rule=rho0/sqrt(n)\n"
            "method,n,M,rho0,rejection_frequency,replicates\n"
            "xi-pm,1000,20,5.0,0.85100000000000009,500\n"
            "pearson,1000,,0.0,1.0,500\n")

    @given(kind=st.text(),
           cells=st.lists(st.text().filter(lambda t: isinstance(_parse_cell(t), str)),
                          min_size=3, max_size=3))
    @example(kind="power", cells=["x,y", "x\ny", "x\u2028y"])
    @example(kind="trail ", cells=['say "hi"', " lead", "x\ry"])
    @example(kind="#x", cells=["a=b", "#x", "\x00"])
    @settings(max_examples=300, deadline=None)
    def test_csv_round_trip_of_any_text(self, kind, cells):
        """Any text that _parse_cell keeps as text; the untyped cells cannot
        tell the text "1" from the number 1."""
        report = StudyReport(kind=kind, meta={"note": cells[0]},
                             rows=[{"method": cells[1], "n": 10}, {"method": cells[2], "n": None}])
        assert report_from_csv(report_to_csv(report)) == report

    def test_csv_blank_records_are_skipped(self):
        report = self.make_report()
        text = report_to_csv(report)
        assert report_from_csv(text + "\n") == report
        assert report_from_csv(text.replace("\nxi-pm", "\n\nxi-pm") + "\r\n\n") == report

    def test_csv_row_width_must_match_header(self):
        text = report_to_csv(self.make_report()).replace(",500\n", ",500,1\n", 1)
        with pytest.raises(ParseError, match="row width does not match header"):
            report_from_csv(text)

    def test_csv_schema_version_must_be_an_integer(self):
        text = report_to_csv(self.make_report()).replace("schema_version=1", "schema_version=abc")
        with pytest.raises(ParseError, match="^line 1, column 1: schema_version is not an "
                                             "integer: 'abc'$"):
            report_from_csv(text)

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

    @pytest.mark.parametrize("fmt", ["CSV", "xml", ""])
    def test_unknown_format_raises(self, tmp_path, fmt):
        report = self.make_report()
        with pytest.raises(ConfigError, match=f"^report format must be 'csv' or 'json', "
                                              f"got '{fmt}'$"):
            format_report(report, None, fmt)
        with pytest.raises(ConfigError, match="'csv' or 'json'"):
            write_report(report, tmp_path / "r.csv", fmt=fmt)
        assert not (tmp_path / "r.csv").exists()


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

    def test_not_utf8(self, tmp_path):
        p = tmp_path / "study.cfg"
        p.write_bytes(b"# grid\nn-values=1000\nmethods=xi-\xffpm\n")
        with pytest.raises(ParseError) as exc:
            parse_config_file(p)
        assert str(exc.value) == "line 3, column 12: byte 0xff is not UTF-8"

    def test_bad_line_then_bad_byte_names_the_byte(self, tmp_path):
        p = tmp_path / "study.cfg"
        p.write_bytes(b"replicates\nn-values=1000\nmethods=\xffpm\n")
        with pytest.raises(ParseError) as exc:
            parse_config_file(p)
        assert str(exc.value) == "line 3, column 9: byte 0xff is not UTF-8"

    @pytest.mark.parametrize("text", [
        "# grid\rn-values=1000,2000\rreplicates = 50\r",
        "# grid\r\nn-values=1000,2000\r\n\r\nreplicates = 50\r\n",
        "\ufeff# grid\nn-values=1000,2000\nreplicates = 50",
    ], ids=["cr", "crlf", "bom"])
    def test_line_ends_and_byte_order_mark(self, tmp_path, text):
        p = tmp_path / "study.cfg"
        p.write_bytes(text.encode("utf-8"))
        assert parse_config_file(p) == {"n_values": "1000,2000", "replicates": "50"}

    def test_not_read_whole(self, tmp_path, monkeypatch):
        p = tmp_path / "study.cfg"
        p.write_text("# grid\nn-values=1000\nreplicates\n")

        def whole(*args, **kwargs):
            raise AssertionError("whole file read")

        monkeypatch.setattr(Path, "read_bytes", whole)
        monkeypatch.setattr(Path, "read_text", whole)
        with pytest.raises(ParseError, match="^line 3, column 1: expected key=value"):
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

    @pytest.mark.parametrize("argv, message", [
        ("test --method xi-pm -M 2 -B 9 {data}", "XI_BOOST_SEED='abc' is not an integer"),
        ("boundary --gamma-grid 0.1:0.9", "--gamma-grid must look like START:STOP:STEP"),
        ("boundary --gamma-grid 0.1:0.9:0", "--gamma-grid step must be positive"),
        ("boundary --gamma-grid 0.5:0.1:0.1", "--gamma-grid stop must not be below start"),
        ("boundary --n 100", "boundary needs --gamma-grid or both --n and --M-values"),
    ], ids=["seed-env-not-int", "boundary-grid-shape", "boundary-grid-step",
            "boundary-grid-stop", "boundary-nothing"])
    def test_usage_error_messages_exit_2(self, capsys, monkeypatch, data_file, argv, message):
        monkeypatch.setenv("XI_BOOST_SEED", "abc")
        assert cli_dispatch(argv.format(data=data_file).split()) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.endswith(f"error: {message}\n")

    @pytest.mark.parametrize("argv, message", [
        ("power-study --n-values abc --seed 1",
         "argument --n-values: expected a comma list of integers, got 'abc'"),
        ("power-study --M-values 1,2.5 --seed 1",
         "argument --M-values: expected a comma list of integers, got '1,2.5'"),
        ("power-study --rho0-values 0,x --seed 1",
         "argument --rho0-values: expected a comma list of numbers, got '0,x'"),
        ("consistency --rho-values a --n-values 80 --M-values 2 --seed 1",
         "argument --rho-values: expected a comma list of numbers, got 'a'"),
        ("timing --n-values 50 --M-values two --seed 1",
         "argument --M-values: expected a comma list of integers, got 'two'"),
    ], ids=["n-values", "M-values", "rho0-values", "rho-values", "timing-M-values"])
    def test_list_flag_errors_name_the_expected_list(self, capsys, argv, message):
        assert cli_dispatch(argv.split()) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.endswith(f"error: {message}\n")
        assert "_int_list" not in captured.err and "_float_list" not in captured.err

    @pytest.mark.parametrize("argv, message", [
        (["test", "--method", "xi-pm"], "--method xi-pm requires -M"),
        (["test", "--method", "hoeffding-d", "-M", "20"], "--method hoeffding-d does not take -M"),
        (["coef", "--method", "xi-nm", "--jitter"], "--method xi-nm requires -M"),
    ], ids=["test-xi-pm", "test-hoeffding-d", "coef-jitter"])
    def test_m_misuse_wins_over_missing_seed(self, data_file, capsys, monkeypatch,
                                             argv, message):
        monkeypatch.delenv("XI_BOOST_SEED", raising=False)
        assert cli_dispatch(argv + [data_file]) == 2
        err = capsys.readouterr().err
        assert message in err and "--seed" not in err

    @pytest.mark.parametrize("argv, message", [
        (["coef", "--method", "pearson", "-M", "3"], "does not take -M"),
        (["coef", "--method", "xi-nm"], "requires -M"),
        (["test", "--method", "xi-pm", "--seed", "1"], "requires -M"),
    ], ids=["coef-pearson", "coef-xi-nm", "test-xi-pm"])
    def test_m_misuse_exits_2_before_reading_data(self, tmp_path, capsys, argv, message):
        assert cli_dispatch(argv + [str(tmp_path / "missing.csv")]) == 2
        assert message in capsys.readouterr().err

    def test_non_finite_value_message(self, tmp_path, capsys):
        p = tmp_path / "inf.csv"
        p.write_text("1,2\n3,inf\n4,5\n")
        assert cli_dispatch(["coef", "--method", "xi-nm", "-M", "1", str(p)]) == 1
        assert capsys.readouterr().err == "xiboost: error: y[1] = inf is not finite\n"

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

    def test_boundary_gamma_grid_is_exact(self, capsys):
        """The README's grid reads its decimals exactly: 99 rows, and each beta
        is the exact rational value rounded once to a float."""
        assert cli_dispatch(["boundary", "--gamma-grid", "0.01:0.99:0.01"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "gamma,beta" and len(lines) == 100
        rows = dict(line.split(",") for line in lines[1:])
        assert (rows["0.5"], rows["0.25"]) == ("0.375", "0.3125")
        for k, line in enumerate(lines[1:], start=1):
            assert line == f"{k / 100:.10g},{float(beta_of_gamma(Fraction(k, 100)))!r}"

    def test_boundary_zeta(self, capsys):
        assert cli_dispatch(["boundary", "--n", "10000", "--M-values", "1,10,100"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "n,M,zeta"
        n, M, z = lines[1].split(",")
        assert float(z) == pytest.approx(10000 ** -0.25)

    @pytest.mark.parametrize("mark", ["", "\ufeff"], ids=["plain", "byte-order-mark"])
    def test_power_study_cli_with_config(self, tmp_path, capsys, mark):
        cfg = tmp_path / "study.cfg"
        cfg.write_text(mark + "n-values=30\nm-values=2\nrho0-values=0\nmethods=xi-pm\n"
                       "replicates=4\nb=9\nseed=5\n", encoding="utf-8")
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

    def test_power_study_config_defaults_and_precedence(self, tmp_path, monkeypatch):
        built = []
        monkeypatch.setattr("xiboost.cli.power_study", built.append)
        monkeypatch.setattr("xiboost.dataio.format_report", lambda *args: "")
        assert cli_dispatch(["power-study", "--seed", "1"]) == 0
        cfg = tmp_path / "study.cfg"
        cfg.write_text("n-values=30,60\nM-values=2\nrho0-values=0,1.5\n"
                       "methods=xi-pm, pearson\nreplicates=4\nb=9\nalpha=0.1\n"
                       "seed=5\nworkers=2\n")
        assert cli_dispatch(["power-study", "--config", str(cfg), "--replicates", "7",
                             "--methods", "symmetric-nn,pearson"]) == 0
        # a blank method name, after a trailing comma, is dropped like a blank number
        cfg.write_text("methods=hoeffding-d,\nseed=5\n")
        assert cli_dispatch(["power-study", "--config", str(cfg)]) == 0
        assert cli_dispatch(["power-study", "--methods", "xi-pm, pearson,", "--seed", "1"]) == 0
        assert built[2:] == [
            PowerStudyConfig(n_values=[1000], M_values=[1, 20],
                             rho0_values=[0.0, 1.0, 2.0, 5.0], methods=methods,
                             replicates=500, B=999, alpha=0.05, master_seed=seed, workers=1)
            for methods, seed in [(["hoeffding-d"], 5), (["xi-pm", "pearson"], 1)]]
        assert built[:2] == [
            PowerStudyConfig(n_values=[1000], M_values=[1, 20],
                             rho0_values=[0.0, 1.0, 2.0, 5.0], methods=["xi-pm"],
                             replicates=500, B=999, alpha=0.05, master_seed=1, workers=1),
            PowerStudyConfig(n_values=[30, 60], M_values=[2], rho0_values=[0.0, 1.5],
                             methods=["symmetric-nn", "pearson"], replicates=7, B=9,
                             alpha=0.1, master_seed=5, workers=2),
        ]

    NEGATIVE_SEED = "seed must be >= 0, got -1"

    @pytest.mark.parametrize("argv, message", [
        ("consistency --rho-values 0.4 --n-values 80 --M-values 2 --workers 0 --seed 1",
         "workers must be >= 1, got 0"),
        ("consistency --rho-values 0.4 --n-values 80 --M-values 2 --workers -3 --seed 1",
         "workers must be >= 1, got -3"),
        ("null-calibration --n 100 -M 3 --replicates 20 --workers 0 --seed 1",
         "workers must be >= 1, got 0"),
        ("null-calibration --n 100 -M 3 --replicates 20 --workers -5 --seed 1",
         "workers must be >= 1, got -5"),
        ("consistency --rho-values , --n-values 80 --M-values 2 --seed 1",
         "rho_values must be nonempty"),
        ("timing --n-values , --M-values 1 --seed 1", "n_values must be nonempty"),
        ("timing --n-values 50 --M-values 2 --repetitions 2 --warmup -3 --seed 1",
         "warmup must be >= 0, got -3"),
        ("test --method xi-pm -M 2 -B 9 --seed -1 {data}", NEGATIVE_SEED),
        ("test --method xi-pm -M 2 -B 9 {data}", NEGATIVE_SEED),
        ("coef --method xi-nm -M 2 --jitter --seed -1 {data}", NEGATIVE_SEED),
        ("power-study --n-values 30 --M-values 2 --rho0-values 0 --replicates 2 -B 9 "
         "--seed -1", NEGATIVE_SEED),
        ("power-study --n-values 30 --M-values 2 --rho0-values 0 --replicates 2 -B 9 "
         "--workers 2 --seed -1", NEGATIVE_SEED),
        ("null-calibration --n 30 -M 2 --replicates 20 --seed -1", NEGATIVE_SEED),
        ("null-calibration --n 30 -M 2 --replicates 70000 --workers 2 --seed -1",
         NEGATIVE_SEED),
        ("consistency --rho-values 0.4 --n-values 30 --M-values 2 --replicates 2 --seed -1",
         NEGATIVE_SEED),
        ("consistency --rho-values 0.4 --n-values 30 --M-values 2 --replicates 2 "
         "--workers 2 --seed -1", NEGATIVE_SEED),
        ("timing --n-values 30 --M-values 2 --repetitions 2 --seed -1", NEGATIVE_SEED),
        ("power-study --n-values 0 --methods pearson --seed 1", "n must be >= 2, got 0"),
        ("power-study --n-values -4 --methods pearson --seed 1", "n must be >= 2, got -4"),
        ("power-study --n-values 1 --methods pearson --seed 1", "n must be >= 2, got 1"),
        ("power-study --n-values 4 --rho0-values 2 --methods pearson --seed 1",
         "rho0=2.0 gives |rho| >= 1 at n=4"),
        ("power-study --replicates 0 --seed 1", "replicates must be >= 1, got 0"),
        ("power-study -B 0 --seed 1", "B must be >= 1, got 0"),
        ("power-study --workers 0 --seed 1", "workers must be >= 1, got 0"),
        ("null-calibration --n 30 -M 2 --replicates 1 --seed 1",
         "replicates must be >= 2, got 1"),
        ("consistency --rho-values 0.4 --n-values 30 --M-values 2 --replicates 0 --seed 1",
         "replicates must be >= 1, got 0"),
        ("consistency --rho-values 1 --n-values 30 --M-values 2 --seed 1",
         "rho must lie in (-1, 1), got 1.0"),
        ("timing --n-values 30 --M-values 2 --repetitions 0 --seed 1",
         "repetitions must be >= 1, got 0"),
        ("test --method xi-asymptotic -M 2 --alpha 0 {data}", "alpha must lie in (0, 1), got 0.0"),
        ("test --method pearson --alpha 1.5 {data}", "alpha must lie in (0, 1), got 1.5"),
        ("null-calibration --n 1 -M 1 --seed 1", "n must be >= 2, got 1"),
        ("timing --n-values 1 --M-values 1 --seed 1", "n must be >= 2, got 1"),
        ("boundary --n 1 --M-values 1", "n must be >= 2, got 1"),
        ("boundary --n 0 --M-values 1", "n must be >= 2, got 0"),
    ], ids=["consistency-workers-0", "consistency-workers-neg", "null-workers-0",
            "null-workers-neg", "consistency-empty-rho", "timing-empty-n",
            "timing-warmup-neg", "test-seed-neg", "test-seed-env-neg", "coef-jitter-seed-neg",
            "power-study-seed-neg", "power-study-seed-neg-workers-2", "null-seed-neg",
            "null-seed-neg-workers-2", "consistency-seed-neg",
            "consistency-seed-neg-workers-2", "timing-seed-neg", "power-study-n-0",
            "power-study-n-neg", "power-study-n-1", "power-study-rho-1",
            "power-study-replicates-0", "power-study-B-0", "power-study-workers-0",
            "null-replicates-1", "consistency-replicates-0", "consistency-rho-1",
            "timing-repetitions-0", "asymptotic-alpha-0", "pearson-alpha-1.5",
            "null-n-1", "timing-n-1", "boundary-n-1", "boundary-n-0"])
    def test_study_setting_errors_exit_1(self, capsys, monkeypatch, data_file, argv, message):
        """One `xiboost: error:` line, no traceback, and no process pool; a
        negative seed, from --seed or from the environment, is refused before
        any task starts."""
        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was started")

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
        monkeypatch.setenv("XI_BOOST_SEED", "-1")
        assert cli_dispatch(argv.format(data=data_file).split()) == 1
        assert capsys.readouterr() == ("", f"xiboost: error: {message}\n")

    @pytest.mark.parametrize("argv", [
        ["coef", "--method", "xi-nm", "-M", "2", "{missing}"],
        ["test", "--method", "xi-pm", "-M", "2", "-B", "9", "--seed", "1", "{missing}"],
        ["power-study", "--config", "{missing}"],
        ["coef", "--method", "xi-nm", "-M", "2", "-o", "{missing}/out.txt", "{data}"],
    ], ids=["coef-data", "test-data", "power-study-config", "output-dir"])
    def test_unreadable_path_exits_1(self, tmp_path, data_file, capsys, argv):
        missing = str(tmp_path / "no-such-dir")
        argv = [a.format(missing=missing, data=data_file) for a in argv]
        assert cli_dispatch(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("xiboost: error: ") and missing in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("config, message", [
        ("n-values=abc\n",
         "config key 'n_values': expected a comma list of integers, got 'abc'"),
        ("workers=x\n", "config key 'workers'"),
        ("bogus=1\n", "unknown config key 'bogus'"),
    ], ids=["n_values", "workers", "unknown-key"])
    def test_power_study_bad_config_value_exits_1(self, tmp_path, capsys, config, message):
        cfg = tmp_path / "study.cfg"
        cfg.write_text(config + "seed=1\n")
        assert cli_dispatch(["power-study", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("xiboost: error: " + message)

    @pytest.mark.parametrize("argv, content, where", [
        (["coef", "--method", "xi-nm", "-M", "2", "{path}"], b"x,y\n1,2\n\xff,4\n",
         "line 3, column 1"),
        (["power-study", "--config", "{path}", "--seed", "1"], b"n-values=30\nb=\xff9\n",
         "line 2, column 3"),
    ], ids=["coef-data", "power-study-config"])
    def test_not_utf8_input_exits_1(self, tmp_path, capsys, argv, content, where):
        path = tmp_path / "input"
        path.write_bytes(content)
        assert cli_dispatch([a.format(path=path) for a in argv]) == 1
        assert capsys.readouterr() == ("", f"xiboost: error: {where}: byte 0xff is not UTF-8\n")

    def test_power_study_unknown_method_exits_1(self, capsys):
        assert cli_dispatch(["power-study", "--methods", "bogus", "--seed", "1"]) == 1
        assert capsys.readouterr().err == (
            "xiboost: error: method bogus has no test for a power study; choose from "
            "xi-pm,symmetric-nn,hoeffding-d,pearson\n")

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


# each subcommand's flags in declaration order: (option strings or the
# positional's dest, default, choices, required)
FLAG_SETS = {
    "coef": [
        (("--method",), None, ["xi-classic", "xi-nm", "xi-nm-reflected", "xi-pm",
                               "symmetric-nn", "pearson", "hoeffding-d"], True),
        (("-M", "--neighbors"), None, None, False),
        (("--json",), False, None, False),
        ("data", None, None, True),
        (("--jitter",), False, None, False),
        (("--seed",), None, None, False),
        (("-o", "--output"), None, None, False),
    ],
    "test": [
        (("--method",), None,
         ["xi-pm", "symmetric-nn", "hoeffding-d", "xi-asymptotic", "pearson"], True),
        (("-M", "--neighbors"), None, None, False),
        (("-B", "--replicates"), 10000, None, False),
        (("--alpha",), 0.05, None, False),
        (("--override-regime",), False, None, False),
        (("--exit-on-reject",), False, None, False),
        ("data", None, None, True),
        (("--jitter",), False, None, False),
        (("--seed",), None, None, False),
        (("-o", "--output"), None, None, False),
    ],
    "power-study": [
        (("--n-values",), None, None, False),
        (("--M-values",), None, None, False),
        (("--rho0-values",), None, None, False),
        (("--methods",), None, None, False),
        (("--replicates",), None, None, False),
        (("-B",), None, None, False),
        (("--alpha",), None, None, False),
        (("--workers",), None, None, False),
        (("--config",), None, None, False),
        (("--format",), None, ["json", "csv"], False),
        (("--seed",), None, None, False),
        (("-o", "--output"), None, None, False),
    ],
    "null-calibration": [
        (("--n",), None, None, True),
        (("-M", "--neighbors"), None, None, True),
        (("--replicates",), 20000, None, False),
        (("--workers",), 1, None, False),
        (("--format",), None, ["json", "csv"], False),
        (("--seed",), None, None, False),
        (("-o", "--output"), None, None, False),
    ],
    "consistency": [
        (("--rho-values",), None, None, True),
        (("--n-values",), None, None, True),
        (("--M-values",), None, None, True),
        (("--replicates",), 300, None, False),
        (("--workers",), 1, None, False),
        (("--format",), None, ["json", "csv"], False),
        (("--seed",), None, None, False),
        (("-o", "--output"), None, None, False),
    ],
    "timing": [
        (("--n-values",), None, None, True),
        (("--M-values",), None, None, True),
        (("--repetitions",), 30, None, False),
        (("--warmup",), 5, None, False),
        (("--format",), None, ["json", "csv"], False),
        (("--seed",), None, None, False),
        (("-o", "--output"), None, None, False),
    ],
    "boundary": [
        (("--gamma-grid",), None, None, False),
        (("--n",), None, None, False),
        (("--M-values",), None, None, False),
        (("-o", "--output"), None, None, False),
    ],
}


def test_every_subcommand_keeps_its_flags():
    """Declaring a shared flag in one place must not drop, add, reorder or
    change any subcommand's flags."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    flags = {
        name: [(tuple(a.option_strings) or a.dest, a.default,
                None if a.choices is None else list(a.choices), a.required)
               for a in p._actions if not isinstance(a, argparse._HelpAction)]
        for name, p in sub.choices.items()
    }
    assert flags == FLAG_SETS


# the four study commands at tiny sizes
STUDY_ARGV = {
    "power-study": ["power-study", "--n-values", "20", "--M-values", "2", "--rho0-values", "0",
                    "--replicates", "2", "-B", "9"],
    "null-calibration": ["null-calibration", "--n", "20", "-M", "2", "--replicates", "4"],
    "consistency": ["consistency", "--rho-values", "0.4", "--n-values", "20",
                    "--M-values", "2", "--replicates", "2"],
    "timing": ["timing", "--n-values", "20", "--M-values", "2", "--repetitions", "1",
               "--warmup", "0"],
}


@pytest.mark.parametrize("command", list(STUDY_ARGV))
def test_study_format_flag(command, tmp_path, capsys):
    """--format csv writes csv to stdout, and --format json beats a .csv suffix."""
    argv = STUDY_ARGV[command] + ["--seed", "3"]
    assert cli_dispatch(argv + ["--format", "csv"]) == 0
    report = report_from_csv(capsys.readouterr().out)
    assert report.rows and report.kind == command.replace("-study", "")
    out = tmp_path / "r.csv"
    assert cli_dispatch(argv + ["--format", "json", "-o", str(out)]) == 0
    assert report_from_json(out.read_text()).kind == report.kind


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
