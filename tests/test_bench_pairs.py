"""Tests for the summary and the trajectory of tools/bench_pairs.py on canned
benchmark result lines."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

LOWER = {"setup_s": ("lower", 0.25), "op_s": ("lower", 0.25), "peak_rss_mb": ("lower", 0.1)}


def result_line(op_s, setup_s=0.2, peak=46.0, failed=0, attempted=500):
    metrics = {"setup_s": {"value": setup_s, "unit": "s"}, "op_s": {"value": op_s, "unit": "s"},
               "peak_rss_mb": {"value": peak, "unit": "MB"}}
    return json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                       "metrics": metrics})


def run_output(*args, **kwargs):
    """A run's stdout: a few records, then the result as the last line."""
    return "\n".join([json.dumps({"record": "machine"}), json.dumps({"record": "outputs"}),
                      result_line(*args, **kwargs)]) + "\n"


def pairs_of(parent_ops, change_ops):
    return [(bench_pairs.parse_result(run_output(p)), bench_pairs.parse_result(run_output(c)))
            for p, c in zip(parent_ops, change_ops)]


def row(rows, name):
    return next(r for r in rows if r["metric"] == name)


PARENT = [0.120, 0.125, 0.123, 0.122, 0.124, 0.121, 0.126, 0.123, 0.122, 0.124]


class TestParseResult:
    def test_last_line_is_the_result(self):
        record = bench_pairs.parse_result(run_output(0.11, failed=1, attempted=40))
        assert record["metrics"]["op_s"]["value"] == 0.11
        assert (record["failed"], record["attempted"], record["correct"]) == (1, 40, False)

    @pytest.mark.parametrize("stdout", ["", "\n", "not json\n", '{"record": "outputs"}\n',
                                        result_line(0.1) + "\ntrailing text\n"])
    def test_no_result(self, stdout):
        assert bench_pairs.parse_result(stdout) is None


class TestSummarize:
    def test_claim_holds_on_nine_wins_and_a_wide_gap(self):
        change = [0.109] * 9 + [0.130]
        rows = bench_pairs.summarize(pairs_of(PARENT, change), LOWER)
        op = row(rows, "op_s")
        assert (op["pairs"], op["wins"], op["ties"]) == (10, 9, 0)
        assert op["parent"] == pytest.approx((0.12200, 0.12300, 0.12400))
        assert op["change"][1] == pytest.approx(0.109)
        assert op["claim_holds"]

    def test_eight_wins_are_not_enough(self):
        change = [0.109] * 8 + [0.130, 0.130]
        op = row(bench_pairs.summarize(pairs_of(PARENT, change), LOWER), "op_s")
        assert op["wins"] == 8 and not op["claim_holds"]

    def test_gap_must_exceed_the_parents_spread(self):
        """Every pair won, but the medians differ by less than the parent's
        interquartile spread of 0.002."""
        change = [p - 0.0015 for p in PARENT]
        op = row(bench_pairs.summarize(pairs_of(PARENT, change), LOWER), "op_s")
        assert op["wins"] == 10 and not op["claim_holds"]

    def test_ties_are_counted_and_not_won(self):
        rows = bench_pairs.summarize(pairs_of(PARENT, PARENT), LOWER)
        for name in LOWER:
            r = row(rows, name)
            assert (r["wins"], r["ties"], r["claim_holds"]) == (0, 10, False), name

    def test_higher_is_better(self):
        rows = bench_pairs.summarize(pairs_of(PARENT, [0.2] * 10), {"op_s": ("higher", 0.25)})
        assert row(rows, "op_s")["wins"] == 10 and row(rows, "op_s")["claim_holds"]

    def test_one_pair_and_missing_metrics(self):
        pairs = pairs_of([0.12], [0.11])
        del pairs[0][1]["metrics"]["setup_s"]
        rows = bench_pairs.summarize(pairs, LOWER)
        assert [r["metric"] for r in rows] == ["op_s", "peak_rss_mb"]
        assert row(rows, "op_s")["parent"] == (0.12, 0.12, 0.12)

    def test_format_names_every_metric(self):
        text = bench_pairs.format_summary(bench_pairs.summarize(pairs_of(PARENT, PARENT),
                                                                LOWER))
        assert [line.split()[0] for line in text.splitlines()[1:]] == list(LOWER)
        assert "does not hold" in text
        assert text.splitlines()[0].endswith("verdict")
        assert all(line.endswith(" ok") for line in text.splitlines()[1:])


class TestVerdict:
    """The no-regression rule on one metric, with the op_s bound of 0.25."""

    def verdict(self, parent, change, better="lower"):
        rows = bench_pairs.summarize(pairs_of(parent, change), {"op_s": (better, 0.25)})
        return row(rows, "op_s")["verdict"]

    def test_same_runs_are_ok(self):
        assert self.verdict(PARENT, PARENT) == "ok"

    def test_worse_within_the_bound_is_ok(self):
        assert self.verdict(PARENT, [p * 1.2 for p in PARENT]) == "ok"

    def test_worse_beyond_the_bound_regressed(self):
        assert self.verdict(PARENT, [p * 1.3 for p in PARENT]) == "regressed"

    def test_higher_is_better_regresses_downward(self):
        assert self.verdict(PARENT, [p * 0.7 for p in PARENT], "higher") == "regressed"
        assert self.verdict(PARENT, [p * 1.3 for p in PARENT], "higher") == "ok"

    def test_a_wide_change_spread_is_unresolved(self):
        """Median 0.125, within the bound, but quartiles 0.1025 and 0.1475."""
        change = [0.08, 0.09, 0.10, 0.11, 0.12, 0.13, 0.14, 0.15, 0.16, 0.17]
        assert self.verdict(PARENT, change) == "unresolved"

    def test_a_wide_parent_spread_is_unresolved(self):
        parent = [0.08, 0.09, 0.10, 0.11, 0.12, 0.13, 0.14, 0.15, 0.16, 0.17]
        assert self.verdict(parent, PARENT) == "unresolved"

    def test_every_change_run_better_resolves_a_wide_spread(self):
        parent = [0.20, 0.25, 0.30, 0.35, 0.40] * 2
        change = [0.05, 0.07, 0.10, 0.12, 0.15] * 2
        assert self.verdict(parent, change) == "ok"
        assert self.verdict(parent, change[:-1] + [0.19]) == "ok"
        assert self.verdict(parent, change[:-1] + [0.20]) == "unresolved"
        assert self.verdict(change, parent, "higher") == "ok"


class TestFailures:
    def test_failed_share_sums_operations(self):
        records = [bench_pairs.parse_result(run_output(0.1, failed=f, attempted=a))
                   for f, a in ((0, 40), (2, 50), (0, 10))]
        assert bench_pairs.failed_share(records) == (2, 100)

    def test_a_run_reporting_incorrect_counts_a_failure(self):
        record = bench_pairs.parse_result(run_output(0.1, failed=0, attempted=40))
        record["correct"] = False
        assert bench_pairs.failed_share([record]) == (1, 40)

    def test_regression_found(self):
        ok = bench_pairs.summarize(pairs_of(PARENT, PARENT), LOWER)
        regressed = bench_pairs.summarize(pairs_of(PARENT, [p * 1.3 for p in PARENT]), LOWER)
        unresolved = bench_pairs.summarize(
            pairs_of(PARENT, [0.08, 0.09, 0.10, 0.11, 0.12, 0.13, 0.14, 0.15, 0.16, 0.17]),
            LOWER)
        assert not bench_pairs.regression_found(ok, (0, 500), (0, 500))
        assert not bench_pairs.regression_found(unresolved, (0, 500), (0, 500))
        assert bench_pairs.regression_found(regressed, (0, 500), (0, 500))
        # a larger failed share, compared across different attempt counts
        assert bench_pairs.regression_found(ok, (1, 500), (1, 400))
        assert not bench_pairs.regression_found(ok, (1, 400), (1, 500))
        assert not bench_pairs.regression_found(ok, (2, 1000), (1, 500))


def test_describe_prints_failed_over_attempted():
    record = bench_pairs.parse_result(run_output(0.11, failed=2, attempted=40))
    line = bench_pairs.describe("change", 0, record)
    assert line.startswith("pair 1 change: ") and line.endswith("failed/attempted=2/40")
    assert bench_pairs.describe("parent", 3, None) == "pair 4 parent: no result"


def fake_checkouts(tmp_path, monkeypatch, op_s):
    """A change checkout at tmp_path / "change" holding only BENCHMARK.json,
    and runs that return `op_s` in turn."""
    (tmp_path / "change").mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": name, "better": better, "bound": bound}
        for name, (better, bound) in LOWER.items()]}))
    runs = iter(op_s)
    monkeypatch.setattr(bench_pairs, "source_hash", lambda checkout: checkout.name)
    monkeypatch.setattr(bench_pairs, "run_once", lambda checkout, workload, seed: (
        bench_pairs.parse_result(out := run_output(next(runs))),
        bench_pairs.parse_records(out)))


class TestGitWarning:
    @pytest.mark.parametrize("git, warned", [
        ((), None), (("parent",), "parent"), (("change",), "change"),
        (("parent", "change"), None)])
    def test_warns_when_exactly_one_checkout_holds_git(self, tmp_path, git, warned):
        for side in ("parent", "change"):
            (tmp_path / side).mkdir()
        for side in git:
            (tmp_path / side / ".git").mkdir()
        warning = bench_pairs.git_warning(tmp_path / "parent", tmp_path / "change")
        if warned is None:
            assert warning == ""
        else:
            assert warning.startswith(f"warning: only the {warned} checkout holds .git")

    def test_main_prints_it_before_the_runs_and_after_the_summary(self, tmp_path, monkeypatch,
                                                                  capsys):
        fake_checkouts(tmp_path, monkeypatch, [0.12, 0.11])
        (tmp_path / "change" / ".git").write_text("gitdir: elsewhere\n")  # a linked tree
        assert bench_pairs.main(["--parent", str(tmp_path), "--change",
                                 str(tmp_path / "change"), "--workload", "perm_test",
                                 "--pairs", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        warning = bench_pairs.git_warning(tmp_path, tmp_path / "change")
        assert warning and lines[0] == warning and lines[-1] == warning
        assert sum(line == warning for line in lines) == 2


class TestTrajectory:
    def entry(self, side, pair, op_s):
        return {"workload": "perm_test", "side": side, "pair": pair, "order": 0, "seed": 1,
                "sources": {"parent": "a", "change": "b"},
                "records": bench_pairs.parse_records(run_output(op_s))}

    def test_parse_records_keeps_every_record(self):
        records = bench_pairs.parse_records(run_output(0.11) + "a line that is no JSON\n")
        assert [r.get("record") for r in records] == ["machine", "outputs", None]
        assert records[-1] == bench_pairs.parse_result(run_output(0.11))

    def test_appends_and_keeps_earlier_entries(self, tmp_path):
        path = tmp_path / "BENCH_perm_test.json"
        first, second = self.entry("parent", 0, 0.12), self.entry("change", 0, 0.11)
        bench_pairs.append_trajectory(path, first)
        bench_pairs.append_trajectory(path, second)
        assert json.loads(path.read_text()) == [first, second]
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    def test_a_failed_write_leaves_the_old_file(self, tmp_path):
        path = tmp_path / "BENCH_perm_test.json"
        bench_pairs.append_trajectory(path, self.entry("parent", 0, 0.12))
        before = path.read_bytes()
        with pytest.raises(TypeError):  # a set is no JSON
            bench_pairs.append_trajectory(path, {"records": {1, 2}})
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    def test_source_hash_covers_src_and_bench(self, tmp_path):
        for name, text in (("src/pkg/a.py", "a = 1\n"), ("bench/run.py", "b = 2\n"),
                           ("README.md", "c\n"), ("src/pkg/__pycache__/a.pyc", "x")):
            (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / name).write_text(text)
        source = bench_pairs.source_hash(tmp_path)
        assert source.startswith("sha256:") and len(source) == len("sha256:") + 64
        (tmp_path / "README.md").write_text("other\n")
        (tmp_path / "src/pkg/__pycache__/a.pyc").write_text("y")
        assert bench_pairs.source_hash(tmp_path) == source
        (tmp_path / "bench/run.py").write_text("b = 3\n")
        assert bench_pairs.source_hash(tmp_path) != source

    def test_main_appends_every_run(self, tmp_path, monkeypatch):
        fake_checkouts(tmp_path, monkeypatch, [0.12, 0.11, 0.11, 0.12])
        assert bench_pairs.main(["--parent", str(tmp_path), "--change",
                                 str(tmp_path / "change"), "--workload", "perm_test",
                                 "--pairs", "2", "--seed", "3"]) == 0
        entries = json.loads((tmp_path / "change" / "BENCH_perm_test.json").read_text())
        assert [(e["side"], e["pair"], e["order"]) for e in entries] == [
            ("parent", 0, 0), ("change", 0, 1), ("change", 1, 0), ("parent", 1, 1)]
        assert all(e["seed"] == 3 and e["workload"] == "perm_test" for e in entries)
        assert entries[0]["sources"] == {"parent": tmp_path.name, "change": "change"}
        assert [e["records"][-1]["metrics"]["op_s"]["value"] for e in entries] == [
            0.12, 0.11, 0.11, 0.12]
        assert len(entries[0]["records"]) == 3
