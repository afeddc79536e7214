"""A smoke run of tools/cli_rounds.py on a small data file."""

import importlib.util
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("cli_rounds", _ROOT / "tools" / "cli_rounds.py")
cli_rounds = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli_rounds)


def test_two_rounds_on_a_200_row_file(tmp_path, capsys):
    data = tmp_path / "rows.csv"
    data.write_text("x,y\n" + "".join(f"{i},{(7 * i) % 200}\n" for i in range(200)))
    assert cli_rounds.main(["--parent", str(_ROOT), "--change", str(_ROOT),
                            "--rounds", "2", str(data)]) == 0
    out = capsys.readouterr().out
    runs = [line for line in out.splitlines() if line.startswith("round ")]
    assert [line.split()[:4] for line in runs] == [
        ["round", "1", "rows.csv", "parent:"], ["round", "1", "rows.csv", "change:"],
        ["round", "2", "rows.csv", "change:"], ["round", "2", "rows.csv", "parent:"]]
    assert all(line.endswith("exit 0") for line in runs)
    summary, comparison = out.split("\n\n")[-2:]
    rows = summary.splitlines()[1:]
    assert [row.split()[:3] for row in rows] == [["rows.csv", "parent", "2"],
                                                 ["rows.csv", "change", "2"]]
    for row in rows:
        median_s, peak_mb = float(row.split()[3]), float(row.split()[4])
        assert 0 < median_s < 60 and 10 < peak_mb < 1000 and row.endswith(" 0")
    # the ratio of the two medians, and the rounds the change was faster in
    medians = [float(row.split()[3]) for row in rows]
    (name, ratio, faster, word), = [row.split() for row in comparison.splitlines()[1:]]
    assert name == "rows.csv" and word == "rounds"
    # both medians are printed to the millisecond, about 1% of a run here
    assert float(ratio) == pytest.approx(medians[1] / medians[0], rel=0.03)
    assert faster in ("0/2", "1/2", "2/2")


def test_compare_counts_the_rounds_the_change_was_faster():
    runs = {("a.csv", "parent"): [(1.0, 50.0, 0), (2.0, 50.0, 0), (3.0, 50.0, 0)],
            ("a.csv", "change"): [(0.5, 50.0, 0), (2.5, 50.0, 0), (2.0, 50.0, 0)]}
    assert cli_rounds.compare(runs) == [{"file": "a.csv", "ratio": 1.0, "faster": 2,
                                         "rounds": 3}]
