"""A smoke run of tools/cli_rounds.py on a small data file."""

import importlib.util
from pathlib import Path

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
    rows = out.split("\n\n")[-1].splitlines()[1:]
    assert [row.split()[:3] for row in rows] == [["rows.csv", "parent", "2"],
                                                 ["rows.csv", "change", "2"]]
    for row in rows:
        median_s, peak_mb = float(row.split()[3]), float(row.split()[4])
        assert 0 < median_s < 60 and 10 < peak_mb < 1000 and row.endswith(" 0")
