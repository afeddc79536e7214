"""Tests of the benchmark itself, run at its --smoke sizes."""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import run  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def smoke(capsys, workload, seed=run.DEFAULT_SEED, trace=0):
    """Run one smoke benchmark in-process; returns (exit code, records, result)."""
    rc = run.main(["--smoke", "--seconds", "0.5", "--workload", workload,
                   "--seed", str(seed), "--trace", str(trace)])
    lines = [json.loads(line) for line in capsys.readouterr().out.strip().splitlines()]
    records = {r["record"]: r for r in lines if "record" in r}
    result = lines[-1] if "record" not in lines[-1] else None
    return rc, records, result


@pytest.mark.parametrize("trace,table", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_prints_with_its_unit(capsys, workload, trace, table):
    rc, records, result = smoke(capsys, workload, trace=trace)
    assert rc == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert records["failures"]["fail_frac"] == 0
    assert ({name: m["unit"] for name, m in result["metrics"].items()}
            == {m["name"]: m["unit"] for m in BENCH[table]})
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def corrupt(value):
    if isinstance(value, str):
        return "0" * len(value)
    if isinstance(value, list):
        return [corrupt(value[0])] + value[1:]
    return math.nextafter(value, math.inf)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_reference_gives_nonzero_fail_frac(capsys, monkeypatch, tmp_path, workload):
    stored = json.loads((HERE / "references.json").read_text())
    refs = stored["smoke"][workload]
    key = next(iter(refs))
    refs[key] = corrupt(refs[key])
    (tmp_path / "references.json").write_text(json.dumps(stored))
    monkeypatch.setattr(run, "HERE", tmp_path)
    rc, records, result = smoke(capsys, workload)
    assert rc == 0
    assert records["failures"]["fail_frac"] > 0
    assert not result["correct"] and result["failed"] >= 1


def test_silent_cli_counts_as_failure(capsys, monkeypatch):
    import workloads

    # importing the module without calling main() exits 0 and prints nothing
    monkeypatch.setattr(workloads, "CLI_CODE", "import xiboost.cli")
    rc, records, result = smoke(capsys, "cli_coef", seed=5)
    assert rc != 0 and result is None
    assert records["failures"]["fail_frac"] == 1
    assert "empty stdout" in records["failures"]["messages"][0]


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, *BENCH["command"][1:], "--workload", "perm_test", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
