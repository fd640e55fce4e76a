"""Self-test of the benchmark: every workload at tiny size, untraced and
traced, must pass its checks with no failed operation and print every
metric BENCHMARK.json names, with its unit.  That includes mirror-edits,
which is runnable by hand but not in BENCHMARK.json.  It asserts nothing
about how long anything takes."""

import contextlib
import io
import json
from pathlib import Path

import pytest

import run

BENCH = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in BENCH["workloads"]] + ["mirror-edits"]


def _run(workload: str, trace: int) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "7", "--seconds", "0",
                         "--trace", str(trace), "--scale", "0.05"])
    assert code == 0
    return json.loads(out.getvalue().strip().splitlines()[-1])


@pytest.mark.parametrize("workload", NAMES)
def test_workload_end_to_end(workload):
    result = _run(workload, trace=0)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in BENCH["end_to_end"]}
    for m in BENCH["end_to_end"]:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert metrics[m["name"]]["value"] > 0, m["name"]


@pytest.mark.parametrize("workload", NAMES)
def test_workload_per_layer(workload):
    result = _run(workload, trace=1)
    assert result["correct"] is True
    assert result["failed"] == 0
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in BENCH["per_layer"]}
    for m in BENCH["per_layer"]:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert metrics[m["name"]]["value"] >= 0, m["name"]


def test_missing_program_exits_without_result(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "mirror-edits", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
