"""Smoke test of the end-to-end benchmark at tiny size.

Runs every workload untraced and traced, checks that each metric named
in ``BENCHMARK.json`` is reported with its unit, and that a corrupted
reference makes the output check fail::

    python3 -m pytest -q bench_e2e/test_smoke.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text("utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, *extra, trace=0):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "0.2", "--trace", str(trace),
         "--size", "tiny", *extra],
        capture_output=True, text=True, timeout=300,
    )
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_reports_every_metric_with_its_unit(workload, trace):
    code, result = run(workload, trace=trace)
    assert code == 0, result
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {
        name: metric["unit"] for name, metric in result["metrics"].items()
    } == {metric["name"]: metric["unit"] for metric in expected}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


@pytest.mark.parametrize(
    "workload, path",
    [
        ("ga-campaign", ("ga-campaign", 0, 0, "best_scores", 0)),
        ("ga-workers", ("ga-campaign", 1, 1, "best_scores", 1)),
        ("sweep-study", ("sweep-study", 0, 2, "resonance_hz", 0, 1)),
        ("vmin-ladder", ("vmin-ladder", 0, 0, "vmin", "virus")),
    ],
)
def test_corrupted_reference_fails_the_check(tmp_path, workload, path):
    refs = json.loads((HERE / "references.json").read_text("utf-8"))
    node = refs["tiny"]
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] *= 1.0 + 1e-9
    corrupted = tmp_path / "references.json"
    corrupted.write_text(json.dumps(refs), "utf-8")
    code, result = run(workload, "--references", str(corrupted))
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] >= 1
