"""Self-checks of the benchmark itself.

Run from the repository root: python3 -m pytest -q -p no:cacheprovider perfbench/tests

A smoke run of every workload must print every metric that BENCHMARK.json
declares, with its unit; a planted wrong answer must make the oracle fail
ops; the benchmark must refuse to run without the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--seconds", "0.3", "--smoke", *args]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=170)


def parse(proc: subprocess.CompletedProcess) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["perfbench"], json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    record, result = parse(run_bench("--workload", workload, "--seed", "5", "--trace", str(trace)))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert record["report"]["error_rate"] == {"value": 0.0, "unit": "ratio"}
    assert {"op_p50_ms", "op_p90_ms", "ops_per_s", "peak_rss_mb"} <= set(record["report"])
    for key in ("python", "numpy", "nproc", "cpu", "loadavg_start", "seed", "inputs_sha256"):
        assert key in record


@pytest.mark.parametrize(
    "fault, workload",
    [
        ("selection", "cli-select"),
        ("selection", "dense-grid"),
        ("selection", "cap-study"),
        ("roundtrip", "dense-grid"),
        ("roundtrip", "ingest-logs"),
    ],
)
def test_planted_fault_raises_error_rate(fault, workload):
    record, result = parse(run_bench("--workload", workload, "--seed", "5", "--trace", "0", "--fault", fault))
    assert not result["correct"]
    assert result["failed"] > 0
    assert record["report"]["error_rate"]["value"] > 0
    assert record["failures"]


def test_same_seed_gives_identical_inputs():
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    import inputs

    for workload in WORKLOADS:
        first = inputs.build(workload, 11, inputs.SMOKE)
        assert first.digest() == inputs.build(workload, 11, inputs.SMOKE).digest()
        assert first.digest() != inputs.build(workload, 12, inputs.SMOKE).digest()


def test_refuses_to_run_without_the_program():
    bare = ROOT / ".perfbench_work" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = run_bench("--workload", WORKLOADS[0], "--seed", "1", "--trace", "0", cwd=bare)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
