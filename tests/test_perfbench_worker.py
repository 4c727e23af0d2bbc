"""The benchmark worker runs one cycle of each workload, plain and traced,
and its runs pass their checks: seed 0 compares each run's summary with
``perfbench/reference.json``, and a traced run checks the tracer's counts
against the policy table's."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]


@pytest.mark.parametrize("mode", ["plain", "traced"])
@pytest.mark.parametrize("workload", ["corner", "alltoken", "deep-cli"])
def test_worker_cycle_passes_its_checks(workload, mode, tmp_path):
    command = [
        sys.executable, str(ROOT / "perfbench" / "worker.py"), "--workload", workload,
        "--seed", "0", "--seconds", "0", "--cycles", "1", "--mode", mode, "--tmp", str(tmp_path),
    ]
    done = subprocess.run(command, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads((tmp_path / f"result-{mode}.json").read_text())
    assert result["runs"]
    assert [run for run in result["runs"] if run["problems"]] == []
    if mode == "traced":
        assert result["trace"]["coverage_errors"] == []
