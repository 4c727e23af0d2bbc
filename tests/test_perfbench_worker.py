"""The benchmark worker runs one cycle of each workload, plain and traced,
and its runs pass their checks: seed 0 compares each run's summary with
``perfbench/reference.json``, and a traced run checks the tracer's counts
against the policy table's. The run files the worker reads are files that
``artifacts.ARTIFACTS`` declares."""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from routedkl.artifacts import ARTIFACTS

ROOT = Path(__file__).parents[1]


def test_worker_opens_only_declared_run_files():
    # The worker spells the run files it reads by hand; a file renamed in
    # ARTIFACTS must fail here, not only in the deep-cli workload.
    text = (ROOT / "perfbench" / "worker.py").read_text()
    suffixes = set(re.findall(r"\{stem\}([^\"'{}]+)[\"']", text))
    assert "_summary.json" in suffixes, "the pattern no longer finds the worker's file names"
    assert sorted(suffixes - set(ARTIFACTS)) == []


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
