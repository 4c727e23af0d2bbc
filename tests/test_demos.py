"""Demos 01-07 print the text recorded in tests/golden/demos/, byte for byte.

Demo 07 trains the reduced corner matrix (a few seconds) and prints its
final exact E[R], so it checks the training loop end to end.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
EXPECTED = Path(__file__).parent / "golden" / "demos"
DEMOS = sorted(p.stem for p in EXPECTED.glob("*.txt"))


def test_every_fast_demo_has_expected_output():
    assert DEMOS == sorted(p.stem for p in (ROOT / "demos").glob("0[1-7]_*.py"))


@pytest.mark.parametrize("name", DEMOS)
def test_demo_prints_expected_output(name, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{name}.py")],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr.decode()
    assert result.stdout == (EXPECTED / f"{name}.txt").read_bytes()
