"""Demos 01-06 print the text recorded in tests/golden/demos/, byte for byte.

Demo 07 trains for about 30 s and is not run here.
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
    assert DEMOS == sorted(p.stem for p in (ROOT / "demos").glob("0[1-6]_*.py"))


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
