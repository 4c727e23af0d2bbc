import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_phase_times_accounts_for_the_whole_step(tmp_path):
    out = tmp_path / "phases.json"
    subprocess.run(
        [sys.executable, str(ROOT / "tools" / "phase_times.py"), "--src", str(ROOT / "src"),
         "--workload", "alltoken", "--cycles", "1", "--repeats", "1", "--json", str(out)],
        check=True, capture_output=True, text=True,
    )
    res = json.loads(out.read_text())["workloads"]["alltoken"]
    assert res["steps_per_repeat"] == 300
    phases = res["phases"]
    assert list(phases)[-1] == "rest" and len(phases) == 10
    assert all(p["us_per_step"] > 0 for name, p in phases.items() if name != "rest")
    assert abs(sum(p["share"] for p in phases.values()) - 1.0) < 1e-9
