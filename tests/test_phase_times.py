import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_phase_times_accounts_for_the_whole_step(tmp_path):
    # One repetition: every ref/step value is its µs/step over the mean
    # reference-kernel time, so the phases sum to the step in either unit.
    out = tmp_path / "phases.json"
    proc = subprocess.run(
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
    assert res["ref_us"] > 0
    assert res["step_ref"] == pytest.approx(res["step_us"] / res["ref_us"], rel=1e-12)
    for name, phase in phases.items():
        assert phase["ref_per_step"] == pytest.approx(phase["us_per_step"] / res["ref_us"], rel=1e-9), name
    assert sum(p["ref_per_step"] for p in phases.values()) == pytest.approx(res["step_ref"], rel=1e-9)
    assert f"{res['step_ref']:.3f} ref/step" in proc.stdout
    # The trie grows by one id block per sampled group at most, and the
    # step sorts no node array with numpy.unique.
    counts = res["counts_per_step"]
    assert list(counts) == ["appends", "new nodes", "unique calls"]
    assert 0 < counts["appends"] <= 1 and counts["appends"] <= counts["new nodes"]
    assert counts["unique calls"] == 0
    assert f"  {'appends':18s} {counts['appends']:9.3f} per step" in proc.stdout
    # Every all-token step has its KL window open.
    window, closed = res["by_window"]["window"], res["by_window"]["closed"]
    assert window["steps_per_repeat"] == 300 and window["time_share"] == 1.0
    assert window["us_per_step"] == pytest.approx(res["step_us"], rel=1e-12)
    assert window["ref_per_step"] == pytest.approx(res["step_ref"], rel=1e-12)
    assert closed == {"steps_per_repeat": 0, "us_per_step": None, "ref_per_step": None,
                      "time_share": 0.0}
    assert "window steps" in proc.stdout and "closed steps" not in proc.stdout


def test_steps_split_by_window_state(tmp_path, monkeypatch):
    out = tmp_path / "phases.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "phase_times.py"), "--src", str(ROOT / "src"),
         "--workload", "corner", "--cycles", "1", "--repeats", "1", "--json", str(out)],
        check=True, capture_output=True, text=True,
    )
    res = json.loads(out.read_text())["workloads"]["corner"]
    # The window steps are the steps whose KL weight is positive.
    monkeypatch.setattr(sys, "path", [str(ROOT / "tools"), *sys.path])
    import phase_times
    import routedkl.studies

    configs = phase_times.workload_configs(routedkl, "corner", 1, 0)
    open_steps = sum(
        routedkl.runner.effective_lambda(cfg, k) > 0.0 for cfg in configs for k in range(cfg.steps)
    )
    window, closed = res["by_window"]["window"], res["by_window"]["closed"]
    assert 0 < open_steps < res["steps_per_repeat"]
    assert window["steps_per_repeat"] == open_steps
    assert closed["steps_per_repeat"] == res["steps_per_repeat"] - open_steps
    assert window["time_share"] + closed["time_share"] == pytest.approx(1.0, rel=1e-12)
    total = sum(w["steps_per_repeat"] * w["us_per_step"] for w in (window, closed))
    assert total == pytest.approx(res["steps_per_repeat"] * res["step_us"], rel=1e-9)
    for state in (window, closed):
        assert state["ref_per_step"] == pytest.approx(state["us_per_step"] / res["ref_us"], rel=1e-9)
        assert state["time_share"] == pytest.approx(
            state["steps_per_repeat"] * state["us_per_step"]
            / (res["steps_per_repeat"] * res["step_us"]), rel=1e-9)
    line = (f"  {'window steps':18s} {window['us_per_step']:9.1f} us/step "
            f"{window['ref_per_step']:7.3f} ref/step")
    assert line in proc.stdout and "closed steps" in proc.stdout


def test_baseline_alternates_two_trees_in_the_bench_layout(tmp_path):
    out = tmp_path / "bench.json"
    subprocess.run(
        [sys.executable, str(ROOT / "tools" / "phase_times.py"), "--src", str(ROOT / "src"),
         "--baseline", str(ROOT / "src"), "--workload", "alltoken", "--cycles", "1",
         "--repeats", "2", "--json", str(out)],
        check=True, capture_output=True, text=True,
    )
    bench = json.loads(out.read_text())
    assert {"what", "command", "machine", "trees", "workloads"} <= set(bench)
    assert bench["trees"] == {"parent": str(ROOT / "src"), "change": str(ROOT / "src")}
    res = bench["workloads"]["alltoken"]
    assert list(res) == ["parent", "change"]
    for tree in res.values():
        assert tree["steps_per_repeat"] == 300
        assert len(tree["step_us"]) == 2 and all(us > 0 for us in tree["step_us"])
        phases = tree["phases_us_per_step"]
        assert list(phases)[-1] == "rest" and len(phases) == 10
        assert all(len(reps) == 2 for reps in phases.values())
        assert list(tree["phases_ref_per_step"]) == list(phases)
        assert all(len(reps) == 2 for reps in tree["phases_ref_per_step"].values())
        assert len(tree["step_ref"]) == 2 and all(ref > 0 for ref in tree["step_ref"])
        assert len(tree["ref_us"]) == 2 and all(us > 0 for us in tree["ref_us"])
        for rep in range(2):
            ref = sum(reps[rep] for reps in tree["phases_ref_per_step"].values())
            assert abs(ref - tree["step_ref"][rep]) < 1e-3  # rounded to 4 places
        for rep in range(2):
            share = sum(reps[rep] for reps in tree["phases_share"].values())
            assert abs(share - 1.0) < 1e-3  # shares are rounded to 4 places
        # The counts repeat exactly from one repetition to the next.
        counts = tree["counts_per_step"]
        assert list(counts) == ["appends", "new nodes", "unique calls"]
        assert all(len(reps) == 2 and reps[0] == reps[1] for reps in counts.values())
        window, closed = tree["by_window"]["window"], tree["by_window"]["closed"]
        assert window["steps_per_repeat"] == 300 and len(window["us_per_step"]) == 2
        assert len(window["ref_per_step"]) == 2 and all(ref > 0 for ref in window["ref_per_step"])
        assert closed == {"steps_per_repeat": 0, "us_per_step": [None] * 2,
                          "ref_per_step": [None] * 2}
    assert res["parent"]["counts_per_step"] == res["change"]["counts_per_step"]


def test_baseline_must_hold_a_package(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "phase_times.py"), "--src", str(ROOT / "src"),
         "--baseline", str(tmp_path)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2 and "no routedkl package" in proc.stderr
