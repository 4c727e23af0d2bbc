import json
import subprocess
import sys
from pathlib import Path

import pytest

import routedkl.studies

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("corner", "alltoken", "deep-cli")


@pytest.fixture(scope="module")
def measured(tmp_path_factory):
    """{workload: (result, printout)} of one repetition of one cycle."""
    out = {}
    for workload in WORKLOADS:
        path = tmp_path_factory.mktemp(workload) / "phases.json"
        proc = subprocess.run(
            [sys.executable, str(ROOT / "tools" / "phase_times.py"), "--src", str(ROOT / "src"),
             "--workload", workload, "--cycles", "1", "--repeats", "1", "--json", str(path)],
            check=True, capture_output=True, text=True,
        )
        out[workload] = json.loads(path.read_text())["workloads"][workload], proc.stdout
    return out


@pytest.fixture
def perfbench_configs(monkeypatch):
    """The run configs of cycle 0 of perfbench's ``workload`` at --seed 1."""
    monkeypatch.setattr(sys, "path", [str(ROOT / "perfbench"), *sys.path])
    import worker

    def configs(workload):
        bench = worker.WORKLOADS[workload](routedkl, 1, None)
        return bench.configs(0, None) if workload == "deep-cli" else bench.configs(0)

    return configs


def test_phase_times_runs_the_perfbench_mix(measured, perfbench_configs):
    for workload in WORKLOADS:
        steps = sum(cfg.steps for cfg in perfbench_configs(workload))
        assert measured[workload][0]["steps_per_repeat"] == steps, workload


def test_phase_times_accounts_for_the_whole_step(measured):
    # One repetition: every ref/step value is its µs/step over the mean
    # reference-kernel time, so the phases sum to the step in either unit.
    res, stdout = measured["alltoken"]
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
    assert f"{res['step_ref']:.3f} ref/step" in stdout
    # The trie grows by one id block per sampled group at most, and the
    # step sorts no node array with numpy.unique.
    counts = res["counts_per_step"]
    assert list(counts) == ["appends", "new nodes", "unique calls"]
    assert 0 < counts["appends"] <= 1 and counts["appends"] <= counts["new nodes"]
    assert counts["unique calls"] == 0
    assert f"  {'appends':18s} {counts['appends']:9.3f} per step" in stdout
    # Every all-token step has its KL window open.
    window, closed = res["by_window"]["window"], res["by_window"]["closed"]
    assert window["steps_per_repeat"] == 300 and window["time_share"] == 1.0
    assert window["us_per_step"] == pytest.approx(res["step_us"], rel=1e-12)
    assert window["ref_per_step"] == pytest.approx(res["step_ref"], rel=1e-12)
    assert closed == {"steps_per_repeat": 0, "us_per_step": None, "ref_per_step": None,
                      "time_share": 0.0}
    assert "window steps" in stdout and "closed steps" not in stdout


def test_steps_split_by_window_state(measured, perfbench_configs):
    res, stdout = measured["corner"]
    # The window steps are the steps whose KL weight is positive.
    open_steps = sum(
        routedkl.runner.effective_lambda(cfg, k) > 0.0
        for cfg in perfbench_configs("corner") for k in range(cfg.steps)
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
    assert line in stdout and "closed steps" in stdout


def test_baseline_alternates_two_trees_in_the_bench_layout(tmp_path):
    # Two copies of one tree, in alternating pairs: each side keeps all
    # its repetition measured, and at two pairs nothing is claimable.
    out = tmp_path / "bench.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "phase_times.py"), "--src", str(ROOT / "src"),
         "--baseline", str(ROOT / "src"), "--workload", "alltoken", "--cycles", "1",
         "--repeats", "2", "--json", str(out)],
        check=True, capture_output=True, text=True,
    )
    bench = json.loads(out.read_text())
    assert {"what", "command", "machine", "trees", "seed", "cycles", "workloads"} <= set(bench)
    assert bench["trees"] == {"parent": str(ROOT / "src"), "change": str(ROOT / "src")}
    res = bench["workloads"]["alltoken"]
    assert list(res) == ["pairs", "all_correct", "metrics"] and res["all_correct"]
    assert [pair["first"] for pair in res["pairs"]] == ["parent", "change"]
    sides = [pair[side] for pair in res["pairs"] for side in ("parent", "change")]
    for rep in sides:
        assert rep["correct"] and rep["failed"] == 0
        assert rep["steps_per_repeat"] == 300 and rep["step_us"] > 0 and rep["ref_us"] > 0
        phases = rep["phases"]
        assert list(phases)[-1] == "rest" and len(phases) == 10
        assert sum(p["share"] for p in phases.values()) == pytest.approx(1.0, rel=1e-9)
        assert sum(p["ref_per_step"] for p in phases.values()) == pytest.approx(rep["step_ref"], rel=1e-9)
        assert rep["by_window"]["window"]["ref_per_step"] == pytest.approx(rep["step_ref"], rel=1e-12)
        # Summarised: the step, each phase, the one window class with
        # steps, and each count.
        assert rep["metrics"] == {
            "step": rep["step_ref"], **{name: p["ref_per_step"] for name, p in phases.items()},
            "window steps": rep["by_window"]["window"]["ref_per_step"], **rep["counts_per_step"],
        }
    # The counts repeat exactly from one repetition to the next.
    assert all(rep["counts_per_step"] == sides[0]["counts_per_step"] for rep in sides)

    metrics = res["metrics"]
    assert list(metrics) == ["step", *phases, "window steps", "closed steps", "appends",
                             "new nodes", "unique calls"]
    assert metrics["closed steps"] == {"pairs": 0}
    summarised = [m for name, m in metrics.items() if name != "closed steps"]
    assert all(m["pairs"] == 2 and not m["claimable"] and m["within_bound"] is None for m in summarised)
    appends = metrics["appends"]
    assert appends["parent"] == appends["change"] and appends["better_in"] == "0 of 2"
    assert not appends["resolved"] and appends["unit"] == "count/step"
    assert metrics["step"]["parent"] == [pair["parent"]["step_ref"] for pair in res["pairs"]]
    assert "alltoken: 2 pairs, all correct: True" in proc.stdout and "claimable" not in proc.stdout


def test_baseline_must_hold_a_package(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "phase_times.py"), "--src", str(ROOT / "src"),
         "--baseline", str(tmp_path)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2 and "no routedkl package" in proc.stderr
