import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "bench_pairs.py"

# Stands in for each tree's perfbench/run.py: logs its tree and arguments,
# then prints a line and the JSON result. Costs per run come from the tree's list, in
# call order; a cost of 0 reports correct: false.
STUB = """
import json, sys
from pathlib import Path
tree = Path.cwd()
with open(tree.parent / "calls.log", "a") as fh:
    fh.write(json.dumps([tree.name, sys.argv[1:]]) + "\\n")
count = tree / "count"
i = int(count.read_text()) if count.exists() else 0
count.write_text(str(i + 1))
cost, setup = json.loads((tree / "costs.json").read_text())[i]
print("step_cost_ref", cost)
metrics = {"step_cost_ref": cost, "step_ref_p50": 1.0, "setup_s": setup, "peak_rss_mb": 45.0}
print(json.dumps({"correct": cost > 0, "attempted": 6, "failed": int(cost == 0),
                  "metrics": {k: {"value": v, "unit": "u"} for k, v in metrics.items()}}))
"""


def _trees(tmp_path, parent_costs, change_costs):
    for name, costs in (("parent", parent_costs), ("change", change_costs)):
        (tmp_path / name / "perfbench").mkdir(parents=True)
        (tmp_path / name / "perfbench" / "run.py").write_text(STUB)
        (tmp_path / name / "costs.json").write_text(json.dumps(costs))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "change")


def _run(tmp_path, pairs):
    out = tmp_path / "pairs.json"
    proc = subprocess.run(
        [sys.executable, str(TOOL), "--parent", str(tmp_path / "parent"), "--change",
         str(tmp_path / "change"), "--workload", "corner", "--seed", "3", "--pairs", str(pairs),
         "--seconds", "0.5", "--json", str(out)],
        check=True, capture_output=True, text=True,
    )
    return json.loads(out.read_text()), proc.stdout


def test_pairs_alternate_and_summarise(tmp_path):
    parent = [[2.0, 0.10], [2.2, 0.11], [1.8, 0.09], [2.1, 0.10]]
    change = [[1.5, 0.20], [1.6, 0.21], [1.4, 0.19], [2.3, 0.20]]
    _trees(tmp_path, parent, change)
    bench, stdout = _run(tmp_path, 4)

    calls = [json.loads(line) for line in (tmp_path / "calls.log").read_text().splitlines()]
    assert [tree for tree, _ in calls] == ["parent", "change", "change", "parent"] * 2
    assert all(argv == ["--workload", "corner", "--seed", "3", "--seconds", "0.5", "--trace", "0"]
               for _, argv in calls)
    assert {"what", "command", "machine", "trees", "seed", "seconds", "workloads"} <= set(bench)
    assert {"nproc", "cpu", "python", "numpy"} <= set(bench["machine"])
    res = bench["workloads"]["corner"]
    assert [p["first"] for p in res["pairs"]] == ["parent", "change"] * 2
    assert res["all_correct"] is True
    # Every end-to-end metric of BENCHMARK.json is summarised; p99 is not
    # reported by the stub.
    assert list(res["metrics"]) == [
        "step_cost_ref", "step_ref_p50", "step_ref_p99", "setup_s", "peak_rss_mb"
    ]
    assert res["metrics"]["step_ref_p99"] == {"pairs": 0}

    cost = res["metrics"]["step_cost_ref"]
    assert cost["parent"] == [c for c, _ in parent] and cost["change"] == [c for c, _ in change]
    assert cost["median"] == {"parent": 2.05, "change": 1.55}
    q1, _, q3 = statistics.quantiles([c for c, _ in parent], n=4, method="inclusive")
    assert cost["quartiles"]["parent"] == [q1, q3]
    assert cost["change_vs_parent"] == pytest.approx(1.55 / 2.05 - 1)
    assert cost["parent_quartile_distance"] == pytest.approx((q3 - q1) / 2.05)
    assert cost["better_in"] == "3 of 4" and cost["resolved"] and cost["within_bound"]
    assert not cost["claimable"]  # 3 of 4 is fewer than 9 of 10
    assert cost["bound"] == 0.08 and cost["better"] == "lower"

    flat = res["metrics"]["step_ref_p50"]
    assert flat["better_in"] == "0 of 4" and not flat["resolved"] and flat["within_bound"]
    setup = res["metrics"]["setup_s"]  # twice the parent: outside its 25% bound
    assert setup["resolved"] and not setup["within_bound"] and not setup["claimable"]
    assert "step_cost_ref" in stdout and "better in 3 of 4" in stdout


def test_claimable_needs_nine_of_ten_pairs(tmp_path):
    # Both metrics fall by a resolved margin in the median; the cost reads
    # lower in 9 of 10 pairs, the setup time in only 8.
    parent = [[2.0 + 0.01 * i, 0.10 + 0.001 * i] for i in range(10)]
    change = [[1.5 + 0.01 * i, 0.08 + 0.001 * i] for i in range(10)]
    change[3][0], change[5][1], change[8][1] = 3.0, 0.2, 0.2
    _trees(tmp_path, parent, change)
    bench, stdout = _run(tmp_path, 10)
    metrics = bench["workloads"]["corner"]["metrics"]
    cost, setup = metrics["step_cost_ref"], metrics["setup_s"]
    assert cost["better_in"] == "9 of 10" and cost["resolved"] and cost["claimable"]
    assert setup["better_in"] == "8 of 10" and setup["resolved"] and not setup["claimable"]
    assert stdout.count("claimable") == 1


@pytest.mark.parametrize(
    "pairs, failing, claimable",
    [(10, None, True), (9, None, False), (11, 5, False)],
    ids=["ten-pairs", "nine-pairs", "change-fails-more"],
)
def test_claim_needs_ten_correct_pairs_and_no_added_failures(tmp_path, pairs, failing, claimable):
    # The change's cost is lower by a resolved margin in every correct
    # pair. Nine pairs are too few to claim; with an eleventh pair whose
    # change run fails, ten correct pairs remain, but the change then
    # fails more operations than the parent.
    parent = [[2.0 + 0.01 * i, 0.1] for i in range(pairs)]
    change = [[1.5 + 0.01 * i, 0.1] for i in range(pairs)]
    if failing is not None:
        change[failing][0] = 0.0
    _trees(tmp_path, parent, change)
    bench, _ = _run(tmp_path, pairs)
    cost = bench["workloads"]["corner"]["metrics"]["step_cost_ref"]
    correct = pairs - (failing is not None)
    assert cost["pairs"] == correct and cost["better_in"] == f"{correct} of {correct}"
    assert cost["resolved"] and cost["claimable"] is claimable


def test_incorrect_run_is_recorded(tmp_path):
    _trees(tmp_path, [[2.0, 0.1], [2.0, 0.1]], [[1.0, 0.1], [0.0, 0.1]])
    bench, _ = _run(tmp_path, 2)
    res = bench["workloads"]["corner"]
    assert res["all_correct"] is False
    assert [p["change"]["correct"] for p in res["pairs"]] == [True, False]
    assert res["pairs"][1]["change"]["failed"] == 1
    assert res["pairs"][1]["change"]["metrics"]["step_cost_ref"] == 0.0
    # The failing run's cost enters neither the medians nor the win count.
    cost = res["metrics"]["step_cost_ref"]
    assert cost["pairs"] == 1 and cost["parent"] == [2.0] and cost["change"] == [1.0]
    assert cost["better_in"] == "1 of 1"


def test_trees_must_hold_perfbench(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(TOOL), "--parent", str(tmp_path), "--change", str(ROOT),
         "--json", str(tmp_path / "out.json")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2 and "no perfbench/run.py" in proc.stderr
