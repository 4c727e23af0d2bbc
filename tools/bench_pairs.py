"""Alternating perfbench pairs of two source trees, summarised for a claim.

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --workload corner alltoken deep-cli --seed 1 --pairs 10 --seconds 20 \\
        --json BENCH_pairs.json

Each tree is a checkout holding ``perfbench/run.py`` and ``src/``. A pair
runs ``perfbench/run.py --workload W --seed S --seconds X --trace 0`` once
in each tree, from the tree's root; pair i runs the parent first when i is
even and the change first when it is odd, so a drift of the host's speed
falls on both sides alike. The run's last output line is its JSON result.

For every end-to-end metric of the change tree's ``BENCHMARK.json`` the
JSON gives each side's values in pair order, their median and quartiles
(``statistics.quantiles``, inclusive method), the change's median against
the parent's, and in how many pairs the change read better (lower, for
every end-to-end metric it declares now). A metric is "resolved" when
the medians differ by more than the distance between the parent's
quartiles; "claimable" as a gain when it is resolved, the change's median
is the better one and the change read better in at least 9 of every 10
pairs; and "within bound" when the change's median is not worse than the
parent's by more than the metric's bound. A run that exits nonzero or
reports ``correct: false`` is recorded and counted, and the pair keeps the
values it printed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))
from phase_times import machine  # noqa: E402

SIDES = ("parent", "change")


def run_once(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in ``tree``: its exit code and its JSON result."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {"correct": False, "metrics": {}}
    metrics = {name: m["value"] for name, m in result.get("metrics", {}).items()}
    return {
        "returncode": proc.returncode,
        "correct": proc.returncode == 0 and result.get("correct") is True,
        "failed": result.get("failed"),
        "metrics": metrics,
    }


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def summarise(pairs: list[dict], spec: dict) -> dict:
    """Medians, quartiles, win count and verdicts of one metric over the
    pairs where both sides report it."""
    name, lower = spec["name"], spec["better"] == "lower"
    both = [p for p in pairs if name in p["parent"]["metrics"] and name in p["change"]["metrics"]]
    if not both:
        return {"pairs": 0}
    values = {side: [p[side]["metrics"][name] for p in both] for side in SIDES}
    median = {side: statistics.median(v) for side, v in values.items()}
    spread = quartiles(values["parent"])
    better = sum((c < p) if lower else (c > p) for p, c in zip(values["parent"], values["change"]))
    worse_by = (median["change"] / median["parent"] - 1) * (1 if lower else -1)
    resolved = abs(median["change"] - median["parent"]) > spread[1] - spread[0]
    return {
        "unit": spec["unit"],
        "better": spec["better"],
        "bound": spec["bound"],
        "pairs": len(both),
        "parent": values["parent"],
        "change": values["change"],
        "median": median,
        "quartiles": {"parent": spread, "change": quartiles(values["change"])},
        "change_vs_parent": median["change"] / median["parent"] - 1,
        "parent_quartile_distance": (spread[1] - spread[0]) / median["parent"],
        "better_in": f"{better} of {len(both)}",
        "resolved": resolved,
        "claimable": resolved and worse_by < 0 and 10 * better >= 9 * len(both),
        "within_bound": worse_by <= spec["bound"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent tree")
    parser.add_argument("--change", required=True, help="checkout of the changed tree")
    parser.add_argument("--workload", nargs="+", default=["corner", "alltoken", "deep-cli"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--json", required=True, help="write the pairs and summaries here")
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seed < 0 or args.seconds <= 0:
        parser.error("need --pairs >= 1, --seed >= 0 and --seconds > 0")
    trees = {"parent": args.parent, "change": args.change}
    for tree in trees.values():
        if not (Path(tree) / "perfbench" / "run.py").is_file():
            parser.error(f"no perfbench/run.py under {tree}")
    bench = Path(args.change) / "BENCHMARK.json"
    if not bench.is_file():
        parser.error(f"no BENCHMARK.json under {args.change}")
    specs = json.loads(bench.read_text())["end_to_end"]

    out = {
        "what": "Alternating perfbench pairs (--trace 0): per metric, each side's values in "
                "pair order, medians, inclusive quartiles, the change's median against the "
                "parent's, and the pairs in which the change read better.",
        "command": " ".join(["python3", "tools/bench_pairs.py", *(argv or sys.argv[1:])]),
        "machine": machine(),
        "trees": trees,
        "seed": args.seed,
        "seconds": args.seconds,
        "workloads": {},
    }
    for workload in args.workload:
        pairs = []
        for i in range(args.pairs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {"first": order[0]}
            for side in order:
                pair[side] = run_once(trees[side], workload, args.seed, args.seconds)
            pairs.append(pair)
        summary = {spec["name"]: summarise(pairs, spec) for spec in specs}
        out["workloads"][workload] = {
            "pairs": pairs,
            "all_correct": all(p[side]["correct"] for p in pairs for side in SIDES),
            "metrics": summary,
        }
        print(f"{workload}: {args.pairs} pairs, all correct: "
              f"{out['workloads'][workload]['all_correct']}")
        for name, s in summary.items():
            if s["pairs"]:
                print(f"  {name:14s} {s['median']['parent']:10.4g} -> {s['median']['change']:10.4g} "
                      f"({100 * s['change_vs_parent']:+.1f}%, better in {s['better_in']}, parent "
                      f"quartile distance {100 * s['parent_quartile_distance']:.1f}%"
                      f"{', claimable' if s['claimable'] else ''})")
    with open(args.json, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
