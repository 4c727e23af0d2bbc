"""Alternating perfbench pairs of two source trees, summarised for a claim.

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --workload corner alltoken deep-cli --seed 1 --pairs 10 --seconds 20 \\
        --json BENCH_pairs.json

Each tree is a checkout holding ``perfbench/run.py`` and ``src/``. A pair
runs ``perfbench/run.py --workload W --seed S --seconds X --trace 0`` once
in each tree, from the tree's root; pair i runs the parent first when i is
even and the change first when it is odd, so a drift of the host's speed
falls on both sides alike. The run's last output line is its JSON result.
``tools/phase_times.py --baseline`` pairs its repetitions with the same
alternation and summarises them with the same rule.

For every end-to-end metric of the change tree's ``BENCHMARK.json`` the
JSON gives each side's values in pair order, their median and quartiles
(``statistics.quantiles``, inclusive method), the change's median against
the parent's, and in how many pairs the change read better (lower, for
every end-to-end metric it declares now). Only pairs in which both runs
are correct enter these values. A metric is "resolved" when the medians
differ by more than the distance between the parent's quartiles;
"claimable" as a gain when it is resolved over at least 10 such pairs, the
change's median is the better one, the change read better in at least 9
of every 10 of them (ties count for neither) and the change's runs report
no more failed operations in all than the parent's; and "within bound"
when the change's median is not worse than the parent's by more than the
metric's bound. A run that exits nonzero or reports ``correct: false`` is
recorded and counted, and the pair keeps the values it printed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy

SIDES = ("parent", "change")
MIN_CLAIM_PAIRS = 10


def machine() -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


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


def alternate(n: int, run) -> list[dict]:
    """``n`` pairs of ``run(side)`` results, one per side; pair i runs the
    parent first when i is even and the change first when it is odd."""
    pairs = []
    for i in range(n):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {"first": order[0]}
        for side in order:
            pair[side] = run(side)
        pairs.append(pair)
    return pairs


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def summarise(pairs: list[dict], spec: dict) -> dict:
    """Medians, quartiles, win count and verdicts of one metric over the
    pairs where both sides are correct and report it. A spec whose bound
    is None gets no bound verdict; a parent median of 0 gets no ratios."""
    name, lower = spec["name"], spec["better"] == "lower"
    both = [
        p for p in pairs
        if all(p[side]["correct"] and name in p[side]["metrics"] for side in SIDES)
    ]
    if not both:
        return {"pairs": 0}
    values = {side: [p[side]["metrics"][name] for p in both] for side in SIDES}
    median = {side: statistics.median(v) for side, v in values.items()}
    spread = quartiles(values["parent"])
    better = sum((c < p) if lower else (c > p) for p, c in zip(values["parent"], values["change"]))
    better_median = (median["change"] < median["parent"]) if lower else (median["change"] > median["parent"])
    failed = {side: sum(p[side]["failed"] or 0 for p in pairs) for side in SIDES}
    ratio = median["change"] / median["parent"] - 1 if median["parent"] else None
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
        "change_vs_parent": ratio,
        "parent_quartile_distance": (spread[1] - spread[0]) / median["parent"] if median["parent"] else None,
        "better_in": f"{better} of {len(both)}",
        "resolved": resolved,
        "claimable": (resolved and better_median and len(both) >= MIN_CLAIM_PAIRS
                      and 10 * better >= 9 * len(both) and failed["change"] <= failed["parent"]),
        "within_bound": None if spec["bound"] is None else ratio * (1 if lower else -1) <= spec["bound"],
    }


def _percent(value, sign: str = "+") -> str:
    return "n/a" if value is None else f"{100 * value:{sign}.1f}%"


def report(workload: str, pairs: list[dict], specs: list[dict]) -> dict:
    """A workload's pairs, whether every run was correct and each spec's
    summary, printed one line per metric that some pair reports."""
    summary = {spec["name"]: summarise(pairs, spec) for spec in specs}
    all_correct = all(p[side]["correct"] for p in pairs for side in SIDES)
    print(f"{workload}: {len(pairs)} pairs, all correct: {all_correct}")
    width = max(map(len, summary))
    for name, s in summary.items():
        if s["pairs"]:
            print(f"  {name:{width}s} {s['median']['parent']:10.4g} -> {s['median']['change']:10.4g} "
                  f"({_percent(s['change_vs_parent'])}, better in {s['better_in']}, parent "
                  f"quartile distance {_percent(s['parent_quartile_distance'], '')}"
                  f"{', claimable' if s['claimable'] else ''})")
    return {"pairs": pairs, "all_correct": all_correct, "metrics": summary}


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
        pairs = alternate(args.pairs, lambda side: run_once(trees[side], workload, args.seed, args.seconds))
        out["workloads"][workload] = report(workload, pairs, specs)
    with open(args.json, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
