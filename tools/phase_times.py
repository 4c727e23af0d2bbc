"""Per-phase time of a training step on the perfbench workload configs.

    python3 tools/phase_times.py --src src --workload corner alltoken deep-cli \\
        --seed 1 --cycles 2 --repeats 3 --json phases.json
    python3 tools/phase_times.py --src src --baseline ../parent/src \\
        --seed 1 --cycles 2 --repeats 10 --json BENCH.json

Imports ``routedkl`` from ``--src`` and runs with ``run_experiment`` the
configs that the workloads of ``perfbench/worker.py`` (``WORKLOADS``) give
for each cycle, writing no artifacts. Each phase of
``runner.train_step`` is timed by wrapping the ``runner`` module attribute
that performs it; exact evaluation is ``SynthTask.expected_reward``, which
the step calls on its task. "rest" is the step's wall time outside those
phases (schedule, teacher sync, checks, the log row). Only calls made
inside ``train_step`` count.

Steps are also split by window state: "window" steps are those whose
KL channel is open (the log row's lambda > 0), "closed" steps the rest,
RLSD's window included, since it carries no KL. Each class gets its own
µs/step and ref/step, so the cost of an open step is measured directly.

Three counts per step show the trie's growth and sorting inside
``train_step``: "appends", the calls of ``PolicyTable._append`` (each
adds one contiguous id block of nodes); "new nodes", the nodes those
calls add; and "unique calls", the calls of ``numpy.unique``.

A repetition runs every cycle of the workload once; cycle ``c`` uses the
config seeds perfbench's worker gives it for ``--seed``. The printed
µs/step of each phase is the median over repetitions, and its share is of
the median step. The numbers are wall-clock and vary with the host, so
compare two source trees by alternating runs on one machine.

As perfbench's worker does, the tool runs perfbench's fixed reference
kernel (``perfbench/refkernel.py``) after every timed step, outside the
step's time. Each phase is also given in reference units: its time
divided by the repetition's total kernel time, in ref/step, the unit of
perfbench's ``step_cost_ref``. The host's speed drifts; this ratio
largely does not.

With ``--baseline SRC`` the tool compares two trees that way: each
repetition of each workload runs once per tree, each run in a fresh
interpreter, paired and alternated by ``bench_pairs.alternate``. Each side
of a pair keeps all its repetition measured; ``bench_pairs.summarise``
gives the step's ref/step, each phase's, each window class's and each
count its medians, quartiles, win count and verdicts, under the claim
rule of ``tools/bench_pairs.py``. The JSON has bench_pairs' layout, with
``parent`` the ``--baseline`` tree and ``change`` the ``--src`` tree.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from bench_pairs import alternate, machine, report  # noqa: E402
from refkernel import ReferenceKernel  # noqa: E402
from worker import WORKLOADS  # noqa: E402

PHASES = (
    ("sampling", "sample_group"),
    ("advantages", "group_advantages"),
    ("loss inputs", "_step_tensors"),
    ("routed loss", "routed_loss_rows"),
    ("ledger", "_update_ledger"),
    ("credit", "_track_credit_concentration"),
    ("update", "_apply_row_grads"),
    ("lift reads", "_eval_probs"),
    ("exact evaluation", "SynthTask.expected_reward"),
)
COUNTS = ("appends", "new nodes", "unique calls")
WINDOW_STATES = ("window", "closed")
# What --baseline summarises of a repetition: ref/step of the step, of each
# phase and of each window class, and each count per step.
SPECS = [
    {"name": name, "unit": unit, "better": "lower", "bound": None}
    for names, unit in (
        (["step", *(name for name, _ in PHASES), "rest", *(f"{s} steps" for s in WINDOW_STATES)],
         "ref/step"),
        (COUNTS, "count/step"),
    )
    for name in names
]


class PhaseClock:
    """Wall time per phase and the ``COUNTS``, counted only inside
    ``train_step``, and the reference kernel's time ("ref"), run once
    after every step."""

    def __init__(self, runner) -> None:
        self.runner = runner
        self.in_step = False
        self.kernel = ReferenceKernel()
        self.totals = dict.fromkeys([name for name, _ in PHASES] + ["step", "ref"], 0.0)
        self.counts = dict.fromkeys(COUNTS, 0)
        self.steps = 0
        self.by_window = {state: [0, 0.0] for state in WINDOW_STATES}  # steps, seconds

    def _timed(self, name: str, fn):
        clock = time.perf_counter

        def timed(*args, **kwargs):
            if not self.in_step:
                return fn(*args, **kwargs)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self.totals[name] += clock() - t0

        return timed

    def install(self) -> None:
        runner = self.runner
        for name, attr in PHASES:
            owner = runner
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            setattr(owner, leaf, self._timed(name, getattr(owner, leaf)))
        step = runner.train_step
        clock = time.perf_counter

        def timed_step(state):
            self.in_step = True
            t0 = clock()
            try:
                row = step(state)
            finally:
                elapsed = clock() - t0
                self.totals["step"] += elapsed
                self.in_step = False
                self.steps += 1
                self.totals["ref"] += self.kernel()
            tally = self.by_window["window" if row["lambda"] > 0.0 else "closed"]
            tally[0] += 1
            tally[1] += elapsed
            return row

        runner.train_step = timed_step
        table, append, unique = runner.PolicyTable, runner.PolicyTable._append, numpy.unique

        def counted_append(table_self, parents, *args):
            if self.in_step:
                self.counts["appends"] += 1
                self.counts["new nodes"] += len(parents)
            return append(table_self, parents, *args)

        def counted_unique(*args, **kwargs):
            if self.in_step:
                self.counts["unique calls"] += 1
            return unique(*args, **kwargs)

        table._append, numpy.unique = counted_append, counted_unique

    def reset(self) -> None:
        self.totals = dict.fromkeys(self.totals, 0.0)
        self.counts = dict.fromkeys(self.counts, 0)
        self.steps = 0
        self.by_window = {state: [0, 0.0] for state in WINDOW_STATES}


def measure(lib, clock: PhaseClock, workload: str, seed: int, cycles: int, repeats: int) -> dict:
    """Median µs/step and ref/step of each phase over ``repeats`` passes of
    the cycles; ``ref_us`` is the median of the kernel's mean µs/call.
    ``by_window`` gives the same for the window and closed steps, each
    class's ref/step over the repetition's mean kernel time; a class with
    no steps has None."""
    bench = WORKLOADS[workload](lib, seed, None)
    per_rep, counts, windows = [], [], []
    for _ in range(repeats):
        clock.reset()
        for cycle in range(cycles):
            # deep-cli's configs also name the sweep's output directory; none is written here.
            for cfg in bench.configs(cycle, None) if workload == "deep-cli" else bench.configs(cycle):
                lib.runner.run_experiment(cfg)
        us = {name: 1e6 * t / clock.steps for name, t in clock.totals.items()}
        us["rest"] = us["step"] - sum(us[name] for name, _ in PHASES)
        per_rep.append(us)
        counts.append({name: n / clock.steps for name, n in clock.counts.items()})
        windows.append({
            state: (n, 1e6 * t / n if n else None, t / clock.totals["step"], us["ref"])
            for state, (n, t) in clock.by_window.items()
        })
    median = {name: statistics.median(rep[name] for rep in per_rep) for name in per_rep[0]}
    median_ref = {
        name: statistics.median(rep[name] / rep["ref"] for rep in per_rep) for name in per_rep[0]
    }
    step, ref = median.pop("step"), median.pop("ref")
    step_ref = median_ref.pop("step")
    return {
        "steps_per_repeat": clock.steps,
        "step_us": step,
        "step_ref": step_ref,
        "ref_us": ref,
        "counts_per_step": {name: statistics.median(c[name] for c in counts) for name in COUNTS},
        "by_window": {state: _window_medians([w[state] for w in windows]) for state in WINDOW_STATES},
        "phases": {
            name: {"us_per_step": us, "ref_per_step": median_ref[name], "share": us / step}
            for name, us in median.items()
        },
    }


def _window_medians(reps: list) -> dict:
    """Medians of one window state's (steps, µs/step, time share, ref µs)
    over the repetitions."""
    steps = reps[0][0]
    if not steps:
        return {"steps_per_repeat": 0, "us_per_step": None, "ref_per_step": None, "time_share": 0.0}
    return {
        "steps_per_repeat": steps,
        "us_per_step": statistics.median(us for _, us, _, _ in reps),
        "ref_per_step": statistics.median(us / ref for _, us, _, ref in reps),
        "time_share": statistics.median(share for _, _, share, _ in reps),
    }


def measure_tree(args) -> dict:
    """Median phase times of the ``--src`` tree, imported in this process."""
    sys.path.insert(0, os.path.abspath(args.src))
    import routedkl
    import routedkl.studies

    clock = PhaseClock(routedkl.runner)
    clock.install()
    out = {"machine": machine(), "seed": args.seed, "cycles": args.cycles,
           "repeats": args.repeats, "workloads": {}}
    for workload in args.workload:
        res = measure(routedkl, clock, workload, args.seed, args.cycles, args.repeats)
        out["workloads"][workload] = res
        print(f"{workload}: {res['step_us']:.1f} us/step, {res['step_ref']:.3f} ref/step "
              f"(ref kernel {res['ref_us']:.1f} us), {res['steps_per_repeat']} steps per repetition")
        for name, phase in res["phases"].items():
            print(f"  {name:18s} {phase['us_per_step']:9.1f} us/step {phase['ref_per_step']:7.3f} "
                  f"ref/step {100 * phase['share']:6.1f}%")
        for name, n in res["counts_per_step"].items():
            print(f"  {name:18s} {n:9.3f} per step")
        for state, w in res["by_window"].items():
            if w["steps_per_repeat"]:
                print(f"  {state + ' steps':18s} {w['us_per_step']:9.1f} us/step "
                      f"{w['ref_per_step']:7.3f} ref/step {w['steps_per_repeat']:6d} steps, "
                      f"{100 * w['time_share']:.1f}% of step time")
    return out


def _one_repetition(src: str, workload: str, seed: int, cycles: int) -> dict:
    """One repetition of ``workload`` on the tree ``src``, in a fresh
    interpreter: all it measured, and under ``metrics`` the values of
    ``SPECS``. A repetition that fails stops the comparison."""
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "phases.json")
        subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--src", src, "--workload", workload,
             "--seed", str(seed), "--cycles", str(cycles), "--repeats", "1", "--json", out],
            check=True, capture_output=True, text=True,
        )
        with open(out) as fh:
            rep = json.load(fh)["workloads"][workload]
    metrics = {"step": rep["step_ref"], **{name: p["ref_per_step"] for name, p in rep["phases"].items()}}
    metrics.update((f"{state} steps", w["ref_per_step"]) for state, w in rep["by_window"].items()
                   if w["steps_per_repeat"])
    metrics.update(rep["counts_per_step"])
    return {"correct": True, "failed": 0, **rep, "metrics": metrics}


def compare(args) -> dict:
    """Alternating repetitions of the ``--baseline`` and ``--src`` trees,
    in the layout of ``tools/bench_pairs.py``."""
    trees = {"parent": args.baseline, "change": args.src}
    out = {
        "what": "Per-phase wall time of runner.train_step on the perfbench workload configs, "
                "parent against change, in pairs of repetitions; each repetition ran its tree "
                "in a fresh interpreter, and the pairs alternate which tree went first. Shares "
                "are of that repetition's step. A ref/step value is the time divided by the "
                "repetition's total time of perfbench's reference kernel, run once after every "
                "step. Per metric: medians, inclusive quartiles, win counts and verdicts.",
        "command": " ".join(["python3", "tools/phase_times.py", *sys.argv[1:]]),
        "machine": machine(),
        "trees": trees,
        "seed": args.seed,
        "cycles": args.cycles,
        "workloads": {},
    }
    for workload in args.workload:
        pairs = alternate(args.repeats, lambda side: _one_repetition(trees[side], workload, args.seed, args.cycles))
        out["workloads"][workload] = report(workload, pairs, SPECS)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="directory that holds the routedkl package")
    parser.add_argument("--workload", nargs="+", choices=list(WORKLOADS), default=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--cycles", type=int, default=2)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--json", default=None, help="also write the results here")
    parser.add_argument("--baseline", default=None,
                        help="a second routedkl source directory to alternate with --src")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.cycles < 1 or args.repeats < 1:
        parser.error("need --seed >= 0, --cycles >= 1 and --repeats >= 1")
    for src in filter(None, (args.src, args.baseline)):
        if not os.path.isfile(os.path.join(src, "routedkl", "__init__.py")):
            parser.error(f"no routedkl package under {src}")
    if args.baseline:
        out = compare(args)
    else:
        out = measure_tree(args)
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(out, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
