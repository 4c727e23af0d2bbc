"""One measured workload process, started by ``run.py``.

    python3 perfbench/worker.py --workload corner --seed 0 --seconds 10 \\
        --mode plain --tmp .perfbench_tmp/x

In ``plain`` mode the only change made to the library is a clock around
``runner.train_step`` that also runs the reference kernel after every
step; the worker checks that no other binding moved. In ``traced``
mode every public function of every ``routedkl`` module is wrapped as well
(see ``tracer.py``) and the spans are saved to ``spans.npz``.

A workload runs in cycles. Cycle ``c`` uses its own config seeds, derived
from ``--seed`` and ``c``, so the same seed gives the same inputs and no
two cycles repeat work. Cycles run until ``--seconds`` of unit time have
passed and at least ``MIN_STEPS`` steps were taken; the last cycle always
completes, so the mix of methods in every run is whole. Output checks run between cycles and are not timed.
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import io
import json
import resource
import shutil
import sys
import time
import traceback
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from refkernel import ReferenceKernel  # noqa: E402
from tracer import REF_SPAN, Tracer, package_modules  # noqa: E402

SEEDS_PER_RUN = 1000  # cycle c of --seed n uses config seeds from n * 1000 + c
REFERENCE_SEED = 0  # the --seed whose first cycles are checked against reference.json
REFERENCE_CYCLES = 4
MIN_STEPS = 1000  # so that at least ten steps lie beyond the p99

DEEP_CLI_INI = """\
[run]
regime = mixed
steps = {steps}
group_size = 8
learning_rate = 0.5
emit_plot_data = true

[routing]
w0 = 2.0
t_start = 10
t_decay = 50
sync_n = 10
tau = 10.0
alpha = 0.25

[task]
vocab = 8
horizon = 6

[sweep]
method = routed_both, rlsd_weighted
seed = {seed_a}, {seed_b}
"""
DEEP_CLI_STEPS = 120


class StepClock:
    """Times every ``train_step`` call and runs the reference kernel after it.

    The kernel times itself, so span bookkeeping around it in traced mode
    does not count as reference time.
    """

    def __init__(self, kernel, tracer: Tracer | None) -> None:
        self.kernel = kernel if tracer is None else tracer.wrap(REF_SPAN, kernel)
        self.step_t0, self.step_t1, self.ref_s = array("d"), array("d"), array("d")
        self.states: list = []

    @property
    def n_steps(self) -> int:
        return len(self.step_t0)

    def wrap(self, train_step):
        clock = time.perf_counter

        def clocked_train_step(state):
            t0 = clock()
            row = train_step(state)
            t1 = clock()
            self.step_t0.append(t0)
            self.step_t1.append(t1)
            if not self.states or self.states[-1] is not state:
                self.states.append(state)
            self.ref_s.append(self.kernel())
            return row

        return clocked_train_step


def bindings(package) -> dict:
    """Identity of every attribute of every module and class in ``package``."""
    out = {}
    for mod in package_modules(package):
        for name, obj in vars(mod).items():
            out[f"{mod.__name__}.{name}"] = id(obj)
            if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                for attr, value in vars(obj).items():
                    out[f"{mod.__name__}.{name}.{attr}"] = id(value)
    return out


# ----- workloads ----------------------------------------------------------------


def _last_line(text: str) -> str:
    return text.strip().splitlines()[-1]


class Workload:
    """Cycles of units; a unit is one call a user would make.

    ``run_cycle`` returns the units as (first step, end step, start time,
    end time), one result dict per training run, the set-up seconds and
    the bytes of artifacts written. ``check`` turns the results into
    (label, problems, summary) triples.
    """

    def __init__(self, lib, seed: int, tmp: Path) -> None:
        self.lib = lib
        self.seed = seed
        self.tmp = tmp

    def config_seed(self, cycle: int) -> int:
        return self.seed * SEEDS_PER_RUN + cycle

    @staticmethod
    def label(cfg) -> str:
        return f"{cfg.method}/{cfg.regime}/seed{cfg.seed}"

    def check(self, results, brute, reference) -> list:
        out = []
        for res in results:
            cfg, label = res["cfg"], self.label(res["cfg"])
            if res["error"] is not None:
                out.append((label, [f"run failed: {_last_line(res['error'])}"], None))
                continue
            try:
                summary, problems = self.outputs(res)
            except OSError as exc:
                out.append((label, [f"missing output: {exc}"], None))
                continue
            problems += checks.summary_problems(summary, cfg.method != "grpo_only")
            if res["state"] is None:
                problems.append("no train_step seen for this run")
            else:
                problems += checks.brute_force_problems(
                    brute, res["state"].task, res["state"].table, summary["final_validation_reward"]
                )
            if reference is not None:
                problems += checks.reference_problems(reference, label, summary)
            out.append((label, problems, summary))
        return out


class StudyWorkload(Workload):
    """Runs through ``init_run`` + ``run_experiment``, one unit per run."""

    def configs(self, cycle: int) -> list:
        raise NotImplementedError

    def run_cycle(self, cycle, clock, tracer, setup_timed):
        runner = self.lib.runner
        units, results, setup = [], [], 0.0
        for cfg in self.configs(cycle):
            res = {"cfg": cfg, "log": None, "state": None, "error": None}
            first = clock.n_steps
            t0 = time.perf_counter()
            try:
                if tracer is not None:
                    tracer.on = True
                state = runner.init_run(cfg)
                setup += time.perf_counter() - t0
                res["log"], res["state"] = runner.run_experiment(cfg, state)
            except Exception:
                res["error"] = traceback.format_exc()
            finally:
                if tracer is not None:
                    tracer.on = False
            units.append((first, clock.n_steps, t0, time.perf_counter()))
            results.append(res)
        return units, results, setup, 0

    def outputs(self, res):
        log = res["log"]
        return log.summary, checks.csv_problems(log.to_csv(), f"{self.label(res['cfg'])}.csv")


class Corner(StudyWorkload):
    """The corner-inversion matrix of ``studies.corner_inversion_study``."""

    def configs(self, cycle):
        st = self.lib.studies
        seed = self.config_seed(cycle)
        return [
            st.study_run_config(
                method, regime, seed, params,
                steps=st.CORNER_STEPS[regime], learning_rate=st.CORNER_LR[regime],
            )
            for regime, params in (
                ("under_allocated", st.CORNER_UNDER_PARAMS),
                ("confident_wrong", st.CORNER_CONFIDENT_PARAMS),
            )
            for method in ("routed_fkl_key", "routed_rkl_error", "grpo_only")
        ]


class AllToken(StudyWorkload):
    """The persistent all-token arm of ``studies.lift_ordering_study``."""

    def configs(self, cycle):
        st = self.lib.studies
        return [st.study_run_config(
            "alltoken_kl_persistent", "under_allocated", self.config_seed(cycle),
            st.LIFT_PARAMS, steps=st.LIFT_STEPS, learning_rate=st.LIFT_LR,
            teacher_sync="frozen", routing=st.LIFT_ROUTING, group_size=st.LIFT_GROUP,
        )]


class DeepCli(Workload):
    """``routedkl sweep`` on a written INI: mixed regime, horizon 6."""

    def config_seed(self, cycle: int) -> int:
        return self.seed * SEEDS_PER_RUN + 2 * cycle

    def configs(self, cycle, out_dir):
        """The configs the cycle's INI should parse to; each summary's
        config hash is checked against them."""
        lib = self.lib
        a = self.config_seed(cycle)
        routing = lib.routing.RoutingConfig(w0=2.0, t_start=10, t_decay=50, sync_n=10, tau=10.0, alpha=0.25)
        return [
            lib.runner.RunConfig(
                method=method, regime="mixed", seed=seed, steps=DEEP_CLI_STEPS,
                group_size=8, learning_rate=0.5, routing=routing,
                task_params=lib.tasks.TaskParams(vocab=8, horizon=6),
                out_dir=out_dir, emit_plot_data=True,
            )
            for method in ("routed_both", "rlsd_weighted")
            for seed in (a, a + 1)
        ]

    def run_cycle(self, cycle, clock, tracer, setup_timed):
        cycle_dir = self.tmp / f"cycle-{cycle}"
        out_dir = cycle_dir / "out"
        cycle_dir.mkdir(parents=True)
        a = self.config_seed(cycle)
        ini = cycle_dir / "sweep.ini"
        ini.write_text(DEEP_CLI_INI.format(steps=DEEP_CLI_STEPS, seed_a=a, seed_b=a + 1))
        cfgs = self.configs(cycle, str(out_dir))
        setup = 0.0
        if setup_timed:
            # The sweep sets its runs up inside cli.main; set up the same
            # runs here, outside the unit, to time that cost.
            for cfg in cfgs:
                t0 = time.perf_counter()
                self.lib.runner.init_run(cfg)
                setup += time.perf_counter() - t0
        first, n_states = clock.n_steps, len(clock.states)
        stdout = io.StringIO()
        error = None
        t0 = time.perf_counter()
        try:
            if tracer is not None:
                tracer.on = True
            with contextlib.redirect_stdout(stdout):
                code = self.lib.cli.main(["sweep", str(ini), "--out", str(out_dir)])
            if code != 0:
                error = f"cli exited {code}"
        except Exception:
            error = traceback.format_exc()
        finally:
            if tracer is not None:
                tracer.on = False
        units = [(first, clock.n_steps, t0, time.perf_counter())]
        states = {(s.cfg.method, s.cfg.seed): s for s in clock.states[n_states:]}
        results = [
            {"cfg": cfg, "state": states.get((cfg.method, cfg.seed)),
             "stdout": stdout.getvalue(), "error": error}
            for cfg in cfgs
        ]
        written = sum(p.stat().st_size for p in out_dir.glob("*")) if out_dir.exists() else 0
        return units, results, setup, written

    def outputs(self, res):
        cfg = res["cfg"]
        stem = Path(cfg.out_dir) / f"{cfg.method}_{cfg.regime}_seed{cfg.seed}"
        summary = json.loads(Path(f"{stem}_summary.json").read_text())
        problems = []
        names = [f"{stem}.csv", f"{stem}_long.csv"]
        if Path(f"{stem}_ledger.csv").exists():
            names.append(f"{stem}_ledger.csv")
        for name in names:
            problems += checks.csv_problems(Path(name).read_text(), Path(name).name)
        if summary.get("config_hash") != cfg.config_hash():
            problems.append("summary config_hash differs from the intended config")
        line = (f"method={cfg.method} regime={cfg.regime} seed={cfg.seed} "
                f"final_reward={summary['final_validation_reward']!r}")
        if line not in res["stdout"].splitlines():
            problems.append("sweep did not print the summary's final reward")
        return summary, problems


WORKLOADS = {"corner": Corner, "alltoken": AllToken, "deep-cli": DeepCli}


# ----- main ----------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("plain", "traced"), required=True)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--cycles", type=int, default=None,
                        help="run exactly this many cycles instead of timing")
    parser.add_argument("--record", default=None,
                        help="write the checked summaries here instead of comparing them")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import routedkl
    import routedkl.cli
    import routedkl.studies

    tmp = Path(args.tmp)
    traced = args.mode == "traced"
    tracer = Tracer() if traced else None
    before = bindings(routedkl)
    if traced:
        tracer.install(routedkl)
    clock = StepClock(ReferenceKernel(), tracer)
    routedkl.runner.train_step = clock.wrap(routedkl.runner.train_step)
    after = bindings(routedkl)
    changed = sorted(k for k in after if before.get(k) != after[k])
    if not traced and changed != ["routedkl.runner.train_step"]:
        raise SystemExit(f"plain mode must patch only runner.train_step, patched {changed}")

    workload = WORKLOADS[args.workload](routedkl, args.seed, tmp)
    reference = {} if args.record else checks.load_reference().get(args.workload, {})
    recorded = {}
    brute = checks.BruteForce()
    cycles, runs, units = [], [], []
    trace_info = {}
    measured = 0.0
    cycle = 0
    while (cycle < args.cycles) if args.cycles else (measured < args.seconds or clock.n_steps < MIN_STEPS):
        span_lo = tracer.span_count() if traced else 0
        cycle_units, results, setup, written = workload.run_cycle(cycle, clock, tracer, not traced)
        measured += sum(t1 - t0 for _, _, t0, t1 in cycle_units)
        cycles.append({"setup_s": setup, "first_step": cycle_units[0][0], "end_step": clock.n_steps,
                       "span_lo": span_lo, "span_hi": tracer.span_count() if traced else 0})
        units += [{"first_step": f, "end_step": e, "t_end": t1} for f, e, _, t1 in cycle_units]
        if traced and cycle == 0:
            trace_info = {"counters": dict(tracer.counters), "runs": list(tracer.finished_runs),
                          "bytes_written": written}
        checked = args.seed == REFERENCE_SEED and cycle < REFERENCE_CYCLES
        compare = reference if checked and args.record is None else None
        for label, problems, summary in workload.check(results, brute, compare):
            runs.append({"label": label, "cycle": cycle, "problems": problems})
            if checked and summary is not None:
                recorded[label] = {key: summary[key] for key in checks.REFERENCE_KEYS}
        brute.forget()
        clock.states.clear()
        if traced:
            tracer.forget_tables()
        shutil.rmtree(tmp / f"cycle-{cycle}", ignore_errors=True)
        cycle += 1

    if args.record is not None:
        path = Path(args.record)
        stored = json.loads(path.read_text()) if path.exists() else {}
        stored[args.workload] = recorded
        path.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "mode": args.mode,
        "patched": changed,
        "step_t0": list(clock.step_t0),
        "step_t1": list(clock.step_t1),
        "ref_s": list(clock.ref_s),
        "units": units,
        "cycles": cycles,
        "runs": runs,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if traced:
        tracer.save(str(tmp / "spans.npz"))
        trace_info["spans"] = str(tmp / "spans.npz")
        trace_info["coverage_errors"] = tracer.coverage_errors
        result["trace"] = trace_info
    with open(tmp / f"result-{args.mode}.json", "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
