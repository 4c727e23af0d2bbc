"""Training-step benchmark for routedkl; see perfbench/README.md.

    python3 perfbench/run.py --workload corner --seed 1 --seconds 20 --trace 0

Runs one workload in a fresh worker process and prints every metric by
name with its unit, then, as the last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` a second, traced
worker runs after the untraced one and the metrics are the per-layer ones.
The program is imported from ``src/`` beside this directory; without it
the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import probe  # noqa: E402
import refkernel  # noqa: E402
import tracer as tracing  # noqa: E402
from worker import WORKLOADS  # noqa: E402

END_TO_END = {
    "step_cost_ref": "ref/step",
    "step_ref_p50": "ref",
    "step_ref_p99": "ref",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
IMPORT_PROBES = 5  # before and again after the worker, so set-up samples span the run
TIME_LIMIT_S = 170.0


class BenchError(Exception):
    """The benchmark could not measure; no result is printed."""


def _run(cmd: list[str], deadline: float) -> str:
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"timed out: {' '.join(cmd)}") from exc
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd[:3])} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc.stdout


def import_probes(deadline: float) -> list[tuple[float, float]]:
    """(import seconds, reference-kernel seconds) from fresh interpreters."""
    out = []
    for _ in range(IMPORT_PROBES):
        text = _run([sys.executable, str(HERE / "probe.py")], deadline)
        elapsed, kernel = (float(x) for x in text.split())
        out.append((elapsed, kernel))
    return out


def run_worker(args, mode: str, tmp: Path, deadline: float) -> dict:
    _run([sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
          "--seed", str(args.seed), "--seconds", str(args.seconds),
          "--mode", mode, "--tmp", str(tmp)], deadline)
    with open(tmp / f"result-{mode}.json") as fh:
        return json.load(fh)


# ----- metrics -------------------------------------------------------------------


def step_costs(res: dict) -> dict:
    """Step times in reference units, from the clock records of one worker.

    The clock runs the reference kernel right after every step, so step i
    is divided by reference sample i.
    """
    step = np.array(res["step_t1"]) - np.array(res["step_t0"])
    ref = np.array(res["ref_s"])
    if step.size == 0 or ref.size != step.size:
        raise BenchError(f"{step.size} steps but {ref.size} reference samples")
    per_step = step / ref
    return {
        "step_cost_ref": float(step.sum() / ref.sum()),
        "step_ref_p50": float(np.percentile(per_step, 50)),
        "step_ref_p99": float(np.percentile(per_step, 99)),
        "ref_mean_s": float(ref.mean()),
        "ref_ms": float(np.median(ref) * 1e3),
        "n_steps": int(step.size),
    }


def steps_per_s(res: dict) -> float:
    """Steps over the time from each unit's first step to its end, less reference time."""
    steps, wall = 0, 0.0
    for unit in res["units"]:
        first, end = unit["first_step"], unit["end_step"]
        if end > first:
            steps += end - first
            wall += unit["t_end"] - res["step_t0"][first] - sum(res["ref_s"][first:end])
    return steps / wall


def failures(res: dict) -> tuple[int, int, list[str]]:
    runs = res["runs"]
    bad = [f"{r['label']} (cycle {r['cycle']}): {'; '.join(r['problems'])}" for r in runs if r["problems"]]
    return len(runs), len(bad), bad


def setup_seconds(res: dict, probes: list[tuple[float, float]]) -> tuple[float, float]:
    """Set-up time, raw and at the reference machine's speed.

    Import time is divided by the pure-Python kernel timed around it, and
    ``init_run`` time by the worker's reference samples; each ratio is then
    scaled by its kernel's nominal time, so host drift cancels.
    """
    import_raw = statistics.median(e for e, _ in probes)
    init_raw = statistics.median(c["setup_s"] for c in res["cycles"])
    import_ref = statistics.median(e / k for e, k in probes)
    init_ref = init_raw / float(np.median(res["ref_s"]))
    return (import_ref * probe.NOMINAL_S + init_ref * refkernel.NOMINAL_S,
            import_raw + init_raw)


def end_to_end(res: dict, probes: list[tuple[float, float]]) -> tuple[dict, dict]:
    costs = step_costs(res)
    setup, costs["setup_raw_s"] = setup_seconds(res, probes)
    metrics = {
        "step_cost_ref": costs["step_cost_ref"],
        "step_ref_p50": costs["step_ref_p50"],
        "step_ref_p99": costs["step_ref_p99"],
        "setup_s": setup,
        "peak_rss_mb": res["peak_rss_mb"],
    }
    return metrics, costs


def per_layer(plain: dict, traced: dict) -> tuple[dict, dict]:
    plain_costs, costs = step_costs(plain), step_costs(traced)
    info = traced["trace"]
    cycles = traced["cycles"]
    with np.load(info["spans"]) as spans:
        trace = {key: spans[key] for key in spans.files}
    first = cycles[0]
    metrics = tracing.layer_metrics(
        trace,
        window_all=(cycles[0]["span_lo"], cycles[-1]["span_hi"]),
        window_count=(first["span_lo"], first["span_hi"]),
        steps_all=costs["n_steps"],
        steps_count=first["end_step"] - first["first_step"],
        ref_mean_s=costs["ref_mean_s"],
        counters=info["counters"],
        runs=info["runs"],
        bytes_written=info["bytes_written"],
    )
    metrics["trace.overhead"] = costs["step_cost_ref"] / plain_costs["step_cost_ref"]
    metrics["trace.ref_ms"] = costs["ref_ms"]
    return metrics, costs


LAYER_UNITS = {name: tracing.metric_unit(name) for name in tracing.LAYER_METRICS}
LAYER_UNITS.update({"trace.overhead": "ratio", "trace.ref_ms": "ms"})


# ----- main ----------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "routedkl" / "__init__.py").is_file():
        print(f"routedkl sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("--seed must be nonnegative", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    tmp = ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    (tmp / "plain").mkdir(parents=True)
    (tmp / "traced").mkdir()
    try:
        if args.trace == 0:
            probes = import_probes(deadline)
            plain = run_worker(args, "plain", tmp / "plain", deadline)
            probes += import_probes(deadline)
            metrics, costs = end_to_end(plain, probes)
            units = END_TO_END
            results = [plain]
            print(f"setup raw {costs['setup_raw_s']:.4f} s (median import of {len(probes)} "
                  f"interpreters plus median init_run per cycle)")
            # Raw throughput follows the host's speed, which drifts by up to
            # 2x here, so it is shown but not part of the result.
            print(f"steps_per_s {steps_per_s(plain):.6g} steps/s (raw, host-dependent)")
        else:
            plain = run_worker(args, "plain", tmp / "plain", deadline)
            traced = run_worker(args, "traced", tmp / "traced", deadline)
            metrics, costs = per_layer(plain, traced)
            units = LAYER_UNITS
            results = [plain, traced]
            if traced["trace"]["coverage_errors"]:
                print("tracer coverage errors:", *traced["trace"]["coverage_errors"][:5], sep="\n  ")
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass

    attempted = failed = 0
    for res in results:
        n, bad, lines = failures(res)
        attempted += n
        failed += bad
        for line in lines[:10]:
            print(f"failed run [{res['mode']}]: {line}")
    coverage_ok = args.trace == 0 or not results[1]["trace"]["coverage_errors"]
    print(f"workload {args.workload} seed {args.seed}: {costs['n_steps']} steps, "
          f"{len(results[-1]['cycles'])} cycles, "
          f"ref_ms {costs['ref_ms']:.4f}")
    print(f"failed_runs {failed}/{attempted} = {failed / attempted:.4f} share")
    for name, value in metrics.items():
        print(f"{name:24s} {value:14.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0 and coverage_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
