"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

Checks that BENCHMARK.json declares the metrics the benchmark prints,
that the reference kernel never imports the library, that the tracer
rebinds every import site of a public function, that the
untraced worker changes no binding but ``runner.train_step``, that two
traced runs of one seed give identical count metrics with no coverage
error, and that each step is divided by the reference sample after it. Each
worker runs exactly one cycle, so the whole file takes well under a
minute. Exits 1 on the first failure.
"""

from __future__ import annotations

import inspect
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer as tracing  # noqa: E402

COUNT_KINDS = ("calls", "layer_calls", "counter", "frac", "run", "bytes")


def worker(tmp: Path, mode: str, workload: str = "corner", seed: int = 7) -> dict:
    tmp.mkdir(parents=True)
    subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--cycles", "1", "--mode", mode, "--tmp", str(tmp)],
        cwd=ROOT, check=True,
    )
    return json.loads((tmp / f"result-{mode}.json").read_text())


def test_reference_kernel_is_independent() -> None:
    code = ("import sys; sys.path.insert(0, 'perfbench'); import refkernel; "
            "refkernel.ReferenceKernel()(); assert not any(m.startswith('routedkl') for m in sys.modules)")
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True)


def test_every_binding_site_wrapped() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import routedkl

    tracing.Tracer().install(routedkl)
    missed = [
        f"{mod.__name__}.{name}"
        for mod in tracing.package_modules(routedkl)
        for name, obj in vars(mod).items()
        if inspect.isfunction(obj) and not name.startswith("_")
        and obj.__module__.startswith("routedkl") and not hasattr(obj, "__wrapped__")
    ]
    assert not missed, missed


def test_plain_patches_only_train_step(tmp: Path) -> None:
    res = worker(tmp / "plain", "plain")
    assert res["patched"] == ["routedkl.runner.train_step"], res["patched"]
    assert all(not r["problems"] for r in res["runs"]), res["runs"]


def test_traced_counts_repeat(tmp: Path) -> None:
    plain = worker(tmp / "plain2", "plain")
    counts = []
    for i in (1, 2):
        traced = worker(tmp / f"traced{i}", "traced")
        assert not traced["trace"]["coverage_errors"], traced["trace"]["coverage_errors"]
        metrics, _ = run.per_layer(plain, traced)
        counts.append({k: v for k, v in metrics.items()
                       if k in tracing.LAYER_METRICS and tracing.LAYER_METRICS[k][0] in COUNT_KINDS})
    assert counts[0] == counts[1], (counts[0], counts[1])
    assert counts[0]["grpo.token_calls"] > 0 and counts[0]["policy.softmax_calls"] > 0, counts[0]


def test_declared_metrics_match() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    assert declared == run.END_TO_END, (declared, run.END_TO_END)
    declared = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert declared == run.LAYER_UNITS, (declared, run.LAYER_UNITS)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)


def test_step_reference_pairing() -> None:
    res = {
        "step_t0": [0.0, 1.0, 2.0, 3.0], "step_t1": [0.5, 1.5, 2.5, 3.5],
        # One sample after each step, taking 0.1, 0.1, 0.2 and 0.2 seconds.
        "ref_s": [0.1, 0.1, 0.2, 0.2],
    }
    costs = run.step_costs(res)
    assert abs(costs["step_ref_p50"] - (5.0 + 2.5) / 2) < 1e-9, costs
    assert abs(costs["step_cost_ref"] - 2.0 / 0.6) < 1e-9, costs


def main() -> int:
    tmp = ROOT / ".perfbench_tmp" / f"selftest-{os.getpid()}"
    tests = [
        ("reference kernel independent", test_reference_kernel_is_independent),
        ("declared metrics match BENCHMARK.json", test_declared_metrics_match),
        ("step and reference pairing", test_step_reference_pairing),
        ("every import site wrapped", test_every_binding_site_wrapped),
        ("plain patches only train_step", lambda: test_plain_patches_only_train_step(tmp)),
        ("traced counts repeat", lambda: test_traced_counts_repeat(tmp)),
    ]
    try:
        for name, test in tests:
            test()
            print(f"ok   {name}")
    except (AssertionError, subprocess.CalledProcessError) as exc:
        print(f"FAIL {name}: {exc}")
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
