"""End-to-end training runs: the corner inversion at reduced scale.

The full-scale orderings (10 seeds per regime, plus the lift study) run
in the acceptance suite; this demo reproduces the direction with three
seeds per regime in a few seconds.
"""

import numpy as np

from routedkl.studies import (
    CORNER_CONFIDENT_PARAMS,
    CORNER_LR,
    CORNER_STEPS,
    CORNER_UNDER_PARAMS,
    study_run_config,
)
from routedkl.runner import run_experiment

SEEDS = (0, 1, 2)
METHODS = ("routed_fkl_key", "routed_rkl_error", "grpo_only")


def run_regime(regime, params):
    print(f"\n== {regime} ==")
    finals = {m: [] for m in METHODS}
    for seed in SEEDS:
        for method in METHODS:
            cfg = study_run_config(
                method, regime, seed, params,
                steps=CORNER_STEPS[regime], learning_rate=CORNER_LR[regime],
            )
            log, _ = run_experiment(cfg)
            finals[method].append(log.summary["final_validation_reward"])
    for method in METHODS:
        vals = np.round(finals[method], 4)
        print(f"  {method:18s} final exact E[R] per seed: {vals.tolist()}")
    return finals


under = run_regime("under_allocated", CORNER_UNDER_PARAMS)
print("under-allocation favours forward KL on key spans:",
      all(f > g for f, g in zip(under["routed_fkl_key"], under["grpo_only"])))

cfg = study_run_config(
    "routed_fkl_key", "under_allocated", 0, CORNER_UNDER_PARAMS,
    steps=CORNER_STEPS["under_allocated"], learning_rate=CORNER_LR["under_allocated"],
)
log, _ = run_experiment(cfg)
print(f"credit concentration inside spans vs outside "
      f"({log.summary['credit_norm']} update magnitude): "
      f"{log.summary['mean_credit_concentration']:.2f}x")

confident = run_regime("confident_wrong", CORNER_CONFIDENT_PARAMS)
print("confident-wrong favours reverse KL on error spans:",
      all(r > g for r, g in zip(confident["routed_rkl_error"], confident["grpo_only"])))

print("\nThe corner action is regime-dependent; a run log with per-step")
print("reward, entropy, schedule, exposure, and lift columns is written")
print("when a config sets an output directory (see the CLI).")
