"""Privileged-context variance, gradient deviation, and cumulative exposure.

The headline contrast: a persistent all-token KL channel accumulates
privileged-gradient exposure linearly forever, while the masked, decayed
channel freezes after the schedule closes.
"""

import numpy as np

from routedkl import (
    ExposureLedger,
    exposure_accumulate,
    rlsd_weight,
)
from routedkl.privileged import context_variance, deviation_vector, expected_deviation_sq
from routedkl.studies import exposure_dichotomy_study

print("== per-position privileged variance ==")
probs = np.array([0.5, 0.5])
dists = np.array([[0.8, 0.2], [0.6, 0.4]])  # one row per context, at one position
print("two contexts (0.8,0.2) and (0.6,0.4): V =", context_variance(probs, dists))

student = np.array([0.5, 0.5])
mean_dev = sum(probs[c] * deviation_vector(probs, dists, c, student) for c in range(2))
print("context-mean deviation (exact zero)  :", mean_dev)
print("E_c ||delta||^2 equals V exactly     :", expected_deviation_sq(probs, dists))

print("\n== ledger mechanics ==")
ledger = ExposureLedger()
for k in range(5):
    exposure_accumulate(ledger, k, lam=0.5, masked_variance_mean=0.02, deviation_sq_mean=0.02)
print("five steps at lambda=0.5:", round(ledger.exposure, 6), "(= 5 * 0.25 * 0.02)")
print(ledger.to_csv().splitlines()[0])
print(ledger.to_csv().splitlines()[-1])

print("\n== the dichotomy on a real task (stationary measurement) ==")
study = exposure_dichotomy_study(steps=400, seed=0, learning_rate=0.0)
for k in (50, 100, 200, 400):
    a = study.alltoken_exposure_at(k)
    r = study.routed_exposure_at(k)
    print(f"k={k:4d}  all-token {a:8.4f}   routed {r:8.4f}   ratio {a / r:6.1f}")
print("the routed column froze at the end of the decay window")

print("\n== per-token damping weight ==")
w = rlsd_weight(teacher_prob=0.02, student_prob=0.5, eps_w=0.2)
print(f"teacher 0.02 / student 0.5: raw {w.raw}, clipped {w.clipped}")
print("a correct but non-canonical token is damped to delta/p0 before clipping")
