"""Span masks, the coverage cap, the KL weight schedule, and the routed loss."""

import numpy as np

from routedkl import (
    RoutingConfig,
    lambda_schedule,
    rho,
    routed_loss_rows,
    schedule_weight_sums,
)
from routedkl.grpo import group_advantages
from routedkl.routing import coverage_cap

print("== span projection and the coverage cap ==")
# Tokens are atomic, so a span [start, end) marks positions start..end-1.
mask = np.zeros(12, dtype=np.int8)
for start, end in [(2, 4), (8, 9)]:
    mask[start:end] = 1
print("projected mask  ->", mask.tolist())
cap = coverage_cap(0.25, mask.size)
capped = mask * (np.cumsum(mask) <= cap)  # the lowest `cap` marked positions
print("after 25% cap   ->", capped.tolist(), f"({capped.sum()} of ceil(0.25*12)={cap})")

marked = tuple(np.flatnonzero(capped).tolist())
print("outcome 1 routes the mask to key spans:", marked)
print("outcome 0 routes the mask to error spans:", marked)

print("\n== decay schedule ==")
cfg = RoutingConfig()  # w0=0.5, flat 10 steps, 30-step ramp
for k in (0, 5, 10, 25, 40, 100):
    lam = lambda_schedule(k, cfg)
    print(f"k={k:3d}  lambda={lam:5.3f}  rho={rho(lam, cfg.w0):5.3f}")
l1, l2 = schedule_weight_sums(cfg)
print(f"sum lambda = {l1}, sum lambda^2 = {l2:.6f}  (finite: exposure stays bounded)")

print("\n== routed loss on a toy group ==")
rng = np.random.default_rng(0)
vocab, length = 6, 4
teacher = rng.dirichlet(np.ones(vocab))
outcomes = np.array([1, 1, 0])
student = np.empty((len(outcomes), length, vocab))
sampled = np.empty((len(outcomes), length), dtype=np.int64)
for i in range(len(outcomes)):
    student[i] = [rng.dirichlet(np.ones(vocab)) for _ in range(length)]
    sampled[i] = rng.integers(0, vocab, size=length)
in_span = np.zeros((len(outcomes), length), dtype=bool)
in_span[:, 1] = True  # both branches active: one teacher row per rollout
cfg = RoutingConfig(tau=10.0, alpha=0.5)
report, _, _ = routed_loss_rows(
    student=student,
    sampled=sampled,
    in_span=in_span,
    failed=outcomes == 0,
    kl_on=np.ones(len(outcomes), dtype=bool),
    teacher=np.tile(teacher, (len(outcomes), 1)),
    advantages=group_advantages(outcomes.astype(float)),
    lam=lambda_schedule(0, cfg),
    cfg=cfg,
)
print("total             ", round(report.total, 6))
print("  grpo nonspan    ", round(report.grpo_nonspan, 6))
print("  rho * grpo span ", round(report.rho * report.grpo_span, 6))
print("  lam * kl error  ", round(report.lam * report.kl_error_branch, 6))
print("  lam * kl key    ", round(report.lam * report.kl_key_branch, 6))
check = (
    report.grpo_nonspan
    + report.rho * report.grpo_span
    + report.lam * (report.kl_error_branch + report.kl_key_branch)
)
print("decomposition gap ", abs(report.total - check))
