"""Runtime invariant suite behind the ``verify`` CLI subcommand.

A fast, self-contained sweep over the load-bearing identities: analytic
gradients vs finite differences, the score-operator equality, schedule
sums, dead-zone preservation, endpoint dominance, flow dynamics, damping,
and the exposure dichotomy at reduced scale. Prints one PASS/FAIL line
per check and returns the number of failures.
"""

from __future__ import annotations

import numpy as np

from .divergence import fkl_logit_grad, kl, rkl_logit_grad
from .grpo import group_advantages
from .policy import softmax
from .routing import RoutingConfig, lambda_schedule, routed_loss_rows, schedule_weight_sums
from .runner import RunConfig, run_experiment
from .studies import (
    CORNER_UNDER_PARAMS,
    STUDY_ROUTING,
    exposure_dichotomy_study,
)
from .theory import (
    CornerInstance,
    corner_best_action,
    corner_grid_argmax,
    natural_flow_closed_form,
    natural_gradient_flow,
    score_operator_check,
)
from .privileged import rlsd_weight


def _fd_kl_grad(student_logits, teacher, forward: bool, h: float = 1e-6):
    grad = np.zeros_like(student_logits)
    for v in range(student_logits.size):
        for sign in (1.0, -1.0):
            shifted = student_logits.copy()
            shifted[v] += sign * h
            p = softmax(shifted)
            val = kl(teacher, p) if forward else kl(p, teacher)
            grad[v] += sign * val / (2 * h)
    return grad


def run_checks(fast: bool = False, report=print) -> int:
    rng = np.random.default_rng(0)
    failures = 0

    def check(name: str, ok: bool, detail: str = "") -> None:
        nonlocal failures
        status = "PASS" if ok else "FAIL"
        suffix = f" ({detail})" if detail else ""
        report(f"[{status}] {name}{suffix}")
        if not ok:
            failures += 1

    # Gradient identities vs central finite differences.
    n = 40 if fast else 200
    worst = 0.0
    for _ in range(n):
        v = int(rng.integers(2, 16))
        logits = rng.normal(size=v)
        teacher = rng.dirichlet(np.ones(v))
        student = softmax(logits)
        for forward in (True, False):
            analytic = (
                fkl_logit_grad(student, teacher)
                if forward
                else rkl_logit_grad(student, teacher)
            )
            fd = _fd_kl_grad(logits, teacher, forward)
            scale = max(1.0, float(np.abs(fd).max()))
            worst = max(worst, float(np.abs(analytic - fd).max()) / scale)
    check("analytic KL gradients match finite differences", worst < 1e-5,
          f"worst rel err {worst:.2e}")

    # Zero-sum gradients.
    sums = []
    for _ in range(200):
        v = int(rng.integers(2, 32))
        s = rng.dirichlet(np.ones(v))
        t = rng.dirichlet(np.ones(v))
        sums.append(abs(fkl_logit_grad(s, t).sum()))
        sums.append(abs(rkl_logit_grad(s, t).sum()))
    check("KL gradients are zero-sum", max(sums) < 1e-10, f"max |sum| {max(sums):.1e}")

    # Score-operator equality.
    worst = 0.0
    for _ in range(200):
        v = int(rng.integers(2, 32))
        a = rng.normal(size=v)
        a -= a.mean()
        p = rng.dirichlet(np.ones(v))
        lhs, rhs = score_operator_check(a, p)
        worst = max(worst, abs(lhs - rhs))
    check("score-operator bound holds with equality", worst < 1e-12,
          f"max |lhs-rhs| {worst:.1e}")

    # Schedule constants.
    cfg = RoutingConfig()
    l1, l2 = schedule_weight_sums(cfg)
    d1, d2 = schedule_weight_sums(cfg, horizon=1000)
    check("schedule closed forms match direct summation",
          abs(l1 - d1) < 1e-12 and abs(l2 - d2) < 1e-12,
          f"L1={l1}, L2={l2}")
    check("schedule point values", lambda_schedule(5, cfg) == 0.5
          and abs(lambda_schedule(25, cfg) - 0.25) < 1e-12
          and lambda_schedule(100, cfg) == 0.0)

    # Dead-zone preservation.
    adv = group_advantages(np.ones(4))
    check("uniform-reward group has zero advantages", bool(np.all(adv == 0.0)))
    student = np.tile(rng.dirichlet(np.ones(6)), (1, 3, 1))
    teacher = rng.dirichlet(np.ones(6))[None]  # the one key-span position
    cfg = RoutingConfig(tau=10.0, alpha=0.5)
    _, rows, grads = routed_loss_rows(
        student=student,
        sampled=np.array([[0, 1, 2]]),
        in_span=np.array([[False, True, False]]),
        failed=np.array([False]),
        kl_on=np.array([True]),
        teacher=teacher,
        advantages=np.zeros(1),
        lam=lambda_schedule(0, cfg),
        cfg=cfg,
    )
    check("dead zone: routed update lives on key positions only",
          rows.tolist() == [1] and np.abs(grads[0]).max() > 0)

    # Endpoint dominance and threshold classifier.
    mismatches = 0
    n = 100 if fast else 300
    for _ in range(n):
        dim = 5
        inst = CornerInstance(
            g0=rng.normal(size=dim),
            g1=rng.normal(size=dim),
            g_null=rng.normal(size=dim),
            g_tilde=rng.normal(size=dim),
            kappa=float(rng.uniform(0, 2)),
            v_t=float(rng.uniform(0.05, 1.0)),
        )
        if abs(np.dot(inst.g1 - inst.g0, inst.g_tilde)) < 1e-6:
            continue
        grid = corner_grid_argmax(inst)
        if grid is not None and grid not in (0.0, 1.0):
            mismatches += 1
        if grid != corner_best_action(inst):
            mismatches += 1
    check("interior divergence mixing never wins", mismatches == 0)

    # Natural-gradient flow vs closed form, and mass monotonicity.
    p0 = rng.dirichlet(np.ones(4))
    pt = rng.dirichlet(np.ones(4))
    traj = natural_gradient_flow(p0, pt, dt=1e-3, horizon=2.0)
    err = float(np.abs(traj[-1] - natural_flow_closed_form(p0, pt, 2.0)).max())
    check("Euler flow matches the closed form", err < 1e-3, f"err {err:.1e}")
    mono = True
    for _ in range(50):
        p0 = rng.dirichlet(np.ones(5))
        pt = rng.dirichlet(np.ones(5))
        u = rng.integers(0, 2, size=5).astype(bool)
        traj = natural_gradient_flow(p0, pt, dt=0.1, horizon=2.0)
        gaps = np.abs(traj[:, u].sum(axis=1) - pt[u].sum())
        if np.any(np.diff(gaps) > 1e-12):
            mono = False
    check("set mass converges monotonically under the flow", mono)

    # Damping of the probability-ratio weight.
    ok = True
    for delta in (0.01, 0.05, 0.1):
        for p_0 in (0.2, 0.5, 0.9):
            w = rlsd_weight(delta, p_0, eps_w=0.2)
            ok = ok and w.raw <= delta / p_0 + 1e-12 and w.clipped >= 0.8
    check("probability-ratio damping bounds", ok)

    # Exposure dichotomy at reduced scale.
    study = exposure_dichotomy_study(steps=120 if fast else 300, seed=0)
    lin = study.alltoken_exposure_at(100) / study.alltoken_exposure_at(50)
    frozen = study.routed_exposure_at(100) == study.routed_exposure_at(60)
    check("all-token exposure grows, routed exposure freezes",
          1.9 < lin < 2.1 and frozen, f"growth {lin:.3f}")

    # Reduction: post-decay routed loss equals plain GRPO.
    if not fast:
        cfg = RunConfig(
            method="grpo_only",
            regime="under_allocated",
            seed=3,
            steps=5,
            routing=STUDY_ROUTING,
            task_params=CORNER_UNDER_PARAMS,
            learning_rate=0.5,
        )
        log_a, _ = run_experiment(cfg)
        log_b, _ = run_experiment(cfg)
        check("identical config and seed reproduce identical logs",
              log_a.to_csv() == log_b.to_csv())

    report(f"{failures} failure(s)")
    return failures
