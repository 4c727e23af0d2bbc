"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report. The heavier experiments (exposure, corner inversion, lift
ordering) run at their stated scales and tolerances.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from routedkl.divergence import fkl_logit_grad, rkl_logit_grad
from routedkl.grpo import group_advantages
from routedkl.policy import softmax
from routedkl.privileged import rlsd_weight
from routedkl.routing import (
    RoutingConfig,
    coverage_cap,
    lambda_schedule,
    routed_loss_rows,
    schedule_weight_sums,
)
from routedkl.runner import init_run, run_experiment, train_step
from routedkl.studies import (
    CORNER_LR,
    CORNER_UNDER_PARAMS,
    STUDY_ROUTING,
    alignment_threshold_study,
    corner_inversion_study,
    exposure_dichotomy_study,
    lift_ordering_study,
    study_run_config,
)
from routedkl.tasks import generate_task, oracle_annotate, sample_group
from routedkl.theory import (
    CornerInstance,
    corner_best_action,
    corner_grid_argmax,
    corner_utility,
    euclidean_fkl_descent_step,
    natural_flow_closed_form,
    natural_gradient_flow,
    score_operator_check,
)

from oracles import fd_kl_logit_grad


def _report(num: int, name: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {num:02d}] PASS {name}{suffix}")


def test_criterion_01_gradient_identities():
    rng = np.random.default_rng(101)
    start = time.monotonic()
    worst_rel = 0.0
    worst_sum = 0.0
    for _ in range(1000):
        v = int(rng.integers(2, 65))
        logits = rng.normal(scale=1.5, size=v)
        student = softmax(logits)
        teacher = rng.dirichlet(np.ones(v)) + 1e-3
        teacher /= teacher.sum()
        forward = fkl_logit_grad(student, teacher)
        reverse = rkl_logit_grad(student, teacher)
        worst_sum = max(worst_sum, abs(forward.sum()), abs(reverse.sum()))
        fd_f = fd_kl_logit_grad(logits, teacher, True)
        fd_r = fd_kl_logit_grad(logits, teacher, False)
        scale_f = max(1.0, np.abs(fd_f).max())
        scale_r = max(1.0, np.abs(fd_r).max())
        worst_rel = max(
            worst_rel,
            np.abs(forward - fd_f).max() / scale_f,
            np.abs(reverse - fd_r).max() / scale_r,
        )
    elapsed = time.monotonic() - start
    assert worst_rel < 1e-5
    assert worst_sum < 1e-10
    assert elapsed < 5.0
    _report(1, "analytic KL gradients match finite differences",
            f"worst rel {worst_rel:.1e}, worst |sum| {worst_sum:.1e}, {elapsed:.1f}s")


def test_criterion_02_score_operator_identity():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(1000):
        v = int(rng.integers(2, 48))
        a = rng.normal(size=v)
        a -= a.mean()
        dist = rng.dirichlet(np.ones(v))
        lhs, rhs = score_operator_check(a, dist)
        worst = max(worst, abs(lhs - rhs))
    assert worst < 1e-12
    _report(2, "score-operator bound is an equality at C_s = 1", f"worst gap {worst:.1e}")


def test_criterion_03_dead_zone_preservation():
    rng = np.random.default_rng(103)
    vocab, length, g = 6, 4, 4
    teacher = rng.dirichlet(np.ones(vocab))
    student = np.empty((g, length, vocab))
    sampled = np.empty((g, length), dtype=np.int64)
    for i in range(g):
        student[i] = [rng.dirichlet(np.ones(vocab)) for _ in range(length)]
        sampled[i] = rng.integers(0, vocab, size=length)
    in_span = np.zeros((g, length), dtype=bool)
    in_span[:, 1] = True  # one key span per accepted rollout
    advantages = group_advantages(np.ones(g))
    assert np.all(advantages == 0.0)

    cfg = RoutingConfig(tau=10.0, alpha=0.5)

    def loss_at(k):
        lam = lambda_schedule(k, cfg)
        return routed_loss_rows(
            student=student,
            sampled=sampled,
            in_span=in_span,
            failed=np.zeros(g, dtype=bool),
            kl_on=np.ones(g, dtype=bool),  # routed_fkl_key: FKL on key spans
            teacher=np.tile(teacher, (g if lam > 0 else 0, 1)),
            advantages=advantages,
            lam=lam,
            cfg=cfg,
        )

    _, grpo_rows, _ = loss_at(100)
    assert grpo_rows.size == 0

    _, rows, grads = loss_at(0)
    keys = {divmod(i, length) for i in rows.tolist()}
    assert keys == {(i, 1) for i in range(g)}
    for grad in grads:
        assert np.abs(grad).max() > 0
    _report(3, "all-correct group: GRPO silent, routed update on key positions only")


def test_criterion_04_exposure_dichotomy():
    start = time.monotonic()
    study = exposure_dichotomy_study(steps=1000, seed=0, learning_rate=0.0)
    ratio = study.alltoken_exposure_at(1000) / study.alltoken_exposure_at(100)
    assert 9.0 <= ratio <= 11.0
    frozen_at_41 = study.routed_exposure_at(41)
    for k in (100, 500, 1000):
        assert study.routed_exposure_at(k) == frozen_at_41
    assert study.routed_exposure_at(1000) / study.routed_exposure_at(41) == 1.0
    worst = 0.0
    for rec in list(study.alltoken.records) + list(study.routed.records):
        worst = max(worst, abs(rec.exposure_lhs - rec.bound_rhs))
    assert worst < 1e-10
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _report(4, "persistent exposure grows linearly, routed exposure freezes",
            f"E_1000/E_100 = {ratio:.3f}, equality gap {worst:.1e}, {elapsed:.1f}s")


def test_criterion_05_corner_inversion():
    start = time.monotonic()
    under = corner_inversion_study("under_allocated", range(10))
    under_wins = sum(
        f > g and f >= r
        for f, r, g in zip(
            under.finals["routed_fkl_key"],
            under.finals["routed_rkl_error"],
            under.finals["grpo_only"],
        )
    )
    confident = corner_inversion_study("confident_wrong", range(10))
    confident_wins = sum(
        r > g and r >= f
        for f, r, g in zip(
            confident.finals["routed_fkl_key"],
            confident.finals["routed_rkl_error"],
            confident.finals["grpo_only"],
        )
    )
    elapsed = time.monotonic() - start
    assert under_wins >= 8, f"under-allocated ordering held in {under_wins}/10 seeds"
    assert confident_wins >= 8, f"confident-wrong ordering held in {confident_wins}/10 seeds"
    assert elapsed < 300.0
    _report(5, "regime-dependent corner inversion",
            f"under {under_wins}/10, confident {confident_wins}/10, {elapsed:.0f}s")


def test_criterion_06_lift_ordering():
    study = lift_ordering_study(range(10))
    wins = study.ordering_count()
    assert wins >= 8, f"lift ordering held in {wins}/10 seeds"
    _report(6, "routed-FKL > GRPO > persistent all-token KL in mean lift", f"{wins}/10 seeds")


def test_criterion_07_endpoint_dominance():
    rng = np.random.default_rng(107)
    grid = np.round(np.linspace(0.0, 1.0, 101), 2)
    checked = 0
    while checked < 500:
        dim = int(rng.integers(2, 8))
        inst = CornerInstance(
            g0=rng.normal(size=dim),
            g1=rng.normal(size=dim),
            g_null=rng.normal(size=dim),
            g_tilde=rng.normal(size=dim),
            kappa=float(rng.uniform(0.0, 2.0)),
            v_t=float(rng.uniform(0.05, 1.5)),
        )
        slope = float(np.dot(inst.g1 - inst.g0, inst.g_tilde))
        gap = max(
            float(np.dot(inst.g0 - inst.g_null, inst.g_tilde)),
            float(np.dot(inst.g1 - inst.g_null, inst.g_tilde)),
        )
        if abs(slope) < 1e-6 or abs(inst.kappa * inst.v_t - gap) < 1e-9:
            continue
        checked += 1
        best = corner_grid_argmax(inst, grid)
        assert best in (None, 0.0, 1.0)
        assert best == corner_best_action(inst)
        if best is not None:
            interior = max(corner_utility(inst, b) for b in grid[1:-1])
            assert corner_utility(inst, best) >= interior
    _report(7, "beta-grid argmax always at an endpoint; classifier matches grid oracle",
            "500/500 instances")


def test_criterion_08_alignment_threshold():
    res = alignment_threshold_study(seed=0, n_rollouts=6000)
    assert res.gamma > 0 and res.b > 0
    assert res.inner_products[0] < 0 < res.inner_products[-1]
    assert abs(res.crossing - res.q_star) <= 0.05
    _report(8, "selected-span signal flips sign at the measured precision threshold",
            f"q* = {res.q_star:.3f}, crossing = {res.crossing:.3f}")


def test_criterion_09_natural_gradient_dynamics():
    rng = np.random.default_rng(109)
    worst = 0.0
    for _ in range(20):
        v = int(rng.integers(2, 8))
        p0 = rng.dirichlet(np.ones(v))
        pt = rng.dirichlet(np.ones(v))
        traj = natural_gradient_flow(p0, pt, dt=1e-3, horizon=2.0)
        worst = max(worst, float(np.abs(traj[-1] - natural_flow_closed_form(p0, pt, 2.0)).max()))
    assert worst < 1e-3

    for _ in range(500):
        v = int(rng.integers(2, 8))
        p0 = rng.dirichlet(np.ones(v))
        pt = rng.dirichlet(np.ones(v))
        u = rng.integers(0, 2, size=v).astype(bool)
        traj = natural_gradient_flow(p0, pt, dt=0.1, horizon=2.0)
        gaps = np.abs(traj[:, u].sum(axis=1) - pt[u].sum())
        assert np.all(np.diff(gaps) <= 1e-12)

    # Frozen witness: Euclidean logit descent transiently moves set mass
    # away from the target while the natural flow cannot.
    logits = np.array([0.0, 1.2, -2.6])
    target = np.array([0.05, 0.10, 0.85])
    u = [0]
    p0 = softmax(logits)
    p1 = softmax(euclidean_fkl_descent_step(logits, target, 1.0))
    gap0 = abs(p0[u].sum() - target[u].sum())
    gap1 = abs(p1[u].sum() - target[u].sum())
    assert gap1 > gap0 + 0.05
    traj = natural_gradient_flow(p0, target, dt=0.05, horizon=3.0)
    gaps = np.abs(traj[:, u].sum(axis=1) - target[u].sum())
    assert np.all(np.diff(gaps) <= 1e-12)
    _report(9, "flow matches closed form; mass monotone; Euclidean witness frozen",
            f"worst Euler err {worst:.1e}")


def test_criterion_10_rlsd_damping():
    eps_w = 0.2
    for delta in np.linspace(0.001, 0.3, 12):
        for p0 in np.linspace(0.05, 0.95, 12):
            for teacher in np.linspace(1e-4, delta, 6):
                for student in np.linspace(p0, 0.999, 6):
                    w = rlsd_weight(float(teacher), float(student), eps_w)
                    assert w.raw <= delta / p0 + 1e-12
                    assert w.clipped >= 1.0 - eps_w - 1e-15
    _report(10, "probability-ratio weight damps within delta/p0; clip floors at 1 - eps")


def test_criterion_11_reduction_and_determinism(tmp_path):
    cfg = study_run_config(
        "routed_fkl_key", "under_allocated", 2, CORNER_UNDER_PARAMS,
        steps=1, learning_rate=CORNER_LR["under_allocated"],
    )
    state = init_run(cfg)
    end = STUDY_ROUTING.t_start + STUDY_ROUTING.t_decay + 1
    while state.k < end:
        train_step(state)
    fork = state.fork()
    fork.cfg = replace(cfg, method="grpo_only")
    for _ in range(12):
        train_step(state)
        train_step(fork)
        assert set(state.table.rows) == set(fork.table.rows)
        for key, row in state.table.rows.items():
            assert np.array_equal(row, fork.table.rows[key])

    run_cfg = study_run_config(
        "routed_fkl_key", "under_allocated", 5, CORNER_UNDER_PARAMS,
        steps=30, learning_rate=0.5,
    )
    log_a, _ = run_experiment(replace(run_cfg, out_dir=str(tmp_path / "a")))
    log_b, _ = run_experiment(replace(run_cfg, out_dir=str(tmp_path / "b")))
    name = "routed_fkl_key_under_allocated_seed5.csv"
    assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    assert log_a.to_csv() == log_b.to_csv()
    _report(11, "post-decay trajectories bit-exact; reruns byte-identical")


def test_criterion_12_coverage_and_schedule_constants():
    cfg = RoutingConfig()  # the documented defaults
    assert lambda_schedule(5, cfg) == 0.5
    assert lambda_schedule(25, cfg) == pytest.approx(0.25, abs=1e-15)
    assert lambda_schedule(100, cfg) == 0.0
    l1, l2 = schedule_weight_sums(cfg)
    d1 = sum(lambda_schedule(k, cfg) for k in range(5000))
    d2 = sum(lambda_schedule(k, cfg) ** 2 for k in range(5000))
    assert l1 == pytest.approx(d1, abs=1e-10)
    assert l2 == pytest.approx(d2, abs=1e-10)

    # Two critical positions against a cap of one: the cap has to trim.
    task = generate_task("mixed", 3)
    table = task.make_table()
    rng = np.random.default_rng(112)
    cap = coverage_cap(0.25, task.horizon)
    trimmed = 0
    for _ in range(300):
        group = sample_group(table, task, rng, 1)
        # The same draws without the cap (alpha = 1 marks up to T positions).
        before = rng.bit_generator.state
        _, uncapped = oracle_annotate(task, group, 0.8, rng, 1.0)
        rng.bit_generator.state = before
        _, mask = oracle_annotate(task, group, 0.8, rng, 0.25)
        assert mask.sum() <= cap
        trimmed += int(uncapped.sum() > cap)
    assert trimmed > 0
    _report(12, "coverage cap obeyed; schedule values and weight sums verified",
            f"L1 = {l1}, L2 = {l2:.6f}, {trimmed} of 300 masks trimmed")
