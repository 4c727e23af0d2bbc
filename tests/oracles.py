"""Independent oracles the tests check library code against.

Everything here is deliberately naive: central finite differences, direct
enumeration, and brute-force grids. None of it shares code with the paths
it validates, except ``reference_routed_step_loss``: the per-token loop
over the scalar routines that the array-form routed loss must reproduce,
and ``reference_sample_rollout``, the per-token ``Generator.choice`` loop
that group sampling must reproduce draw for draw.
"""

import math

import numpy as np

from routedkl.divergence import fkl_clipped_value_and_grad, rkl_clipped_value_and_grad
from routedkl.errors import DimensionError, InternalConsistencyError
from routedkl.grpo import ClipConfig, grpo_token_loss
from routedkl.policy import truncate_and_floor
from routedkl.routing import (
    RolloutLossInput,
    RoutedLossReport,
    RoutingConfig,
    coverage_cap,
    lambda_schedule,
    rho,
)
from routedkl.tasks import Rollout


def fd_kl_logit_grad(logits, teacher, forward, h=1e-6):
    """Central finite differences of KL w.r.t. student logits."""

    def softmax_naive(z):
        e = np.exp(z - z.max())
        return e / e.sum()

    def kl_naive(p, q):
        mask = p > 0
        return float((p[mask] * (np.log(p[mask]) - np.log(q[mask]))).sum())

    logits = np.asarray(logits, dtype=float)
    grad = np.zeros_like(logits)
    for v in range(logits.size):
        up, down = logits.copy(), logits.copy()
        up[v] += h
        down[v] -= h
        if forward:
            f_up = kl_naive(teacher, softmax_naive(up))
            f_down = kl_naive(teacher, softmax_naive(down))
        else:
            f_up = kl_naive(softmax_naive(up), teacher)
            f_down = kl_naive(softmax_naive(down), teacher)
        grad[v] = (f_up - f_down) / (2 * h)
    return grad


def brute_force_floor_fixed_point(dist, top_k, p_min, iters=500):
    """Literal truncate -> floor -> renormalize iteration."""
    p = np.asarray(dist, dtype=float).copy()
    order = np.argsort(-p, kind="stable")
    keep = np.zeros_like(p, dtype=bool)
    keep[order[:top_k]] = True
    p[~keep] = 0.0
    p /= p.sum()
    for _ in range(iters):
        below = keep & (p < p_min)
        if not below.any():
            break
        p[below] = p_min
        p /= p.sum()
    return p


def interval_intersection_mask(spans, intervals):
    """Quadratic brute-force span/token intersection."""
    mask = np.zeros(len(intervals), dtype=np.int8)
    for t, (a, b) in enumerate(intervals):
        for (s, e) in spans:
            overlap = max(0, min(b, e) - max(a, s))
            if overlap > 0:
                mask[t] = 1
    return mask


def beta_grid_argmax(g0, g1, g_null, g_tilde, kappa, v_t, grid_n=101):
    """Brute-force best action over a beta grid plus the no-KL option."""
    best_val = float(np.dot(g_null, g_tilde))
    best = None
    for b in np.linspace(0.0, 1.0, grid_n):
        val = (1 - b) * np.dot(g0, g_tilde) + b * np.dot(g1, g_tilde) - kappa * v_t
        if val > best_val:
            best_val = val
            best = float(b)
    return best


def enumerate_expected_reward(task, table):
    """E[R] by full sequence enumeration (no pruning)."""
    total = 0.0
    seqs = [()]
    for _ in range(task.horizon):
        seqs = [s + (v,) for s in seqs for v in range(task.vocab)]
    for seq in seqs:
        prob = 1.0
        for t in range(task.horizon):
            prob *= table.student_dist(task.prompt_id, seq[:t])[seq[t]]
        total += prob * task.verifier(seq)
    return total


def fd_reward_gradient(task, table, key, h=1e-6):
    """Finite differences of E[R] w.r.t. one logit row."""
    row = table.student_logits(*key)
    grad = np.zeros_like(row)
    for v in range(row.size):
        row[v] += h
        up = enumerate_expected_reward(task, table)
        row[v] -= 2 * h
        down = enumerate_expected_reward(task, table)
        row[v] += h
        grad[v] = (up - down) / (2 * h)
    return grad


def reference_routed_step_loss(
    items: list[RolloutLossInput],
    advantages: np.ndarray,
    k: int,
    cfg: RoutingConfig,
    clip: ClipConfig = ClipConfig(),
    lam_override: float | None = None,
) -> RoutedLossReport:
    """Per-token reference for ``routing.routed_step_loss``.

    The loss as one Python loop over tokens calling the scalar routines,
    kept from before the loss became array arithmetic; the floor keeps the
    full vocabulary and the clip is two-sided, as in ``RoutingConfig``.

    Error spans use reverse KL (student first), key spans forward KL
    (teacher first); per-vocabulary contributions are clamped at tau with
    gradient flowing through the unclipped region only. Both distributions
    are floored before any divergence so log ratios stay bounded. With
    lambda = 0 the teacher inputs are never consulted. A rollout's
    ``adv_scale`` multiplies its advantage per token in the surrogate.
    """
    advantages = np.asarray(advantages, dtype=float)
    if advantages.size != len(items):
        raise DimensionError("one advantage per rollout required")
    lam = lambda_schedule(k, cfg) if lam_override is None else lam_override
    rho_k = rho(lam, cfg.w0)
    g = len(items)

    grpo_nonspan = 0.0
    grpo_span = 0.0
    kl_error = 0.0
    kl_key = 0.0
    kl_error_sm = 0.0
    kl_key_sm = 0.0
    grads: dict = {}

    for i, item in enumerate(items):
        length, vocab = item.student.shape
        if length == 0:
            raise DimensionError("degenerate rollout of length 0")
        part = item.part
        if len(part.mask) != length or item.log_ratio.shape != (length,):
            raise DimensionError("partition/rollout length mismatch")
        scale = item.adv_scale
        if scale is not None and len(scale) != length:
            raise DimensionError("advantage multiplier/rollout length mismatch")
        n_span = len(part.span_idx)
        if n_span > coverage_cap(cfg.alpha, length):
            raise InternalConsistencyError("span mask exceeds the coverage cap")
        adv = float(advantages[i])
        inv_len = 1.0 / length
        # Span positions are all error spans on a failed rollout, all key
        # spans on an accepted one.
        is_error = part.outcome == 0
        kl_on = lam > 0.0 and (cfg.mu_e if is_error else cfg.mu_k)
        err_sum = 0.0
        key_sum = 0.0

        for t in range(length):
            p_t = item.student[t]
            in_span = part.mask[t] == 1
            # GRPO term, rho-scaled on span tokens while the channel is open.
            tok_adv = adv if scale is None else adv * float(scale[t])
            loss_t, factor = grpo_token_loss(float(item.log_ratio[t]), tok_adv, clip)
            weight = (rho_k if in_span else 1.0) * inv_len / g
            if in_span:
                grpo_span += loss_t * inv_len / g
            else:
                grpo_nonspan += loss_t * inv_len / g
            token_grad = None
            if factor != 0.0 and weight != 0.0:
                score = -p_t * (factor * weight)
                score[item.sampled[t]] += factor * weight
                token_grad = score

            # Routed KL on the active branch.
            if kl_on and in_span:
                if item.teacher is None or t not in item.teacher:
                    raise DimensionError(
                        f"teacher distribution missing at span position {t}"
                    )
                p_f = truncate_and_floor(p_t, vocab, cfg.floor_p_min)
                q_f = truncate_and_floor(item.teacher[t], vocab, cfg.floor_p_min)
                if is_error:
                    value, kl_grad = rkl_clipped_value_and_grad(p_f, q_f, cfg.tau)
                    err_sum += value
                else:
                    value, kl_grad = fkl_clipped_value_and_grad(p_f, q_f, cfg.tau)
                    key_sum += value
                kl_term = kl_grad * (lam * inv_len / g)
                token_grad = kl_term if token_grad is None else token_grad + kl_term

            if token_grad is not None:
                grads[(i, t)] = token_grad

        kl_error += err_sum * inv_len / g
        kl_key += key_sum * inv_len / g
        if part.error_idx:
            kl_error_sm += (err_sum / len(part.error_idx)) * (n_span * inv_len) / g
        if part.key_idx:
            kl_key_sm += (key_sum / len(part.key_idx)) * (n_span * inv_len) / g

    total = (
        grpo_nonspan
        + rho_k * grpo_span
        + lam * (cfg.mu_e * kl_error + cfg.mu_k * kl_key)
    )
    return RoutedLossReport(
        total=total,
        grpo_nonspan=grpo_nonspan,
        grpo_span=grpo_span,
        kl_error_branch=kl_error,
        kl_key_branch=kl_key,
        kl_error_span_mean_form=kl_error_sm,
        kl_key_span_mean_form=kl_key_sm,
        lam=lam,
        rho=rho_k,
        per_token_logit_grads=grads,
    )


def reference_sample_rollout(table, task, rng, dists=None) -> Rollout:
    """Per-token reference for ``tasks.sample_group``: one sequence, one
    ``Generator.choice`` per token, kept from before groups were sampled
    as arrays."""
    dists = {} if dists is None else dists
    tokens: list[int] = []
    logprobs = np.empty(task.horizon)
    for t in range(task.horizon):
        prefix = tuple(tokens)
        dist = dists.get(prefix)
        if dist is None:
            dist = dists[prefix] = table.student_dist(task.prompt_id, prefix)
        tok = int(rng.choice(task.vocab, p=dist))
        logprobs[t] = math.log(dist[tok])
        tokens.append(tok)
    seq = tuple(tokens)
    return Rollout(
        prompt_id=task.prompt_id,
        tokens=seq,
        outcome=task.verifier(seq),
        logprobs=logprobs,
    )
