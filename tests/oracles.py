"""Independent oracles the tests check library code against.

Everything here is deliberately naive: central finite differences, direct
enumeration, and brute-force grids. None of it shares code with the paths
it validates, except the per-row and per-rollout loops that the batched
library code must reproduce bit for bit, each kept from before its path
was batched:

* ``reference_routed_loss_rows``: the per-token loop behind the
  array-form routed loss, over the one-row routines below;
* ``reference_truncate_and_floor``, ``reference_fkl_clipped_value_and_grad``,
  ``reference_rkl_clipped_value_and_grad``, ``reference_entropy`` and
  ``reference_grpo_token_loss``: the one-row floor, clipped KLs, entropy
  and GRPO surrogate behind the routines that take a stack;
* ``reference_sample_sequence``: the per-token ``Generator.choice`` loop
  behind group sampling, draw for draw;
* ``reference_softmax``: the one-row softmax behind the stacked one;
* ``reference_expected_reward``: the depth-first recursion behind the
  level-wise exact evaluation;
* ``reference_annotate``: per-rollout ``oracle_annotate``, span projection
  and coverage cap behind the group's span mask;
* ``reference_credit_ratios``: per-rollout ``credit_concentration``.
"""

import math

import numpy as np

from routedkl.errors import (
    DimensionError,
    InfeasibleFloorError,
    InternalConsistencyError,
    NonFiniteInputError,
    RangeError,
    UndefinedDivergenceError,
)
from routedkl.grpo import ClipConfig
from routedkl.metrics import credit_concentration
from routedkl.policy import check_floor, validate_distribution
from routedkl.routing import (
    RoutedLossReport,
    RoutingConfig,
    coverage_cap,
    enforce_coverage_cap,
    project_spans_to_mask,
    rho,
)
from routedkl.tasks import _DEAD, _FREE, _START, Rollout, oracle_annotate


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


def reference_truncate_and_floor(dist, top_k, p_min):
    """Top-k truncation and the floor fixed point of one distribution, as
    ``policy.truncate_and_floor`` was before the floor took stacks."""
    p = validate_distribution(dist, "truncate_and_floor input")
    n = p.size
    check_floor(n, top_k, p_min)
    # Top-k support, ties broken toward lower index for determinism.
    order = np.argsort(-p, kind="stable")
    support = np.sort(order[:top_k])
    q = np.zeros(n)
    q[support] = p[support]
    total = q.sum()
    if total <= 0:
        # Degenerate truncation (all selected mass zero): fall back to
        # uniform over the support before flooring.
        q[support] = 1.0 / top_k
    else:
        q /= total
    if p_min == 0.0:
        return q
    ascending = support[np.argsort(q[support], kind="stable")]
    vals = q[ascending]
    for n_pinned in range(top_k):
        rest = vals[n_pinned:].sum()
        scale = (1.0 - p_min * n_pinned) / rest
        if vals[n_pinned] * scale >= p_min:
            q[ascending[:n_pinned]] = p_min
            q[ascending[n_pinned:]] = vals[n_pinned:] * scale
            return q
    raise InfeasibleFloorError("floor fixed point infeasible")  # pragma: no cover


def _reference_pair(p, q):
    p = validate_distribution(p, "p")
    q = validate_distribution(q, "q")
    if p.shape != q.shape:
        raise DimensionError(f"vocabulary sizes differ: {p.size} vs {q.size}")
    return p, q


def _reference_clip(terms, tau):
    if tau <= 0:
        raise RangeError(f"tau={tau} must be positive")
    return np.clip(np.asarray(terms, dtype=float), -tau, tau)


def reference_fkl_clipped_value_and_grad(student, teacher, tau):
    """Clipped forward KL of one row and its student-logit gradient, as
    ``divergence.fkl_clipped_value_and_grad`` was before it took stacks
    (its per-vocabulary terms inlined)."""
    p, q = _reference_pair(student, teacher)
    if np.any(p[q > 0] <= 0):
        raise UndefinedDivergenceError("student vanishes on teacher support")
    terms = np.zeros_like(q)
    nz = q > 0
    terms[nz] = q[nz] * (np.log(q[nz]) - np.log(p[nz]))
    clipped = _reference_clip(terms, tau)
    live = clipped == terms
    q_live = float(q[live].sum())
    grad = p * q_live
    grad[live] -= q[live]
    return float(clipped.sum()), grad


def reference_rkl_clipped_value_and_grad(student, teacher, tau):
    """Clipped reverse KL of one row and its student-logit gradient, as
    ``divergence.rkl_clipped_value_and_grad`` was before it took stacks
    (its log ratios inlined)."""
    p, q = _reference_pair(student, teacher)
    if np.any(q <= 0) or np.any(p <= 0):
        raise UndefinedDivergenceError("log ratios need strictly positive entries")
    r = np.log(p) - np.log(q)
    terms = p * r
    clipped = _reference_clip(terms, tau)
    live = clipped == terms
    # d(p_v r_v)/d l_u = p_v (1[u=v] - p_u)(r_v + 1); summed over live v.
    weighted = float((p[live] * (r[live] + 1.0)).sum())
    grad = -p * weighted
    grad[live] += p[live] * (r[live] + 1.0)
    return float(clipped.sum()), grad


def reference_entropy(dist):
    """Shannon entropy of one distribution with 0 log 0 = 0, as
    ``policy.entropy`` was before it took stacks."""
    p = validate_distribution(dist, "entropy input")
    nz = p[p > 0]
    return float(-(nz * np.log(nz)).sum())


def reference_grpo_token_loss(log_ratio, advantage, clip=ClipConfig()):
    """Clipped surrogate (loss, grad_factor) of one token in Python floats,
    as ``grpo.grpo_token_loss`` was before it became the one-element case
    of ``grpo_token_losses``."""
    if not np.isfinite(log_ratio):
        raise NonFiniteInputError("log ratio must be finite")
    rho = float(np.exp(log_ratio))
    clamped = min(max(rho, 1.0 - clip.eps_low), 1.0 + clip.eps_high)
    s_free = rho * advantage
    s_clip = clamped * advantage
    loss = -min(s_free, s_clip)
    grad_factor = -s_free if s_free <= s_clip else 0.0
    return loss, grad_factor


def reference_routed_loss_rows(
    student: np.ndarray,
    log_ratio: np.ndarray,
    sampled: np.ndarray,
    in_span: np.ndarray,
    failed: np.ndarray,
    teacher: np.ndarray,
    advantages: np.ndarray,
    lam: float,
    cfg: RoutingConfig,
    clip: ClipConfig = ClipConfig(),
    adv_scale: np.ndarray | None = None,
) -> tuple[RoutedLossReport, dict]:
    """Per-token reference for ``routing.routed_loss_rows``, on its inputs.

    The loss as one Python loop over tokens calling the one-row reference
    routines, kept from before the loss became array arithmetic; the floor
    keeps the full vocabulary and the clip is two-sided, as in
    ``RoutingConfig``.
    Teacher rows are consumed in order, one per span position of a
    rollout whose branch is active. Returns the report and the logit
    gradients keyed by (rollout, position).

    Error spans use reverse KL (student first), key spans forward KL
    (teacher first); per-vocabulary contributions are clamped at tau with
    gradient flowing through the unclipped region only. Both distributions
    are floored before any divergence so log ratios stay bounded. With
    lambda = 0 no teacher row is read. ``adv_scale`` multiplies the
    rollout's advantage per token in the surrogate.
    """
    g, length, vocab = student.shape
    advantages = np.asarray(advantages, dtype=float)
    if advantages.shape != (g,):
        raise DimensionError("one advantage per rollout required")
    if length == 0:
        raise DimensionError("degenerate rollout of length 0")
    rho_k = rho(lam, cfg.w0)
    teacher_rows = iter(teacher)

    grpo_nonspan = 0.0
    grpo_span = 0.0
    kl_error = 0.0
    kl_key = 0.0
    kl_error_sm = 0.0
    kl_key_sm = 0.0
    grads: dict = {}
    inv_len = 1.0 / length

    for i in range(g):
        n_span = int(np.count_nonzero(in_span[i]))
        if n_span > coverage_cap(cfg.alpha, length):
            raise InternalConsistencyError("span mask exceeds the coverage cap")
        adv = float(advantages[i])
        # Span positions are all error spans on a failed rollout, all key
        # spans on an accepted one.
        is_error = bool(failed[i])
        kl_on = lam > 0.0 and (cfg.mu_e if is_error else cfg.mu_k)
        err_sum = 0.0
        key_sum = 0.0

        for t in range(length):
            p_t = student[i, t]
            span_t = bool(in_span[i, t])
            # GRPO term, rho-scaled on span tokens while the channel is open.
            tok_adv = adv if adv_scale is None else adv * float(adv_scale[i, t])
            loss_t, factor = reference_grpo_token_loss(float(log_ratio[i, t]), tok_adv, clip)
            weight = (rho_k if span_t else 1.0) * inv_len / g
            if span_t:
                grpo_span += loss_t * inv_len / g
            else:
                grpo_nonspan += loss_t * inv_len / g
            token_grad = None
            if factor != 0.0 and weight != 0.0:
                score = -p_t * (factor * weight)
                score[sampled[i, t]] += factor * weight
                token_grad = score

            # Routed KL on the active branch.
            if kl_on and span_t:
                q_t = next(teacher_rows, None)
                if q_t is None:
                    raise DimensionError(f"teacher rows run out at position {(i, t)}")
                p_f = reference_truncate_and_floor(p_t, vocab, cfg.floor_p_min)
                q_f = reference_truncate_and_floor(q_t, vocab, cfg.floor_p_min)
                if is_error:
                    value, kl_grad = reference_rkl_clipped_value_and_grad(p_f, q_f, cfg.tau)
                    err_sum += value
                else:
                    value, kl_grad = reference_fkl_clipped_value_and_grad(p_f, q_f, cfg.tau)
                    key_sum += value
                kl_term = kl_grad * (lam * inv_len / g)
                token_grad = kl_term if token_grad is None else token_grad + kl_term

            if token_grad is not None:
                grads[(i, t)] = token_grad

        kl_error += err_sum * inv_len / g
        kl_key += key_sum * inv_len / g
        if n_span and is_error:
            kl_error_sm += (err_sum / n_span) * (n_span * inv_len) / g
        if n_span and not is_error:
            kl_key_sm += (key_sum / n_span) * (n_span * inv_len) / g

    if next(teacher_rows, None) is not None:
        raise DimensionError("more teacher rows than KL positions")
    total = (
        grpo_nonspan
        + rho_k * grpo_span
        + lam * (cfg.mu_e * kl_error + cfg.mu_k * kl_key)
    )
    report = RoutedLossReport(
        total=total,
        grpo_nonspan=grpo_nonspan,
        grpo_span=grpo_span,
        kl_error_branch=kl_error,
        kl_key_branch=kl_key,
        kl_error_span_mean_form=kl_error_sm,
        kl_key_span_mean_form=kl_key_sm,
        lam=lam,
        rho=rho_k,
    )
    return report, grads


def reference_sample_sequence(table, task, rng, dists=None) -> Rollout:
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


def reference_softmax(logits):
    """One-row softmax with max-subtraction, as ``policy.softmax`` was
    before it reduced over the last axis of a stack."""
    logits = np.asarray(logits, dtype=float)
    shifted = logits - logits.max()
    expd = np.exp(shifted)
    return expd / expd.sum()


def reference_expected_reward(task, table):
    """Depth-first E[R] with dead/free pruning, one ``student_dist`` per
    visited prefix: the recursion behind the level-wise
    ``SynthTask.expected_reward``."""

    def value(prefix, state, t):
        if state == _DEAD:
            return 0.0
        if state == _FREE or t == task.horizon:
            return 1.0
        dist = table.student_dist(task.prompt_id, prefix)
        total = 0.0
        for v in range(task.vocab):
            if dist[v] == 0.0:
                continue
            total += dist[v] * value(prefix + (v,), task._step_state(state, t, v), t + 1)
        return total

    return value((), _START, 0)


def reference_annotate(task, rollouts, precision, rng, alpha):
    """Per-rollout contexts and capped span masks: ``oracle_annotate``,
    ``project_spans_to_mask`` and ``enforce_coverage_cap`` with unit
    weights, rollout by rollout on one generator."""
    contexts, masks = [], []
    for rollout in rollouts:
        ann = oracle_annotate(rollout, task, precision, rng)
        mask = project_spans_to_mask(list(ann.spans), rollout.token_char_intervals())
        contexts.append(ann.context_index)
        masks.append(enforce_coverage_cap(mask, np.ones(len(rollout)), alpha).astype(bool))
    return np.array(contexts), np.array(masks)


def reference_credit_ratios(credit, mask):
    """``credit_concentration`` of every row with both regions, dropping
    the rows it leaves undefined."""
    ratios = [
        credit_concentration(credit[i], mask[i])
        for i in range(len(mask))
        if mask[i].any() and not mask[i].all()
    ]
    return np.array([r for r in ratios if r is not None])
