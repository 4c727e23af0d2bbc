"""Independent oracles the tests check library code against.

Everything here is deliberately naive: central finite differences, direct
enumeration, and brute-force grids. None of it shares code with the paths
it validates, except the per-row and per-rollout loops that the batched
library code must reproduce bit for bit, each kept from before its path
was batched:

* ``reference_routed_loss_rows``: the per-token loop behind the
  array-form routed loss, over the one-row routines below, with the
  clipped PPO surrogate at a given log ratio (0, the on-policy ratio the
  library's loss assumes, by default);
* ``reference_truncate_and_floor``, ``reference_fkl_clipped_value_and_grad``,
  ``reference_rkl_clipped_value_and_grad``, ``reference_entropy`` and
  ``reference_grpo_token_loss``: the one-row floor, clipped KLs, entropy
  and GRPO surrogate behind the routines that take a stack;
* ``reference_sample_sequence``: the per-token ``Generator.choice`` loop
  behind group sampling, draw for draw;
* ``reference_softmax``: the one-row softmax behind the stacked one;
* ``reference_teacher_dist_matrix``: the per-context teacher lookup loop
  behind the stacked teacher matrices;
* ``ReferenceTrie``: the dict-of-tuples prefix trie behind the columnar
  ``PolicyTable``;
* ``reference_expected_reward``: the depth-first recursion behind the
  level-wise exact evaluation;
* ``reference_reward_gradient``: the per-prefix recursion behind the exact
  reward gradient taken from the kept evaluation levels;
* ``reference_annotate``: the per-rollout annotator with character spans
  (``Rollout``, ``CharSpan``, ``reference_oracle_annotate`` and
  ``reference_root_cause``), ``project_spans_to_mask`` and the weighted
  ``enforce_coverage_cap`` behind the group annotator and its cap;
* ``reference_credit_concentration`` and ``reference_credit_ratios``: the
  one-rollout credit ratio and its per-rollout loop behind the array
  credit ratios;
* ``reference_delta_lift``: the per-token log-prob change averaged by
  ``np.mean``, behind the array lift;
* ``reference_row_update``: the per-prefix dict loop behind the node-indexed
  parameter update;
* ``reference_context_variance`` and ``reference_expected_deviation_sq``:
  the one-matrix ledger terms behind the stacked ones;
* ``reference_ledger_terms``: the per-rollout loop over span positions
  behind the exposure record's per-rollout sums.
"""

from dataclasses import dataclass

import numpy as np

from routedkl.errors import (
    DimensionError,
    InfeasibleFloorError,
    InternalConsistencyError,
    NonFiniteInputError,
    RangeError,
    RoutedKlError,
    UndefinedDivergenceError,
)
from routedkl.policy import check_floor, validate_distribution
from routedkl.routing import (
    RoutedLossReport,
    RoutingConfig,
    coverage_cap,
    rho,
)
from routedkl.tasks import _DEAD, _FREE, _START, _runs, draw_contexts


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
            prob *= table.student_dist(seq[:t])[seq[t]]
        total += prob * task.verifier(seq)
    return total


def fd_reward_gradient(task, table, node, h=1e-6):
    """Finite differences of E[R] w.r.t. one node's logit row. The row is
    indexed afresh for each write: enumeration adds nodes, and a row view
    is valid only until the next node is added. The restored row is
    refreshed, so the table's distributions stay current."""
    grad = np.zeros(table.vocab)
    for v in range(table.vocab):
        table.logits[node, v] += h
        up = enumerate_expected_reward(task, table)
        table.logits[node, v] -= 2 * h
        down = enumerate_expected_reward(task, table)
        table.logits[node, v] += h
        grad[v] = (up - down) / (2 * h)
    table.refresh([node])
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


def reference_grpo_token_loss(log_ratio, advantage, eps_low=0.2, eps_high=0.28):
    """Clipped surrogate (loss, grad_factor) of one token in Python floats,
    as ``grpo.grpo_token_loss`` was before it became the one-element case
    of ``grpo_token_losses``; the bounds are the defaults its
    ``ClipConfig`` had."""
    if not np.isfinite(log_ratio):
        raise NonFiniteInputError("log ratio must be finite")
    rho = float(np.exp(log_ratio))
    clamped = min(max(rho, 1.0 - eps_low), 1.0 + eps_high)
    s_free = rho * advantage
    s_clip = clamped * advantage
    loss = -min(s_free, s_clip)
    grad_factor = -s_free if s_free <= s_clip else 0.0
    return loss, grad_factor


def reference_group_advantages(rewards):
    """Standardized advantages through ``np.mean`` and ``np.std``, as
    ``grpo.group_advantages`` computed them before it took the same
    reductions directly."""
    r = np.asarray(rewards, dtype=float)
    mu = r.mean()
    sigma = r.std()
    if sigma == 0.0:
        return np.zeros_like(r)
    return (r - mu) / sigma


def reference_routed_loss_rows(
    student: np.ndarray,
    sampled: np.ndarray,
    in_span: np.ndarray,
    failed: np.ndarray,
    kl_on: np.ndarray,
    teacher: np.ndarray,
    advantages: np.ndarray,
    lam: float,
    cfg: RoutingConfig,
    adv_scale: np.ndarray | None = None,
    log_ratio: np.ndarray | None = None,
    eps_low: float = 0.2,
    eps_high: float = 0.28,
) -> tuple[RoutedLossReport, dict]:
    """Per-token reference for ``routing.routed_loss_rows``, on its inputs.

    The loss as one Python loop over tokens calling the one-row reference
    routines, kept from before the loss became array arithmetic; the floor
    keeps the full vocabulary and the KL clip is two-sided, as in
    ``RoutingConfig``. The GRPO term is the clipped surrogate at
    ``log_ratio`` (G, T) with ratio bounds ``eps_low`` and ``eps_high``;
    the library's on-policy loss is the case ``log_ratio = None``, ratio 1.
    Teacher rows are consumed in order, one per span position of a
    ``kl_on`` rollout while lambda > 0. Returns the report and the logit
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
    grads: dict = {}
    inv_len = 1.0 / length

    for i in range(g):
        adv = float(advantages[i])
        # Span positions are all error spans on a failed rollout, all key
        # spans on an accepted one.
        is_error = bool(failed[i])
        kl_active = lam > 0.0 and bool(kl_on[i])
        err_sum = 0.0
        key_sum = 0.0

        for t in range(length):
            p_t = student[i, t]
            span_t = bool(in_span[i, t])
            # GRPO term, rho-scaled on span tokens while the channel is open.
            tok_adv = adv if adv_scale is None else adv * float(adv_scale[i, t])
            log_rho = 0.0 if log_ratio is None else float(log_ratio[i, t])
            loss_t, factor = reference_grpo_token_loss(log_rho, tok_adv, eps_low, eps_high)
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
            if kl_active and span_t:
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

    if next(teacher_rows, None) is not None:
        raise DimensionError("more teacher rows than KL positions")
    total = (
        grpo_nonspan
        + rho_k * grpo_span
        + lam * (kl_error + kl_key)
    )
    report = RoutedLossReport(
        total=total,
        grpo_nonspan=grpo_nonspan,
        grpo_span=grpo_span,
        kl_error_branch=kl_error,
        kl_key_branch=kl_key,
        lam=lam,
        rho=rho_k,
    )
    return report, grads


@dataclass
class Rollout:
    """One sampled sequence with its outcome and, when sampled, the
    acceptance-machine state before each position and after the last."""

    prompt_id: str
    tokens: tuple[int, ...]
    outcome: int
    states: tuple[int, ...] = ()

    def __len__(self) -> int:
        return len(self.tokens)

    def token_char_intervals(self) -> list[tuple[int, int]]:
        """Tokens are atomic: position t occupies characters [t, t+1)."""
        return [(t, t + 1) for t in range(len(self.tokens))]


def reference_sample_sequence(table, task, rng, dists=None) -> Rollout:
    """Per-token reference for ``tasks.sample_group``: one sequence, one
    ``Generator.choice`` per token, kept from before groups were sampled
    as arrays."""
    dists = {} if dists is None else dists
    tokens: list[int] = []
    states = [_START]
    for t in range(task.horizon):
        prefix = tuple(tokens)
        dist = dists.get(prefix)
        if dist is None:
            dist = dists[prefix] = table.student_dist(prefix)
        tok = int(rng.choice(task.vocab, p=dist))
        states.append(task._step_state(states[-1], t, tok))
        tokens.append(tok)
    seq = tuple(tokens)
    return Rollout(
        prompt_id=task.prompt_id,
        tokens=seq,
        outcome=task.verifier(seq),
        states=tuple(states),
    )


def reference_softmax(logits):
    """One-row softmax with max-subtraction, as ``policy.softmax`` was
    before it reduced over the last axis of a stack."""
    logits = np.asarray(logits, dtype=float)
    shifted = logits - logits.max()
    expd = np.exp(shifted)
    return expd / expd.sum()


def reference_teacher_dist_matrix(task, table, node):
    """Per-context teacher rows at one node, as ``SynthTask.teacher_dist_matrix``
    built them before the offsets became one array and nodes were stacked:
    one counted teacher lookup per context, its offset added only where the
    context has one (a nonzero row), and a one-row softmax each."""
    rows = []
    for offset in task.offsets[:, table.depth[node]]:
        logits = table.teacher_logits(node)
        if offset.any():
            logits += offset
        rows.append(reference_softmax(logits))
    return np.array(rows)


class ReferenceTrie:
    """The prefix trie as ``PolicyTable`` kept it before its nodes became
    columns: a ``keys`` list of ``(prompt, prefix)`` tuples, an ``ids`` dict
    and one init row per new key. ``node`` adds a prefix's missing
    ancestors root first; ``children`` adds the missing (node, token) pairs
    in first-visit order."""

    def __init__(self, init_rows, prompt):
        self.init_rows, self.keys, self.ids, self.logits = init_rows, [], {}, []
        self.node(prompt, ())

    def _add(self, key):
        if key not in self.ids:
            self.ids[key] = len(self.keys)
            self.keys.append(key)
            self.logits.append(np.array(self.init_rows[len(key[1])], dtype=float))
        return self.ids[key]

    def node(self, prompt, prefix):
        for t in range(len(prefix) + 1):
            i = self._add((prompt, tuple(prefix[:t])))
        return i

    def children(self, nodes, tokens):
        out = []
        for p, v in zip(nodes, tokens):
            prompt, prefix = self.keys[p]
            out.append(self._add((prompt, prefix + (v,))))
        return out


def reference_expected_reward(task, table):
    """Depth-first E[R] with dead/free pruning, one ``student_dist`` per
    visited prefix: the recursion behind the level-wise
    ``SynthTask.expected_reward``."""

    def value(prefix, state, t):
        if state == _DEAD:
            return 0.0
        if state == _FREE or t == task.horizon:
            return 1.0
        dist = table.student_dist(prefix)
        total = 0.0
        for v in range(task.vocab):
            if dist[v] == 0.0:
                continue
            total += dist[v] * value(prefix + (v,), task._step_state(state, t, v), t + 1)
        return total

    return value((), _START, 0)


def reference_reward_gradient(task, table):
    """``{prefix: row}`` of the exact gradient of E[R], by recursion over
    every prefix in a live state: the per-prefix walk behind
    ``SynthTask.reward_gradient``. A row is reach(P) * pi * (C - E[R | P]),
    C the child values. E[R | P] is summed left to right, the depth-first
    order of ``reference_expected_reward``. The walk also enters children
    of probability 0, adding their nodes to the table."""
    grads = {}

    def walk(prefix, state, t, reach):
        if state == _DEAD:
            return 0.0
        if state == _FREE or t == task.horizon:
            return 1.0
        dist = table.student_dist(prefix)
        child_vals = np.zeros(task.vocab)
        for v in range(task.vocab):
            state_v = task._step_state(state, t, v)
            child_vals[v] = walk(prefix + (v,), state_v, t + 1, reach * dist[v])
        exp_val = 0.0
        for v in range(task.vocab):
            exp_val += dist[v] * child_vals[v]
        grads[prefix] = reach * dist * (child_vals - exp_val)  # each prefix is walked once
        return exp_val

    walk((), _START, 0, 1.0)
    return grads


@dataclass(frozen=True)
class CharSpan:
    """Half-open annotated interval with a coarse type label."""

    start: int
    end: int
    span_type: str

    def __post_init__(self) -> None:
        if not self.start < self.end:
            raise RangeError(f"span [{self.start}, {self.end}) is empty")


class SpanAlignmentError(RoutedKlError):
    """Token character intervals overlap or are out of order."""


def project_spans_to_mask(spans, token_char_intervals):
    """Mark token t iff its character interval intersects any span."""
    prev_end = None
    for start, end in token_char_intervals:
        if start >= end:
            raise SpanAlignmentError("empty token interval")
        if prev_end is not None and start < prev_end:
            raise SpanAlignmentError("token intervals overlap or are unordered")
        prev_end = end
    mask = np.zeros(len(token_char_intervals), dtype=np.int8)
    for span in spans:
        for t, (start, end) in enumerate(token_char_intervals):
            if span.start < end and start < span.end:
                mask[t] = 1
    return mask


def enforce_coverage_cap(mask, weights, alpha):
    """Keep at most ceil(alpha * len) marked tokens, by descending weight.

    Ties break toward the lower index, so unit weights keep the lowest
    marked positions, as ``tasks.oracle_annotate``'s ``cumsum`` cap does.
    """
    mask = np.asarray(mask, dtype=np.int8)
    weights = np.asarray(weights, dtype=float)
    if weights.shape != mask.shape:
        raise DimensionError("weights and mask lengths differ")
    cap = coverage_cap(alpha, mask.size)
    marked = np.flatnonzero(mask)
    if marked.size <= cap:
        return mask.copy()
    order = sorted(marked, key=lambda t: (-weights[t], t))
    capped = np.zeros_like(mask)
    capped[order[:cap]] = 1
    return capped


def reference_root_cause(task, tokens):
    """Earliest position whose token cut off every accepting continuation,
    or None when that position is not critical; stepped through
    ``_step_state`` token by token."""
    state = _START
    for t, tok in enumerate(tokens):
        nxt = task._step_state(state, t, tok)
        if state != _DEAD and nxt == _DEAD:
            return t if t in task.critical_positions else None
        state = nxt
    return None


def reference_oracle_annotate(rollout, task, precision, rng):
    """One rollout's (context index, spans): the per-rollout annotator
    behind ``tasks.oracle_annotate``, draw for draw."""
    if not (0.0 <= precision <= 1.0):
        raise RangeError("precision must lie in [0, 1]")
    context_index = int(draw_contexts(task, rng, 1)[0])
    label = task.contexts[context_index].label
    if rollout.outcome == 1:
        true_positions = [t for t in task.critical_positions if t < len(rollout)]
    else:
        rc = reference_root_cause(task, rollout.tokens)
        true_positions = [rc] if rc is not None else []
    non_critical = [t for t in range(len(rollout)) if t not in task.critical_positions]
    spans = []
    for start, end in _runs(sorted(true_positions)):
        if precision < 1.0 and rng.random() > precision and non_critical:
            pos = non_critical[int(rng.choice(len(non_critical)))]
            spans.append(CharSpan(pos, pos + 1, label))
        else:
            spans.append(CharSpan(start, end, label))
    if len(spans) > 3 or any(not 1 <= s.end - s.start <= 3 for s in spans):
        raise InternalConsistencyError("at most 3 spans of 1-3 positions each")
    return context_index, spans


def reference_annotate(task, tokens, precision, rng, alpha):
    """Per-rollout contexts and capped span masks of the (G, T) ``tokens``:
    ``reference_oracle_annotate``, ``project_spans_to_mask`` and
    ``enforce_coverage_cap`` with unit weights, rollout by rollout on one
    generator. Outcomes come from ``task.verifier``."""
    contexts, masks = [], []
    for seq in map(tuple, np.asarray(tokens).tolist()):
        rollout = Rollout(task.prompt_id, seq, task.verifier(seq))
        context, spans = reference_oracle_annotate(rollout, task, precision, rng)
        mask = project_spans_to_mask(spans, rollout.token_char_intervals())
        contexts.append(context)
        masks.append(enforce_coverage_cap(mask, np.ones(len(rollout)), alpha).astype(bool))
    return np.array(contexts), np.array(masks)


def reference_credit_concentration(
    per_token_credit: np.ndarray, mask: np.ndarray
) -> float | None:
    """Mean credit inside the mask divided by mean credit outside.

    Credit is the per-position update magnitude (L2 norm of the logit
    gradient times step size, computed by the caller). Returns None when
    either region is empty or the outside mean is zero.
    """
    credit = np.asarray(per_token_credit, dtype=float)
    mask = np.asarray(mask, dtype=bool)
    if credit.shape != mask.shape:
        raise DimensionError("credit and mask lengths differ")
    if np.any(credit < 0):
        raise RangeError("credit must be nonnegative")
    inside = credit[mask]
    outside = credit[~mask]
    if inside.size == 0 or outside.size == 0:
        return None
    outside_mean = float(outside.mean())
    if outside_mean == 0.0:
        return None
    return float(inside.mean()) / outside_mean


def reference_credit_ratios(credit, mask):
    """``reference_credit_concentration`` of every row with both regions,
    dropping the rows it leaves undefined."""
    ratios = [
        reference_credit_concentration(credit[i], mask[i])
        for i in range(len(mask))
        if mask[i].any() and not mask[i].all()
    ]
    return np.array([r for r in ratios if r is not None])


def reference_delta_lift(probs_before, probs_after):
    """Mean of ``log(after) - log(before)`` over the eval tokens, one
    scalar ``np.log`` each, as ``np.mean`` of a list; None for no tokens."""
    diffs = [float(np.log(a)) - float(np.log(b)) for b, a in zip(probs_before, probs_after)]
    return float(np.mean(diffs)) if diffs else None


def reference_row_update(table, nodes, grads, learning_rate):
    """Sum the token gradient rows per node, ``summed[r] + vec`` in token
    order, then step each node's row in place, ``row -= lr * g``: the dict
    loop behind ``runner._apply_row_grads``, kept from before rows were
    node ids."""
    summed = {}
    for r, vec in zip(nodes.tolist(), grads):
        summed[r] = summed[r] + vec if r in summed else vec
    for r, g in summed.items():
        row = table.logits[r]
        row -= learning_rate * np.asarray(g, dtype=float)


def reference_context_variance(probs, dists):
    """``privileged.context_variance`` of one (n_contexts, V) matrix, as it
    was before it took stacks."""
    mean = probs @ dists
    var = probs @ (dists - mean) ** 2
    return float(var.sum())


def reference_expected_deviation_sq(probs, dists):
    """``privileged.expected_deviation_sq`` of one (n_contexts, V) matrix,
    as it was before it took stacks."""
    diffs = dists - probs @ dists
    return float((probs * (diffs**2).sum(axis=1)).sum())


def reference_ledger_terms(task, table, prefix_index, mask):
    """One step's exposure-record terms ``(masked_variance_mean,
    deviation_sq_mean)``: each rollout's one-matrix context variance and
    expected squared deviation of its per-node teacher matrices, added
    left to right from 0.0 over its span positions and scaled by 1/T, then
    ``np.mean`` over the rollouts."""
    inv_len = 1.0 / np.shape(mask)[1]
    variances, deviations = [], []
    for nodes, row in zip(np.asarray(prefix_index).tolist(), np.asarray(mask).tolist()):
        variance = deviation = 0.0
        for node, in_span in zip(nodes, row):
            if in_span:
                matrix = reference_teacher_dist_matrix(task, table, node)
                variance += reference_context_variance(task.context_probs, matrix)
                deviation += reference_expected_deviation_sq(task.context_probs, matrix)
        variances.append(variance * inv_len)
        deviations.append(deviation * inv_len)
    return float(np.mean(variances)), float(np.mean(deviations))
