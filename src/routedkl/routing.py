"""Span masks, the coverage cap, the KL weight schedule, and the routed loss.

Routing puts each rollout position in exactly one of three classes:
error spans (failed rollouts, reverse KL toward the teacher), key spans
(successful rollouts, forward KL), or non-span (plain GRPO). The KL
channel carries weight lambda_k, which is flat during warm-up, ramps
linearly to zero, and stays there; rho_k = 1 - lambda_k / w0 smoothly
returns span tokens to GRPO as the channel closes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .divergence import (
    fkl_clipped_value_and_grad,
    rkl_clipped_value_and_grad,
)
from .errors import (
    DimensionError,
    InternalConsistencyError,
    RangeError,
    SpanAlignmentError,
    require_finite_fields,
)
from .grpo import ClipConfig, grpo_token_losses
from .policy import check_floor, truncate_and_floor


@dataclass(frozen=True)
class CharSpan:
    """Half-open annotated interval with a coarse type label."""

    start: int
    end: int
    span_type: str

    def __post_init__(self) -> None:
        if not self.start < self.end:
            raise RangeError(f"span [{self.start}, {self.end}) is empty")


@dataclass(frozen=True)
class RoutingConfig:
    """Corner action, coverage cap, clip, and schedule constants."""

    mu_e: int = 0
    mu_k: int = 1
    alpha: float = 0.25
    tau: float = 0.05
    w0: float = 0.5
    t_start: int = 10
    t_decay: int = 30
    sync_n: int = 10
    floor_p_min: float = 1e-6

    def __post_init__(self) -> None:
        require_finite_fields(self)
        if self.mu_e not in (0, 1) or self.mu_k not in (0, 1):
            raise RangeError("mu_e and mu_k are binary action selectors")
        if not (0 < self.alpha <= 1):
            raise RangeError(f"alpha={self.alpha} outside (0, 1]")
        if self.tau <= 0:
            raise RangeError("tau must be positive")
        if self.floor_p_min < 0:
            raise RangeError("floor_p_min must be nonnegative")
        if self.w0 <= 0:
            raise RangeError("w0 must be positive")
        if self.t_start < 0 or self.t_decay <= 0 or self.sync_n <= 0:
            raise RangeError("need t_start >= 0, t_decay > 0 and sync_n > 0")


@dataclass
class SpanPartition:
    """Disjoint (error, key, non-span) index sets covering a rollout."""

    error_idx: tuple[int, ...]
    key_idx: tuple[int, ...]
    nonspan_idx: tuple[int, ...]
    mask: np.ndarray
    outcome: int

    def __post_init__(self) -> None:
        n = len(self.mask)
        all_idx = sorted((*self.error_idx, *self.key_idx, *self.nonspan_idx))
        if all_idx != list(range(n)):
            raise InternalConsistencyError("partition is not a disjoint cover")
        if self.outcome == 1 and self.error_idx:
            raise InternalConsistencyError("error spans on a correct rollout")
        if self.outcome == 0 and self.key_idx:
            raise InternalConsistencyError("key spans on a failed rollout")

    @property
    def span_idx(self) -> tuple[int, ...]:
        return tuple(sorted((*self.error_idx, *self.key_idx)))


def project_spans_to_mask(
    spans: list[CharSpan], token_char_intervals: list[tuple[int, int]]
) -> np.ndarray:
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


def coverage_cap(alpha: float, length: int) -> int:
    return math.ceil(alpha * length)


def enforce_coverage_cap(
    mask: np.ndarray, weights: np.ndarray, alpha: float
) -> np.ndarray:
    """Keep at most ceil(alpha * len) marked tokens, by descending weight.

    Ties break toward the lower index so binary annotator weights give a
    deterministic mask.
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


def partition(rollout_len: int, mask: np.ndarray, verifier_outcome: int) -> SpanPartition:
    """Route masked indices to error (outcome 0) or key (outcome 1) spans."""
    mask = np.asarray(mask, dtype=np.int8)
    if mask.size != rollout_len:
        raise DimensionError(
            f"mask length {mask.size} != rollout length {rollout_len}"
        )
    if verifier_outcome not in (0, 1):
        raise RangeError("verifier outcome must be 0 or 1")
    marked = tuple(int(t) for t in np.flatnonzero(mask))
    rest = tuple(t for t in range(rollout_len) if mask[t] == 0)
    if verifier_outcome == 1:
        return SpanPartition((), marked, rest, mask.copy(), 1)
    return SpanPartition(marked, (), rest, mask.copy(), 0)


def lambda_schedule(k: int, cfg: RoutingConfig) -> float:
    """Flat w0 warm-up, linear ramp over t_decay steps, then zero."""
    if k < 0:
        raise RangeError("step index must be nonnegative")
    if k < cfg.t_start:
        return cfg.w0
    if k <= cfg.t_start + cfg.t_decay:
        return cfg.w0 * (1.0 - (k - cfg.t_start) / cfg.t_decay)
    return 0.0


def rho(lambda_k: float, w0: float) -> float:
    """GRPO restore weight on span tokens: 0 at full KL, 1 after decay."""
    if w0 <= 0:
        raise RangeError("w0 must be positive")
    if not (0.0 <= lambda_k <= w0):
        raise RangeError(f"lambda={lambda_k} outside [0, {w0}]")
    return 1.0 - lambda_k / w0


def schedule_weight_sums(
    cfg: RoutingConfig, horizon: int | None = None
) -> tuple[float, float]:
    """(sum lambda_k, sum lambda_k^2) over the horizon (default: all steps).

    The closed forms for the full schedule are
        L1 = w0 * (t_start + (t_decay + 1) / 2)
        L2 = w0^2 * (t_start + (t_decay + 1)(2 t_decay + 1) / (6 t_decay))
    and finite because lambda is identically zero after the ramp.
    """
    if horizon is None:
        d = cfg.t_decay
        l1 = cfg.w0 * (cfg.t_start + (d + 1) / 2.0)
        l2 = cfg.w0**2 * (cfg.t_start + (d + 1) * (2 * d + 1) / (6.0 * d))
        return l1, l2
    lams = [lambda_schedule(k, cfg) for k in range(horizon)]
    return float(sum(lams)), float(sum(l * l for l in lams))


@dataclass
class RolloutLossInput:
    """Per-rollout tensors the routed loss consumes.

    ``teacher`` maps span positions to teacher distributions and may be
    None whenever the KL channel is closed; the loss never touches it in
    that case (the stop-gradient contract is implicit: gradients are taken
    only with respect to the student rows). ``adv_scale`` multiplies the
    rollout advantage token by token inside the GRPO surrogate (the RLSD
    baseline's clipped teacher/student ratio); None means 1.
    """

    student: np.ndarray  # (L, V) student distributions
    log_ratio: np.ndarray  # (L,) log pi_theta(y_t) - log pi_old(y_t)
    sampled: np.ndarray  # (L,) sampled token ids
    part: SpanPartition
    teacher: dict | None = None
    adv_scale: np.ndarray | None = None  # (L,) per-token advantage multiplier


@dataclass
class RoutedLossReport:
    """Loss decomposition plus per-position logit gradients.

    total = grpo_nonspan + rho * grpo_span
            + lam * (mu_e * kl_error_branch + mu_k * kl_key_branch)

    Branch values are reported in the per-token 1/|y| normalization; the
    span-mean times |S|/|y| form coincides with it and is recorded too.
    The gradient map is keyed by (rollout index, position); a position's
    span class is read from its rollout's mask. ``routed_step_loss`` fills
    it; ``routed_loss_rows`` returns the gradients as arrays instead.
    """

    total: float
    grpo_nonspan: float
    grpo_span: float
    kl_error_branch: float
    kl_key_branch: float
    kl_error_span_mean_form: float
    kl_key_span_mean_form: float
    lam: float
    rho: float
    per_token_logit_grads: dict = field(default_factory=dict)


def _running_sum(values: np.ndarray) -> float:
    """0.0 + values[0] + values[1] + ..., left to right.

    The order a per-token loop accumulates in; ``np.sum`` adds pairwise.
    Adding 0.0 at the end gives the loop's +0.0 for an all-zero input.
    """
    return float(np.cumsum(values)[-1]) + 0.0 if values.size else 0.0


def _simplex_rows(rows: np.ndarray) -> np.ndarray:
    """Mask of the rows ``validate_distribution`` accepts."""
    ok = np.isfinite(rows).all(axis=1)
    ok[ok] = (rows[ok] >= 0).all(axis=1) & (np.abs(rows[ok].sum(axis=1) - 1.0) <= 1e-9)
    return ok


def _floor_rows(rows: np.ndarray, p_min: float) -> tuple[np.ndarray, np.ndarray]:
    """``truncate_and_floor`` at full support over valid rows.

    Returns the floored rows and the mask of rows whose fixed point pins
    no entry; the other rows are not the reference's output.
    """
    q = rows / rows.sum(axis=1, keepdims=True)
    if p_min == 0.0:
        return q, np.ones(len(q), dtype=bool)
    scale = 1.0 / np.sort(q, axis=1).sum(axis=1)
    return q * scale[:, None], q.min(axis=1) * scale >= p_min


def _floored_kl_rows(
    student: np.ndarray, teacher: list, reverse: np.ndarray, cfg: RoutingConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Floored, clipped KL value and student-logit gradient of each row.

    ``reverse`` marks the reverse-KL (error-span) rows. The floor keeps
    the full vocabulary and the clip is two-sided. Array arithmetic covers
    the rows where it reproduces the per-row reference bit for bit: no
    pinned floor entry and no clipped per-vocabulary term. Every other
    row, including any that fails validation, goes through
    ``truncate_and_floor`` and the scalar clipped-KL routines, which raise
    the reference's errors.
    """
    m, vocab = student.shape
    values = np.empty(m)
    grads = np.empty((m, vocab))
    if m == 0:
        return values, grads
    check_floor(vocab, vocab, cfg.floor_p_min)
    done = np.zeros(m, dtype=bool)
    try:
        q_raw = np.array(teacher, dtype=float)
    except ValueError:  # ragged teacher rows
        q_raw = None
    if vocab >= 2 and q_raw is not None and q_raw.shape == (m, vocab):
        idx = np.flatnonzero(_simplex_rows(student) & _simplex_rows(q_raw))
        p, p_free = _floor_rows(student[idx], cfg.floor_p_min)
        q, q_free = _floor_rows(q_raw[idx], cfg.floor_p_min)
        keep = p_free & q_free & (p > 0).all(axis=1) & (q > 0).all(axis=1)
        idx, p, q = idx[keep], p[keep], q[keep]
        rev = reverse[idx][:, None]
        log_p, log_q = np.log(p), np.log(q)
        terms = np.where(rev, p * (log_p - log_q), q * (log_q - log_p))
        live = ((terms >= -cfg.tau) & (terms <= cfg.tau)).all(axis=1)
        # d(p_v r_v)/d l = p_v (e_v - p)(r_v + 1) for reverse KL; p - q forward.
        w = p * ((log_p - log_q) + 1.0)
        grad = np.where(rev, -p * w.sum(axis=1)[:, None] + w, p * q.sum(axis=1)[:, None] - q)
        idx = idx[live]
        values[idx] = terms[live].sum(axis=1)
        grads[idx] = grad[live]
        done[idx] = True
    for j in np.flatnonzero(~done):
        p_f = truncate_and_floor(student[j], vocab, cfg.floor_p_min)
        q_f = truncate_and_floor(teacher[j], vocab, cfg.floor_p_min)
        kl = rkl_clipped_value_and_grad if reverse[j] else fkl_clipped_value_and_grad
        values[j], grads[j] = kl(p_f, q_f, cfg.tau)
    return values, grads


def routed_loss_rows(
    student: np.ndarray,
    log_ratio: np.ndarray,
    sampled: np.ndarray,
    in_span: np.ndarray,
    lengths: np.ndarray,
    failed: np.ndarray,
    teacher: np.ndarray | list,
    advantages: np.ndarray,
    lam: float,
    cfg: RoutingConfig,
    clip: ClipConfig = ClipConfig(),
    adv_scale: np.ndarray | None = None,
) -> tuple[RoutedLossReport, np.ndarray, np.ndarray]:
    """The routed loss of a rollout group given as flat token arrays.

    Token arrays run in (rollout, position) order: ``student`` (N, V),
    ``log_ratio``, ``sampled``, ``in_span`` and the optional per-token
    advantage multiplier ``adv_scale`` (N,); ``lengths``, ``failed``
    (outcome 0) and ``advantages`` have one entry per rollout. ``teacher``
    holds one row per KL position, the span positions of the rollouts
    whose branch is active (error spans on failed rollouts under mu_e, key
    spans on accepted ones under mu_k) while lam > 0, in token order.

    Returns the report without its gradient map, the token indices that
    carry a logit gradient, ascending, and their (K, V) gradient rows.
    Sums taken in (rollout, position) order, and every gradient row, equal
    a per-token loop over the scalar reference routines
    (``grpo_token_loss``, ``truncate_and_floor`` and the clipped KLs) bit
    for bit. KL rows the array form cannot reproduce exactly run through
    those routines.
    """
    rho_k = rho(lam, cfg.w0)
    g = lengths.size
    inv_len = 1.0 / lengths
    row_item = np.repeat(np.arange(g), lengths)
    n_span = np.bincount(row_item[in_span], minlength=g)
    if np.any(n_span > np.ceil(cfg.alpha * lengths)):
        raise InternalConsistencyError("span mask exceeds the coverage cap")
    n_err = np.where(failed, n_span, 0)
    n_key = n_span - n_err
    kl_on = (lam > 0.0) & np.where(failed, bool(cfg.mu_e), bool(cfg.mu_k))
    tok_inv_len = inv_len[row_item]

    # GRPO term, rho-scaled on span tokens while the channel is open.
    tok_adv = advantages[row_item]
    if adv_scale is not None:
        tok_adv = tok_adv * adv_scale
    loss, factor = grpo_token_losses(log_ratio, tok_adv, clip)
    share = loss * tok_inv_len / g
    grpo_span = _running_sum(share[in_span])
    grpo_nonspan = _running_sum(share[~in_span])
    weight = np.where(in_span, rho_k, 1.0) * tok_inv_len / g
    has_grpo = (factor != 0.0) & (weight != 0.0)
    fw = (factor * weight)[has_grpo]
    score = -student[has_grpo] * fw[:, None]
    score[np.arange(fw.size), sampled[has_grpo]] += fw
    grads = np.zeros_like(student)
    grads[has_grpo] = score

    # Routed KL on the active branch.
    kl_mask = in_span & kl_on[row_item]
    kl_rows = np.flatnonzero(kl_mask)
    if len(teacher) != kl_rows.size:
        raise DimensionError(f"{len(teacher)} teacher rows for {kl_rows.size} KL positions")
    kl_item = row_item[kl_rows]
    kl_error_row = failed[kl_item]
    kl_values, kl_grads = _floored_kl_rows(student[kl_rows], teacher, kl_error_row, cfg)
    kl_term = kl_grads * (lam * tok_inv_len[kl_rows] / g)[:, None]
    grads[kl_rows] = np.where(has_grpo[kl_rows, None], grads[kl_rows] + kl_term, kl_term)
    err_sum = np.bincount(kl_item[kl_error_row], kl_values[kl_error_row], minlength=g)
    key_sum = np.bincount(kl_item[~kl_error_row], kl_values[~kl_error_row], minlength=g)
    kl_error = _running_sum(err_sum * inv_len / g)
    kl_key = _running_sum(key_sum * inv_len / g)
    e, s = n_err > 0, n_key > 0
    kl_error_sm = _running_sum((err_sum[e] / n_err[e]) * (n_span[e] * inv_len[e]) / g)
    kl_key_sm = _running_sum((key_sum[s] / n_key[s]) * (n_span[s] * inv_len[s]) / g)

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
    has_grad = np.flatnonzero(has_grpo | kl_mask)
    return report, has_grad, grads[has_grad]


def routed_step_loss(
    items: list[RolloutLossInput],
    advantages: np.ndarray,
    k: int,
    cfg: RoutingConfig,
    clip: ClipConfig = ClipConfig(),
    lam_override: float | None = None,
) -> RoutedLossReport:
    """Assemble the per-step routed loss over a group of rollouts.

    Error spans use reverse KL (student first), key spans forward KL
    (teacher first); per-vocabulary contributions are clamped at tau with
    gradient flowing through the unclipped region only. Both distributions
    are floored before any divergence so log ratios stay bounded. With
    lambda = 0 the teacher inputs are never consulted. A rollout's
    ``adv_scale`` multiplies its advantage per token in the surrogate.

    Validates the per-rollout inputs, concatenates them and runs
    ``routed_loss_rows``; the gradient map is keyed by (rollout index,
    position).
    """
    advantages = np.asarray(advantages, dtype=float)
    if advantages.size != len(items):
        raise DimensionError("one advantage per rollout required")
    if not items:
        raise DimensionError("empty rollout group")
    lam = lambda_schedule(k, cfg) if lam_override is None else lam_override
    rho(lam, cfg.w0)  # a lam outside [0, w0] fails before the per-item checks
    vocab = items[0].student.shape[1]

    teacher_rows = []
    for item in items:
        length = item.student.shape[0]
        part = item.part
        if length == 0:
            raise DimensionError("degenerate rollout of length 0")
        if item.student.shape[1] != vocab:
            raise DimensionError("rollouts disagree on the vocabulary size")
        if len(part.mask) != length or item.log_ratio.shape != (length,):
            raise DimensionError("partition/rollout length mismatch")
        if item.adv_scale is not None and len(item.adv_scale) != length:
            raise DimensionError("advantage multiplier/rollout length mismatch")
        if len(part.span_idx) > coverage_cap(cfg.alpha, length):
            raise InternalConsistencyError("span mask exceeds the coverage cap")
        # Span positions are all error spans on a failed rollout, all key
        # spans on an accepted one.
        if lam > 0.0 and (cfg.mu_e if part.outcome == 0 else cfg.mu_k):
            for t in part.span_idx:
                if item.teacher is None or t not in item.teacher:
                    raise DimensionError(f"teacher distribution missing at span position {t}")
                teacher_rows.append(item.teacher[t])

    lengths = np.array([len(item.part.mask) for item in items])
    adv_scale = None
    if any(item.adv_scale is not None for item in items):
        adv_scale = np.concatenate([
            np.ones(len(item.part.mask)) if item.adv_scale is None else item.adv_scale
            for item in items
        ])
    report, rows, grads = routed_loss_rows(
        student=np.concatenate([item.student for item in items]),
        log_ratio=np.concatenate([item.log_ratio for item in items]),
        sampled=np.concatenate([item.sampled for item in items]),
        in_span=np.concatenate([item.part.mask for item in items]) == 1,
        lengths=lengths,
        failed=np.array([item.part.outcome == 0 for item in items]),
        teacher=teacher_rows,
        advantages=advantages,
        lam=lam,
        cfg=cfg,
        clip=clip,
        adv_scale=adv_scale,
    )
    item_of = np.repeat(np.arange(len(items)), lengths)[rows]
    position = rows - (np.cumsum(lengths) - lengths)[item_of]
    report.per_token_logit_grads = dict(zip(zip(item_of.tolist(), position.tolist()), grads))
    return report


def spans_to_json(spans: list[CharSpan], outcome: int) -> str:
    """Serialize one rollout's annotation record."""
    record = {
        "spans": [
            {"start": s.start, "end": s.end, "type": s.span_type} for s in spans
        ],
        "outcome": int(outcome),
    }
    return json.dumps(record, sort_keys=True)


def spans_from_json(text: str) -> tuple[list[CharSpan], int]:
    record = json.loads(text)
    spans = [
        CharSpan(int(s["start"]), int(s["end"]), str(s["type"]))
        for s in record["spans"]
    ]
    return spans, int(record["outcome"])
