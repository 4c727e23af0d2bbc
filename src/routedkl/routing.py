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
)
from .grpo import ClipConfig, grpo_token_loss
from .policy import truncate_and_floor


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
    floor_top_k: int | None = None  # None: keep the full vocabulary
    floor_p_min: float = 1e-6
    clip_two_sided: bool = True

    def __post_init__(self) -> None:
        if self.mu_e not in (0, 1) or self.mu_k not in (0, 1):
            raise RangeError("mu_e and mu_k are binary action selectors")
        if not (0 < self.alpha <= 1):
            raise RangeError(f"alpha={self.alpha} outside (0, 1]")
        if self.tau <= 0:
            raise RangeError("tau must be positive")
        if self.w0 <= 0:
            raise RangeError("w0 must be positive")
        if self.t_start < 0 or self.t_decay <= 0 or self.sync_n <= 0:
            raise RangeError("schedule constants must be nonnegative/positive")


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
    span class is read from its rollout's mask.
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
        top_k = cfg.floor_top_k or vocab
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
                p_f = truncate_and_floor(p_t, top_k, cfg.floor_p_min)
                q_f = truncate_and_floor(item.teacher[t], top_k, cfg.floor_p_min)
                if is_error:
                    value, kl_grad = rkl_clipped_value_and_grad(
                        p_f, q_f, cfg.tau, cfg.clip_two_sided
                    )
                    err_sum += value
                else:
                    value, kl_grad = fkl_clipped_value_and_grad(
                        p_f, q_f, cfg.tau, cfg.clip_two_sided
                    )
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
