"""Span masks, the coverage cap, the KL weight schedule, and the routed loss.

Routing puts each rollout position in exactly one of three classes:
error spans (failed rollouts, reverse KL toward the teacher), key spans
(successful rollouts, forward KL), or non-span (plain GRPO). The KL
channel carries weight lambda_k, which is flat during warm-up, ramps
linearly to zero, and stays there; rho_k = 1 - lambda_k / w0 smoothly
returns span tokens to GRPO as the channel closes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .divergence import (
    _fkl_clipped,
    _rkl_clipped,
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
from .policy import floor_fixed_point, simplex_rows, truncate_and_floor


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
class RoutedLossReport:
    """Loss decomposition of one rollout group.

    total = grpo_nonspan + rho * grpo_span
            + lam * (mu_e * kl_error_branch + mu_k * kl_key_branch)

    Branch values are reported in the per-token 1/|y| normalization; the
    span-mean times |S|/|y| form coincides with it and is recorded too.
    ``routed_loss_rows`` returns the logit gradients beside the report.
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


def _running_sum(values: np.ndarray) -> float:
    """0.0 + values[0] + values[1] + ..., left to right.

    The order a per-token loop accumulates in; ``np.sum`` adds pairwise.
    Adding 0.0 at the end gives the loop's +0.0 for an all-zero input.
    """
    return float(np.cumsum(values)[-1]) + 0.0 if values.size else 0.0


def _floored_kl_rows(
    student: np.ndarray, teacher: np.ndarray, reverse: np.ndarray, cfg: RoutingConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Floored, clipped KL value and student-logit gradient of each row.

    ``reverse`` marks the reverse-KL (error-span) rows. Input rows are
    checked once, here; both rows are floored in one ``floor_fixed_point``
    stack, and each direction's rows go through its unchecked clipped KL
    as one stack. The per-row reference is ``truncate_and_floor`` on both
    rows followed by the clipped KL; if it rejects a row, the first such
    row is run through it and raises its error.
    """
    m, vocab = student.shape
    if m == 0:
        return np.empty(0), np.empty((0, vocab))
    p_min = cfg.floor_p_min
    both = np.concatenate((student, teacher))
    ok = simplex_rows(both)
    ok = ok[:m] & ok[m:]
    if vocab >= 2 and p_min * vocab < 1.0:
        if not ok.all():
            both = both[np.concatenate((ok, ok))]
        floored = floor_fixed_point(both / both.sum(axis=1, keepdims=True), p_min)
        p, q = floored[: len(floored) // 2], floored[len(floored) // 2 :]
        if p_min == 0.0:  # zero entries survive; the KL may be undefined
            fkl_ok = ~((p <= 0) & (q > 0)).any(axis=1)
            rkl_ok = (p > 0).all(axis=1) & (q > 0).all(axis=1)
            ok[ok] = np.where(reverse[ok], rkl_ok, fkl_ok)
    else:
        ok[:] = False
    if not ok.all():
        j = int(np.argmin(ok))
        kl = rkl_clipped_value_and_grad if reverse[j] else fkl_clipped_value_and_grad
        kl(*(truncate_and_floor(row[j], vocab, p_min) for row in (student, teacher)), cfg.tau)
        raise InternalConsistencyError(f"KL row {j} was rejected only as part of the stack")
    values, grads = np.empty(m), np.empty((m, vocab))
    for sel, kl in ((~reverse, _fkl_clipped), (reverse, _rkl_clipped)):
        if sel.any():
            values[sel], grads[sel] = kl(p[sel], q[sel], cfg.tau)
    return values, grads


def routed_loss_rows(
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
) -> tuple[RoutedLossReport, np.ndarray, np.ndarray]:
    """The routed loss of a group of G rollouts of length T.

    ``student`` holds the (G, T, V) student rows; ``log_ratio``,
    ``sampled``, ``in_span`` (the span mask) and the optional per-token
    advantage multiplier ``adv_scale`` are (G, T); ``failed`` (outcome 0)
    and ``advantages`` are (G,). ``teacher`` holds one (M, V) row per KL
    position in (rollout, position) order: the span positions of the
    rollouts whose branch is active (error spans on failed rollouts under
    mu_e, key spans on accepted ones under mu_k) while lam > 0.

    Error spans use reverse KL (student first), key spans forward KL
    (teacher first); per-vocabulary contributions are clamped at tau with
    gradient flowing through the unclipped region only, and both rows are
    floored first. With lam = 0 there are no teacher rows.

    Returns the report, the flat indices into G*T of the positions that
    carry a logit gradient, ascending, and their (K, V) gradient rows.
    Sums taken in (rollout, position) order, and every gradient row, equal
    a per-token loop over the one-row routines (``grpo_token_loss``,
    ``truncate_and_floor`` and the clipped KLs) bit for bit.
    """
    rho_k = rho(lam, cfg.w0)
    student = np.asarray(student, dtype=float)
    if student.ndim != 3:
        raise DimensionError(f"student rows must be (G, T, V), got shape {student.shape}")
    g, horizon, vocab = student.shape
    if g == 0 or horizon == 0:
        raise DimensionError(f"empty rollout group: (G, T) = {(g, horizon)}")
    for name, arr, shape in (
        ("log_ratio", log_ratio, (g, horizon)),
        ("sampled", sampled, (g, horizon)),
        ("in_span", in_span, (g, horizon)),
        ("adv_scale", adv_scale, (g, horizon)),
        ("failed", failed, (g,)),
        ("advantages", advantages, (g,)),
    ):
        if arr is not None and np.shape(arr) != shape:
            raise DimensionError(f"{name} has shape {np.shape(arr)}, not {shape}")
    failed = np.asarray(failed, dtype=bool)
    in_span = np.asarray(in_span, dtype=bool)
    n_span = in_span.sum(axis=1)
    if np.any(n_span > coverage_cap(cfg.alpha, horizon)):
        raise InternalConsistencyError("span mask exceeds the coverage cap")
    student, in_span = student.reshape(-1, vocab), in_span.ravel()
    kl_on = (lam > 0.0) & np.where(failed, bool(cfg.mu_e), bool(cfg.mu_k))
    kl_mask = in_span & np.repeat(kl_on, horizon)
    kl_rows = np.flatnonzero(kl_mask)
    teacher = np.asarray(teacher, dtype=float)
    if teacher.shape != (kl_rows.size, vocab):
        raise DimensionError(
            f"teacher rows have shape {teacher.shape}, not {(kl_rows.size, vocab)} "
            "(one per KL position)"
        )
    n_err = np.where(failed, n_span, 0)
    n_key = n_span - n_err
    inv_len = 1.0 / horizon

    # GRPO term, rho-scaled on span tokens while the channel is open.
    tok_adv = np.repeat(np.asarray(advantages, dtype=float), horizon)
    if adv_scale is not None:
        tok_adv = tok_adv * np.ravel(adv_scale)
    loss, factor = grpo_token_losses(np.ravel(log_ratio), tok_adv, clip)
    share = loss * inv_len / g
    grpo_span = _running_sum(share[in_span])
    grpo_nonspan = _running_sum(share[~in_span])
    weight = np.where(in_span, rho_k, 1.0) * inv_len / g
    has_grpo = (factor != 0.0) & (weight != 0.0)
    fw = (factor * weight)[has_grpo]
    score = -student[has_grpo] * fw[:, None]
    score[np.arange(fw.size), np.ravel(sampled)[has_grpo]] += fw
    grads = np.zeros_like(student)
    grads[has_grpo] = score

    # Routed KL on the active branch.
    kl_item = kl_rows // horizon
    kl_error_row = failed[kl_item]
    kl_values, kl_grads = _floored_kl_rows(student[kl_rows], teacher, kl_error_row, cfg)
    kl_term = kl_grads * (lam * inv_len / g)
    grads[kl_rows] = np.where(has_grpo[kl_rows, None], grads[kl_rows] + kl_term, kl_term)
    err_sum = np.bincount(kl_item[kl_error_row], kl_values[kl_error_row], minlength=g)
    key_sum = np.bincount(kl_item[~kl_error_row], kl_values[~kl_error_row], minlength=g)
    kl_error = _running_sum(err_sum * inv_len / g)
    kl_key = _running_sum(key_sum * inv_len / g)
    e, s = n_err > 0, n_key > 0
    kl_error_sm = _running_sum((err_sum[e] / n_err[e]) * (n_span[e] * inv_len) / g)
    kl_key_sm = _running_sum((key_sum[s] / n_key[s]) * (n_span[s] * inv_len) / g)

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
