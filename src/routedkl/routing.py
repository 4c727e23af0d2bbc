"""The coverage cap, the KL weight schedule, and the routed loss.

Routing puts each rollout position in exactly one of three classes:
error spans (failed rollouts, reverse KL toward the teacher), key spans
(successful rollouts, forward KL), or non-span (plain GRPO). The KL
channel carries weight lambda_k, which is flat during warm-up, ramps
linearly to zero, and stays there; rho_k = 1 - lambda_k / w0 smoothly
returns span tokens to GRPO as the channel closes. The annotator caps
each rollout's span mask at ``coverage_cap`` positions, and the method
decides which rollouts' span branch carries KL (``runner.KL_BRANCHES``);
the kernel takes both as given. Its KL block takes a step's error and key
rows as one stack, in one pass, and runs only when a KL row exists: a
closed channel costs only the GRPO term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .divergence import _clipped_kl, fkl_clipped_value_and_grad, rkl_clipped_value_and_grad
from .errors import (
    DimensionError,
    InternalConsistencyError,
    RangeError,
    require_finite_fields,
)
from .policy import floor_fixed_point, truncate_and_floor


@dataclass(frozen=True)
class RoutingConfig:
    """Coverage cap, KL clip, floor, and schedule constants."""

    alpha: float = 0.25
    tau: float = 0.05
    w0: float = 0.5
    t_start: int = 10
    t_decay: int = 30
    sync_n: int = 10
    floor_p_min: float = 1e-6

    def __post_init__(self) -> None:
        require_finite_fields(self)
        if not (0 < self.alpha <= 1):
            raise RangeError(f"alpha={self.alpha} outside (0, 1]")
        if self.tau <= 0:
            raise RangeError("tau must be positive")
        if self.floor_p_min < 0:
            raise RangeError("floor_p_min must be nonnegative")
        if self.w0 <= 0:
            raise RangeError("w0 must be positive")
        if self.t_start < 0:
            raise RangeError(f"t_start must be nonnegative, got {self.t_start}")
        if self.t_decay <= 0:
            raise RangeError(f"t_decay must be positive, got {self.t_decay}")
        if self.sync_n <= 0:
            raise RangeError(f"sync_n must be positive, got {self.sync_n}")


def coverage_cap(alpha: float, length: int) -> int:
    return math.ceil(alpha * length)


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
            + lam * (kl_error_branch + kl_key_branch)

    Branch values are reported in the per-token 1/|y| normalization; a
    branch that carries no KL row is the +0.0 of an empty sum.
    ``routed_loss_rows`` returns the logit gradients beside the report.
    """

    total: float
    grpo_nonspan: float
    grpo_span: float
    kl_error_branch: float
    kl_key_branch: float
    lam: float
    rho: float


def _floored_kl_rows(
    student: np.ndarray, teacher: np.ndarray, reverse: np.ndarray, cfg: RoutingConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Floored, clipped KL value and student-logit gradient of each row.

    ``reverse`` marks the reverse-KL (error-span) rows. The input rows are
    checked once, here, as one stack: nonnegative entries (a NaN fails
    this) and sums within 1e-9 of 1 (an infinity fails this), the checks
    of ``validate_distribution``. The sums normalize both rows for one
    ``floor_fixed_point`` stack, and the rows of both directions go
    through ``_clipped_kl`` as one stack. The per-row reference is
    ``truncate_and_floor`` on both rows followed by the clipped KL; if the
    stack fails a check, its rows run through the reference in order and
    the first one it rejects raises its error.
    """
    m, vocab = student.shape
    if m == 0:
        return np.empty(0), np.empty((0, vocab))
    p_min = cfg.floor_p_min
    both = np.concatenate((student, teacher))
    # Rows are summed only once all entries are nonnegative: no inf - inf.
    ok = vocab >= 2 and p_min * vocab < 1.0 and (both >= 0).all()
    if ok:
        sums = both.sum(axis=1)
        ok = (np.abs(sums - 1.0) <= 1e-9).all()
    if ok:
        floored = floor_fixed_point(both / sums[:, None], p_min)
        p, q, rev = floored[:m], floored[m:], reverse[:, None]
        if p_min == 0.0:  # zero entries survive; the KL may be undefined
            ok = not ((p <= 0) & ((q > 0) | rev) | (q <= 0) & rev).any()
    if not ok:
        for j in range(m):
            kl = rkl_clipped_value_and_grad if reverse[j] else fkl_clipped_value_and_grad
            kl(*(truncate_and_floor(row[j], vocab, p_min) for row in (student, teacher)), cfg.tau)
        raise InternalConsistencyError("KL rows were rejected only as a stack")
    return _clipped_kl(p, q, rev, cfg.tau)


def routed_loss_rows(
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
) -> tuple[RoutedLossReport, np.ndarray, np.ndarray]:
    """The routed loss of a group of G rollouts of length T.

    ``student`` holds the (G, T, V) student rows; ``sampled``,
    ``in_span`` (the span mask) and the optional per-token advantage
    multiplier ``adv_scale`` are (G, T); ``failed`` (outcome 0),
    ``kl_on`` (the rollouts whose span branch carries KL, which the method
    decides) and ``advantages`` are (G,). The span mask is taken as given:
    the annotator has applied the coverage cap. ``teacher`` holds one
    (M, V) row per KL position in (rollout, position) order: the span
    positions of the ``kl_on`` rollouts while lam > 0.

    The GRPO term is on-policy: the rows that score the tokens are the
    rows that sampled them, so each token's surrogate loss and gradient
    factor are ``-A`` (times ``adv_scale``), the clipped surrogate at
    ratio 1 for any clip bounds.

    Error spans use reverse KL (student first), key spans forward KL
    (teacher first); per-vocabulary contributions are clamped at tau with
    gradient flowing through the unclipped region only, and both rows are
    floored first. With lam = 0 there are no teacher rows. The KL block
    runs only when a KL row exists; without one the KL fields are the +0.0
    of an empty sum and the GRPO score rows are the result, so a
    closed-channel group costs only the GRPO score rows.

    Returns the report, the flat indices into G*T of the positions that
    carry a logit gradient, ascending, and their (K, V) gradient rows.
    Sums taken in (rollout, position) order, and every gradient row, equal
    a per-token loop over the one-row routines (``truncate_and_floor`` and
    the clipped KLs) bit for bit.
    """
    rho_k = rho(lam, cfg.w0)
    student = np.asarray(student, dtype=float)
    if student.ndim != 3:
        raise DimensionError(f"student rows must be (G, T, V), got shape {student.shape}")
    g, horizon, vocab = student.shape
    if g == 0 or horizon == 0:
        raise DimensionError(f"empty rollout group: (G, T) = {(g, horizon)}")
    for name, arr, shape in (
        ("sampled", sampled, (g, horizon)),
        ("in_span", in_span, (g, horizon)),
        ("adv_scale", adv_scale, (g, horizon)),
        ("failed", failed, (g,)),
        ("kl_on", kl_on, (g,)),
        ("advantages", advantages, (g,)),
    ):
        if arr is not None and np.shape(arr) != shape:
            raise DimensionError(f"{name} has shape {np.shape(arr)}, not {shape}")
    failed = np.asarray(failed, dtype=bool)
    student, in_span = student.reshape(-1, vocab), np.asarray(in_span, dtype=bool).ravel()
    kl_on = (lam > 0.0) & np.asarray(kl_on, dtype=bool)
    kl_mask = in_span & kl_on.repeat(horizon)
    kl_rows = kl_mask.nonzero()[0]
    teacher = np.asarray(teacher, dtype=float)
    if teacher.shape != (kl_rows.size, vocab):
        raise DimensionError(
            f"teacher rows have shape {teacher.shape}, not {(kl_rows.size, vocab)} "
            "(one per KL position)"
        )
    inv_len = 1.0 / horizon

    # GRPO term, rho-scaled on span tokens while the channel is open. On
    # policy the ratio is 1, so a token's loss and gradient factor are -A.
    tok_adv = np.asarray(advantages, dtype=float).repeat(horizon)
    if adv_scale is not None:
        tok_adv = tok_adv * np.ravel(adv_scale)
    loss = factor = -tok_adv
    share = loss * inv_len / g
    # Each region's sum adds left to right from 0.0, as a per-token loop.
    grpo_nonspan, grpo_span = np.bincount(in_span, share, minlength=2).tolist()
    weight = np.where(in_span, rho_k, 1.0) * inv_len / g
    has_grpo = (factor != 0.0) & (weight != 0.0)
    grpo_rows = has_grpo.nonzero()[0]
    fw = (factor * weight)[grpo_rows]
    score = -student[grpo_rows] * fw[:, None]
    score[np.arange(fw.size), np.ravel(sampled)[grpo_rows]] += fw

    # Routed KL on the active branch, when it has a row.
    kl_error = kl_key = 0.0
    has_grad, grads = grpo_rows, score
    if kl_rows.size:
        grads = np.zeros_like(student)
        grads[grpo_rows] = score
        kl_item = kl_rows // horizon
        kl_values, kl_grads = _floored_kl_rows(student[kl_rows], teacher, failed[kl_item], cfg)
        kl_term = kl_grads * (lam * inv_len / g)
        grads[kl_rows] = np.where(has_grpo[kl_rows, None], grads[kl_rows] + kl_term, kl_term)
        # A rollout's KL rows are all error rows or all key rows, so one
        # per-rollout sum serves both branches, which add their rollouts'
        # sums left to right from 0.0.
        branch = np.bincount(kl_item, kl_values, minlength=g) * inv_len / g
        kl_key, kl_error = np.bincount(failed, branch, minlength=2).tolist()
        has_grad = (has_grpo | kl_mask).nonzero()[0]
        grads = grads[has_grad]

    total = grpo_nonspan + rho_k * grpo_span + lam * (kl_error + kl_key)
    report = RoutedLossReport(
        total=total,
        grpo_nonspan=grpo_nonspan,
        grpo_span=grpo_span,
        kl_error_branch=kl_error,
        kl_key_branch=kl_key,
        lam=lam,
        rho=rho_k,
    )
    return report, has_grad, grads
