"""Group-relative advantages and the clipped policy-gradient surrogate."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteInputError, RangeError, require_finite_fields


@dataclass(frozen=True)
class ClipConfig:
    """Asymmetric ratio clip; the high side is wider than the low side."""

    eps_low: float = 0.2
    eps_high: float = 0.28

    def __post_init__(self) -> None:
        require_finite_fields(self)
        if not (0 < self.eps_low <= self.eps_high):
            raise RangeError(
                f"need 0 < eps_low <= eps_high, got ({self.eps_low}, {self.eps_high})"
            )


def group_advantages(rewards: np.ndarray) -> np.ndarray:
    """Standardized advantages (R - mean) / std with the 0/0 = 0 dead zone.

    Population standard deviation, so a (1, 0) group maps to (1, -1).
    Every token of a rollout shares its rollout's advantage.
    """
    r = np.asarray(rewards, dtype=float)
    if r.size < 2:
        raise RangeError("need at least two rollouts per group")
    mu = r.mean()
    sigma = r.std()
    if sigma == 0.0:
        return np.zeros_like(r)
    return (r - mu) / sigma


def grpo_token_loss(
    log_ratio: float, advantage: float, clip: ClipConfig = ClipConfig()
) -> tuple[float, float]:
    """Clipped surrogate for one token.

    Returns (loss, grad_factor) where loss = -min(rho*A, clamp(rho)*A),
    rho = exp(log_ratio), and grad_factor = d loss / d log pi(y_t). The
    factor is zero exactly when the clip binds against the improvement
    direction; multiply it by the score vector (e_y - pi) to get the
    logit gradient.
    """
    if not np.isfinite(log_ratio):
        raise NonFiniteInputError("log ratio must be finite")
    rho = float(np.exp(log_ratio))
    clamped = min(max(rho, 1.0 - clip.eps_low), 1.0 + clip.eps_high)
    s_free = rho * advantage
    s_clip = clamped * advantage
    loss = -min(s_free, s_clip)
    grad_factor = -s_free if s_free <= s_clip else 0.0
    return loss, grad_factor


def grpo_token_losses(
    log_ratio: np.ndarray, advantage: np.ndarray, clip: ClipConfig = ClipConfig()
) -> tuple[np.ndarray, np.ndarray]:
    """``grpo_token_loss`` over matching token arrays, element for element.

    Returns the (loss, grad_factor) arrays; each entry equals the scalar
    routine's result bit for bit.
    """
    log_ratio = np.asarray(log_ratio, dtype=float)
    if not np.all(np.isfinite(log_ratio)):
        raise NonFiniteInputError("log ratio must be finite")
    ratio = np.exp(log_ratio)
    clamped = np.minimum(np.maximum(ratio, 1.0 - clip.eps_low), 1.0 + clip.eps_high)
    s_free = ratio * advantage
    s_clip = clamped * advantage
    loss = -np.minimum(s_free, s_clip)
    grad_factor = np.where(s_free <= s_clip, -s_free, 0.0)
    return loss, grad_factor
