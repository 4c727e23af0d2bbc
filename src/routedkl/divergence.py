"""KL divergences, their analytic logit gradients, and per-entry clipping.

Conventions: for a fixed token position, the teacher distribution q and
student distribution p live on the same floored support. Forward KL is
KL(q || p) (teacher first), reverse KL is KL(p || q). Gradients are taken
with respect to the student logits of p = softmax(l):

    d KL_F / d l_v = p_v - q_v
    d KL_R / d l_v = p_v * (r_v - rbar),   r_v = log(p_v / q_v)

Both are zero-sum because softmax is shift invariant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, RangeError, UndefinedDivergenceError
from .policy import masked_row_sum, validate_distribution, validate_rows


def _check_pair(p: np.ndarray, q: np.ndarray, validate=validate_distribution) -> tuple:
    """Check p and q with ``validate`` (one row each, or ``validate_rows``
    for two stacks) and require equal shapes."""
    p, q = validate(p, "p"), validate(q, "q")
    if p.shape != q.shape:
        raise DimensionError(f"shapes differ: {p.shape} vs {q.shape}")
    return p, q


def _require_positive(p: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    if np.any(q <= 0) or np.any(p <= 0):
        raise UndefinedDivergenceError(
            "log ratios need strictly positive entries; floor both distributions first"
        )
    return p, q


def kl(p: np.ndarray, q: np.ndarray) -> float:
    """KL(p || q) in nats. Requires q > 0 wherever p > 0."""
    p, q = _check_pair(p, q)
    mask = p > 0
    if np.any(q[mask] <= 0):
        raise UndefinedDivergenceError("q vanishes on the support of p")
    return float((p[mask] * (np.log(p[mask]) - np.log(q[mask]))).sum())


@dataclass(frozen=True)
class LogRatioStats:
    """Per-token log ratios r_v = log(p_v / q_v) and their p-mean."""

    r: np.ndarray
    r_bar: float


def log_ratio_stats(student: np.ndarray, teacher: np.ndarray) -> LogRatioStats:
    p, q = _require_positive(*_check_pair(student, teacher))
    r = np.log(p) - np.log(q)
    return LogRatioStats(r=r, r_bar=float((p * r).sum()))


def fkl_logit_grad(student: np.ndarray, teacher: np.ndarray) -> np.ndarray:
    """Gradient of KL(teacher || student) w.r.t. student logits: p - q."""
    p, q = _check_pair(student, teacher)
    return p - q


def rkl_logit_grad(student: np.ndarray, teacher: np.ndarray) -> np.ndarray:
    """Gradient of KL(student || teacher) w.r.t. student logits."""
    stats = log_ratio_stats(student, teacher)
    p = np.asarray(student, dtype=float)
    return p * (stats.r - stats.r_bar)


def mixed_beta_grad(
    student: np.ndarray, teacher: np.ndarray, beta: float
) -> np.ndarray:
    """Gradient of beta*FKL + (1-beta)*RKL; affine in beta."""
    if not (0.0 <= beta <= 1.0):
        raise RangeError(f"beta={beta} outside [0, 1]")
    fkl, rkl = fkl_logit_grad(student, teacher), rkl_logit_grad(student, teacher)
    return beta * fkl + (1.0 - beta) * rkl


def clip_per_vocab_kl(kl_terms: np.ndarray, tau: float) -> np.ndarray:
    """Clamp per-vocabulary KL contributions to [-tau, tau] before the
    position sum."""
    if tau <= 0:
        raise RangeError(f"tau={tau} must be positive")
    return np.clip(np.asarray(kl_terms, dtype=float), -tau, tau)


def _row_values(clipped: np.ndarray) -> float | np.ndarray:
    """Sum of each row's clipped terms; a float for one row."""
    values = clipped.sum(axis=-1)
    return float(values) if values.ndim == 0 else values


def fkl_clipped_value_and_grad(
    student: np.ndarray, teacher: np.ndarray, tau: float
) -> tuple[float | np.ndarray, np.ndarray]:
    """Clipped forward-KL value and its exact student-logit gradient, of one
    row or of each row of a (N, V) stack.

    Per-vocabulary terms are clamped at tau; gradient flows only through
    entries in the unclipped region. With every entry unclipped this
    reduces to p - q.
    """
    p, q = _check_pair(student, teacher, validate_rows)
    if np.any(p[q > 0] <= 0):
        raise UndefinedDivergenceError("student vanishes on teacher support")
    return _fkl_clipped(p, q, tau)


def _fkl_clipped(p: np.ndarray, q: np.ndarray, tau: float) -> tuple[float | np.ndarray, np.ndarray]:
    """``fkl_clipped_value_and_grad`` of rows already checked. The terms
    q_v log(q_v / p_v) are 0 where q_v = 0; no log of 0 is taken."""
    nz = q > 0
    terms = np.where(nz, q * (np.log(np.where(nz, q, 1.0)) - np.log(np.where(nz, p, 1.0))), 0.0)
    clipped = clip_per_vocab_kl(terms, tau)
    live = clipped == terms
    grad = p * masked_row_sum(q, live)[..., None]
    return _row_values(clipped), np.where(live, grad - q, grad)


def rkl_clipped_value_and_grad(
    student: np.ndarray, teacher: np.ndarray, tau: float
) -> tuple[float | np.ndarray, np.ndarray]:
    """Clipped reverse-KL value and its exact student-logit gradient, of one
    row or of each row of a (N, V) stack."""
    return _rkl_clipped(*_require_positive(*_check_pair(student, teacher, validate_rows)), tau)


def _rkl_clipped(p: np.ndarray, q: np.ndarray, tau: float) -> tuple[float | np.ndarray, np.ndarray]:
    """``rkl_clipped_value_and_grad`` of rows already checked."""
    r = np.log(p) - np.log(q)
    terms = p * r
    clipped = clip_per_vocab_kl(terms, tau)
    live = clipped == terms
    # d(p_v r_v)/d l_u = p_v (1[u=v] - p_u)(r_v + 1); summed over live v.
    w = p * (r + 1.0)
    pull = -p * masked_row_sum(w, live)[..., None]
    return _row_values(clipped), np.where(live, pull + w, pull)
