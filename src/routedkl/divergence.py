"""KL divergences, their analytic logit gradients, and per-entry clipping.

Conventions: for a fixed token position, the teacher distribution q and
student distribution p live on the same floored support. Forward KL is
KL(q || p) (teacher first), reverse KL is KL(p || q). Gradients are taken
with respect to the student logits of p = softmax(l):

    d KL_F / d l_v = p_v - q_v
    d KL_R / d l_v = p_v * (r_v - rbar),   r_v = log(p_v / q_v)

Both are zero-sum because softmax is shift invariant. The clipped
forms of both directions share one core, ``_clipped_kl``, which takes a
stack that mixes forward and reverse rows in one pass.
"""

from __future__ import annotations

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


def fkl_logit_grad(student: np.ndarray, teacher: np.ndarray) -> np.ndarray:
    """Gradient of KL(teacher || student) w.r.t. student logits: p - q."""
    p, q = _check_pair(student, teacher)
    return p - q


def rkl_logit_grad(student: np.ndarray, teacher: np.ndarray) -> np.ndarray:
    """Gradient of KL(student || teacher) w.r.t. student logits."""
    p, q = _require_positive(*_check_pair(student, teacher))
    r = np.log(p) - np.log(q)
    return p * (r - float((p * r).sum()))


def clip_per_vocab_kl(kl_terms: np.ndarray, tau: float) -> np.ndarray:
    """Clamp per-vocabulary KL contributions to [-tau, tau] before the
    position sum; ``np.minimum(np.maximum(...))``, the bytes of ``np.clip``
    without its Python dispatch."""
    if tau <= 0:
        raise RangeError(f"tau={tau} must be positive")
    return np.minimum(np.maximum(np.asarray(kl_terms, dtype=float), -tau), tau)


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
    return _clipped_kl(p, q, False, tau)


def rkl_clipped_value_and_grad(
    student: np.ndarray, teacher: np.ndarray, tau: float
) -> tuple[float | np.ndarray, np.ndarray]:
    """Clipped reverse-KL value and its exact student-logit gradient, of one
    row or of each row of a (N, V) stack."""
    return _clipped_kl(*_require_positive(*_check_pair(student, teacher, validate_rows)), True, tau)


def _clipped_kl(
    p: np.ndarray, q: np.ndarray, reverse, tau: float
) -> tuple[float | np.ndarray, np.ndarray]:
    """Clipped KL value and student-logit gradient of rows already checked:
    KL(p || q) where ``reverse`` holds (a bool, or a (N, 1) column), KL(q ||
    p) elsewhere. The terms are a r, r = log(a / b), (a, b) = (p, q) reversed
    and (q, p) forward, and 0 where a = 0, taking no log of 0. With s = -1 and
    u = p (r + 1) reversed, s = 1 and u = q forward, the gradient is
    s p sum_live(u), less s u on the live (unclipped) entries.
    """
    a, b = np.where(reverse, p, q), np.where(reverse, q, p)
    nz = a > 0
    r = np.log(np.where(nz, a, 1.0)) - np.log(np.where(nz, b, 1.0))
    terms = np.where(nz, a * r, 0.0)
    clipped = clip_per_vocab_kl(terms, tau)
    live = clipped == terms
    u = np.where(reverse, p * (r + 1.0), q)
    sign = np.where(reverse, -1.0, 1.0)
    grad = sign * p * masked_row_sum(u, live)[..., None]
    values = clipped.sum(axis=-1)
    return (float(values) if values.ndim == 0 else values), np.where(live, grad - sign * u, grad)
