"""Privileged-context variance, gradient deviation, and the exposure ledger.

The teacher sees a coarse context label the student never receives. Across
the finite context set, the per-position teacher distributions vary; their
summed per-vocabulary variance V_t measures how much privileged signal a
KL pull at that position can carry. The gradient deviation induced by one
context draw is zero-mean, and in the tabular logit parameterization its
second moment equals V_t exactly, so the cumulative exposure inequality
holds with equality at C_s = 1 and is asserted on every ledger append.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .artifacts import LEDGER, csv_text
from .errors import DimensionError, InternalConsistencyError, RangeError
from .policy import validate_distribution


def context_variance(probs: np.ndarray, dists: np.ndarray) -> float | np.ndarray:
    """V = sum_v Var_c[q_c(v)] under context probabilities ``probs``, of
    one (n_contexts, vocab) matrix or of each matrix of a stack, each with
    the bytes it gets on its own."""
    probs = np.asarray(probs, dtype=float)
    dists = np.asarray(dists, dtype=float)
    if dists.ndim not in (2, 3) or dists.shape[-2] != probs.size:
        raise DimensionError("dists must be (n_contexts, vocab) or a stack of them")
    if abs(probs.sum() - 1.0) > 1e-9 or np.any(probs < 0):
        raise RangeError("context probabilities must form a distribution")
    mean = probs @ dists
    var = (probs @ (dists - mean[..., None, :]) ** 2).sum(axis=-1)
    return float(var) if dists.ndim == 2 else var


def context_mean(probs: np.ndarray, dists: np.ndarray) -> np.ndarray:
    return np.asarray(probs, dtype=float) @ np.asarray(dists, dtype=float)


def deviation_vector(
    probs: np.ndarray, dists: np.ndarray, context_index: int, student: np.ndarray
) -> np.ndarray:
    """Deviation delta = -sum_v a_v grad log pi_S(v) restricted to one row.

    a_v = q(v | c) - mean_c q(v | c) is zero-sum, and with tabular score
    rows grad log pi(v) = e_v - pi the sum collapses to -a, so
    ||delta||^2 = sum_v a_v^2 and E_c[delta] = 0 exactly.
    """
    student = validate_distribution(student, "student")
    dists = np.asarray(dists, dtype=float)
    a = dists[context_index] - context_mean(probs, dists)
    # Explicit score-row contraction; algebraically equal to -a.
    delta = -(a - a.sum() * student)
    return delta


def expected_deviation_sq(probs: np.ndarray, dists: np.ndarray) -> float | np.ndarray:
    """E_c ||delta||^2, computed by enumerating the finite context set, of
    one (n_contexts, vocab) matrix or of each matrix of a stack."""
    probs = np.asarray(probs, dtype=float)
    dists = np.asarray(dists, dtype=float)
    diffs = dists - context_mean(probs, dists)[..., None, :]
    out = (probs * (diffs**2).sum(axis=-1)).sum(axis=-1)
    return float(out) if dists.ndim == 2 else out


@dataclass(frozen=True)
class LedgerRecord:
    k: int
    lam: float
    masked_variance_mean: float
    deviation_sq_mean: float
    exposure_lhs: float
    bound_rhs: float


@dataclass
class ExposureLedger:
    """Running cumulative-exposure accumulators with the bound asserted.

    exposure = sum_k lam_k^2 * mean_t m_t E_c||delta_t||^2
    bound    = sum_k lam_k^2 * mean_t m_t V_t

    The bound is the score-operator bound at the tabular constant C_s = 1.
    The inequality exposure <= bound is checked term by term on every
    append; at tabular parameterization it holds with equality.
    """

    records: list = field(default_factory=list)
    exposure: float = 0.0
    bound: float = 0.0

    def to_csv(self) -> str:
        return csv_text(LEDGER, (
            (r.k, r.lam, r.masked_variance_mean, r.exposure_lhs, r.bound_rhs) for r in self.records
        ))


def exposure_accumulate(
    ledger: ExposureLedger,
    k: int,
    lam: float,
    masked_variance_mean: float,
    deviation_sq_mean: float,
) -> ExposureLedger:
    """Append one step record, keeping the per-step inequality invariant."""
    lhs_term = lam**2 * deviation_sq_mean
    rhs_term = lam**2 * masked_variance_mean
    if lhs_term > rhs_term + 1e-12:
        raise InternalConsistencyError(
            f"exposure bound violated at step {k}: {lhs_term} > {rhs_term}"
        )
    ledger.exposure += lhs_term
    ledger.bound += rhs_term
    ledger.records.append(
        LedgerRecord(
            k=k,
            lam=lam,
            masked_variance_mean=masked_variance_mean,
            deviation_sq_mean=deviation_sq_mean,
            exposure_lhs=ledger.exposure,
            bound_rhs=ledger.bound,
        )
    )
    return ledger


@dataclass(frozen=True)
class RlsdWeight:
    """Teacher/student probability ratio with its clipped value."""

    raw: float | np.ndarray
    clipped: float | np.ndarray


def rlsd_weight(
    teacher_prob: float | np.ndarray, student_prob: float | np.ndarray, eps_w: float
) -> RlsdWeight:
    """Per-token reweighting factor w = q(y_t) / p(y_t), clipped to 1 +- eps.

    The unclipped ratio damps positive advantages to at most A * delta/p0
    whenever the teacher puts at most delta on a token the student holds
    with at least p0; clipping bounds the damping below by 1 - eps_w.
    Probabilities may be floats or equal-shape arrays (one weight per entry).
    """
    if np.any(np.asarray(student_prob) <= 0):
        raise RangeError("student probability must be positive")
    if np.any(np.asarray(teacher_prob) < 0):
        raise RangeError("teacher probability must be nonnegative")
    if not (0 <= eps_w < 1):
        raise RangeError("eps_w must lie in [0, 1)")
    raw = teacher_prob / student_prob
    clipped = np.minimum(np.maximum(raw, 1.0 - eps_w), 1.0 + eps_w)
    return RlsdWeight(raw=raw, clipped=clipped)
