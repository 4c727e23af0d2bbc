"""Run diagnostics: key-token probability lift and credit concentration."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, RangeError


@dataclass(frozen=True)
class LiftSample:
    """One (position, token) log-prob pair around a parameter update.

    ``teacher_supported`` must be evaluated strictly at the pre-update
    policy; samples failing that filter do not enter the lift average.
    """

    position: int
    token: int
    logprob_before: float
    logprob_after: float
    teacher_supported: bool


def delta_lift(samples: list[LiftSample]) -> float | None:
    """Mean post-update log-prob change over teacher-supported samples.

    Returns None (absent, not zero) when no sample passes the filter.
    """
    qualifying = [s for s in samples if s.teacher_supported]
    if not qualifying:
        return None
    return float(
        np.mean([s.logprob_after - s.logprob_before for s in qualifying])
    )


def credit_concentration(
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
