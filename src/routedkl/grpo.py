"""Group-relative advantages.

The GRPO term is on-policy: a run samples a group and applies one update
to it, so the student that scores the tokens is the student that sampled
them and the importance ratio is 1. The clipped surrogate then reduces to
``-A`` per token, for its loss and its gradient factor alike, whatever the
clip bounds; ``routing.routed_loss_rows`` uses that form directly.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import RangeError


def group_advantages(rewards: np.ndarray) -> np.ndarray:
    """Standardized advantages (R - mean) / std with the 0/0 = 0 dead zone.

    Population standard deviation, so a (1, 0) group maps to (1, -1).
    Every token of a rollout shares its rollout's advantage. The mean and
    the variance are the ``add.reduce`` sums that ``np.mean`` and
    ``np.std`` take, divided by the group size, so the bytes equal
    ``(r - r.mean()) / r.std()`` without their Python dispatch.
    """
    r = np.asarray(rewards, dtype=float)
    if r.size < 2:
        raise RangeError("need at least two rollouts per group")
    dev = r - r.sum() / r.size
    sigma = math.sqrt((dev * dev).sum() / r.size)
    if sigma == 0.0:
        return np.zeros_like(r)
    return dev / sigma

