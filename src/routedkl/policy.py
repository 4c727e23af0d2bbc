"""Tabular contextual softmax policies over small integer vocabularies.

A policy is a table of logit rows keyed by (prompt id, prefix of sampled
tokens). Rows materialize lazily from an init function, so only visited
prefixes occupy memory. The teacher view of the table shares parameters
with the student: teacher rows are the student rows as of the last sync,
shifted by a per-context logit offset.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (
    InfeasibleFloorError,
    InvalidDistributionError,
    NonFiniteInputError,
)

PrefixKey = tuple[int, ...]
RowKey = tuple[str, PrefixKey]

_SIMPLEX_ATOL = 1e-12


def softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax with max-subtraction; exact under shift invariance."""
    logits = np.asarray(logits, dtype=float)
    if not np.all(np.isfinite(logits)):
        raise NonFiniteInputError("softmax requires finite logits")
    shifted = logits - logits.max()
    expd = np.exp(shifted)
    return expd / expd.sum()


def validate_distribution(probs: np.ndarray, name: str = "dist") -> np.ndarray:
    """Check simplex membership and return the array as float64."""
    probs = np.asarray(probs, dtype=float)
    if probs.ndim != 1 or probs.size < 2:
        raise InvalidDistributionError(f"{name}: need a 1-d vector of length >= 2")
    if not np.all(np.isfinite(probs)):
        raise NonFiniteInputError(f"{name}: non-finite entries")
    if np.any(probs < 0):
        raise InvalidDistributionError(f"{name}: negative entries")
    if abs(probs.sum() - 1.0) > 1e-9:
        raise InvalidDistributionError(f"{name}: sums to {probs.sum()!r}, not 1")
    return probs


def entropy(dist: np.ndarray) -> float:
    """Shannon entropy in nats, with the 0*log(0) = 0 convention."""
    p = validate_distribution(dist, "entropy input")
    nz = p[p > 0]
    return float(-(nz * np.log(nz)).sum())


def check_floor(n: int, top_k: int, p_min: float) -> None:
    """Raise unless a top_k-truncated, p_min-floored length-n vector exists."""
    if not (1 <= top_k <= n):
        raise InfeasibleFloorError(f"top_k={top_k} outside [1, {n}]")
    if p_min < 0:
        raise InfeasibleFloorError("p_min must be nonnegative")
    if p_min * top_k >= 1.0:
        raise InfeasibleFloorError(
            f"infeasible floor: p_min*top_k = {p_min * top_k} >= 1"
        )


def truncate_and_floor(dist: np.ndarray, top_k: int, p_min: float) -> np.ndarray:
    """Restrict to the top_k largest entries, then floor and renormalize.

    Renormalizing can push a previously floored entry back under p_min, so
    the floor-renormalize pass is taken to its fixed point: the smallest
    supported entries pin at exactly p_min and the remainder rescale. The
    pinned set is found directly rather than by iterating, which near
    p_min * top_k = 1 would converge too slowly. Feasible whenever
    p_min * top_k < 1.
    """
    p = validate_distribution(dist, "truncate_and_floor input")
    n = p.size
    check_floor(n, top_k, p_min)
    # Top-k support, ties broken toward lower index for determinism.
    order = np.argsort(-p, kind="stable")
    support = np.sort(order[:top_k])
    q = np.zeros(n)
    q[support] = p[support]
    total = q.sum()
    if total <= 0:
        # Degenerate truncation (all selected mass zero): fall back to
        # uniform over the support before flooring.
        q[support] = 1.0 / top_k
    else:
        q /= total
    if p_min == 0.0:
        return q
    ascending = support[np.argsort(q[support], kind="stable")]
    vals = q[ascending]
    for n_pinned in range(top_k):
        rest = vals[n_pinned:].sum()
        scale = (1.0 - p_min * n_pinned) / rest
        if vals[n_pinned] * scale >= p_min:
            q[ascending[:n_pinned]] = p_min
            q[ascending[n_pinned:]] = vals[n_pinned:] * scale
            return q
    raise InfeasibleFloorError("floor fixed point infeasible")  # pragma: no cover


@dataclass
class PolicyTable:
    """Shared student/teacher logit table.

    Student rows live in ``rows`` and are the only mutable parameters.
    Teacher lookups resolve against a snapshot of the student rows taken
    at the last ``sync_teacher`` call (the same parameters under a
    different prompt), plus an optional per-context logit offset supplied
    by the caller. ``teacher_lookups`` counts teacher-side resolutions so
    a run can assert the teacher path is skipped when the KL channel is
    closed.
    """

    vocab: int
    init_logits: Callable[[str, PrefixKey], np.ndarray]
    rows: dict = field(default_factory=dict)
    synced_rows: dict = field(default_factory=dict)
    teacher_lookups: int = 0
    sync_count: int = 0

    def _init_row(self, prompt: str, prefix: PrefixKey) -> np.ndarray:
        row = np.asarray(self.init_logits(prompt, prefix), dtype=float).copy()
        if row.shape != (self.vocab,):
            raise InvalidDistributionError(
                f"init row has shape {row.shape}, expected ({self.vocab},)"
            )
        return row

    def student_logits(self, prompt: str, prefix: PrefixKey) -> np.ndarray:
        key = (prompt, tuple(prefix))
        row = self.rows.get(key)
        if row is None:
            row = self._init_row(prompt, key[1])
            self.rows[key] = row
        return row

    def student_dist(self, prompt: str, prefix: PrefixKey) -> np.ndarray:
        return softmax(self.student_logits(prompt, prefix))

    def sync_teacher(self) -> None:
        """Snapshot current student rows as the teacher base."""
        self.synced_rows = {k: v.copy() for k, v in self.rows.items()}
        self.sync_count += 1

    def teacher_logits(
        self, prompt: str, prefix: PrefixKey, offset: np.ndarray | None = None
    ) -> np.ndarray:
        """Teacher row: last-synced student row plus the context offset.

        A prefix that had no materialized row at sync time resolves to its
        init value, which is what the student row held then.
        """
        self.teacher_lookups += 1
        key = (prompt, tuple(prefix))
        base = self.synced_rows.get(key)
        if base is None:
            base = self._init_row(prompt, key[1])
        out = base.copy()
        if offset is not None:
            offset = np.asarray(offset, dtype=float)
            if offset.shape != (self.vocab,):
                raise InvalidDistributionError("offset has wrong length")
            out += offset
        return out

    def teacher_dist(
        self, prompt: str, prefix: PrefixKey, offset: np.ndarray | None = None
    ) -> np.ndarray:
        return softmax(self.teacher_logits(prompt, prefix, offset))

    def apply_gradients(self, grads: dict, learning_rate: float) -> None:
        """One descent step on the student rows: theta <- theta - lr * g."""
        for (prompt, prefix), g in grads.items():
            row = self.student_logits(prompt, prefix)
            row -= learning_rate * np.asarray(g, dtype=float)

    def copy(self) -> "PolicyTable":
        dup = PolicyTable(vocab=self.vocab, init_logits=self.init_logits)
        dup.rows = {k: v.copy() for k, v in self.rows.items()}
        dup.synced_rows = {k: v.copy() for k, v in self.synced_rows.items()}
        dup.sync_count = self.sync_count
        return dup
