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


def softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last axis with max-subtraction; exact under shift
    invariance. Each row of a stack gets the bytes it gets on its own."""
    logits = np.asarray(logits, dtype=float)
    if not np.isfinite(logits).all():
        raise NonFiniteInputError("softmax requires finite logits")
    shifted = logits - logits.max(axis=-1, keepdims=True)
    expd = np.exp(shifted)
    return expd / expd.sum(axis=-1, keepdims=True)


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


def simplex_rows(rows: np.ndarray) -> np.ndarray:
    """Mask of the rows of a (N, V) stack that ``validate_distribution``
    accepts one by one."""
    ok = np.isfinite(rows).all(axis=1)
    ok[ok] = (rows[ok] >= 0).all(axis=1) & (np.abs(rows[ok].sum(axis=1) - 1.0) <= 1e-9)
    return ok


def validate_rows(rows: np.ndarray, name: str = "dist") -> np.ndarray:
    """``validate_distribution`` of one distribution, or of each row of a
    (N, V) stack, returned as float64. A stack raises what its first failing
    row raises on its own."""
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[1] < 2:
        return validate_distribution(rows, name)
    ok = simplex_rows(rows)
    if not ok.all():
        validate_distribution(rows[ok.argmin()], name)
    return rows


def masked_row_sum(values: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Sum over the last axis of the entries of ``values`` where ``mask``
    holds, each equal to the 1-d ``values[mask].sum()`` of its row.

    Each row's entries are packed in order and rows of one count are summed
    as one (R, count) array, which sums each row as the 1-d sum does.
    """
    if mask.all():
        return values.sum(axis=-1)
    shape = values.shape[:-1]
    values, mask = values.reshape(-1, values.shape[-1]), mask.reshape(-1, mask.shape[-1])
    counts = mask.sum(axis=1)
    packed = np.take_along_axis(values, np.argsort(~mask, axis=1, kind="stable"), axis=1)
    sums = np.empty(len(values))
    for count in np.unique(counts).tolist():
        rows = counts == count
        sums[rows] = packed[rows, :count].sum(axis=1)
    return sums.reshape(shape)


def entropy(dist: np.ndarray) -> float | np.ndarray:
    """Shannon entropy in nats of a distribution, or of each row of a stack,
    with the 0*log(0) = 0 convention."""
    p = validate_rows(dist, "entropy input")
    return float(_entropy(p)) if p.ndim == 1 else _entropy(p)


def _entropy(p: np.ndarray) -> np.ndarray:
    """``entropy`` of rows already on the simplex, unchecked."""
    nz = p > 0
    return -masked_row_sum(p * np.log(np.where(nz, p, 1.0)), nz)


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


def floor_fixed_point(q: np.ndarray, p_min: float) -> np.ndarray:
    """Floor a distribution on the simplex, or each row of a stack, at p_min
    and renormalize, to the fixed point: the smallest entries pin at
    exactly p_min and the rest rescale. The pinned count is found directly,
    not by iterating, which near p_min * V = 1 would converge too slowly. A
    row that pins nothing takes one sorted sum; a row that pins takes the
    suffix sums of its stable ascending order, each summed as on its own.
    """
    rows = np.atleast_2d(q)
    vocab = rows.shape[1]
    check_floor(vocab, vocab, p_min)
    if p_min == 0.0:
        return q
    vals = np.sort(rows, axis=1)
    scale = 1.0 / vals.sum(axis=1)
    out = rows * scale[:, None]
    pinned = np.flatnonzero(vals[:, 0] * scale < p_min)
    if pinned.size:
        order = np.argsort(rows[pinned], axis=1, kind="stable")
        vals = np.take_along_axis(rows[pinned], order, axis=1)
        floored = np.empty_like(vals)
        todo = np.arange(len(pinned))
        for n_pinned in range(1, vocab):
            scale = (1.0 - p_min * n_pinned) / vals[todo, n_pinned:].sum(axis=1)
            fits = vals[todo, n_pinned] * scale >= p_min
            done = todo[fits]
            floored[done, :n_pinned] = p_min
            floored[done, n_pinned:] = vals[done, n_pinned:] * scale[fits, None]
            todo = todo[~fits]
            if not todo.size:
                break
        else:
            raise InfeasibleFloorError("floor fixed point infeasible")  # pragma: no cover
        out[pinned[:, None], order] = floored
    return out.reshape(np.shape(q))


def truncate_and_floor(dist: np.ndarray, top_k: int, p_min: float) -> np.ndarray:
    """Restrict to the top_k largest entries, renormalize, then floor at
    p_min to the fixed point (``floor_fixed_point``) over that support.
    Feasible whenever p_min * top_k < 1.
    """
    p = validate_distribution(dist, "truncate_and_floor input")
    n = p.size
    check_floor(n, top_k, p_min)
    # Top-k support, ties broken toward lower index for determinism.
    support = np.sort(np.argsort(-p, kind="stable")[:top_k])
    q = np.zeros(n)
    q[support] = p[support]
    q /= q.sum()  # positive: the support holds the largest entry
    q[support] = floor_fixed_point(q[support], p_min)
    return q


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

    def student_dists(self, prompt: str, prefixes: list) -> np.ndarray:
        """(P, V) student distributions at ``prefixes``, one softmax for
        all; rows are materialized in the order given."""
        return softmax(np.array([self.student_logits(prompt, p) for p in prefixes]))

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
