"""Tabular contextual softmax policies over small integer vocabularies.

A policy is a prefix trie over one prompt, stored as columns: each visited
prefix is a node, numbered in first-visit order, added with its depth's
init row and that row's softmax. The teacher view shares parameters with
the student: teacher rows are the student rows as of the last sync,
shifted by a per-context offset.
"""

from __future__ import annotations

import copy

import numpy as np

from .errors import (
    InfeasibleFloorError,
    InvalidDistributionError,
    NonFiniteInputError,
)

PrefixKey = tuple[int, ...]

# Entries from which numpy's float sum goes pairwise instead of left to right.
PAIRWISE = 8


def softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last axis with max-subtraction; exact under shift
    invariance. Each row of a stack gets the bytes it gets on its own."""
    logits = np.asarray(logits, dtype=float)
    if not np.isfinite(logits).all():
        raise NonFiniteInputError("softmax requires finite logits")
    shifted = logits - logits.max(axis=-1, keepdims=True)
    expd = np.exp(shifted)
    return expd / expd.sum(axis=-1, keepdims=True)


def cdf_rows(dist: np.ndarray) -> np.ndarray:
    """Cumulative sums over the last axis divided by their last entry, the
    cdf that ``Generator.choice`` searches. Each row of a stack gets the
    bytes it gets on its own."""
    cdf = np.add.accumulate(dist, axis=-1)
    cdf /= cdf[..., -1:]
    return cdf


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

    Below ``PAIRWISE`` entries the 1-d sum adds left to right from 0.0, as
    one ``bincount`` of the entries by row does. From ``PAIRWISE`` on numpy
    sums pairwise, so those rows' entries are packed in order and rows of
    one count are summed as one (R, count) array, which sums each row as
    the 1-d sum does.
    """
    if mask.all():
        return values.sum(axis=-1)
    shape = values.shape[:-1]
    values, mask = values.reshape(-1, values.shape[-1]), mask.reshape(-1, mask.shape[-1])
    sums = np.bincount(mask.nonzero()[0], values[mask], minlength=len(values))
    if mask.shape[1] < PAIRWISE:
        return sums.reshape(shape)
    counts = mask.sum(axis=1)
    long = (counts >= PAIRWISE).nonzero()[0]
    if long.size:
        values, mask, counts = values[long], mask[long], counts[long]
        packed = np.take_along_axis(values, np.argsort(~mask, axis=1, kind="stable"), axis=1)
        for count in np.flatnonzero(np.bincount(counts)).tolist():
            rows = counts == count
            sums[long[rows]] = packed[rows, :count].sum(axis=1)
    return sums.reshape(shape)


def region_sums(region: np.ndarray, flat: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Per row of the (R, N) boolean ``region``, the (R, 2) sums outside and
    inside it of the (R, N) array that holds ``values`` at the ascending
    flat positions ``flat`` and 0.0 elsewhere, each equal to the 1-d
    ``masked_row_sum`` of its region.

    Adding the zeros elsewhere left to right from 0.0 changes nothing, so
    one ``bincount`` by (row, region) gives every region of fewer than
    ``PAIRWISE`` positions; a row with a larger region is summed densely.
    """
    size, n = region.shape
    sums = np.bincount(flat // n * 2 + region.ravel()[flat], values, minlength=2 * size)
    sums = sums.reshape(size, 2)
    if n < PAIRWISE:
        return sums
    inside_n = region.sum(axis=1)
    long = (np.maximum(inside_n, n - inside_n) >= PAIRWISE).nonzero()[0]
    if long.size:
        dense = np.zeros(region.size)
        dense[flat] = values
        dense, region = dense.reshape(region.shape)[long], region[long]
        sums[long] = masked_row_sum(np.stack((dense, dense)), np.stack((~region, region))).T
    return sums


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
    pinned = (vals[:, 0] * scale < p_min).nonzero()[0]
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


class PolicyTable:
    """Shared student/teacher logit table over the prefix trie of one prompt.

    Node 0 is the root, the empty prefix. Node ``i > 0`` extends node
    ``parent[i] < i`` by ``token[i]`` at ``depth[i]``; ``child[i, v]`` is
    the node extending ``i`` by ``v``, or -1 while unvisited. The student
    row ``logits[i]``, the only mutable parameters, starts as
    ``init_rows[depth[i]]``, and ``dists[i]`` holds its softmax: a new
    node takes its depth's ``init_dists`` row, and ``refresh`` recomputes
    the rows ``apply_gradients`` changes, so each equals a fresh
    ``student_dist``. Each ``add_paths`` call adds one id block. The
    columns grow by doubling, so a row view (``student_logits``, ``rows``)
    is valid until the next node is added.

    Teacher rows are the student rows of the last ``sync_teacher`` call,
    to which a task adds its per-context logit offsets; a lookup counts in
    ``teacher_lookups``, so a run can assert the teacher path is skipped
    when the KL channel is closed.
    """

    _COLUMNS = ("logits", "dists", "child", "parent", "token", "depth")

    def __init__(self, init_rows: np.ndarray, prompt: str) -> None:
        init_rows = np.array(init_rows, dtype=float)
        if init_rows.ndim != 2 or not init_rows.size:
            raise InvalidDistributionError(f"init rows of shape {init_rows.shape}, not (depths, V)")
        self.init_rows, self.prompt, self.vocab = init_rows, prompt, init_rows.shape[1]
        self.init_dists = softmax(init_rows)
        self.init_cdfs = cdf_rows(self.init_dists)  # for draws below the stored trie
        self.logits = self.dists = self.synced = np.empty((0, self.vocab))
        self.child = np.empty((0, self.vocab), dtype=np.int64)
        self.parent = self.token = self.depth = np.empty(0, dtype=np.int64)
        self.n = self.teacher_lookups = self.sync_count = 0
        self._append(np.array([-1]), np.array([-1]), np.array([0]))  # the root

    def _append(self, parents: np.ndarray, tokens: np.ndarray, depths: np.ndarray) -> None:
        """Add nodes as the contiguous id block ``[n, n + len(parents))``."""
        rows = self.init_rows[depths]  # before any write: a depth past the rows raises
        start, n = self.n, self.n + len(parents)
        if n > len(self.logits):  # the new tail repeats old entries until they are added
            cap = max(n, 2 * len(self.logits), 16)
            for name in self._COLUMNS:
                column = getattr(self, name)
                setattr(self, name, np.resize(column[:start], (cap, *column.shape[1:])))
        self.logits[start:n], self.dists[start:n] = rows, self.init_dists[depths]
        self.child[start:n] = -1
        self.parent[start:n], self.token[start:n], self.depth[start:n] = parents, tokens, depths
        if start:
            self.child[parents, tokens] = np.arange(start, n)
        self.n = n

    @property
    def rows(self) -> dict:
        """``{(prompt, prefix): row view}`` in node order, built in one pass."""
        prefixes = [()]
        for p, v in zip(self.parent[1 : self.n].tolist(), self.token[1 : self.n].tolist()):
            prefixes.append(prefixes[p] + (v,))
        return {(self.prompt, prefix): row for prefix, row in zip(prefixes, self.logits)}

    def node(self, prefix: PrefixKey) -> int:
        """Node id of ``prefix``, the address of its rows, walking down from
        the root and adding any missing node on the way."""
        i = 0
        for v in prefix:
            if not 0 <= v < self.vocab:
                raise KeyError(f"token {v!r} outside the vocabulary [0, {self.vocab})")
            i = self.children(np.array([i]), np.array([v])).item()
        return i

    def children(self, nodes: np.ndarray, tokens: np.ndarray) -> np.ndarray:
        """Node of each ``nodes[i]`` extended by ``tokens[i]``, the
        one-column case of ``add_paths``: the missing (node, token) pairs
        are added in first-visit order, as one contiguous id block."""
        out = self.child[nodes, tokens]
        if (out < 0).any():
            out = self.add_paths(np.stack((nodes, out), axis=1), tokens[:, None])[:, 1]
        return out

    def add_paths(self, paths: np.ndarray, tokens: np.ndarray) -> np.ndarray:
        """Fill in place, and return, the -1 entries (prefixes not yet
        stored) of the (N, L) ``paths``: row i walks down from the stored
        node ``paths[i, 0]``, ``paths[i, t]`` extending ``paths[i, t - 1]``
        by ``tokens[i, t - 1]``. They are added as one id block, column by
        column and in first-visit order within a column, as one ``children``
        call per column adds them."""
        cols, rows = np.nonzero(paths.T < 0)
        start, vocab, new, depths = self.n, self.vocab, {}, []
        for t, i in zip(cols.tolist(), rows.tolist()):
            code = paths.item(i, t - 1) * vocab + tokens.item(i, t - 1)
            node = new.get(code)
            if node is None:
                node = new[code] = start + len(depths)
                depths.append(self.depth.item(paths.item(i, 0)) + t)
            paths[i, t] = node
        codes = np.fromiter(new, dtype=np.int64, count=len(new))
        self._append(codes // vocab, codes % vocab, np.array(depths))
        return paths

    def student_logits(self, prefix: PrefixKey) -> np.ndarray:
        i = self.node(prefix)  # before reading logits: it may grow
        return self.logits[i]

    def student_dist(self, prefix: PrefixKey) -> np.ndarray:
        """A fresh softmax of the prefix's row, the reference ``dists`` equals."""
        return softmax(self.student_logits(prefix))

    def sync_teacher(self) -> None:
        """Snapshot current student rows as the teacher base."""
        self.synced = self.logits[: self.n].copy()
        self.sync_count += 1

    def teacher_logits(self, node: int) -> np.ndarray:
        """A fresh copy of a node's last-synced student row, the teacher's
        base. A node added after the sync resolves to its depth's init row,
        which is what its student row held then."""
        self.teacher_lookups += 1
        synced = node < len(self.synced)
        return (self.synced[node] if synced else self.init_rows[self.depth[node]]).copy()

    def apply_gradients(self, nodes: np.ndarray, grads: np.ndarray, learning_rate: float) -> None:
        """One descent step on distinct nodes' rows: theta <- theta - lr * g."""
        self.logits[nodes] -= learning_rate * grads
        self.refresh(nodes)

    def refresh(self, nodes) -> None:
        """Recompute ``dists`` of ``nodes`` from their logit rows, as one
        stacked softmax whose rows get the bytes they get alone. A caller
        that writes ``logits`` in place calls this for the rows it wrote
        before anything reads ``dists``."""
        self.dists[nodes] = softmax(self.logits[nodes])

    def copy(self) -> "PolicyTable":
        """An independent copy with its own teacher-lookup counter."""
        dup = copy.deepcopy(self)
        dup.teacher_lookups = 0
        return dup
