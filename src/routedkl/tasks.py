"""Synthetic verifiable-reward tasks with an oracle annotator.

A task is a short fixed-horizon sequence problem over a small integer
vocabulary, scored by a deterministic binary verifier with a simple
branch structure:

* ``under_allocated``: one critical first position where a rarely-sampled
  token is accepted outright; an optional well-mastered alternative token
  leads into a guarded branch with trap tokens further downstream; all
  other first tokens reject. Privileged contexts boost the rare accepting
  token hard, so the student under-allocates exactly where the teacher
  concentrates.
* ``confident_wrong``: the student starts confident in a first-position
  token the verifier rejects; privileged contexts suppress that token.
* ``mixed``: the under-allocated structure plus a guarded trap position
  that is itself critical.

Everything is small enough that expected reward and its exact gradient
are computed by enumeration with dead/free branch pruning.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import (
    EnumerationBudgetError,
    InternalConsistencyError,
    RangeError,
    require_finite_fields,
)
from .policy import PolicyTable, PrefixKey, cdf_rows, softmax
from .routing import coverage_cap

REGIMES = ("under_allocated", "confident_wrong", "mixed")

# Acceptance machine states.
_START, _FREE, _GUARD, _DEAD = 0, 1, 2, 3

_CONTEXT_LABELS = ("type_a", "type_b", "type_c", "type_d", "type_e", "type_f")


@dataclass(frozen=True)
class TaskParams:
    """Construction knobs; defaults give the plain single-route variant."""

    vocab: int = 8
    horizon: int = 3
    p_star: float = 0.005
    alt_mass: float = 0.0
    trap_mass: float = 0.25
    n_trap_tokens: int = 2
    trap_position: int = 2
    confident_mass: float = 0.85
    n_contexts: int = 3
    teacher_boost_low: float = 0.55
    teacher_boost_high: float = 0.85
    teacher_suppress_low: float = 0.01
    teacher_suppress_high: float = 0.04
    quirk_mass: float = 0.0
    distractor_mass: float = 0.0

    def __post_init__(self) -> None:
        require_finite_fields(self)
        if self.vocab < 4 or self.horizon < 2:
            raise RangeError("need vocab >= 4 and horizon >= 2")
        if not (0 < self.trap_position < self.horizon):
            raise RangeError("trap_position must be interior: in [1, horizon - 1]")
        if self.n_contexts < 1 or self.n_contexts > len(_CONTEXT_LABELS):
            raise RangeError(f"n_contexts must lie in [1, {len(_CONTEXT_LABELS)}]")
        # The accepting token and the alternative leave vocab - 2 trap tokens.
        if not (1 <= self.n_trap_tokens <= self.vocab - 2):
            raise RangeError(f"n_trap_tokens must lie in [1, vocab - 2 = {self.vocab - 2}]")
        for key in ("alt_mass", "quirk_mass", "distractor_mass"):
            if getattr(self, key) < 0:
                raise RangeError(f"{key} must be nonnegative")
        for kind in ("boost", "suppress"):
            low, high = getattr(self, f"teacher_{kind}_low"), getattr(self, f"teacher_{kind}_high")
            if not (0 < low <= high < 1):
                raise RangeError(
                    f"need 0 < teacher_{kind}_low <= teacher_{kind}_high < 1, got ({low}, {high})"
                )


@dataclass(frozen=True)
class PrivilegedContext:
    """Coarse diagnostic label; its logit effect is ``SynthTask.offsets[context_id]``."""

    context_id: int
    label: str


class RewardTree:
    """The last ``SynthTask.expected_reward`` walk over one table, kept by a caller."""

    def __init__(self) -> None:
        self.levels, self.nodes, self.inner, self.expand = [], None, None, None


@dataclass
class SynthTask:
    regime: str
    prompt_id: str
    horizon: int
    vocab: int
    critical_positions: tuple[int, ...]
    v_star: int | None
    alt_token: int | None
    trap_position: int | None
    trap_tokens: tuple[int, ...]
    bad_token: int | None
    init_rows: np.ndarray  # (T, V) init logits row of each depth
    contexts: tuple[PrivilegedContext, ...]
    # (n_contexts, T, V) teacher logit offset of each context at each
    # depth; a zero row leaves that context's teacher equal to the synced row.
    offsets: np.ndarray
    context_probs: np.ndarray

    # ----- policy plumbing -------------------------------------------------

    def init_logits(self, prompt: str, prefix: PrefixKey) -> np.ndarray:
        return self.init_rows[len(prefix)]

    def make_table(self) -> PolicyTable:
        return PolicyTable(self.init_rows, self.prompt_id)

    def teacher_dist_matrix(self, table: PolicyTable, nodes: np.ndarray) -> np.ndarray:
        """(M, n_contexts, vocab) teacher distributions at the M ``nodes``:
        one counted teacher lookup per node plus each context's offset at
        the node's depth, under one softmax."""
        base = np.array([table.teacher_logits(i) for i in nodes.tolist()])
        return softmax(base[:, None] + self.offsets[:, table.depth[nodes]].swapaxes(0, 1))

    # ----- acceptance machine ----------------------------------------------

    def _step_state(self, state: int, t: int, token: int) -> int:
        if state == _DEAD or state == _FREE:
            return state
        if state == _START:
            if token == self.v_star:
                return _FREE
            if self.alt_token is not None and token == self.alt_token:
                return _GUARD
            if self.bad_token is not None:
                return _DEAD if token == self.bad_token else _FREE
            return _DEAD
        # state == _GUARD
        if t == self.trap_position:
            return _DEAD if token in self.trap_tokens else _FREE
        return _GUARD

    @cached_property
    def context_cdf(self) -> np.ndarray:
        """Read-only ``cdf_rows(context_probs)``, built on first use;
        ``context_probs`` must not change after."""
        cdf = cdf_rows(self.context_probs)
        cdf.flags.writeable = False
        return cdf

    @cached_property
    def transitions(self) -> np.ndarray:
        """(T, 4, V) table of ``_step_state``: the next state by position,
        state and token. Built on first use, so constructing a task does
        not pay for it; the acceptance fields must not change after."""
        return np.array([
            [[self._step_state(state, t, v) for v in range(self.vocab)] for state in range(4)]
            for t in range(self.horizon)
        ])

    @cached_property
    def span_layout(self) -> tuple[list[tuple[int, int]], np.ndarray, np.ndarray]:
        """The annotator's constants: the runs of critical positions
        (``_runs``) and read-only (T,) masks of the positions in those runs
        and of the critical positions. Built on first use; the critical
        positions, all in [0, T), must not change after."""
        critical = sorted(self.critical_positions)
        key_runs = _runs(critical)
        key, is_critical = np.zeros((2, self.horizon), dtype=bool)
        for start, end in key_runs:
            key[start:end] = True
        is_critical[critical] = True
        key.flags.writeable = is_critical.flags.writeable = False
        return key_runs, key, is_critical

    def verifier(self, tokens: tuple[int, ...]) -> int:
        """Deterministic binary outcome for a full sequence; the per-sequence
        reference for the outcomes ``sample_group`` reads off ``transitions``."""
        if len(tokens) != self.horizon:
            raise RangeError("sequence length must equal the horizon")
        state = _START
        for t, tok in enumerate(tokens):
            state = self._step_state(state, t, tok)
            if state == _DEAD or state == _FREE:
                break  # absorbing: ``_step_state`` returns either unchanged
        return 0 if state == _DEAD else 1

    # ----- exact enumeration -----------------------------------------------

    def check_budget(self) -> None:
        """Raise unless V^T sequences are few enough to enumerate exactly."""
        if self.vocab**self.horizon > 10**6:
            raise EnumerationBudgetError(
                f"V^T = {self.vocab}^{self.horizon} exceeds the enumeration budget"
            )

    def expected_reward(self, table: PolicyTable, tree: RewardTree | None = None) -> float:
        """Exact E[R] under the student policy, by pruned tree enumeration.

        The tree is walked one level of node ids at a time, each level's
        live nodes (neither dead nor free, before the horizon) read from
        ``table.dists``, which the table keeps current. A child is expanded
        only if its probability is nonzero, so the rows materialized are
        those of a depth-first walk. A dead child is worth 0, a free or
        final one 1. Values are summed bottom-up left to right
        over the children, ``cumsum(dist * value)``, which is the
        depth-first sum's order: a skipped zero-probability child adds 0.

        ``tree``, a ``RewardTree`` kept for ``table``, holds the last walk.
        While the inner children of zero probability stay the same, a walk
        adds no node and sums the same rows alike, so its levels are reused.
        """
        tree = RewardTree() if tree is None else tree
        return float(self._sum_levels(table, tree)[1][0][0])

    def _sum_levels(
        self, table: PolicyTable, tree: RewardTree
    ) -> tuple[np.ndarray, list[np.ndarray]]:
        """Fill the child values of ``tree``'s levels, walking first unless
        they can be reused; return the rows of ``tree.nodes`` and, top down,
        each level's E[R | node]."""
        self.check_budget()
        dist = table.dists[tree.nodes] if tree.levels else None
        if dist is None or not ((tree.inner & (dist != 0.0)) == tree.expand).all():
            dist = self._walk(table, tree)
        belows = [np.empty(0)]  # the deepest level has no inner children
        for nodes, value, rows, tokens in reversed(tree.levels):
            value[rows, tokens] = belows[-1]  # the same entries on every sum
            belows.append((dist[nodes] * value).cumsum(axis=1)[:, -1])
        return dist, belows[:0:-1]

    def _walk(self, table: PolicyTable, tree: RewardTree) -> np.ndarray:
        """Walk into ``tree`` the stacked nodes, their inner and expanded children
        and per level a slice, values and expanded (rows, tokens); return the rows."""
        trans = self.transitions
        inner = (trans != _DEAD) & (trans != _FREE)  # neither dead nor free,
        inner[-1] = False  # before the horizon
        leaf_value = np.where(trans == _DEAD, 0.0, 1.0)
        levels, parts, start = [], [], 0
        nodes, states = np.zeros(1, dtype=np.int64), np.array([_START])  # the root
        for t in range(self.horizon):
            dist = table.dists[nodes]
            live = inner[t, states]
            expand = live & (dist != 0.0)
            rows, tokens = np.nonzero(expand)
            levels.append((slice(start, start + len(nodes)), leaf_value[t, states], rows, tokens))
            parts.append((nodes, dist, live, expand))
            start += len(nodes)
            if not rows.size:
                break
            nodes = table.children(nodes[rows], tokens)
            states = trans[t, states[rows], tokens]
        tree.levels = levels
        tree.nodes, dist, tree.inner, tree.expand = (np.concatenate(p) for p in zip(*parts))
        return dist

    def reward_gradient(self, table: PolicyTable) -> np.ndarray:
        """Exact gradient of E[R] w.r.t. every student logit row, as (table.n, V)
        rows indexed by node: reach(P) * pi * (C - E[R | P]) for node P, from
        the child values and sums ``expected_reward`` leaves on a fresh walk's
        levels, in one top-down pass that carries the reach. A node off the
        walk (decided or of zero reach) has a zero row; one added after the
        call is outside the rows, and a caller must read it as zeros."""
        tree = RewardTree()
        dist, belows = self._sum_levels(table, tree)
        grads = np.zeros((table.n, self.vocab))
        reach = np.ones(1)  # the root's
        for (nodes, value, rows, tokens), below in zip(tree.levels, belows):
            d = dist[nodes]
            grads[tree.nodes[nodes]] = reach[:, None] * d * (value - below[:, None])
            reach = reach[rows] * d[rows, tokens]
        return grads

    # ----- certificates ----------------------------------------------------

    def assert_certificates(self) -> None:
        """Re-assert the regime inequalities on the constructed rows."""
        student = softmax(self.init_rows[0])  # certificates are stated at the root
        for offset in self.offsets[:, 0]:
            teacher = softmax(self.init_rows[0] + offset)
            if self.regime in ("under_allocated", "mixed"):
                if not (
                    student[self.v_star] <= 0.01
                    and student[self.v_star] <= 0.01 * teacher[self.v_star]
                ):
                    raise InternalConsistencyError(
                        "under-allocation certificate failed"
                    )
            if self.regime == "confident_wrong":
                if not (
                    teacher[self.bad_token] <= 0.05
                    and student[self.bad_token] >= 0.7
                ):
                    raise InternalConsistencyError(
                        "confident-wrong certificate failed"
                    )

    # ----- serialization ---------------------------------------------------

    def to_json(self) -> str:
        payload = {
            "regime": self.regime,
            "prompt_id": self.prompt_id,
            "horizon": self.horizon,
            "vocab": self.vocab,
            "critical_positions": list(self.critical_positions),
            "v_star": self.v_star,
            "alt_token": self.alt_token,
            "trap_position": self.trap_position,
            "trap_tokens": list(self.trap_tokens),
            "bad_token": self.bad_token,
            "init_rows": {str(t): row.tolist() for t, row in enumerate(self.init_rows)},
            "context_probs": self.context_probs.tolist(),
            "contexts": [{"context_id": c.context_id, "label": c.label} for c in self.contexts],
            "offsets": self.offsets.tolist(),
        }
        return json.dumps(payload, sort_keys=True)


# ----- construction ---------------------------------------------------------


def _logits_from_probs(probs: np.ndarray, need: str) -> np.ndarray:
    """Logits of ``probs``; ``need`` names the keys that keep them positive."""
    probs = np.asarray(probs, dtype=float)
    if np.any(probs <= 0):
        raise RangeError(f"construction probabilities must be strictly positive: need {need}")
    return np.log(probs / probs.sum())


def _offset_for_targets(
    base_logits: np.ndarray, targets: dict, keys: str, base_keys: str
) -> np.ndarray:
    """Logit offset achieving the target probabilities on selected tokens.

    Solves softmax(base + offset)[v] = targets[v] for each targeted token
    with the offset supported only on those tokens. ``keys`` names what
    sets the targets and ``base_keys`` what sets the base row.
    """
    base_p = softmax(base_logits)
    target_total = sum(targets.values())
    if target_total >= 1.0:
        raise RangeError(
            f"teacher targets must leave mass for the rest: need {keys} < 1, got {target_total!r}"
        )
    rest_mass = 1.0 - sum(base_p[v] for v in targets)
    offset = np.zeros_like(base_logits)
    for v, tv in targets.items():
        scaled = tv * rest_mass / (1.0 - target_total)
        with np.errstate(over="ignore", divide="ignore"):
            ratio = scaled / base_p[v]
        if not math.isfinite(ratio):
            raise RangeError(
                f"construction probability {float(base_p[v])!r} (set by {base_keys}) is too "
                f"small for a finite teacher offset toward {keys}"
            )
        offset[v] = math.log(ratio)
    return offset


def generate_task(
    regime: str, seed: int, params: TaskParams | None = None
) -> SynthTask:
    """Deterministic task construction for one regime.

    The accepting structure, token identities, and per-context teacher
    targets are all drawn from a generator seeded by ``seed``, so the same
    seed reproduces the identical task. Regime certificates are asserted
    before returning.
    """
    if regime not in REGIMES:
        raise RangeError(f"unknown regime {regime!r}")
    p = params or TaskParams()
    if regime == "mixed" and p.alt_mass <= 0:
        p = replace(p, alt_mass=0.6)
    rng = np.random.default_rng(seed)
    v = p.vocab

    token_pool = list(rng.permutation(v))
    v_star = alt_token = bad_token = None
    trap_tokens: tuple[int, ...] = ()
    trap_position = None

    if regime in ("under_allocated", "mixed"):
        v_star = int(token_pool.pop())
        rest = 1.0 - p.p_star
        if p.alt_mass > 0:
            alt_token = int(token_pool.pop())
            rest -= p.alt_mass
        others = [t for t in range(v) if t not in (v_star, alt_token)]
        probs0 = np.zeros(v)
        probs0[v_star] = p.p_star
        if alt_token is not None:
            probs0[alt_token] = p.alt_mass
        probs0[others] = rest / len(others)
        if alt_token is not None:  # always in the mixed regime
            trap_position = p.trap_position
            trap_tokens = tuple(
                int(token_pool.pop()) for _ in range(p.n_trap_tokens)
            )
    else:  # confident_wrong
        bad_token = int(token_pool.pop())
        probs0 = np.full(v, (1.0 - p.confident_mass) / (v - 1))
        probs0[bad_token] = p.confident_mass

    if regime == "confident_wrong":
        base_keys = "confident_mass"
        need = f"0 < confident_mass < 1, got {p.confident_mass!r}"
    else:
        base_keys = "p_star and alt_mass"
        need = f"p_star > 0 and p_star + alt_mass < 1, got {p.p_star!r} + {p.alt_mass!r}"
    init_rows = np.zeros((p.horizon, v))
    init_rows[0] = _logits_from_probs(probs0, need)
    if trap_position is not None:
        trap_probs = np.full(v, (1.0 - p.trap_mass) / (v - len(trap_tokens)))
        trap_probs[list(trap_tokens)] = p.trap_mass / len(trap_tokens)
        init_rows[trap_position] = _logits_from_probs(
            trap_probs, f"0 < trap_mass < 1, got {p.trap_mass!r}"
        )

    critical: tuple[int, ...] = (0,)
    if regime == "mixed":
        critical = (0, trap_position)

    quirk_pool = [t for t in token_pool if t not in trap_tokens]
    offsets = np.zeros((p.n_contexts, p.horizon, v))
    drawn = []  # each context's teacher boost or suppression target
    for i in range(p.n_contexts):
        targets: dict = {}
        if regime in ("under_allocated", "mixed"):
            boost = float(rng.uniform(p.teacher_boost_low, p.teacher_boost_high))
            targets[v_star] = boost
            drawn.append(boost)
            keys = "the teacher boost (drawn from [teacher_boost_low, teacher_boost_high])"
            if p.quirk_mass > 0 and quirk_pool:
                quirk = int(quirk_pool[i % len(quirk_pool)])
                targets[quirk] = p.quirk_mass
                keys += " + quirk_mass"
        else:
            suppress = float(
                rng.uniform(p.teacher_suppress_low, p.teacher_suppress_high)
            )
            targets[bad_token] = suppress
            drawn.append(suppress)
            keys = "the teacher suppression"
        offsets[i, 0] = _offset_for_targets(init_rows[0], targets, keys, base_keys)
        if regime == "mixed":
            # The context also flags the guarded trap for suppression.
            trap_target = {
                tok: float(rng.uniform(0.005, 0.02)) for tok in trap_tokens
            }
            offsets[i, trap_position] = _offset_for_targets(
                init_rows[trap_position], trap_target,
                "n_trap_tokens x the trap suppression (0.005 to 0.02 each)", "trap_mass",
            )
        elif p.distractor_mass > 0 and trap_position is not None:
            # Misleading hint: the teacher pulls toward the trap tokens.
            trap_target = {
                tok: p.distractor_mass / len(trap_tokens) for tok in trap_tokens
            }
            offsets[i, trap_position] = _offset_for_targets(
                init_rows[trap_position], trap_target, "distractor_mass", "trap_mass"
            )

    task = SynthTask(
        regime=regime,
        prompt_id=f"{regime}-{seed}",
        horizon=p.horizon,
        vocab=v,
        critical_positions=critical,
        v_star=v_star,
        alt_token=alt_token,
        trap_position=trap_position,
        trap_tokens=trap_tokens,
        bad_token=bad_token,
        init_rows=init_rows,
        contexts=tuple(PrivilegedContext(i, _CONTEXT_LABELS[i]) for i in range(p.n_contexts)),
        offsets=offsets,
        context_probs=np.full(p.n_contexts, 1.0 / p.n_contexts),
    )
    _check_certificate_params(regime, p, drawn)
    task.assert_certificates()
    return task


def _check_certificate_params(regime: str, p: TaskParams, drawn: list) -> None:
    """Raise a RangeError naming the key when the parameters themselves
    break a regime certificate; ``assert_certificates`` then guards the
    construction only. ``drawn`` holds each context's teacher boost
    (under-allocated, mixed) or suppression target (confident-wrong).
    """
    if regime == "confident_wrong":
        if p.confident_mass < 0.7:
            raise RangeError(
                f"confident_mass = {p.confident_mass!r} is below the confident-wrong "
                "certificate's 0.7"
            )
        if max(drawn) > 0.05:
            raise RangeError(
                f"teacher suppression {max(drawn)!r} (drawn from [teacher_suppress_low, "
                "teacher_suppress_high]) is above the confident-wrong certificate's 0.05"
            )
    elif p.p_star > 0.01 * min(drawn):
        raise RangeError(
            f"p_star = {p.p_star!r} is above the under-allocation certificate's "
            f"0.01 x teacher boost = {0.01 * min(drawn)!r}: lower p_star or raise "
            "teacher_boost_low"
        )


# ----- sampling and annotation ----------------------------------------------


def inverse_cdf(cdf: np.ndarray, u) -> np.ndarray:
    """Indices drawn by the uniforms ``u`` from ``cdf = policy.cdf_rows(dist)``.

    ``cdf`` is one distribution's, shared by all uniforms, or a (n, V)
    stack with one row per uniform. Each index is ``cdf.searchsorted(u,
    side="right")``, what ``Generator.choice(len(dist), p=dist)`` returns
    for the uniform it draws, so a caller that draws ``rng.random()``
    itself consumes the stream exactly as ``choice`` would. The cdf is
    sorted, so the search is a count of the entries at most ``u``.
    """
    return (cdf <= np.asarray(u)[..., None]).sum(axis=-1)


def draw_contexts(task: SynthTask, rng: np.random.Generator, size: int) -> np.ndarray:
    """``size`` privileged-context indices, one uniform each."""
    return inverse_cdf(task.context_cdf, rng.random(size))


@dataclass
class SampledGroup:
    """Rollouts of the task's horizon sampled together, as (G, T) arrays.

    ``prefix_index[i, t]`` is the table's node id of the prefix of
    position t of rollout i. Row i of each (G, ...) array is rollout i.
    ``states[i, t]`` is the acceptance-machine state of rollout i before
    position t; the outcomes are read off its last column.
    """

    tokens: np.ndarray  # (G, T) sampled token ids
    outcomes: np.ndarray  # (G,) verifier outcomes
    prefix_index: np.ndarray  # (G, T) node ids
    states: np.ndarray  # (G, T + 1) acceptance-machine states


def sample_group(
    table: PolicyTable,
    task: SynthTask,
    rng: np.random.Generator,
    size: int,
) -> SampledGroup:
    """Sample ``size`` sequences from the student policy and verify them.

    One ``rng.random((size, T))`` draw supplies a uniform per token in
    rollout-major order, and each token is picked by ``inverse_cdf`` of
    its prefix's distribution: the tokens and stream position of ``size``
    successive per-token ``Generator.choice`` loops. Positions
    are filled left to right, all rollouts at once, in one descent of the
    stored trie (``table.child``). A rollout leaves it at its first prefix
    not stored; that prefix and its extensions hold their depth's init
    row, so the positions left are drawn at once from the per-depth init
    cdfs (``table.init_cdfs``), and one ``table.add_paths`` call adds the
    group's new prefixes as one id block. The machine states advance
    through ``task.transitions``, so the group is verified as it is
    sampled. A stored prefix's cdf is ``cdf_rows`` of its ``table.dists``
    row, computed per column for the rollouts still on the trie.
    """
    horizon = task.horizon
    uniforms = rng.random((size, horizon))
    tokens = np.empty((size, horizon), dtype=np.int64)
    prefix_index = np.full((size, horizon), -1, dtype=np.int64)
    node, on = np.zeros(size, dtype=np.int64), slice(None)  # at the root, every rollout
    for t in range(horizon):
        prefix_index[on, t] = node
        picked = tokens[on, t] = inverse_cdf(cdf_rows(table.dists[node]), uniforms[on, t])
        if t + 1 == horizon:
            break
        node = table.child[node, picked]
        stored = node >= 0
        if not stored.all():
            on, node = np.arange(size)[on][stored], node[stored]
    if isinstance(on, np.ndarray):  # some rollouts left the stored trie
        off = prefix_index < 0
        tokens[off] = inverse_cdf(table.init_cdfs[off.nonzero()[1]], uniforms[off])
        table.add_paths(prefix_index, tokens)
    states = np.full((size, horizon + 1), _START, dtype=np.int64)
    for t in range(horizon):
        states[:, t + 1] = task.transitions[t, states[:, t], tokens[:, t]]
    outcomes = (states[:, -1] != _DEAD).astype(np.int64)
    return SampledGroup(
        tokens=tokens,
        outcomes=outcomes,
        prefix_index=prefix_index,
        states=states,
    )


def _runs(positions: list[int]) -> list[tuple[int, int]]:
    """Group sorted positions into consecutive runs of length <= 3."""
    runs: list[tuple[int, int]] = []
    for pos in positions:
        if runs and pos == runs[-1][1] and runs[-1][1] - runs[-1][0] < 3:
            runs[-1] = (runs[-1][0], pos + 1)
        else:
            runs.append((pos, pos + 1))
    return runs[:3]


def oracle_annotate(
    task: SynthTask,
    group: SampledGroup,
    precision: float,
    rng: np.random.Generator,
    alpha: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Each rollout's privileged context and the (G, T) span mask, with
    every span kept with probability ``precision`` and each row then held
    to its lowest ``coverage_cap(alpha, T)`` marked positions.

    The true spans: an accepted rollout is marked on the runs of critical
    positions (``_runs``, so at most three of them); a rejected one on its
    root cause, the first position where its machine state goes dead,
    when that position is critical, and otherwise not at all. Tokens are
    atomic, so a span is a run of mask positions.

    At precision 1 the only draw is one context uniform per rollout, all
    in one ``draw_contexts`` call. Below 1 each rollout in turn draws its
    context, then one uniform per true span; where the uniform exceeds
    ``precision`` the span is replaced by one non-critical position,
    ``rng.choice`` over them (the Bernoulli precision model).
    """
    if not (0.0 <= precision <= 1.0):
        raise RangeError("precision must lie in [0, 1]")
    if not (0.0 < alpha <= 1.0):
        raise RangeError(f"alpha={alpha} outside (0, 1]")
    size, horizon = group.tokens.shape
    key_runs, key, is_critical = task.span_layout
    dead = group.states[:, 1:] == _DEAD
    root = dead.argmax(axis=1)
    failed = dead[:, -1]
    has_root = failed & is_critical[root]
    mask = np.where(failed[:, None], False, key)
    mask[has_root, root[has_root]] = True
    if precision == 1.0:
        ctx = draw_contexts(task, rng, size)
    else:
        non_critical = np.flatnonzero(~is_critical)
        uniforms = np.empty(size)
        for i in range(size):
            uniforms[i] = rng.random()  # the context, as draw_contexts(task, rng, 1)
            if not failed[i]:
                runs = key_runs
            else:
                runs = [(root[i], root[i] + 1)] if has_root[i] else []
            for start, end in runs:
                if rng.random() > precision and non_critical.size:
                    mask[i, start:end] = False
                    mask[i, non_critical[rng.choice(non_critical.size)]] = True
        ctx = inverse_cdf(task.context_cdf, uniforms)
    return ctx, mask & (mask.cumsum(axis=1) <= coverage_cap(alpha, horizon))


def chain_params(**overrides) -> TaskParams:
    """Accepting alternative plus downstream traps on the guarded branch."""
    base = TaskParams(alt_mass=0.9, p_star=0.005, trap_mass=0.25)
    return replace(base, **overrides)
