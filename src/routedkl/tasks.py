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
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .errors import (
    EnumerationBudgetError,
    InternalConsistencyError,
    RangeError,
    require_finite_fields,
)
from .policy import PolicyTable, PrefixKey, softmax
from .routing import CharSpan

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
    """Coarse diagnostic label with its bounded logit effect.

    ``offsets`` maps a token position to the logit offset vector the
    teacher adds there; positions absent from the map leave the teacher
    identical to the student.
    """

    context_id: int
    label: str
    offsets: dict


@dataclass
class Rollout:
    """One sampled sequence with outcome and sample-time log-probs."""

    prompt_id: str
    tokens: tuple[int, ...]
    outcome: int
    logprobs: np.ndarray

    def prefix(self, t: int) -> PrefixKey:
        return self.tokens[:t]

    def __len__(self) -> int:
        return len(self.tokens)

    def token_char_intervals(self) -> list[tuple[int, int]]:
        """Tokens are atomic: position t occupies characters [t, t+1)."""
        return [(t, t + 1) for t in range(len(self.tokens))]


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
    init_rows: dict  # position -> logits row
    contexts: tuple[PrivilegedContext, ...]
    context_probs: np.ndarray
    params: TaskParams = field(default_factory=TaskParams)

    # ----- policy plumbing -------------------------------------------------

    def init_logits(self, prompt: str, prefix: PrefixKey) -> np.ndarray:
        return self.init_rows[len(prefix)]

    def make_table(self) -> PolicyTable:
        return PolicyTable(vocab=self.vocab, init_logits=self.init_logits)

    def context_offset(self, context_index: int, position: int) -> np.ndarray | None:
        return self.contexts[context_index].offsets.get(position)

    def teacher_dist(
        self, table: PolicyTable, context_index: int, prefix: PrefixKey
    ) -> np.ndarray:
        offset = self.context_offset(context_index, len(prefix))
        return table.teacher_dist(self.prompt_id, prefix, offset)

    def teacher_dist_matrix(
        self, table: PolicyTable, prefix: PrefixKey
    ) -> np.ndarray:
        """(n_contexts, vocab) teacher distributions at one row: one teacher
        lookup per context, one softmax for all of them."""
        position = len(prefix)
        return softmax(np.array([
            table.teacher_logits(self.prompt_id, prefix, self.context_offset(c, position))
            for c in range(len(self.contexts))
        ]))

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
    def transitions(self) -> np.ndarray:
        """(T, 4, V) table of ``_step_state``: the next state by position,
        state and token. Built on first use, so constructing a task does
        not pay for it; the acceptance fields must not change after."""
        return np.array([
            [[self._step_state(state, t, v) for v in range(self.vocab)] for state in range(4)]
            for t in range(self.horizon)
        ])

    @cached_property
    def _tree_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """``transitions`` as the evaluation tree reads it: a child's value
        as a leaf (0 dead, 1 otherwise) and whether it is an inner node
        (neither dead nor free, before the horizon)."""
        trans = self.transitions
        inner = (trans != _DEAD) & (trans != _FREE)
        inner[-1] = False
        return np.where(trans == _DEAD, 0.0, 1.0), inner

    def verifier(self, tokens: tuple[int, ...]) -> int:
        """Deterministic binary outcome for a full sequence; the per-sequence
        reference for the outcomes ``sample_group`` reads off ``transitions``."""
        if len(tokens) != self.horizon:
            raise RangeError("sequence length must equal the horizon")
        state = _START
        for t, tok in enumerate(tokens):
            state = self._step_state(state, t, tok)
        return 0 if state == _DEAD else 1

    def _reachable(self, state: int) -> bool:
        # From GUARD an accepting continuation always exists because the
        # trap set is a strict subset of the vocabulary; from START the
        # accepting token itself is available.
        return state != _DEAD

    def root_cause(self, tokens: tuple[int, ...]) -> int | None:
        """Earliest position whose token cut off every accepting continuation.

        Returns None when that position is not a critical one: the oracle
        then declines to mark a root cause rather than guess. The
        per-sequence reference for ``oracle_span_mask``.
        """
        state = _START
        for t, tok in enumerate(tokens):
            nxt = self._step_state(state, t, tok)
            if self._reachable(state) and not self._reachable(nxt):
                return t if t in self.critical_positions else None
            state = nxt
        return None

    # ----- exact enumeration -----------------------------------------------

    def check_budget(self) -> None:
        """Raise unless V^T sequences are few enough to enumerate exactly."""
        if self.vocab**self.horizon > 10**6:
            raise EnumerationBudgetError(
                f"V^T = {self.vocab}^{self.horizon} exceeds the enumeration budget"
            )

    def expected_reward(self, table: PolicyTable) -> float:
        """Exact E[R] under the student policy, by pruned tree enumeration.

        The tree is walked one level at a time. A level's live prefixes
        (neither dead nor free, before the horizon) take one
        ``student_dists`` call; a child is expanded only if its probability
        is nonzero, so the rows materialized are those of a depth-first walk.
        A dead child is worth 0, a free or final one 1. Values are summed
        bottom-up left to right over the children, ``cumsum(dist * value)``,
        which is the depth-first sum's order: a skipped zero-probability
        child adds an exact 0.
        """
        self.check_budget()
        trans = self.transitions
        leaf_value, inner = self._tree_tables
        levels = []
        prefixes, states = [()], np.array([_START])
        for t in range(self.horizon):
            dist = table.student_dists(self.prompt_id, prefixes)
            rows, tokens = np.nonzero(inner[t, states] & (dist != 0.0))
            levels.append((dist, leaf_value[t, states], rows, tokens))
            if not rows.size:
                break
            prefixes = [prefixes[r] + (v,) for r, v in zip(rows.tolist(), tokens.tolist())]
            states = trans[t, states[rows], tokens]
        below = np.empty(0)  # the deepest level has no inner children
        for dist, value, rows, tokens in reversed(levels):
            value[rows, tokens] = below
            below = (dist * value).cumsum(axis=1)[:, -1]
        return float(below[0])

    def reward_gradient(self, table: PolicyTable) -> dict:
        """Exact gradient of E[R] w.r.t. every student logit row.

        Row gradient at prefix P is reach(P) * pi * (C - E[R | P]) where C
        holds the child values; rows on decided branches get zero and are
        omitted.
        """
        self.check_budget()
        grads: dict = {}

        def walk(prefix: PrefixKey, state: int, t: int, reach: float) -> float:
            if state == _DEAD:
                return 0.0
            if state == _FREE or t == self.horizon:
                return 1.0
            dist = table.student_dist(self.prompt_id, prefix)
            child_vals = np.zeros(self.vocab)
            for v in range(self.vocab):
                child_vals[v] = walk(
                    prefix + (v,),
                    self._step_state(state, t, v),
                    t + 1,
                    reach * dist[v],
                )
            exp_val = float(dist @ child_vals)
            row_grad = reach * dist * (child_vals - exp_val)
            key = (self.prompt_id, prefix)
            if key in grads:
                grads[key] = grads[key] + row_grad
            else:
                grads[key] = row_grad
            return exp_val

        walk((), _START, 0, 1.0)
        return grads

    # ----- certificates ----------------------------------------------------

    def assert_certificates(self, table: PolicyTable | None = None) -> None:
        """Re-assert the regime inequalities on the constructed tables."""
        table = table or self.make_table()
        for t in self.critical_positions:
            if t != 0:
                continue  # certificates are stated at first-position rows
            student = table.student_dist(self.prompt_id, ())
            for c in range(len(self.contexts)):
                teacher = softmax(self.init_rows[0] + self.context_offset(c, 0))
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
            "init_rows": {str(t): row.tolist() for t, row in self.init_rows.items()},
            "context_probs": self.context_probs.tolist(),
            "contexts": [
                {
                    "context_id": c.context_id,
                    "label": c.label,
                    "offsets": {str(t): o.tolist() for t, o in c.offsets.items()},
                }
                for c in self.contexts
            ],
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

    probs0 = np.full(v, 1.0 / v)
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
        if alt_token is not None or regime == "mixed":
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
    init_rows = {0: _logits_from_probs(probs0, need)}
    for t in range(1, p.horizon):
        if trap_position is not None and t == trap_position:
            trap_probs = np.full(v, (1.0 - p.trap_mass) / (v - len(trap_tokens)))
            trap_probs[list(trap_tokens)] = p.trap_mass / len(trap_tokens)
            init_rows[t] = _logits_from_probs(trap_probs, f"0 < trap_mass < 1, got {p.trap_mass!r}")
        else:
            init_rows[t] = np.zeros(v)

    critical: tuple[int, ...] = (0,)
    if regime == "mixed" and trap_position is not None:
        critical = (0, trap_position)

    quirk_pool = [t for t in token_pool if t not in trap_tokens]
    contexts = []
    drawn = []  # each context's teacher boost or suppression target
    for i in range(p.n_contexts):
        offsets: dict = {}
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
        offsets[0] = _offset_for_targets(init_rows[0], targets, keys, base_keys)
        if regime == "mixed" and trap_position is not None:
            # The context also flags the guarded trap for suppression.
            trap_target = {
                tok: float(rng.uniform(0.005, 0.02)) for tok in trap_tokens
            }
            offsets[trap_position] = _offset_for_targets(
                init_rows[trap_position], trap_target,
                "n_trap_tokens x the trap suppression (0.005 to 0.02 each)", "trap_mass",
            )
        elif p.distractor_mass > 0 and trap_position is not None:
            # Misleading hint: the teacher pulls toward the trap tokens.
            trap_target = {
                tok: p.distractor_mass / len(trap_tokens) for tok in trap_tokens
            }
            offsets[trap_position] = _offset_for_targets(
                init_rows[trap_position], trap_target, "distractor_mass", "trap_mass"
            )
        contexts.append(
            PrivilegedContext(
                context_id=i, label=_CONTEXT_LABELS[i], offsets=offsets
            )
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
        contexts=tuple(contexts),
        context_probs=np.full(p.n_contexts, 1.0 / p.n_contexts),
        params=p,
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


def inverse_cdf(dist: np.ndarray, u) -> np.ndarray:
    """Indices drawn from ``dist`` by the uniforms ``u``.

    ``dist`` is one distribution shared by all uniforms, or a (n, V)
    stack with one row per uniform. Each index is ``cdf.searchsorted(u, side="right")`` with
    ``cdf = dist.cumsum(); cdf /= cdf[-1]``, what ``Generator.choice(
    len(dist), p=dist)`` returns for the uniform it draws, so a caller
    that draws ``rng.random()`` itself consumes the stream exactly as
    ``choice`` would. The cdf is sorted, so the search is a count of the
    entries at most ``u``.
    """
    cdf = np.cumsum(dist, axis=-1)
    cdf /= cdf[..., -1:]
    return (cdf <= np.asarray(u)[..., None]).sum(axis=-1)


def draw_contexts(task: SynthTask, rng: np.random.Generator, size: int) -> np.ndarray:
    """``size`` privileged-context indices, one uniform each."""
    return inverse_cdf(task.context_probs, rng.random(size))


@dataclass
class SampledGroup:
    """Rollouts of the task's horizon sampled together, as (G, T) arrays.

    ``prefixes`` lists the distinct prefixes the group visited, in
    sampling order, and ``prefix_index[i, t]`` is the entry of position t
    of rollout i. Each rollout's ``logprobs`` is a row of ``logprobs``.
    ``states[i, t]`` is the acceptance-machine state of rollout i before
    position t; the outcomes are read off its last column.
    """

    rollouts: list
    tokens: np.ndarray  # (G, T) sampled token ids
    logprobs: np.ndarray  # (G, T) sample-time log-probs
    outcomes: np.ndarray  # (G,) verifier outcomes
    prefixes: list
    prefix_index: np.ndarray  # (G, T) indices into prefixes
    states: np.ndarray  # (G, T + 1) acceptance-machine states


def sample_group(
    table: PolicyTable,
    task: SynthTask,
    rng: np.random.Generator,
    size: int,
    dists: dict | None = None,
) -> SampledGroup:
    """Sample ``size`` sequences from the student policy and verify them.

    One ``rng.random((size, T))`` draw supplies a uniform per token in
    rollout-major order, and each token is picked by ``inverse_cdf`` of
    its prefix's distribution: the tokens, log-probs and stream position
    of ``size`` successive per-token ``Generator.choice`` loops. Positions
    are filled left to right, all rollouts at once.

    ``dists`` is an optional ``{prefix: student distribution}`` map: a row
    found there is reused and the rows missing at a position are computed
    by one ``student_dists`` call and added, so a group takes one softmax
    per position. The map is stale once the student rows change.

    Each rollout's machine state advances through ``task.transitions``
    with its token, so the group is verified as it is sampled.
    """
    dists = {} if dists is None else dists
    horizon = task.horizon
    uniforms = rng.random((size, horizon))
    tokens = np.empty((size, horizon), dtype=np.int64)
    probs = np.empty((size, horizon))
    prefix_index = np.empty((size, horizon), dtype=np.int64)
    states = np.full((size, horizon + 1), _START, dtype=np.int64)
    trans = task.transitions
    prefixes: list = []
    keys = [()] * size  # each rollout's prefix at position t
    for t in range(horizon):
        slot: dict = {}
        which = np.array([slot.setdefault(key, len(slot)) for key in keys])
        missing = [prefix for prefix in slot if prefix not in dists]
        if missing:
            dists.update(zip(missing, table.student_dists(task.prompt_id, missing)))
        row_of = np.array([dists[prefix] for prefix in slot])[which]
        picked = inverse_cdf(row_of, uniforms[:, t])
        tokens[:, t] = picked
        probs[:, t] = row_of[np.arange(size), picked]
        states[:, t + 1] = trans[t, states[:, t], picked]
        prefix_index[:, t] = len(prefixes) + which
        prefixes.extend(slot)
        keys = [key + (tok,) for key, tok in zip(keys, picked.tolist())]
    # math.log, not np.log: the two differ in the last bit on some inputs.
    logprobs = np.array([math.log(p) for p in probs.ravel().tolist()]).reshape(size, horizon)
    outcomes = (states[:, -1] != _DEAD).astype(np.int64)
    rollouts = [
        Rollout(task.prompt_id, seq, outcome, logprobs[row])
        for row, (seq, outcome) in enumerate(zip(map(tuple, tokens.tolist()), outcomes.tolist()))
    ]
    return SampledGroup(
        rollouts=rollouts,
        tokens=tokens,
        logprobs=logprobs,
        outcomes=outcomes,
        prefixes=prefixes,
        prefix_index=prefix_index,
        states=states,
    )


@dataclass(frozen=True)
class OracleAnnotation:
    """Span record mirroring the annotator output schema.

    Spans are token-index intervals (tokens are atomic characters here).
    Error spans appear only on rejected rollouts and key spans only on
    accepted ones; at most three spans of one to three consecutive
    positions each.
    """

    spans: tuple[CharSpan, ...]
    span_type: str
    outcome: int
    context_index: int

    def __post_init__(self) -> None:
        if len(self.spans) > 3:
            raise InternalConsistencyError("annotator emits at most 3 spans")
        for s in self.spans:
            if not (1 <= s.end - s.start <= 3):
                raise InternalConsistencyError("spans cover 1-3 positions")


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
    rollout: Rollout,
    task: SynthTask,
    precision: float = 1.0,
    rng: np.random.Generator | None = None,
) -> OracleAnnotation:
    """Deterministic oracle spans, optionally corrupted to precision q.

    Accepted rollouts get key spans on the critical positions they
    traversed; rejected rollouts get an error span on the root-cause
    position when it is critical, otherwise no span. With probability
    1 - q each true span is replaced by a random non-critical position,
    realizing the Bernoulli precision model.
    """
    if not (0.0 <= precision <= 1.0):
        raise RangeError("precision must lie in [0, 1]")
    rng = rng or np.random.default_rng(0)
    context_index = int(draw_contexts(task, rng, 1)[0])
    label = task.contexts[context_index].label

    if rollout.outcome == 1:
        true_positions = [t for t in task.critical_positions if t < len(rollout)]
    else:
        rc = task.root_cause(rollout.tokens)
        true_positions = [rc] if rc is not None else []

    non_critical = [
        t for t in range(len(rollout)) if t not in task.critical_positions
    ]
    spans: list[CharSpan] = []
    for start, end in _runs(sorted(true_positions)):
        if precision < 1.0 and rng.random() > precision and non_critical:
            fake = int(rng.choice(len(non_critical)))
            pos = non_critical[fake]
            spans.append(CharSpan(pos, pos + 1, label))
        else:
            spans.append(CharSpan(start, end, label))
    return OracleAnnotation(
        spans=tuple(spans),
        span_type=label,
        outcome=rollout.outcome,
        context_index=context_index,
    )


def oracle_span_mask(task: SynthTask, group: SampledGroup) -> np.ndarray:
    """(G, T) span mask of ``oracle_annotate`` at precision 1, before the
    coverage cap, as ``project_spans_to_mask`` gives it row by row.

    An accepted rollout is marked on the runs of critical positions
    (``_runs``, so at most three of them); a rejected one on its root cause
    when that position is critical. The root cause is the first position
    where the group's machine state goes dead. No generator is read: at
    precision 1 the annotator's only draw is its context.
    """
    size, horizon = group.tokens.shape
    critical = sorted(t for t in task.critical_positions if t < horizon)
    key = np.zeros(horizon, dtype=bool)
    for start, end in _runs(critical):
        key[start:end] = True
    is_critical = np.zeros(horizon, dtype=bool)
    is_critical[critical] = True
    dead = group.states[:, 1:] == _DEAD
    root = dead.argmax(axis=1)
    mask = np.where(dead[:, -1:], False, key)
    marked = np.flatnonzero(dead[:, -1] & is_critical[root])
    mask[marked, root[marked]] = True
    return mask


def single_route_params(**overrides) -> TaskParams:
    """Single accepting token at the critical position; no guarded branch."""
    return replace(TaskParams(), alt_mass=0.0, **overrides)


def chain_params(**overrides) -> TaskParams:
    """Accepting alternative plus downstream traps on the guarded branch."""
    base = TaskParams(alt_mass=0.9, p_star=0.005, trap_mass=0.25)
    return replace(base, **overrides)
