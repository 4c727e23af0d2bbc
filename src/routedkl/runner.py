"""Experiment orchestration: the mini-batch training loop and baselines.

One step samples a group of rollouts, verifies and annotates them, builds
the group's loss inputs, and applies a single gradient step to the shared
policy table. All six methods share one loss assembly,
``routing.routed_loss_rows``; a method only decides the span mask, which
rollouts' span branch carries KL (``KL_BRANCHES``), the KL weight and a
per-token advantage multiplier. The annotator applies the coverage cap.
Methods:

* ``routed_fkl_key``     forward KL on key spans (default corner action)
* ``routed_rkl_error``   reverse KL on error spans
* ``routed_both``        both span branches active
* ``grpo_only``          no distillation channel
* ``alltoken_kl_persistent``  mask of all ones, constant KL weight, both
  branches, frozen teacher: the persistent all-token baseline
* ``rlsd_weighted``      GRPO with the clipped teacher/student probability
  ratio as the per-token advantage multiplier on rollouts with positive
  advantage while the KL window is open; empty mask, no KL

Runs are deterministic given (config, seed): sampling and annotation each
draw from their own spawned generator, so methods sharing a seed see
identical rollout streams until their parameters diverge; exact
evaluation draws nothing.

The policy is a prefix trie stored as columns (``policy.PolicyTable``):
each visited prefix is an integer node, in first-visit order from the
root, node 0, with parent, token, depth, child, logit and student
distribution columns; only visited prefixes are stored (~1.9k of the
37,449 a V = 8, T = 6 horizon allows). A step carries its G rollouts as
(G, T) arrays whose ``prefix_index`` holds the nodes:
``tasks.sample_group`` walks the child table, ``_step_tensors`` gathers
the loss inputs, ``routing.routed_loss_rows`` returns the flat positions
that carry a gradient with their rows, ``_apply_row_grads`` sums them per
node in token order, and ``SynthTask.expected_reward`` sums the tree one
level of nodes at a time.

Each distinct distribution is computed once per parameter change. The
table's ``dists`` column gives a new node its depth's init distribution,
and ``PolicyTable.apply_gradients`` recomputes the rows it changes, so a
row always equals a fresh ``student_dist``; sampling, the loss, the lift
and exact E[R] all read it. ``RunState.teacher_cache`` holds each node's
teacher matrix and ledger terms for one sync generation, and is emptied
on every step whose channel is closed, so a teacher read then goes through
``PolicyTable.teacher_logits`` and trips the closed-channel guard. A step
that changes no row (a dead-zone GRPO group) reuses the stored exact
E[R], ``RunState.validation_reward``; any other step re-sums the levels
kept from the last tree walk, ``RunState.reward_tree``, and walks again
only when an inner child's probability leaves or reaches exactly 0.
``fork`` and the end of ``run_experiment`` empty both, so a kept state
holds its table but no teacher cache or reward tree.

Every batched piece has its per-row or per-rollout reference in
``tests/oracles.py``, and property tests require equal bytes.

``artifacts.ARTIFACTS`` declares the files a run writes to ``out_dir``:
those of ``output_texts`` at its end, or the abort snapshot when a
non-finite loss, lift or logged value raises ``NumericFailureError``.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
import math
import os
from dataclasses import dataclass, field, replace
from typing import NoReturn

import numpy as np

from .artifacts import ABORT, LEDGER, LONG, NAMES, STEPS, SUMMARY, csv_text, json_text, write
from .errors import ConfigError, InternalConsistencyError, NumericFailureError, require_finite_fields
from .grpo import group_advantages
from .policy import PolicyTable, _entropy, region_sums, softmax
from .privileged import (
    ExposureLedger,
    context_variance,
    expected_deviation_sq,
    exposure_accumulate,
    rlsd_weight,
)
from .routing import RoutingConfig, lambda_schedule, routed_loss_rows
from .tasks import (
    REGIMES,
    RewardTree,
    SampledGroup,
    SynthTask,
    TaskParams,
    draw_contexts,
    generate_task,
    oracle_annotate,
    sample_group,
)

METHODS = (
    "routed_fkl_key",
    "routed_rkl_error",
    "routed_both",
    "grpo_only",
    "alltoken_kl_persistent",
    "rlsd_weighted",
)

# Per KL method, whether its KL reaches (the error spans of a failed
# rollout, the key spans of an accepted one); the other methods run with
# lam = 0 and carry none.
KL_BRANCHES = {
    "routed_fkl_key": (False, True),
    "routed_rkl_error": (True, False),
    "routed_both": (True, True),
    "alltoken_kl_persistent": (True, True),
}

@dataclass(frozen=True)
class RunConfig:
    method: str = "routed_fkl_key"
    regime: str = "under_allocated"
    seed: int = 0
    steps: int = 200
    group_size: int = 8
    learning_rate: float = 0.1
    routing: RoutingConfig = RoutingConfig()
    task_params: TaskParams = field(default_factory=TaskParams)
    task_seed: int | None = None  # defaults to seed
    annotator_precision: float = 1.0
    teacher_sync: str = "interval"  # "interval" | "frozen"
    rlsd_eps_w: float = 0.2
    out_dir: str | None = None
    emit_plot_data: bool = False

    def __post_init__(self) -> None:
        require_finite_fields(self, ConfigError)
        if self.method not in METHODS:
            raise ConfigError(f"unknown method {self.method!r}")
        if self.regime not in REGIMES:
            raise ConfigError(f"unknown regime {self.regime!r}")
        for key in ("seed", "task_seed"):
            if (getattr(self, key) or 0) < 0:
                raise ConfigError(f"{key} must be nonnegative")
        if self.steps < 1:
            raise ConfigError("steps must be >= 1")
        if self.group_size < 2:
            raise ConfigError("group size must be >= 2")
        if self.learning_rate < 0:
            raise ConfigError(f"learning_rate must be nonnegative, got {self.learning_rate!r}")
        if not (0.0 <= self.rlsd_eps_w < 1.0):
            raise ConfigError(f"rlsd_eps_w must lie in [0, 1), got {self.rlsd_eps_w!r}")
        if self.teacher_sync not in ("interval", "frozen"):
            raise ConfigError("teacher_sync must be 'interval' or 'frozen'")
        if not (0.0 <= self.annotator_precision <= 1.0):
            raise ConfigError("annotator precision must lie in [0, 1]")
        vocab = self.task_params.vocab
        if self.routing.floor_p_min * vocab >= 1.0:
            raise ConfigError(
                f"floor_p_min * vocab must be < 1, got {self.routing.floor_p_min!r} * {vocab}"
            )

    def config_hash(self) -> str:
        """Hash of the run-defining fields; output plumbing excluded."""
        payload = dataclasses.asdict(self)
        payload.pop("out_dir", None)
        payload.pop("emit_plot_data", None)
        blob = json.dumps(payload, sort_keys=True, default=str)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass
class RunLog:
    rows: list = field(default_factory=list)
    summary: dict = field(default_factory=dict)

    def to_csv(self) -> str:
        return csv_text(STEPS, ([row[c] for c in NAMES[STEPS]] for row in self.rows))

    def to_long_csv(self) -> str:
        cells = ((row["step"], col, row[col]) for row in self.rows for col in NAMES[STEPS][1:])
        return csv_text(LONG, (c for c in cells if c[2] is not None))


class TeacherCache:
    """Per node, for one sync generation (``sync``): the (n_contexts, V)
    teacher matrix and its ledger terms, context variance and expected
    squared deviation; ``have`` marks the nodes filled."""

    def __init__(self) -> None:
        self.sync, self.have = -1, np.zeros(0, dtype=bool)
        self.matrices = self.terms = None

    def grow(self, cap: int, shape: tuple) -> None:
        """Room for ``cap`` nodes, keeping the entries."""
        n, old = len(self.have), (self.have, self.matrices, self.terms)
        self.have, self.terms = np.zeros(cap, dtype=bool), np.empty((cap, 2))
        self.matrices = np.empty((cap, *shape))
        if n:
            self.have[:n], self.matrices[:n], self.terms[:n] = old


@dataclass
class RunState:
    cfg: RunConfig
    task: SynthTask
    table: PolicyTable
    ledger: ExposureLedger
    rng_rollout: np.random.Generator
    rng_annot: np.random.Generator
    eval_tokens: np.ndarray  # root token ids of the lift-evaluation set
    k: int = 0
    credit_ratios: list = field(default_factory=list)
    teacher_cache: TeacherCache = field(default_factory=TeacherCache)
    reward_tree: RewardTree = field(default_factory=RewardTree)
    # Exact E[R] of the current rows, None once an update changed a row.
    validation_reward: float | None = None

    def fork(self) -> "RunState":
        """Deep snapshot so two methods can be advanced from one state."""
        # The copy starts with an empty teacher cache and reward tree.
        return copy.deepcopy(replace(self, teacher_cache=TeacherCache(), reward_tree=RewardTree()))


def should_sync(k: int, n: int, lam_k: float) -> bool:
    """Sync the teacher every n steps, but only while the channel is open."""
    if k < 0 or n <= 0:
        raise ConfigError("step and interval must be nonnegative/positive")
    return k % n == 0 and lam_k > 0.0


def effective_lambda(cfg: RunConfig, k: int) -> float:
    if cfg.method == "alltoken_kl_persistent":
        return cfg.routing.w0
    if cfg.method in KL_BRANCHES:
        return lambda_schedule(k, cfg.routing)
    return 0.0


def build_eval_token_set(task: SynthTask) -> np.ndarray:
    """Frozen lift-evaluation set from the pre-training policy snapshot.

    The root tokens whose context-mean teacher probability exceeds the
    student's at the snapshot, fixed here, before any update; the
    student's root row and the teacher's base are then the task's root
    init row.
    """
    student = softmax(task.init_rows[0])
    teacher = softmax(task.init_rows[0] + task.offsets[:, 0])
    return np.flatnonzero(task.context_probs @ teacher > student)


def init_run(cfg: RunConfig) -> RunState:
    task_seed = cfg.seed if cfg.task_seed is None else cfg.task_seed
    task = generate_task(cfg.regime, task_seed, cfg.task_params)
    task.check_budget()  # exact evaluation runs every step; fail before the first
    table = task.make_table()
    seeds = np.random.SeedSequence(cfg.seed).spawn(2)
    rng_rollout = np.random.default_rng(seeds[0])
    rng_annot = np.random.default_rng(seeds[1])
    eval_tokens = build_eval_token_set(task)
    if cfg.method != "grpo_only":
        table.sync_teacher()  # teacher starts as the step-0 student
    return RunState(
        cfg=cfg,
        task=task,
        table=table,
        ledger=ExposureLedger(),
        rng_rollout=rng_rollout,
        rng_annot=rng_annot,
        eval_tokens=eval_tokens,
    )


def _teacher_rows(state: RunState, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The teacher cache's read-only (N, n_contexts, V) matrices and (N, 2)
    ledger terms with the entries of ``nodes`` filled, all missing nodes
    in one ``teacher_dist_matrix`` call, each once and in increasing order."""
    table, task, cache = state.table, state.task, state.teacher_cache
    if cache.sync != table.sync_count:
        cache.sync, cache.have[:] = table.sync_count, False
    if len(cache.have) < table.n:
        cache.grow(len(table.logits), (len(task.contexts), task.vocab))
    have = cache.have[nodes]
    if not have.all():
        missing = np.flatnonzero(np.bincount(nodes[~have]))
        matrices = task.teacher_dist_matrix(table, missing)
        cache.matrices[missing] = matrices
        cache.terms[missing, 0] = context_variance(task.context_probs, matrices)
        cache.terms[missing, 1] = expected_deviation_sq(task.context_probs, matrices)
        cache.have[missing] = True
    view = cache.matrices.view()
    view.flags.writeable = False
    return view, cache.terms


def _eval_probs(state: RunState) -> np.ndarray:
    """Student probability of each lift-evaluation token, read from the
    table: every eval token sits at the root, node 0."""
    return state.table.dists[0, state.eval_tokens]


@dataclass
class _StepTensors:
    """The loss inputs of one step's rollout group; see ``_step_tensors``."""

    student: np.ndarray  # (G, T, V) student rows
    mask: np.ndarray  # (G, T) span mask after the coverage cap
    kl_on: np.ndarray  # (G,) rollouts whose span branch carries KL
    teacher: np.ndarray  # (M, V) teacher rows of the kl_on rollouts' span positions
    variance: np.ndarray | None = None  # (G,) ledger terms summed over each rollout's span
    deviation: np.ndarray | None = None
    adv_scale: np.ndarray | None = None  # (G, T) per-token advantage multiplier


def _step_tensors(
    state: RunState,
    group: SampledGroup,
    advantages: np.ndarray,
    lam: float,
    rlsd_open: bool,
) -> _StepTensors:
    """The step's loss inputs as (G, T) arrays, for every method.

    The student rows are the table's ``dists`` rows that sampled the group,
    and the step updates the table only after its loss, so the GRPO term is
    on-policy (ratio 1) and needs no log-probs. With the KL channel open
    (lam > 0) each rollout is annotated, masked and capped by
    ``oracle_annotate`` (the all-token baseline masks every position and
    draws only the context), ``kl_on`` is read off the outcomes and the
    method's ``KL_BRANCHES`` entry, teacher rows are gathered at the span
    positions of the ``kl_on`` rollouts, and the ledger's two terms are
    summed per rollout over every span position, left to right from 0.0
    (``bincount``). Otherwise the mask is empty and every token is plain
    GRPO; inside the RLSD window one context is drawn per rollout and
    rollouts with positive advantage carry the clipped teacher/student
    ratio of each sampled token as their advantage multiplier.
    """
    cfg, task = state.cfg, state.task
    size, horizon = group.tokens.shape
    dists = state.table.dists
    step = _StepTensors(
        student=dists[group.prefix_index],
        mask=np.zeros((size, horizon), dtype=bool),
        kl_on=np.zeros(size, dtype=bool),
        teacher=np.empty((0, task.vocab)),
    )
    if lam > 0.0:
        if cfg.method == "alltoken_kl_persistent":
            ctx = draw_contexts(task, state.rng_annot, size)
            step.mask[:] = True
        else:
            ctx, step.mask = oracle_annotate(
                task, group, cfg.annotator_precision, state.rng_annot, cfg.routing.alpha
            )
        span = np.flatnonzero(step.mask)
        nodes = group.prefix_index.ravel()[span]
        matrices, terms = _teacher_rows(state, nodes)
        item = span // horizon
        step.variance = np.bincount(item, terms[nodes, 0], minlength=size)
        step.deviation = np.bincount(item, terms[nodes, 1], minlength=size)
        # Span positions are all error spans on a failed rollout, all key
        # spans on an accepted one.
        step.kl_on = np.where(group.outcomes == 0, *KL_BRANCHES[cfg.method])
        on = step.kl_on[item]
        step.teacher = matrices[nodes[on], ctx[item[on]]]
    elif rlsd_open:
        ctx = draw_contexts(task, state.rng_annot, size)
        winners = np.flatnonzero(advantages > 0)
        if winners.size:
            flat = (winners[:, None] * horizon + np.arange(horizon)).ravel()
            nodes = group.prefix_index.ravel()[flat]
            matrices, _ = _teacher_rows(state, nodes)
            tokens = group.tokens.ravel()[flat]
            teacher_prob = matrices[nodes, ctx[flat // horizon], tokens]
            scale = np.ones(size * horizon)
            scale[flat] = rlsd_weight(teacher_prob, dists[nodes, tokens], cfg.rlsd_eps_w).clipped
            step.adv_scale = scale.reshape(size, horizon)
    return step


def _apply_row_grads(
    state: RunState, group: SampledGroup, rows: np.ndarray, grads: np.ndarray
) -> None:
    """Sum the token gradient rows per node, in token order, and step.

    A stable argsort of the rows' nodes gives each node, in increasing
    order, its first row; its sum starts there and adds the others in flat
    order (``np.add.at``), as a sequential loop does; ``np.add.reduceat``
    would reassociate the adds. The table recomputes the changed rows'
    distributions, and the stored exact E[R] is dropped.
    """
    if not rows.size:
        return
    flat = group.prefix_index.ravel()[rows]
    order = flat.argsort(kind="stable")
    head = np.concatenate(([True], flat[order[1:]] != flat[order[:-1]]))
    rank = order.argsort()  # each row's place in node order
    first = order[head]
    nodes, inverse, rest = flat[first], head.cumsum()[rank] - 1, ~head[rank]
    summed = grads[first]
    np.add.at(summed, inverse[rest], grads[rest])
    state.table.apply_gradients(nodes, summed, state.cfg.learning_rate)
    state.validation_reward = None


def _mean(values: np.ndarray) -> float:
    """``np.mean`` of a float array: the same ``add.reduce`` sum over the
    size, as in ``group_advantages``, without its Python dispatch."""
    return float(values.sum() / values.size)


def _update_ledger(state: RunState, step: _StepTensors, lam: float) -> None:
    """Per-step exposure record: exact context variance and deviation moment.

    Each rollout's span sum of the terms (``_step_tensors``) is divided by
    its length; the record takes their mean.
    """
    inv_len = 1.0 / step.mask.shape[1]
    exposure_accumulate(
        state.ledger, state.k, lam, _mean(step.variance * inv_len), _mean(step.deviation * inv_len)
    )


def _credit_ratios(mask: np.ndarray, rows: np.ndarray, credit: np.ndarray) -> np.ndarray:
    """Per (G, T) row of ``mask``, mean credit inside the mask over mean
    credit outside, for the rows it is defined for (both regions present,
    nonzero outside mean), in row order. Credit is the nonnegative
    ``credit[i]`` at the ascending flat positions ``rows`` and 0 elsewhere.
    """
    horizon = mask.shape[1]
    inside_n = mask.sum(axis=1)
    mixed = (inside_n > 0) & (inside_n < horizon)
    sums = region_sums(mask, rows, credit)
    inside = sums[mixed, 1] / inside_n[mixed]
    outside = sums[mixed, 0] / (horizon - inside_n[mixed])
    kept = outside != 0.0
    return inside[kept] / outside[kept]


def _track_credit_concentration(
    state: RunState, mask: np.ndarray, rows: np.ndarray, grads: np.ndarray
) -> None:
    """Per-token update magnitude (L2 logit-gradient norm times step size)
    inside the span mask versus outside, averaged over the rollouts that
    have both."""
    if not (mask.any(axis=1) & ~mask.all(axis=1)).any():
        return
    # Equals np.linalg.norm row by row; norm(axis=1) rounds differently.
    norms = np.sqrt(np.matmul(grads[:, None, :], grads[:, :, None]))[:, 0, 0]
    ratios = _credit_ratios(mask, rows, state.cfg.learning_rate * norms)
    if ratios.size:
        state.credit_ratios.append(_mean(ratios))


def _abort(state: RunState, rewards: np.ndarray, total: float, message: str) -> NoReturn:
    """Write an abort snapshot next to the run output when there is one,
    then raise ``NumericFailureError(message)``."""
    cfg = state.cfg
    if cfg.out_dir is not None:
        payload = {
            "step": state.k,
            "method": cfg.method,
            "seed": cfg.seed,
            "config_hash": cfg.config_hash(),
            "loss": repr(total),
            "batch_rewards": rewards.tolist(),
            "rows": {f"{p}/{prefix}": row.tolist() for (p, prefix), row in state.table.rows.items()},
        }
        write(cfg.out_dir, output_stem(cfg), {ABORT: json_text(ABORT, payload)})
    raise NumericFailureError(message)


def train_step(state: RunState) -> dict:
    """One mini-batch update; returns the per-step log row."""
    cfg, task, table = state.cfg, state.task, state.table
    k = state.k
    lam = effective_lambda(cfg, k)
    rlsd_open = cfg.method == "rlsd_weighted" and lambda_schedule(k, cfg.routing) > 0.0

    if cfg.teacher_sync == "interval" and should_sync(k, cfg.routing.sync_n, lam):
        table.sync_teacher()
    if not (lam > 0.0 or rlsd_open):
        state.teacher_cache.have[:] = False  # any teacher read now misses and is counted

    group = sample_group(table, task, state.rng_rollout, cfg.group_size)
    rewards = group.outcomes.astype(float)
    advantages = group_advantages(rewards)

    lookups_before = table.teacher_lookups
    step = _step_tensors(state, group, advantages, lam, rlsd_open)
    report, grad_rows, grads = routed_loss_rows(
        student=step.student,
        sampled=group.tokens,
        in_span=step.mask,
        failed=group.outcomes == 0,
        kl_on=step.kl_on,
        teacher=step.teacher,
        advantages=advantages,
        lam=lam,
        cfg=cfg.routing,
        adv_scale=step.adv_scale,
    )
    if not (lam > 0.0 or rlsd_open) and table.teacher_lookups != lookups_before:
        raise InternalConsistencyError("teacher consulted while the KL channel is closed")
    if lam > 0.0:
        _update_ledger(state, step, lam)
        _track_credit_concentration(state, step.mask, grad_rows, grads)

    total = report.total
    if not np.isfinite(total):
        _abort(state, rewards, total, f"non-finite loss at step {k}: {total!r}")

    probs_before = _eval_probs(state)
    _apply_row_grads(state, group, grad_rows, grads)
    probs_after = _eval_probs(state)
    for probs in (probs_before, probs_after):
        if not probs.all():
            token = state.eval_tokens[int(np.argmin(probs))]
            message = (
                f"non-finite delta_lift at step {k}: the student probability of eval "
                f"token {token} underflowed to 0"
            )
            _abort(state, rewards, total, message)
    lift = _mean(np.log(probs_after) - np.log(probs_before)) if probs_after.size else None
    if state.validation_reward is None:
        state.validation_reward = task.expected_reward(table, state.reward_tree)

    row = {
        "step": k,
        "train_reward": _mean(rewards),
        "validation_reward": state.validation_reward,
        "entropy": _mean(_entropy(step.student.reshape(-1, task.vocab))),
        "lambda": lam,
        "rho": report.rho,
        "exposure": state.ledger.exposure,
        "delta_lift": lift,
        "response_length": float(task.horizon),
    }
    for col, value in row.items():
        if isinstance(value, float) and not math.isfinite(value):
            _abort(state, rewards, total, f"non-finite {col} at step {k}: {value!r}")
    state.k += 1
    return row


def output_stem(cfg: RunConfig) -> str:
    """File stem of a run's artifacts in ``cfg.out_dir``."""
    return f"{cfg.method}_{cfg.regime}_seed{cfg.seed}"


def refuse_overwrite(cfg: RunConfig) -> None:
    """Raise ConfigError if out_dir is set but is not a directory and
    cannot become one, or if it holds a file with another config's hash
    (a summary or abort snapshot) under this stem."""
    if cfg.out_dir is None:
        return
    found = os.path.abspath(cfg.out_dir)
    while not os.path.exists(found):
        found = os.path.dirname(found)
    if not os.path.isdir(found):
        raise ConfigError(f"out_dir {cfg.out_dir!r}: {found!r} is not a directory")
    for suffix in (s for s in NAMES if "config_hash" in NAMES[s]):
        path = os.path.join(cfg.out_dir, output_stem(cfg) + suffix)
        if not os.path.exists(path):
            continue
        try:
            with open(path) as fh:
                found = json.load(fh).get("config_hash")
        except (OSError, ValueError, AttributeError):
            found = None
        if found != cfg.config_hash():
            raise ConfigError(
                f"{path} belongs to config {found}, not {cfg.config_hash()}; "
                "refusing to overwrite it"
            )


def run_experiment(cfg: RunConfig, state: RunState | None = None) -> tuple[RunLog, RunState]:
    """Run the configured training loop; with ``out_dir``, write ``output_texts``.

    Deterministic given (config, seed): two runs produce byte-identical
    output. Outputs of a run with a different config hash under the same
    stem are never replaced: the run is refused before it starts."""
    refuse_overwrite(cfg)
    state = state or init_run(cfg)
    log = RunLog()
    for _ in range(cfg.steps):
        log.rows.append(train_step(state))
    # A kept state holds its table only.
    state.teacher_cache, state.reward_tree = TeacherCache(), RewardTree()

    lifts = [row["delta_lift"] for row in log.rows if row["delta_lift"] is not None]
    credit = state.credit_ratios
    log.summary = {
        "method": cfg.method,
        "regime": cfg.regime,
        "seed": cfg.seed,
        "steps": cfg.steps,
        "config_hash": cfg.config_hash(),
        "final_validation_reward": log.rows[-1]["validation_reward"],
        "final_train_reward": log.rows[-1]["train_reward"],
        "mean_delta_lift": float(np.mean(lifts)) if lifts else None,
        "mean_credit_concentration": float(np.mean(credit)) if credit else None,
        "credit_norm": "l2",
        "final_exposure": state.ledger.exposure,
        "final_exposure_bound": state.ledger.bound,
        "teacher_syncs": state.table.sync_count,
    }

    if cfg.out_dir is not None:
        write(cfg.out_dir, output_stem(cfg), output_texts(cfg, log, state.ledger))
    return log, state


def output_texts(cfg: RunConfig, log: RunLog, ledger: ExposureLedger) -> dict:
    """``{suffix: text}`` of a finished run's files: the step CSV, the summary,
    the ledger CSV if it has records, the long CSV with ``emit_plot_data``."""
    texts = {STEPS: log.to_csv(), SUMMARY: json_text(SUMMARY, log.summary)}
    if ledger.records:
        texts[LEDGER] = ledger.to_csv()
    if cfg.emit_plot_data:
        texts[LONG] = log.to_long_csv()
    return texts
