"""Experiment orchestration: the mini-batch training loop and baselines.

One step samples a group of rollouts, verifies and annotates them, builds
the group's loss inputs, and applies a single gradient step to the shared
policy table. All six methods share one loss assembly,
``routing.routed_loss_rows``; a method only decides the span mask, the
teacher rows, the KL weight and a per-token advantage multiplier. Methods:

* ``routed_fkl_key``     forward KL on key spans (default corner action)
* ``routed_rkl_error``   reverse KL on error spans
* ``routed_both``        both span branches active
* ``grpo_only``          no distillation channel
* ``alltoken_kl_persistent``  mask of all ones, constant KL weight, both
  branches, frozen teacher: the persistent all-token baseline
* ``rlsd_weighted``      GRPO with the clipped teacher/student probability
  ratio as the per-token advantage multiplier on rollouts with positive
  advantage while the KL window is open; empty mask, no KL

Runs are deterministic given (config, seed): sampling, annotation, and
evaluation each draw from their own spawned generator so methods sharing
a seed see identical rollout streams until their parameters diverge.

The step carries its G rollouts of the task's horizon T as one batch:

* ``tasks.sample_group`` draws ``rng.random((G, T))`` once and picks each
  token by the inverse CDF of its prefix's distribution, which is what
  ``Generator.choice(p=dist)`` does with the uniform it draws: same
  tokens, same log-probs, same stream position as G per-token loops. The
  rows missing at a position come from one ``PolicyTable.student_dists``
  call, one softmax for all of them. Each rollout's acceptance-machine
  state advances through the task's (T, 4, V) transition table
  (``SynthTask.transitions``, built on first use), so the outcomes and
  the root causes are read off the group's (G, T + 1) state array.
* Annotation splits by precision. At ``annotator_precision == 1`` the
  annotator's only draw is one context uniform per rollout: the contexts
  are one ``draw_contexts`` call and the span mask is
  ``tasks.oracle_span_mask``, key runs on accepted rollouts and the root
  cause, when critical, on rejected ones. Below 1, whether and where a
  span is faked depends on draws made span by span, so each rollout goes
  through ``oracle_annotate`` in turn. Either way the coverage cap keeps
  each row's lowest ``ceil(alpha T)`` marked positions. The annotator's
  and RLSD's context draws use the same inverse CDF, one uniform per
  rollout, in rollout order.
* ``_step_tensors`` builds the student rows (G, T, V), the log ratios and
  the span mask (G, T), the teacher rows of the KL positions in
  (rollout, position) order, and the ledger's two terms at every span
  position. ``routed_loss_rows`` takes them as they are and returns the
  flat (G T) indices of the positions that carry a logit gradient with
  their gradient rows; the parameter update, the ledger, the entropy
  column and the credit ratios read those arrays. The credit ratios of
  all rollouts are computed over the (G, T) credit array and equal
  ``metrics.credit_concentration`` row by row.
* Exact evaluation (``SynthTask.expected_reward``) walks the tree one
  level at a time, one ``student_dists`` call per level.
* The policy stays a dict of logit rows built on first visit. A dense
  (n_rows, V) table would hold every prefix the horizon allows (37,449
  rows at V = 8, T = 6, against the ~1.9k a run visits), and the run and
  its synced copy would pay that in memory.

Each distinct distribution is computed once per step. Teacher rows change
only at ``sync_teacher`` and student rows only at ``apply_gradients``:

* ``RunState.teacher_cache`` holds, per prefix, the read-only
  (n_contexts, V) teacher matrix (one softmax over its context rows) and
  its context variance and expected squared deviation, the ledger's two
  terms. An entry lives for one sync generation (``table.sync_count``),
  and the cache is emptied on every step whose channel is closed, so a
  teacher read then misses, goes through ``PolicyTable.teacher_logits``
  and trips the closed-channel guard.
* A step-local ``{prefix: student distribution}`` map is filled while the
  group is sampled and read by the loss inputs and the pre-update lift;
  it is dropped at ``apply_gradients``. Nothing is cached on
  ``PolicyTable``, whose rows are mutated in place.

Every batched piece has its per-row or per-rollout reference in
``tests/oracles.py``, and property tests require equal bytes.

A non-finite loss, lift or logged value raises ``NumericFailureError``
after writing the abort snapshot ``{stem}_abort_diagnostics.json`` to
``out_dir``, one per run stem.
"""

from __future__ import annotations

import copy
import dataclasses
import functools
import hashlib
import json
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    ConfigError,
    InternalConsistencyError,
    NumericFailureError,
    require_finite_fields,
)
from .grpo import ClipConfig, group_advantages
from .metrics import LiftSample, delta_lift
from .policy import PolicyTable, _entropy, masked_row_sum
from .privileged import (
    ExposureLedger,
    context_variance,
    expected_deviation_sq,
    exposure_accumulate,
    rlsd_weight,
)
from .routing import (
    RoutingConfig,
    coverage_cap,
    lambda_schedule,
    project_spans_to_mask,
    routed_loss_rows,
)
from .tasks import (
    REGIMES,
    SampledGroup,
    SynthTask,
    TaskParams,
    draw_contexts,
    generate_task,
    oracle_annotate,
    oracle_span_mask,
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

ROUTED_FAMILY = ("routed_fkl_key", "routed_rkl_error", "routed_both")

CSV_COLUMNS = (
    "step",
    "train_reward",
    "validation_reward",
    "entropy",
    "lambda",
    "rho",
    "exposure",
    "delta_lift",
    "response_length",
)


@dataclass(frozen=True)
class RunConfig:
    method: str = "routed_fkl_key"
    regime: str = "under_allocated"
    seed: int = 0
    steps: int = 200
    group_size: int = 8
    learning_rate: float = 0.1
    routing: RoutingConfig = RoutingConfig()
    clip: ClipConfig = ClipConfig()
    task_params: TaskParams | None = None
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
        vocab = (self.task_params or TaskParams()).vocab
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
        lines = [",".join(CSV_COLUMNS)]
        for row in self.rows:
            cells = []
            for col in CSV_COLUMNS:
                value = row[col]
                if isinstance(value, float):
                    cells.append(repr(float(value)))
                elif value is None:
                    cells.append("")
                else:
                    cells.append(str(value))
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"

    def to_long_csv(self) -> str:
        lines = ["step,series,value"]
        for row in self.rows:
            for col in CSV_COLUMNS[1:]:
                value = row[col]
                if value is None:
                    continue
                cell = repr(float(value)) if isinstance(value, float) else str(value)
                lines.append(f"{row['step']},{col},{cell}")
        return "\n".join(lines) + "\n"


@dataclass
class RunState:
    cfg: RunConfig
    task: SynthTask
    table: PolicyTable
    ledger: ExposureLedger
    rng_rollout: np.random.Generator
    rng_annot: np.random.Generator
    eval_tokens: list
    k: int = 0
    credit_ratios: list = field(default_factory=list)
    # prefix -> (teacher matrix, context variance, expected deviation^2),
    # valid while table.sync_count == teacher_cache_sync; see _teacher_rows.
    teacher_cache: dict = field(default_factory=dict)
    teacher_cache_sync: int = -1

    def fork(self) -> "RunState":
        """Deep snapshot so two methods can be advanced from one state."""
        dup = copy.deepcopy(self)
        dup.teacher_cache.clear()  # copies of the read-only rows are writable
        return dup


def should_sync(k: int, n: int, lam_k: float) -> bool:
    """Sync the teacher every n steps, but only while the channel is open."""
    if k < 0 or n <= 0:
        raise ConfigError("step and interval must be nonnegative/positive")
    return k % n == 0 and lam_k > 0.0


def effective_lambda(cfg: RunConfig, k: int) -> float:
    if cfg.method == "alltoken_kl_persistent":
        return cfg.routing.w0
    if cfg.method in ROUTED_FAMILY:
        return lambda_schedule(k, cfg.routing)
    return 0.0


_SPAN_ACTIONS = {
    "routed_fkl_key": dict(mu_e=0, mu_k=1),
    "routed_rkl_error": dict(mu_e=1, mu_k=0),
    "routed_both": dict(mu_e=1, mu_k=1),
    "alltoken_kl_persistent": dict(mu_e=1, mu_k=1, alpha=1.0),
}


def effective_routing(cfg: RunConfig) -> RoutingConfig:
    """The method's span actions (mu_e, mu_k) and coverage cap."""
    return _method_routing(cfg.method, cfg.routing)


@functools.lru_cache(maxsize=64)
def _method_routing(method: str, routing: RoutingConfig) -> RoutingConfig:
    # Keyed on the values, not stored on the run state: a forked state's
    # cfg can be swapped for another method's.
    return replace(routing, **_SPAN_ACTIONS.get(method, {}))


def build_eval_token_set(task: SynthTask, table: PolicyTable) -> list:
    """Frozen lift-evaluation set from the pre-training policy snapshot.

    Tokens at the first critical row whose context-mean teacher
    probability exceeds the student's at the snapshot; the
    teacher-supported flag is fixed here, before any update.
    """
    student = table.student_dist(task.prompt_id, ())
    matrix = task.teacher_dist_matrix(table, ())
    mean_teacher = task.context_probs @ matrix
    return [((), v) for v in range(task.vocab) if mean_teacher[v] > student[v]]


def init_run(cfg: RunConfig) -> RunState:
    task_seed = cfg.seed if cfg.task_seed is None else cfg.task_seed
    task = generate_task(cfg.regime, task_seed, cfg.task_params)
    task.check_budget()  # exact evaluation runs every step; fail before the first
    table = task.make_table()
    seeds = np.random.SeedSequence(cfg.seed).spawn(3)
    rng_rollout = np.random.default_rng(seeds[0])
    rng_annot = np.random.default_rng(seeds[1])
    # Snapshot-policy eval set, built on a scratch table so the run
    # table's teacher-lookup counter reflects training only.
    eval_tokens = build_eval_token_set(task, task.make_table())
    if cfg.method != "grpo_only":
        table.sync_teacher()  # teacher starts as the step-0 student
    return RunState(
        cfg=cfg,
        task=task,
        table=table,
        ledger=ExposureLedger(c_s=1.0),
        rng_rollout=rng_rollout,
        rng_annot=rng_annot,
        eval_tokens=eval_tokens,
    )


def _student_dist(state: RunState, dists: dict, prefix: tuple) -> np.ndarray:
    """Student row at ``prefix`` from the step-local map, filled on a miss."""
    dist = dists.get(prefix)
    if dist is None:
        dist = dists[prefix] = state.table.student_dist(state.task.prompt_id, prefix)
    return dist


def _teacher_rows(state: RunState, prefix: tuple) -> tuple[np.ndarray, float, float]:
    """Read-only (n_contexts, V) teacher rows at ``prefix`` and their
    context variance and expected squared deviation, cached per sync.

    A miss goes through ``PolicyTable.teacher_logits`` and so counts as
    teacher lookups.
    """
    table, task = state.table, state.task
    if state.teacher_cache_sync != table.sync_count:
        state.teacher_cache.clear()
        state.teacher_cache_sync = table.sync_count
    entry = state.teacher_cache.get(prefix)
    if entry is None:
        matrix = task.teacher_dist_matrix(table, prefix)
        matrix.flags.writeable = False
        entry = state.teacher_cache[prefix] = (
            matrix,
            context_variance(task.context_probs, matrix),
            expected_deviation_sq(task.context_probs, matrix),
        )
    return entry


def _eval_probs(state: RunState, dists: dict) -> np.ndarray:
    """Student probability of each lift-evaluation token."""
    return np.array([_student_dist(state, dists, prefix)[v] for prefix, v in state.eval_tokens])


@dataclass
class _StepTensors:
    """The loss inputs of one step's rollout group; see ``_step_tensors``."""

    student: np.ndarray  # (G, T, V) student rows
    log_ratio: np.ndarray  # (G, T) log pi_theta(y_t) - log pi_old(y_t)
    mask: np.ndarray  # (G, T) span mask after the coverage cap
    kl_rows: np.ndarray  # (M,) flat positions whose span branch is active
    teacher: np.ndarray  # (M, V) teacher rows of kl_rows
    variance: np.ndarray | None = None  # (G, T) ledger terms at span positions, 0 elsewhere
    deviation: np.ndarray | None = None
    adv_scale: np.ndarray | None = None  # (G, T) per-token advantage multiplier


def _teacher_stack(state: RunState, group: SampledGroup, flat: np.ndarray) -> tuple:
    """Cache entries of the distinct prefixes at flat positions ``flat``,
    and each position's index into them."""
    slot: dict = {}
    inverse = [slot.setdefault(r, len(slot)) for r in group.prefix_index.ravel()[flat].tolist()]
    entries = [_teacher_rows(state, group.prefixes[r]) for r in slot]
    return entries, np.array(inverse, dtype=np.int64)


def _annotate(
    task: SynthTask,
    group: SampledGroup,
    precision: float,
    rng: np.random.Generator,
    alpha: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Each rollout's oracle context and (G, T) span mask after the cap.

    At precision 1 the annotator's only draw is one context uniform per
    rollout, so the contexts are one ``draw_contexts`` call and the mask is
    ``oracle_span_mask``: the same stream and the same spans as the
    per-rollout ``oracle_annotate``. Below 1, whether and where a span is
    faked depends on draws made span by span, so each rollout is
    annotated in turn. The cap keeps a row's lowest marked positions, as
    ``enforce_coverage_cap`` does with unit weights.
    """
    size, horizon = group.tokens.shape
    if precision == 1.0:
        ctx, mask = draw_contexts(task, rng, size), oracle_span_mask(task, group)
    else:
        ctx = np.empty(size, dtype=np.int64)
        mask = np.zeros((size, horizon), dtype=bool)
        for i, rollout in enumerate(group.rollouts):
            ann = oracle_annotate(rollout, task, precision, rng)
            ctx[i] = ann.context_index
            mask[i] = project_spans_to_mask(list(ann.spans), rollout.token_char_intervals())
    return ctx, mask & (np.cumsum(mask, axis=1) <= coverage_cap(alpha, horizon))


def _step_tensors(
    state: RunState,
    group: SampledGroup,
    dists: dict,
    advantages: np.ndarray,
    routing: RoutingConfig,
    lam: float,
    rlsd_open: bool,
) -> _StepTensors:
    """The step's loss inputs as (G, T) arrays, for every method.

    The log ratios compare the student rows with the sample-time
    log-probs; one optimizer step per batch makes them zero up to the last
    bit of ``np.log`` against ``math.log``. With the KL channel open
    (lam > 0) each rollout is annotated, masked and capped (the all-token
    baseline masks every position and draws only the context), teacher
    rows are gathered at the span positions of the active branch and the
    ledger's two terms at every span position. Otherwise the mask is empty
    and every token is plain GRPO; inside the RLSD window one context is
    drawn per rollout and rollouts with positive advantage carry the
    clipped teacher/student ratio of each sampled token as their advantage
    multiplier.
    """
    cfg, task = state.cfg, state.task
    size, horizon = group.tokens.shape
    student = np.array([dists[p] for p in group.prefixes])[group.prefix_index]
    picked = np.take_along_axis(student, group.tokens[..., None], axis=2)[..., 0]
    step = _StepTensors(
        student=student,
        log_ratio=np.log(picked) - group.logprobs,
        mask=np.zeros((size, horizon), dtype=bool),
        kl_rows=np.empty(0, dtype=np.int64),
        teacher=np.empty((0, task.vocab)),
    )
    if lam > 0.0:
        if cfg.method == "alltoken_kl_persistent":
            ctx = draw_contexts(task, state.rng_annot, size)
            step.mask[:] = True
        else:
            ctx, step.mask = _annotate(
                task, group, cfg.annotator_precision, state.rng_annot, routing.alpha
            )
        span = np.flatnonzero(step.mask)
        entries, inverse = _teacher_stack(state, group, span)
        variance, deviation = np.zeros((2, size * horizon))
        variance[span] = np.array([e[1] for e in entries])[inverse]
        deviation[span] = np.array([e[2] for e in entries])[inverse]
        step.variance = variance.reshape(size, horizon)
        step.deviation = deviation.reshape(size, horizon)
        # Span positions are all error spans on a failed rollout, all key
        # spans on an accepted one.
        branch = np.where(group.outcomes == 0, routing.mu_e, routing.mu_k)[span // horizon] == 1
        step.kl_rows = span[branch]
        if entries:
            matrices = np.array([e[0] for e in entries])
            step.teacher = matrices[inverse[branch], ctx[step.kl_rows // horizon]]
    elif rlsd_open:
        ctx = draw_contexts(task, state.rng_annot, size)
        winners = np.flatnonzero(advantages > 0)
        if winners.size:
            flat = (winners[:, None] * horizon + np.arange(horizon)).ravel()
            entries, inverse = _teacher_stack(state, group, flat)
            matrices = np.array([e[0] for e in entries])
            teacher_prob = matrices[inverse, ctx[flat // horizon], group.tokens.ravel()[flat]]
            scale = np.ones(size * horizon)
            scale[flat] = rlsd_weight(teacher_prob, picked.ravel()[flat], cfg.rlsd_eps_w).clipped
            step.adv_scale = scale.reshape(size, horizon)
    return step


def _apply_row_grads(
    state: RunState, group: SampledGroup, rows: np.ndarray, grads: np.ndarray
) -> None:
    """Sum the token gradient rows per prefix, in token order, and step."""
    summed: dict = {}
    for r, vec in zip(group.prefix_index.ravel()[rows].tolist(), grads):
        summed[r] = summed[r] + vec if r in summed else vec
    prompt = state.task.prompt_id
    state.table.apply_gradients(
        {(prompt, group.prefixes[r]): vec for r, vec in summed.items()},
        state.cfg.learning_rate,
    )


def _update_ledger(state: RunState, step: _StepTensors, lam: float) -> None:
    """Per-step exposure record: exact context variance and deviation moment.

    Each rollout's terms are summed left to right over its span positions
    and divided by its length; the record takes their mean.
    """
    inv_len = 1.0 / step.mask.shape[1]
    exposure_accumulate(
        state.ledger,
        state.k,
        lam,
        float(np.mean(np.cumsum(step.variance, axis=1)[:, -1] * inv_len)),
        float(np.mean(np.cumsum(step.deviation, axis=1)[:, -1] * inv_len)),
    )


def _credit_ratios(credit: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """``metrics.credit_concentration`` of every (G, T) row it is defined
    for (both regions present, nonzero outside mean), in row order."""
    mixed = mask.any(axis=1) & ~mask.all(axis=1)
    credit, mask = credit[mixed], mask[mixed]
    inside = masked_row_sum(credit, mask) / mask.sum(axis=1)
    outside = masked_row_sum(credit, ~mask) / (~mask).sum(axis=1)
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
    credit = np.zeros(mask.size)
    # Equals np.linalg.norm row by row; norm(axis=1) rounds differently.
    norms = np.sqrt(np.matmul(grads[:, None, :], grads[:, :, None]))[:, 0, 0]
    credit[rows] = state.cfg.learning_rate * norms
    ratios = _credit_ratios(credit.reshape(mask.shape), mask)
    if ratios.size:
        state.credit_ratios.append(float(np.mean(ratios)))


def _dump_diagnostics(state: RunState, rewards: np.ndarray, total: float) -> None:
    """Write an abort snapshot next to the run output when possible."""
    if state.cfg.out_dir is None:
        return
    os.makedirs(state.cfg.out_dir, exist_ok=True)
    payload = {
        "step": state.k,
        "method": state.cfg.method,
        "seed": state.cfg.seed,
        "loss": repr(total),
        "batch_rewards": rewards.tolist(),
        "rows": {
            f"{prompt}/{prefix}": row.tolist()
            for (prompt, prefix), row in state.table.rows.items()
        },
    }
    path = os.path.join(state.cfg.out_dir, f"{output_stem(state.cfg)}_abort_diagnostics.json")
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)


def train_step(state: RunState) -> dict:
    """One mini-batch update; returns the per-step log row."""
    cfg, task, table = state.cfg, state.task, state.table
    k = state.k
    lam = effective_lambda(cfg, k)
    routing = effective_routing(cfg)
    rlsd_open = cfg.method == "rlsd_weighted" and lambda_schedule(k, cfg.routing) > 0.0

    if cfg.method != "grpo_only" and cfg.teacher_sync == "interval":
        if should_sync(k, routing.sync_n, lam):
            table.sync_teacher()
    if not (lam > 0.0 or rlsd_open):
        state.teacher_cache.clear()  # any teacher read now misses and is counted

    dists: dict = {}  # student rows of this step, until apply_gradients
    group = sample_group(table, task, state.rng_rollout, cfg.group_size, dists)
    rewards = group.outcomes.astype(float)
    advantages = group_advantages(rewards)

    lookups_before = table.teacher_lookups
    step = _step_tensors(state, group, dists, advantages, routing, lam, rlsd_open)
    report, grad_rows, grads = routed_loss_rows(
        student=step.student,
        log_ratio=step.log_ratio,
        sampled=group.tokens,
        in_span=step.mask,
        failed=group.outcomes == 0,
        teacher=step.teacher,
        advantages=advantages,
        lam=lam,
        cfg=routing,
        clip=cfg.clip,
        adv_scale=step.adv_scale,
    )
    if not (lam > 0.0 or rlsd_open) and table.teacher_lookups != lookups_before:
        raise InternalConsistencyError("teacher consulted while the KL channel is closed")
    if lam > 0.0:
        _update_ledger(state, step, lam)
        _track_credit_concentration(state, step.mask, grad_rows, grads)

    total = report.total
    if not np.isfinite(total):
        _dump_diagnostics(state, rewards, total)
        raise NumericFailureError(f"non-finite loss at step {k}: {total!r}")

    probs_before = _eval_probs(state, dists)
    _apply_row_grads(state, group, grad_rows, grads)
    probs_after = _eval_probs(state, {})
    for probs in (probs_before, probs_after):
        if not probs.all():
            _dump_diagnostics(state, rewards, total)
            token = state.eval_tokens[int(np.argmin(probs))][1]
            raise NumericFailureError(
                f"non-finite delta_lift at step {k}: the student probability of eval "
                f"token {token} underflowed to 0"
            )
    samples = [
        LiftSample(0, v, float(np.log(b)), float(np.log(a)), True)
        for ((_, v), b, a) in zip(state.eval_tokens, probs_before, probs_after)
    ]
    lift = delta_lift(samples)

    row = {
        "step": k,
        "train_reward": float(rewards.mean()),
        "validation_reward": float(task.expected_reward(table)),
        "entropy": float(np.mean(_entropy(step.student.reshape(-1, task.vocab)))),
        "lambda": lam,
        "rho": report.rho,
        "exposure": state.ledger.exposure,
        "delta_lift": lift,
        "response_length": float(task.horizon),
    }
    for col, value in row.items():
        if isinstance(value, float) and not math.isfinite(value):
            _dump_diagnostics(state, rewards, total)
            raise NumericFailureError(f"non-finite {col} at step {k}: {value!r}")
    state.k += 1
    return row


def output_stem(cfg: RunConfig) -> str:
    """File stem of a run's artifacts in ``cfg.out_dir``."""
    return f"{cfg.method}_{cfg.regime}_seed{cfg.seed}"


def _refuse_overwrite(cfg: RunConfig) -> None:
    """Raise ConfigError if out_dir is not a directory and cannot become
    one, or if it holds another config's run under this stem."""
    found = os.path.abspath(cfg.out_dir)
    while not os.path.exists(found):
        found = os.path.dirname(found)
    if not os.path.isdir(found):
        raise ConfigError(f"out_dir {cfg.out_dir!r}: {found!r} is not a directory")
    path = os.path.join(cfg.out_dir, f"{output_stem(cfg)}_summary.json")
    if not os.path.exists(path):
        return
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
    """Run the configured training loop; optionally emit CSV artifacts.

    Deterministic given (config, seed): two runs produce byte-identical
    CSV output. Outputs of a run with a different config hash under the
    same stem are never replaced: the run is refused before it starts.
    """
    if cfg.out_dir is not None:
        _refuse_overwrite(cfg)
    state = state or init_run(cfg)
    log = RunLog()
    for _ in range(cfg.steps):
        log.rows.append(train_step(state))

    lifts = [row["delta_lift"] for row in log.rows if row["delta_lift"] is not None]
    log.summary = {
        "method": cfg.method,
        "regime": cfg.regime,
        "seed": cfg.seed,
        "steps": cfg.steps,
        "config_hash": cfg.config_hash(),
        "final_validation_reward": log.rows[-1]["validation_reward"],
        "final_train_reward": log.rows[-1]["train_reward"],
        "mean_delta_lift": float(np.mean(lifts)) if lifts else None,
        "mean_credit_concentration": (
            float(np.mean(state.credit_ratios)) if state.credit_ratios else None
        ),
        "credit_norm": "l2",
        "final_exposure": state.ledger.exposure,
        "final_exposure_bound": state.ledger.bound,
        "teacher_syncs": state.table.sync_count,
    }

    if cfg.out_dir is not None:
        os.makedirs(cfg.out_dir, exist_ok=True)
        stem = output_stem(cfg)
        with open(os.path.join(cfg.out_dir, f"{stem}.csv"), "w", newline="") as fh:
            fh.write(log.to_csv())
        with open(os.path.join(cfg.out_dir, f"{stem}_summary.json"), "w") as fh:
            json.dump(log.summary, fh, sort_keys=True, indent=2)
            fh.write("\n")
        if state.ledger.records:
            with open(os.path.join(cfg.out_dir, f"{stem}_ledger.csv"), "w", newline="") as fh:
                fh.write(state.ledger.to_csv())
        if cfg.emit_plot_data:
            with open(os.path.join(cfg.out_dir, f"{stem}_long.csv"), "w", newline="") as fh:
                fh.write(log.to_long_csv())
    return log, state
