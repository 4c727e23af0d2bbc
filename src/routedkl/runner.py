"""Experiment orchestration: the mini-batch training loop and baselines.

One step samples a group of rollouts, verifies and annotates them, builds
one loss input per rollout, and applies a single gradient step to the
shared policy table. All six methods share one loss assembly,
``routed_step_loss``; a method only decides the span mask, the teacher
rows, the KL weight and a per-token advantage multiplier. Methods:

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

Each distinct distribution is computed once per step. Teacher rows change
only at ``sync_teacher`` and student rows only at ``apply_gradients``:

* ``RunState.teacher_cache`` holds, per prefix, the read-only
  (n_contexts, V) teacher matrix and its context variance and expected
  squared deviation, the ledger's two terms. An entry lives for one sync
  generation (``table.sync_count``), and the cache is emptied on every
  step whose channel is closed, so a teacher read then misses, goes
  through ``PolicyTable.teacher_logits`` and trips the closed-channel
  guard.
* A step-local ``{prefix: student distribution}`` map is filled while the
  group is sampled and read by the log ratios, the entropy column and the
  pre-update lift; it is dropped at ``apply_gradients``. Nothing is cached
  on ``PolicyTable``, whose rows are mutated in place.
* ``routed_step_loss`` is array arithmetic over the group's (N, V) token
  rows. KL rows where a floor entry pins or a per-vocabulary term clips
  run through the scalar ``truncate_and_floor`` and clipped-KL routines,
  so every gradient equals the per-token reference.
"""

from __future__ import annotations

import copy
import dataclasses
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
from .metrics import LiftSample, credit_concentration, delta_lift
from .policy import PolicyTable, entropy
from .privileged import (
    ExposureLedger,
    context_variance,
    expected_deviation_sq,
    exposure_accumulate,
    rlsd_weight,
)
from .routing import (
    RolloutLossInput,
    RoutedLossReport,
    RoutingConfig,
    enforce_coverage_cap,
    lambda_schedule,
    partition,
    project_spans_to_mask,
    routed_step_loss,
)
from .tasks import (
    REGIMES,
    Rollout,
    SynthTask,
    TaskParams,
    generate_task,
    oracle_annotate,
    sample_rollout,
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
    return replace(cfg.routing, **_SPAN_ACTIONS.get(cfg.method, {}))


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


def _eval_logprobs(state: RunState, dists: dict) -> np.ndarray:
    out = np.empty(len(state.eval_tokens))
    for i, (prefix, v) in enumerate(state.eval_tokens):
        out[i] = np.log(_student_dist(state, dists, prefix)[v])
    return out


def _fresh_log_ratio(
    state: RunState, rollout: Rollout, dists: dict
) -> tuple[np.ndarray, np.ndarray]:
    """Student rows and log ratios against the sample-time log-probs.

    One optimizer step per batch means the recomputed log-probs equal the
    sample-time ones bit for bit, so the ratio is exactly one.
    """
    positions = range(len(rollout))
    student = np.stack([_student_dist(state, dists, rollout.prefix(t)) for t in positions])
    log_ratio = np.log(student[positions, rollout.tokens]) - rollout.logprobs
    return student, log_ratio


def _loss_items(
    state: RunState,
    rollouts: list,
    dists: dict,
    advantages: np.ndarray,
    routing: RoutingConfig,
    lam: float,
    rlsd_open: bool,
) -> list:
    """One loss input per rollout, for every method.

    With the KL channel open (lam > 0) the rollout is annotated, masked,
    capped and partitioned, and teacher rows are gathered on the active
    span branch. Otherwise the mask is empty and every token is plain
    GRPO; inside the RLSD window one context is drawn per rollout and
    rollouts with positive advantage carry the clipped teacher/student
    ratio of each sampled token as their advantage multiplier.
    """
    cfg, task = state.cfg, state.task
    items = []
    for rollout, adv in zip(rollouts, advantages):
        length = len(rollout)
        student, log_ratio = _fresh_log_ratio(state, rollout, dists)
        mask = np.zeros(length, dtype=np.int8)
        if lam > 0.0:
            if cfg.method == "alltoken_kl_persistent":
                ann = oracle_annotate(rollout, task, 1.0, state.rng_annot)
                mask = np.ones(length, dtype=np.int8)
            else:
                ann = oracle_annotate(rollout, task, cfg.annotator_precision, state.rng_annot)
                mask = project_spans_to_mask(list(ann.spans), rollout.token_char_intervals())
                mask = enforce_coverage_cap(mask, np.ones(length), routing.alpha)
        item = RolloutLossInput(
            student=student,
            log_ratio=log_ratio,
            sampled=np.asarray(rollout.tokens),
            part=partition(length, mask, rollout.outcome),
        )
        if lam > 0.0:
            item.teacher = {}
            if routing.mu_e if rollout.outcome == 0 else routing.mu_k:
                for t in item.part.span_idx:
                    item.teacher[t] = _teacher_rows(state, rollout.prefix(t))[0][ann.context_index]
        elif rlsd_open:
            ctx = int(state.rng_annot.choice(len(task.contexts), p=task.context_probs))
            if adv > 0:
                item.adv_scale = np.array([
                    rlsd_weight(
                        float(_teacher_rows(state, rollout.prefix(t))[0][ctx, y]),
                        float(student[t][y]),
                        cfg.rlsd_eps_w,
                    ).clipped
                    for t, y in enumerate(rollout.tokens)
                ])
        items.append(item)
    return items


def _accumulate_row_grads(task: SynthTask, rollouts: list, report: RoutedLossReport) -> dict:
    grads: dict = {}
    for (i, t), vec in report.per_token_logit_grads.items():
        key = (task.prompt_id, rollouts[i].prefix(t))
        grads[key] = grads[key] + vec if key in grads else vec
    return grads


def _update_ledger(state: RunState, rollouts: list, items: list, lam: float) -> None:
    """Per-step exposure record: exact context variance and deviation moment."""
    mv_terms, dev_terms = [], []
    for rollout, item in zip(rollouts, items):
        inv_len = 1.0 / len(rollout)
        mv = 0.0
        dev = 0.0
        for t in item.part.span_idx:
            _, variance, deviation = _teacher_rows(state, rollout.prefix(t))
            mv += variance
            dev += deviation
        mv_terms.append(mv * inv_len)
        dev_terms.append(dev * inv_len)
    exposure_accumulate(
        state.ledger, state.k, lam, float(np.mean(mv_terms)), float(np.mean(dev_terms))
    )


def _track_credit_concentration(
    state: RunState, items: list, report: RoutedLossReport
) -> None:
    """Per-token update magnitude (L2 logit-gradient norm times step size)
    inside the span mask versus outside, averaged over the batch."""
    grads, lr = report.per_token_logit_grads, state.cfg.learning_rate
    ratios = []
    for i, item in enumerate(items):
        credit = np.array([
            lr * float(np.linalg.norm(grads[(i, t)])) if (i, t) in grads else 0.0
            for t in range(len(item.sampled))
        ])
        ratio = credit_concentration(credit, item.part.mask.astype(bool))
        if ratio is not None:
            ratios.append(ratio)
    if ratios:
        state.credit_ratios.append(float(np.mean(ratios)))


def _mean_entropy(items: list) -> float:
    """Mean Shannon entropy over the student rows of the step's rollouts.

    Rows with a zero entry take the scalar ``entropy`` (0 log 0 = 0).
    """
    rows = np.concatenate([item.student for item in items])
    positive = (rows > 0).all(axis=1)
    ent = np.empty(len(rows))
    ent[positive] = -(rows[positive] * np.log(rows[positive])).sum(axis=1)
    ent[~positive] = [entropy(p) for p in rows[~positive]]
    return float(np.mean(ent))


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
    path = os.path.join(state.cfg.out_dir, "abort_diagnostics.json")
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
    rollouts = [
        sample_rollout(table, task, state.rng_rollout, dists) for _ in range(cfg.group_size)
    ]
    rewards = np.array([r.outcome for r in rollouts], dtype=float)
    advantages = group_advantages(rewards)

    lookups_before = table.teacher_lookups
    items = _loss_items(state, rollouts, dists, advantages, routing, lam, rlsd_open)
    report = routed_step_loss(items, advantages, k, routing, cfg.clip, lam_override=lam)
    if not (lam > 0.0 or rlsd_open) and table.teacher_lookups != lookups_before:
        raise InternalConsistencyError("teacher consulted while the KL channel is closed")
    if lam > 0.0:
        _update_ledger(state, rollouts, items, lam)
        _track_credit_concentration(state, items, report)

    total = report.total
    if not np.isfinite(total):
        _dump_diagnostics(state, rewards, total)
        raise NumericFailureError(f"non-finite loss at step {k}: {total!r}")

    lift_before = _eval_logprobs(state, dists)
    table.apply_gradients(_accumulate_row_grads(task, rollouts, report), cfg.learning_rate)
    lift_after = _eval_logprobs(state, {})
    samples = [
        LiftSample(0, v, float(b), float(a), True)
        for ((_, v), b, a) in zip(state.eval_tokens, lift_before, lift_after)
    ]
    lift = delta_lift(samples)

    row = {
        "step": k,
        "train_reward": float(rewards.mean()),
        "validation_reward": float(task.expected_reward(table)),
        "entropy": _mean_entropy(items),
        "lambda": lam,
        "rho": report.rho,
        "exposure": state.ledger.exposure,
        "delta_lift": lift,
        "response_length": float(np.mean([len(r) for r in rollouts])),
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
    """Raise ConfigError if out_dir holds another config's run under this stem."""
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
