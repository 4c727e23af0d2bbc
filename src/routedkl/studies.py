"""Prepackaged experiments: corner inversion, lift ordering, exposure, alignment.

These drive ``run_experiment`` (or the ledger directly) with tuned desk-
scale configurations and reduce the results to the quantities the
acceptance suite asserts: per-seed final expected rewards, per-seed mean
lift, exposure growth ratios, and the precision-threshold crossing.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .divergence import fkl_logit_grad
from .errors import RangeError
from .policy import softmax, truncate_and_floor
from .privileged import ExposureLedger
from .routing import RoutingConfig
from .runner import RunConfig, init_run, run_experiment, train_step
from .tasks import (
    SynthTask,
    TaskParams,
    chain_params,
    draw_contexts,
    generate_task,
    sample_group,
)
from .theory import precision_threshold

# Schedule shared by every method inside the corner study: a stronger,
# longer KL window than the config defaults (the desk-scale per-entry KL
# clip default would zero the distillation gradient at regime tokens, so
# the studies run with tau effectively open; matched across methods).
STUDY_ROUTING = RoutingConfig(
    w0=2.0,
    t_start=10,
    t_decay=50,
    sync_n=10,
    tau=10.0,
    alpha=0.25,
)

# Under-allocation at desk scale needs a strong-base task: acceptance is
# common through a mastered alternative route whose branch hides diluted
# downstream traps, while the rarely-sampled teacher-backed token accepts
# outright. Key spans then fire on most rollouts (including all-correct
# dead-zone groups, where GRPO is silent).
CORNER_UNDER_PARAMS = chain_params(
    vocab=8,
    horizon=3,
    p_star=0.005,
    alt_mass=0.9,
    trap_mass=0.25,
    teacher_boost_low=0.55,
    teacher_boost_high=0.85,
    n_contexts=3,
)

# Confident-wrong: a sticky first-position trap. All-wrong dead-zone
# groups are common, so the error-span channel keeps firing where GRPO
# gets no advantage signal.
CORNER_CONFIDENT_PARAMS = TaskParams(
    vocab=8,
    horizon=3,
    confident_mass=0.9,
    teacher_suppress_low=0.01,
    teacher_suppress_high=0.04,
    n_contexts=3,
)

# Lift study: single accepting token so plain GRPO genuinely lifts it
# once bootstrapped; context quirks cap what the frozen-teacher all-token
# baseline can reach; a strong KL window covers the climb so the routed
# method snaps first. Runs stop after every arm has passed its knee.
LIFT_PARAMS = TaskParams(
    vocab=8,
    horizon=3,
    p_star=0.007,
    teacher_boost_low=0.75,
    teacher_boost_high=0.8,
    quirk_mass=0.19,
    n_contexts=3,
)
LIFT_ROUTING = RoutingConfig(
    w0=8.0,
    t_start=60,
    t_decay=60,
    sync_n=10,
    tau=10.0,
    alpha=0.25,
)

CORNER_STEPS = {"under_allocated": 220, "confident_wrong": 120}
CORNER_LR = {"under_allocated": 0.7, "confident_wrong": 0.4}
LIFT_STEPS = 300
LIFT_LR = 1.0
LIFT_GROUP = 12


def study_run_config(
    method: str,
    regime: str,
    seed: int,
    params: TaskParams,
    steps: int,
    learning_rate: float,
    teacher_sync: str = "interval",
    routing: RoutingConfig = STUDY_ROUTING,
    group_size: int = 8,
) -> RunConfig:
    return RunConfig(
        method=method,
        regime=regime,
        seed=seed,
        steps=steps,
        group_size=group_size,
        learning_rate=learning_rate,
        routing=routing,
        task_params=params,
        teacher_sync=teacher_sync,
    )


@dataclass
class CornerStudyResult:
    regime: str
    finals: dict = field(default_factory=dict)  # method -> list per seed


def corner_inversion_study(
    regime: str, seeds: range | list = range(10)
) -> CornerStudyResult:
    """Final exact expected reward per method and seed on one regime.

    Under-allocation favours forward KL on key spans; confident-wrong
    favours reverse KL on error spans. All methods share seeds, schedule,
    clipping, and task.
    """
    if regime == "under_allocated":
        params = CORNER_UNDER_PARAMS
    elif regime == "confident_wrong":
        params = CORNER_CONFIDENT_PARAMS
    else:
        raise RangeError("corner study runs the two pure regimes")
    methods = ("routed_fkl_key", "routed_rkl_error", "grpo_only")
    result = CornerStudyResult(regime=regime, finals={m: [] for m in methods})
    for seed in seeds:
        for method in methods:
            cfg = study_run_config(
                method, regime, seed, params,
                steps=CORNER_STEPS[regime], learning_rate=CORNER_LR[regime],
            )
            log, _ = run_experiment(cfg)
            result.finals[method].append(log.summary["final_validation_reward"])
    return result


@dataclass
class LiftStudyResult:
    mean_lift: dict = field(default_factory=dict)  # method -> list per seed

    def ordering_count(self) -> int:
        """Seeds where routed-FKL > GRPO > persistent all-token KL."""
        return sum(
            f > g > a
            for f, g, a in zip(
                self.mean_lift["routed_fkl_key"],
                self.mean_lift["grpo_only"],
                self.mean_lift["alltoken_kl_persistent"],
            )
        )


def lift_ordering_study(seeds: range | list = range(10)) -> LiftStudyResult:
    """Mean per-step lift on the frozen key-token set, per method and seed.

    The persistent all-token baseline uses a frozen teacher (its stand-in
    has no sync), the routed method the interval-synced teacher.
    """
    methods = {
        "routed_fkl_key": "interval",
        "grpo_only": "interval",
        "alltoken_kl_persistent": "frozen",
    }
    result = LiftStudyResult(mean_lift={m: [] for m in methods})
    for seed in seeds:
        for method, sync in methods.items():
            cfg = study_run_config(
                method,
                "under_allocated",
                seed,
                LIFT_PARAMS,
                steps=LIFT_STEPS,
                learning_rate=LIFT_LR,
                teacher_sync=sync,
                routing=LIFT_ROUTING,
                group_size=LIFT_GROUP,
            )
            log, _ = run_experiment(cfg)
            result.mean_lift[method].append(log.summary["mean_delta_lift"])
    return result


@dataclass
class ExposureStudyResult:
    alltoken: ExposureLedger
    routed: ExposureLedger

    def alltoken_exposure_at(self, k: int) -> float:
        return next(r.exposure_lhs for r in self.alltoken.records if r.k == k - 1)

    def routed_exposure_at(self, k: int) -> float:
        recs = [r for r in self.routed.records if r.k <= k - 1]
        return recs[-1].exposure_lhs if recs else 0.0


def exposure_dichotomy_study(
    steps: int = 1000,
    seed: int = 0,
    learning_rate: float = 0.0,
) -> ExposureStudyResult:
    """Exposure ledgers for the persistent all-token arm, whose teacher is
    frozen, vs the routed arm.

    With learning_rate = 0 the policy is stationary, so the all-token arm
    accumulates exactly linearly while the routed arm freezes once the
    schedule hits zero.
    """
    base = dict(
        regime="under_allocated",
        seed=seed,
        steps=steps,
        group_size=8,
        learning_rate=learning_rate,
        task_params=LIFT_PARAMS,
    )
    alltoken_cfg = RunConfig(
        method="alltoken_kl_persistent",
        routing=RoutingConfig(w0=0.5, t_start=10, t_decay=30, tau=10.0),
        teacher_sync="frozen",
        **base,
    )
    routed_cfg = RunConfig(
        method="routed_fkl_key",
        routing=RoutingConfig(w0=0.5, t_start=10, t_decay=30, tau=10.0, alpha=0.25),
        **base,
    )
    _, alltoken_state = run_experiment(alltoken_cfg)
    _, routed_state = run_experiment(routed_cfg)
    return ExposureStudyResult(
        alltoken=alltoken_state.ledger, routed=routed_state.ledger
    )


@dataclass
class AlignmentStudyResult:
    q_grid: np.ndarray
    inner_products: np.ndarray
    gamma: float
    b: float
    q_star: float
    crossing: float


# Nearly all first-position mass sits on the alternative route so its
# margin over the rollout average is negligible: the first-order reward
# alignment of the key-position pull is then carried by the
# under-allocated token itself and stays positive. Distractor offsets at
# the guarded trap rows give false-positive selections genuinely harmful
# teacher signal.
ALIGNMENT_PARAMS = chain_params(
    vocab=8,
    horizon=3,
    p_star=0.006,
    alt_mass=0.992,
    trap_mass=0.3,
    distractor_mass=0.55,
    teacher_boost_low=0.65,
    teacher_boost_high=0.75,
)


def _span_pull(task: SynthTask, table, node: int, ctx: int):
    """Forward-KL update direction (negative loss gradient) at one node."""
    student = truncate_and_floor(softmax(table.logits[node]), task.vocab, 1e-6)
    teacher = task.teacher_dist_matrix(table, np.array([node]))[0, ctx]
    teacher = truncate_and_floor(teacher, task.vocab, 1e-6)
    return -fkl_logit_grad(student, teacher)


def alignment_threshold_study(
    seed: int = 0,
    n_rollouts: int = 4000,
) -> AlignmentStudyResult:
    """Locate the annotator-precision threshold where selected-span signal
    turns positive.

    The oracle direction is the exact enumerated reward gradient. gamma
    and B are measured as the conditional mean alignments of the
    forward-KL gradient on true key positions and on false selections;
    the measured inner-product curve is affine in q and crosses zero at
    q* = B / (gamma + B). The curve is sampled at q = 0, 0.05, ..., 1.
    """
    q_grid = np.linspace(0.0, 1.0, 21)
    task = generate_task("under_allocated", seed, ALIGNMENT_PARAMS)
    table = task.make_table()
    table.sync_teacher()
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    oracle = task.reward_gradient(table)
    aligns: dict[tuple[int, int], float] = {}

    def align(node: int, ctx: int) -> float:  # the table is fixed: one pull per pair
        if (node, ctx) not in aligns:
            tilde = oracle[node] if node < len(oracle) else np.zeros(task.vocab)
            aligns[node, ctx] = float(_span_pull(task, table, node, ctx) @ tilde)
        return aligns[node, ctx]

    true_aligns, false_aligns = [], []
    for _ in range(n_rollouts):
        group = sample_group(table, task, rng, 1)
        if group.outcomes[0] != 1:
            continue
        nodes = group.prefix_index[0].tolist()
        ctx = int(draw_contexts(task, rng, 1)[0])
        true_aligns.extend(align(nodes[t], ctx) for t in task.critical_positions)
        non_critical = [t for t in range(task.horizon) if t not in task.critical_positions]
        t_false = int(non_critical[int(rng.choice(len(non_critical)))])
        false_aligns.append(align(nodes[t_false], ctx))

    gamma = float(np.mean(true_aligns))
    b = float(-np.mean(false_aligns))
    if gamma <= 0 or b <= 0:
        raise RangeError(
            "alignment study needs positive margin and positive misalignment"
        )
    q_star = precision_threshold(gamma, b)

    # Independent pass: simulate the corrupting annotator at each grid
    # precision and measure the selected-span inner product directly.
    true_arr = np.asarray(true_aligns)
    false_arr = np.asarray(false_aligns)
    n = min(true_arr.size, false_arr.size)
    curve = np.empty(q_grid.size)
    for i, q in enumerate(q_grid):
        keep_true = rng.random(n) < q
        curve[i] = float(np.where(keep_true, true_arr[:n], false_arr[:n]).mean())
    sign_change = np.flatnonzero(np.diff(np.sign(curve)) > 0)
    if sign_change.size == 0:
        crossing = float("nan")
    else:
        i = int(sign_change[0])
        x0, x1 = q_grid[i], q_grid[i + 1]
        y0, y1 = curve[i], curve[i + 1]
        crossing = float(x0 - y0 * (x1 - x0) / (y1 - y0))
    return AlignmentStudyResult(
        q_grid=q_grid,
        inner_products=curve,
        gamma=gamma,
        b=b,
        q_star=q_star,
        crossing=crossing,
    )


def post_decay_equivalence_probe(
    seed: int = 0, extra_steps: int = 12
) -> tuple[bool, int]:
    """Advance a routed state past decay, fork it, and drive both the
    routed and the plain-GRPO step functions from identical states.

    Returns (trajectories_identical, steps_compared); parameters must
    match bit for bit at every step.
    """
    cfg = study_run_config(
        "routed_fkl_key", "under_allocated", seed, CORNER_UNDER_PARAMS,
        steps=1, learning_rate=CORNER_LR["under_allocated"],
    )
    state = init_run(cfg)
    end = cfg.routing.t_start + cfg.routing.t_decay + 1
    while state.k < end:
        train_step(state)

    fork = state.fork()
    fork.cfg = replace(cfg, method="grpo_only")
    identical = True
    for _ in range(extra_steps):
        train_step(state)
        train_step(fork)
        a, b, n = state.table, fork.table, state.table.n
        identical = n == b.n and all(
            np.array_equal(getattr(a, col)[:n], getattr(b, col)[:n])
            for col in ("parent", "token", "logits")
        )
        if not identical:
            break
    return identical, extra_steps
