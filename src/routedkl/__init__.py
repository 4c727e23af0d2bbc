"""Span-routed self-distillation lab for verifiable-reward RL.

Tabular softmax policies, forward/reverse KL with exact logit gradients,
group-relative advantages with the dead-zone convention, privileged-
exposure accounting, executable theory checks, and synthetic tasks that
reproduce the regime-dependent choice between the two KL directions.
"""

from .divergence import clip_per_vocab_kl, fkl_logit_grad, kl, rkl_logit_grad
from .grpo import group_advantages
from .policy import PolicyTable, entropy, softmax, truncate_and_floor
from .privileged import (
    ExposureLedger,
    RlsdWeight,
    exposure_accumulate,
    rlsd_weight,
)
from .routing import (
    RoutingConfig,
    lambda_schedule,
    rho,
    routed_loss_rows,
    schedule_weight_sums,
)
from .runner import RunConfig, RunLog, init_run, run_experiment, should_sync, train_step
from .tasks import (
    PrivilegedContext,
    SynthTask,
    TaskParams,
    generate_task,
    oracle_annotate,
    sample_group,
)
from .theory import (
    AlignmentParams,
    CornerInstance,
    UtilityParams,
    alignment_lower_bound,
    corner_thresholds,
    corner_utility,
    natural_gradient_flow,
    risk_penalized_utility,
    score_operator_check,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
