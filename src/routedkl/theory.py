"""Executable checks for the analytic results behind the routed loss.

Each function here turns a pencil-and-paper statement into something a
test can evaluate numerically: the natural-gradient mass flow and its
closed form, the score-operator identity (an equality in the tabular
parameterization), endpoint dominance of the divergence mixture, the
corner thresholds in the risk coefficient, the annotator-precision signal
lower bound, and the risk-penalized utility of the key-span branch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .divergence import fkl_logit_grad
from .errors import RangeError, StepSizeError
from .policy import softmax, validate_distribution
from .routing import RoutingConfig, schedule_weight_sums


def natural_gradient_flow(
    pi0: np.ndarray, pi_t: np.ndarray, dt: float, horizon: float
) -> np.ndarray:
    """Explicit-Euler integration of d pi / dt = pi_T - pi.

    Returns the trajectory including both endpoints, shape
    (n_steps + 1, V). Closed form: pi(t) = pi_T + (pi0 - pi_T) e^{-t},
    so |pi_t(U) - pi_T(U)| shrinks by (1 - dt) per Euler step for any
    token set U. Raises if a step leaves the simplex (dt > 1).
    """
    p = validate_distribution(pi0, "pi0").copy()
    q = validate_distribution(pi_t, "pi_T")
    if dt <= 0 or horizon <= 0:
        raise RangeError("dt and horizon must be positive")
    n_steps = int(round(horizon / dt))
    traj = np.empty((n_steps + 1, p.size))
    traj[0] = p
    for i in range(n_steps):
        p = p + dt * (q - p)
        if np.any(p < 0):
            raise StepSizeError(f"Euler iterate left the simplex at step {i}")
        traj[i + 1] = p
    return traj


def natural_flow_closed_form(
    pi0: np.ndarray, pi_t: np.ndarray, t: float
) -> np.ndarray:
    p = validate_distribution(pi0, "pi0")
    q = validate_distribution(pi_t, "pi_T")
    return q + (p - q) * np.exp(-t)


def euclidean_fkl_descent_step(
    logits: np.ndarray, pi_t: np.ndarray, eta: float
) -> np.ndarray:
    """One Euclidean gradient-descent step on KL(pi_T || softmax(logits))."""
    p = softmax(logits)
    return np.asarray(logits, dtype=float) - eta * fkl_logit_grad(p, pi_t)


def score_operator_check(a: np.ndarray, dist: np.ndarray) -> tuple[float, float]:
    """(lhs, rhs) of the score-operator bound at tabular parameterization.

    lhs = || sum_v a_v grad log pi(v) ||^2 built from explicit score rows
    e_v - pi; rhs = C_s^2 sum a_v^2 with C_s = 1. For zero-sum a the
    contraction collapses to a itself, so the bound holds with equality.
    """
    a = np.asarray(a, dtype=float)
    p = validate_distribution(dist, "dist")
    if a.shape != p.shape:
        raise RangeError("a and dist must share a vocabulary")
    if abs(a.sum()) > 1e-9:
        raise RangeError(f"a must be zero-sum, got sum {a.sum()!r}")
    rows = np.eye(p.size) - p[None, :]  # row v: grad of log pi(v) w.r.t. logits
    contracted = a @ rows
    lhs = float((contracted**2).sum())
    rhs = float((a**2).sum())
    return lhs, rhs


@dataclass(frozen=True)
class CornerInstance:
    """Per-position gradient geometry for the routed-action choice."""

    g0: np.ndarray  # reverse-KL gradient
    g1: np.ndarray  # forward-KL gradient
    g_null: np.ndarray  # no-KL (GRPO-only) gradient
    g_tilde: np.ndarray  # oracle reward-gradient direction
    kappa: float
    v_t: float

    def __post_init__(self) -> None:
        dims = {np.asarray(v).shape for v in (self.g0, self.g1, self.g_null, self.g_tilde)}
        if len(dims) != 1:
            raise RangeError("corner instance vectors must share dimension")
        if self.kappa < 0 or self.v_t < 0:
            raise RangeError("kappa and v_t must be nonnegative")


def corner_utility(inst: CornerInstance, beta: float | None) -> float:
    """Alignment-minus-leakage utility of one routed action.

    beta in [0, 1] mixes forward (beta) and reverse (1 - beta) KL and pays
    the leakage penalty kappa * V_t; beta = None is the no-KL action and
    pays nothing.
    """
    if beta is None:
        return float(np.dot(inst.g_null, inst.g_tilde))
    if not (0.0 <= beta <= 1.0):
        raise RangeError(f"beta={beta} outside [0, 1]")
    aligned = (1.0 - beta) * float(np.dot(inst.g0, inst.g_tilde)) + beta * float(
        np.dot(inst.g1, inst.g_tilde)
    )
    return aligned - inst.kappa * inst.v_t


def corner_grid_argmax(
    inst: CornerInstance, grid: np.ndarray | None = None
) -> float | None:
    """Brute-force argmax of the utility over a beta grid plus the no-KL action."""
    if grid is None:
        grid = np.linspace(0.0, 1.0, 101)
    best_beta: float | None = None
    best = corner_utility(inst, None)
    for b in grid:
        u = corner_utility(inst, float(b))
        if u > best:
            best = u
            best_beta = float(b)
    return best_beta


def corner_best_action(inst: CornerInstance) -> float | None:
    """Closed-form optimal action: an endpoint of [0, 1] or None (no KL).

    The utility is affine in beta, so only the endpoints compete; each
    endpoint beats no-KL iff kappa < <g_endpoint - g_null, g~> / V_t.
    """
    u0 = corner_utility(inst, 0.0)
    u1 = corner_utility(inst, 1.0)
    u_null = corner_utility(inst, None)
    endpoint = 1.0 if u1 >= u0 else 0.0
    if max(u0, u1) > u_null:
        return endpoint
    return None


def corner_thresholds(
    error_inst: CornerInstance,
    key_inst: CornerInstance,
    nonspan_inst: CornerInstance,
) -> tuple[float, float, float, bool]:
    """(kappa_E, kappa_K, kappa_N, interval_nonempty) per-class thresholds.

    kappa_E / kappa_K are the risk levels below which the reverse / forward
    endpoint beats no-KL on its class; kappa_N is the level above which
    no-KL wins on the aligned class, measured empirically from the supplied
    instance rather than assumed. V_t = 0 reports an infinite threshold.
    The unified (RKL, FKL, no-KL) allocation needs
    kappa_N < kappa < min(kappa_E, kappa_K).
    """

    def _gain_over_null(inst: CornerInstance, g: np.ndarray) -> float:
        return float(np.dot(g - inst.g_null, inst.g_tilde))

    def _threshold(inst: CornerInstance, gain: float) -> float:
        if inst.v_t == 0.0:
            return float("inf")
        return gain / inst.v_t

    kappa_e = _threshold(error_inst, _gain_over_null(error_inst, error_inst.g0))
    kappa_k = _threshold(key_inst, _gain_over_null(key_inst, key_inst.g1))
    best_kl_gain = max(
        _gain_over_null(nonspan_inst, nonspan_inst.g0),
        _gain_over_null(nonspan_inst, nonspan_inst.g1),
    )
    if nonspan_inst.v_t == 0.0:
        kappa_n = float("inf") if best_kl_gain > 0 else 0.0
    else:
        kappa_n = max(best_kl_gain, 0.0) / nonspan_inst.v_t
    nonempty = kappa_n < min(kappa_e, kappa_k)
    return kappa_e, kappa_k, kappa_n, nonempty


@dataclass(frozen=True)
class AlignmentParams:
    """Inputs to the selected-span signal lower bound."""

    lambda_k: float
    p_e: float = 0.0
    p_k: float = 0.0
    q_e: float = 1.0
    q_k: float = 1.0
    gamma_e: float = 0.0
    gamma_k: float = 0.0
    b_e: float = 0.0
    b_k: float = 0.0
    mu_e: int = 0
    mu_k: int = 1

    def __post_init__(self) -> None:
        for name in ("p_e", "p_k", "q_e", "q_k"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise RangeError(f"{name}={v} outside [0, 1]")
        if self.b_e < 0 or self.b_k < 0:
            raise RangeError("misalignment bounds must be nonnegative")
        if self.mu_e not in (0, 1) or self.mu_k not in (0, 1):
            raise RangeError("mu_e, mu_k are binary")


def alignment_lower_bound(p: AlignmentParams) -> float:
    """lambda_k * sum over active classes of p * (q * gamma - (1-q) * B).

    The per-class bracket flips sign exactly at q* = B / (gamma + B).
    """
    error_term = p.mu_e * p.p_e * (p.q_e * p.gamma_e - (1.0 - p.q_e) * p.b_e)
    key_term = p.mu_k * p.p_k * (p.q_k * p.gamma_k - (1.0 - p.q_k) * p.b_k)
    return p.lambda_k * (error_term + key_term)


def precision_threshold(gamma: float, b: float) -> float:
    """q* = B / (gamma + B): the precision at which the signal turns positive."""
    if gamma <= 0:
        raise RangeError("gamma must be positive")
    return b / (gamma + b)


@dataclass(frozen=True)
class UtilityParams:
    """Inputs to the risk-penalized utility of the key-span branch."""

    lambda1: float
    lambda2: float
    c_s: float
    v_bar_k: float
    kappa: float
    p_k: float
    q_k: float
    gamma_k: float
    b_k: float

    @classmethod
    def from_schedule(
        cls,
        cfg: RoutingConfig,
        c_s: float,
        v_bar_k: float,
        kappa: float,
        p_k: float,
        q_k: float,
        gamma_k: float,
        b_k: float,
    ) -> "UtilityParams":
        l1, l2 = schedule_weight_sums(cfg)
        return cls(l1, l2, c_s, v_bar_k, kappa, p_k, q_k, gamma_k, b_k)


def risk_penalized_utility(p: UtilityParams) -> float:
    """Alignment signal minus kappa-weighted leakage exposure."""
    signal = p.lambda1 * p.p_k * (p.q_k * p.gamma_k - (1.0 - p.q_k) * p.b_k)
    leakage = p.kappa * p.lambda2 * p.c_s**2 * p.p_k * p.v_bar_k
    return signal - leakage
