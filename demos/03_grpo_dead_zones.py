"""Group-relative advantages, the asymmetric clip, and dead-zone routing.

A run applies one update per sampled group, so its GRPO term is on-policy
(ratio 1) and the library takes it as ``-A`` per token. The clipped
surrogate that would matter with several updates per group is kept here,
as ``clipped_surrogate``, to show where the clip binds.
"""

import numpy as np

from routedkl import group_advantages
from routedkl.errors import NonFiniteInputError, RangeError
from routedkl.routing import RoutingConfig, lambda_schedule, routed_loss_rows


def clipped_surrogate(log_ratio, advantage, eps_low=0.2, eps_high=0.28):
    """PPO's clipped surrogate of each token of matching token arrays.

    Returns the (loss, grad_factor) arrays, where loss = -min(rho*A,
    clamp(rho)*A), rho = exp(log_ratio) is clamped to [1 - eps_low,
    1 + eps_high], and grad_factor = d loss / d log pi(y_t). A factor is
    zero exactly when the clip binds against the improvement direction;
    at rho = 1 both are -A.
    """
    if not 0 < eps_low <= eps_high:
        raise RangeError(f"need 0 < eps_low <= eps_high, got ({eps_low}, {eps_high})")
    log_ratio = np.asarray(log_ratio, dtype=float)
    if not np.isfinite(log_ratio).all():
        raise NonFiniteInputError("log ratio must be finite")
    ratio = np.exp(log_ratio)
    clamped = np.minimum(np.maximum(ratio, 1.0 - eps_low), 1.0 + eps_high)
    s_free = ratio * advantage
    s_clip = clamped * advantage
    loss = -np.minimum(s_free, s_clip)
    grad_factor = np.where(s_free <= s_clip, -s_free, 0.0)
    return loss, grad_factor


def main():
    print("== standardized advantages ==")
    for rewards in ([1, 1, 1, 1], [1, 0], [1, 1, 0, 0, 0, 0, 0, 0]):
        adv = group_advantages(np.array(rewards, dtype=float))
        print(f"rewards {rewards} -> advantages {np.round(adv, 3).tolist()}")
    print("uniform groups are dead zones: every advantage is exactly zero")

    print("\n== asymmetric ratio clip ==")
    for ratio, adv in ((1.0, 1.0), (1.5, 1.0), (0.5, 1.0), (0.5, -1.0)):  # 0.2 low, 0.28 high
        loss, factor = clipped_surrogate(np.log(ratio), adv)
        state = "flows" if factor != 0.0 else "clipped (zero gradient)"
        print(f"ratio {ratio:3.1f}, advantage {adv:+.0f}: loss {float(loss):+.3f}, gradient {state}")

    print("\n== dead-zone signal preservation ==")
    rng = np.random.default_rng(1)
    vocab, length, group = 6, 4, 4
    teacher = rng.dirichlet(np.ones(vocab))
    student = np.empty((group, length, vocab))
    sampled = np.empty((group, length), dtype=np.int64)
    for i in range(group):
        student[i] = [rng.dirichlet(np.ones(vocab)) for _ in range(length)]
        sampled[i] = rng.integers(0, vocab, size=length)
    in_span = np.zeros((group, length), dtype=bool)
    in_span[:, 1] = True
    adv = group_advantages(np.ones(group))  # all-correct group
    cfg = RoutingConfig(tau=10.0, alpha=0.5)

    def touched(k):
        """(rollout, position) pairs that get a logit gradient at step k."""
        lam = lambda_schedule(k, cfg)
        _, idx, _ = routed_loss_rows(
            student=student,
            sampled=sampled,
            in_span=in_span,
            failed=np.zeros(group, dtype=bool),
            kl_on=np.ones(group, dtype=bool),
            teacher=np.tile(teacher, (group if lam > 0 else 0, 1)),  # the key spans' KL rows
            advantages=adv,
            lam=lam,
            cfg=cfg,
        )
        return [divmod(i, length) for i in idx.tolist()]

    print("after decay (pure GRPO): touched positions ->", touched(100))
    print("KL window open: touched positions         ->", touched(0))
    print("the routed channel keeps learning from groups GRPO cannot see")


if __name__ == "__main__":
    main()
