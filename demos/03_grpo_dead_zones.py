"""Group-relative advantages, the asymmetric clip, and dead-zone routing."""

import numpy as np

from routedkl import group_advantages, grpo_token_loss
from routedkl.grpo import ClipConfig
from routedkl.routing import RoutingConfig, lambda_schedule, routed_loss_rows

print("== standardized advantages ==")
for rewards in ([1, 1, 1, 1], [1, 0], [1, 1, 0, 0, 0, 0, 0, 0]):
    adv = group_advantages(np.array(rewards, dtype=float))
    print(f"rewards {rewards} -> advantages {np.round(adv, 3).tolist()}")
print("uniform groups are dead zones: every advantage is exactly zero")

print("\n== asymmetric ratio clip ==")
clip = ClipConfig()  # 0.2 low, 0.28 high
for ratio, adv in ((1.0, 1.0), (1.5, 1.0), (0.5, 1.0), (0.5, -1.0)):
    loss, factor = grpo_token_loss(np.log(ratio), adv, clip)
    state = "flows" if factor != 0.0 else "clipped (zero gradient)"
    print(f"ratio {ratio:3.1f}, advantage {adv:+.0f}: loss {loss:+.3f}, gradient {state}")

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
        log_ratio=np.zeros((group, length)),
        sampled=sampled,
        in_span=in_span,
        failed=np.zeros(group, dtype=bool),
        teacher=np.tile(teacher, (group if lam > 0 else 0, 1)),  # key spans under mu_k
        advantages=adv,
        lam=lam,
        cfg=cfg,
    )
    return [divmod(i, length) for i in idx.tolist()]


print("after decay (pure GRPO): touched positions ->", touched(100))
print("KL window open: touched positions         ->", touched(0))
print("the routed channel keeps learning from groups GRPO cannot see")
