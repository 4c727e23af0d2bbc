"""Synthetic verifiable-reward tasks, the oracle annotator, and exact oracles."""

import numpy as np

from routedkl import generate_task, oracle_annotate, sample_group
from routedkl.policy import softmax
from routedkl.tasks import chain_params

print("== regime construction and certificates ==")
task = generate_task("under_allocated", seed=0)
table = task.make_table()
student = table.student_dist(())
print(f"under-allocated: v* = token {task.v_star}, student mass {student[task.v_star]:.4f}")
for c, context in enumerate(task.contexts):
    teacher = softmax(task.init_rows[0] + task.offsets[c, 0])
    print(f"  context {context.label}: teacher mass {teacher[task.v_star]:.3f}")

cw = generate_task("confident_wrong", seed=0)
cw_student = cw.make_table().student_dist(())
print(f"confident-wrong: trap = token {cw.bad_token}, student mass {cw_student[cw.bad_token]:.3f}, "
      f"teacher suppresses it below 0.05 in every context")



def runs(row):
    """(start, end) of each run of marked positions in a mask row."""
    edges = np.flatnonzero(np.diff(np.concatenate([[0], row.astype(int), [0]])))
    return list(zip(edges[::2].tolist(), edges[1::2].tolist()))


print("\n== rollouts, verification, annotation ==")
chain = generate_task("under_allocated", seed=1, params=chain_params())
chain_table = chain.make_table()
rng = np.random.default_rng(0)
shown = 0
while shown < 4:
    group = sample_group(chain_table, chain, rng, 1)
    ctx, mask = oracle_annotate(chain, group, precision=1.0, rng=rng, alpha=1.0)
    tokens, label = tuple(group.tokens[0].tolist()), chain.contexts[ctx[0]].label
    print(f"tokens {tokens}  outcome {group.outcomes[0]}  spans {runs(mask[0])}  type {label}")
    shown += 1
print("accepted rollouts carry key spans on critical positions;")
print("failures are marked only when the root cause is a critical position")

print("\n== annotator precision model ==")
hits, total = 0, 0
while total < 3000:
    group = sample_group(chain_table, chain, rng, 1)
    _, mask = oracle_annotate(chain, group, precision=0.7, rng=rng, alpha=1.0)
    total += int(mask.sum())
    hits += int(mask[0, list(chain.critical_positions)].sum())
print(f"requested precision 0.7, measured {hits / total:.3f} over {total} selections")

print("\n== exact enumeration oracles ==")
print("expected reward:", round(task.expected_reward(table), 6))
grads = task.reward_gradient(table)
root = grads[0]  # node 0 is the root
print("reward gradient at the first row (zero-sum):", np.round(root, 4))
print("largest entry sits on the accepting token:", int(np.argmax(root)) == task.v_star)
