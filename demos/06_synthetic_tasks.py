"""Synthetic verifiable-reward tasks, the oracle annotator, and exact oracles."""

import numpy as np

from routedkl import generate_task, oracle_annotate, sample_group
from routedkl.policy import softmax
from routedkl.tasks import chain_params

print("== regime construction and certificates ==")
task = generate_task("under_allocated", seed=0)
table = task.make_table()
student = table.student_dist(task.prompt_id, ())
print(f"under-allocated: v* = token {task.v_star}, student mass {student[task.v_star]:.4f}")
for c in range(len(task.contexts)):
    teacher = softmax(task.init_rows[0] + task.context_offset(c, 0))
    print(f"  context {task.contexts[c].label}: teacher mass {teacher[task.v_star]:.3f}")

cw = generate_task("confident_wrong", seed=0)
cw_student = cw.make_table().student_dist(cw.prompt_id, ())
print(f"confident-wrong: trap = token {cw.bad_token}, student mass {cw_student[cw.bad_token]:.3f}, "
      f"teacher suppresses it below 0.05 in every context")

print("\n== rollouts, verification, annotation ==")
chain = generate_task("under_allocated", seed=1, params=chain_params())
chain_table = chain.make_table()
rng = np.random.default_rng(0)
shown = 0
while shown < 4:
    rollout = sample_group(chain_table, chain, rng, 1).rollouts[0]
    ann = oracle_annotate(rollout, chain, precision=1.0, rng=rng)
    spans = [(s.start, s.end) for s in ann.spans]
    print(f"tokens {rollout.tokens}  outcome {rollout.outcome}  spans {spans}  type {ann.span_type}")
    shown += 1
print("accepted rollouts carry key spans on critical positions;")
print("failures are marked only when the root cause is a critical position")

print("\n== annotator precision model ==")
hits, total = 0, 0
while total < 3000:
    rollout = sample_group(chain_table, chain, rng, 1).rollouts[0]
    ann = oracle_annotate(rollout, chain, precision=0.7, rng=rng)
    for s in ann.spans:
        for t in range(s.start, s.end):
            total += 1
            hits += t in chain.critical_positions
print(f"requested precision 0.7, measured {hits / total:.3f} over {total} selections")

print("\n== exact enumeration oracles ==")
print("expected reward:", round(task.expected_reward(table), 6))
grads = task.reward_gradient(table)
root = grads[(task.prompt_id, ())]
print("reward gradient at the first row (zero-sum):", np.round(root, 4))
print("largest entry sits on the accepting token:", int(np.argmax(root)) == task.v_star)
