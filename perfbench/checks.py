"""Output checks run after each cycle, outside every timed region.

Each check returns a list of problems; an empty list means the run passed.
The checks use only the library's outputs and public objects, and compute
their own oracle where one is needed.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
from pathlib import Path

import numpy as np

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
REFERENCE_KEYS = ("final_validation_reward", "mean_delta_lift", "final_exposure")
REFERENCE_RTOL = 1e-9
LEDGER_RTOL = 1e-12
BRUTE_FORCE_ATOL = 1e-12
MAX_PROBLEMS = 5  # per file, so one broken column does not flood the report


def _close(a, b, rtol: float) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def csv_problems(text: str, name: str) -> list[str]:
    """Every numeric cell is finite and every validation reward is in [0, 1].

    Empty cells are absent values (a lift with no qualifying token). In the
    long format the ``series`` column names the quantity in ``value``.
    """
    problems = []
    rows = list(csv.DictReader(io.StringIO(text)))
    if not rows:
        return [f"{name}: no rows"]
    for row in rows:
        for col, cell in row.items():
            if col == "series" or cell == "":
                continue
            try:
                value = float(cell)
            except (TypeError, ValueError):
                problems.append(f"{name}: {col}={cell!r} is not a number")
                continue
            if not math.isfinite(value):
                problems.append(f"{name}: {col}={cell!r} is not finite")
            elif "validation_reward" in (col, row.get("series") if col == "value" else None) and not 0.0 <= value <= 1.0:
                problems.append(f"{name}: validation_reward {value!r} outside [0, 1]")
    return problems[:MAX_PROBLEMS]


def summary_problems(summary: dict, uses_teacher: bool) -> list[str]:
    problems = []
    for key, value in summary.items():
        if isinstance(value, float) and not math.isfinite(value):
            problems.append(f"summary {key}={value!r} is not finite")
    final = summary.get("final_validation_reward")
    if not isinstance(final, float) or not 0.0 <= final <= 1.0:
        problems.append(f"final_validation_reward {final!r} outside [0, 1]")
    if uses_teacher and not _close(
        summary["final_exposure"], summary["final_exposure_bound"], LEDGER_RTOL
    ):
        problems.append(
            f"ledger exposure {summary['final_exposure']!r} != bound "
            f"{summary['final_exposure_bound']!r} at C_s = 1"
        )
    return problems


class BruteForce:
    """Expected reward by enumerating all V**T sequences at a table.

    Sequences are taken in lexicographic blocks that share all but their
    last ``TAIL`` tokens, so memory stays small at T = 6. Verdicts depend
    only on the task, so they are cached per task as one byte each.
    """

    TAIL = 3

    def __init__(self) -> None:
        self._verdicts: dict[str, np.ndarray] = {}

    def forget(self) -> None:
        self._verdicts.clear()

    def _verdict(self, task) -> np.ndarray:
        key = task.to_json()
        if key not in self._verdicts:
            self._verdicts[key] = np.fromiter(
                (task.verifier(seq) for seq in itertools.product(range(task.vocab), repeat=task.horizon)),
                dtype=np.int8,
                count=task.vocab**task.horizon,
            )
        return self._verdicts[key]

    def reward(self, task, table) -> float:
        # A copy, so reading rows cannot materialise any in the run's table.
        rows = table.copy().rows
        pid, vocab = task.prompt_id, task.vocab
        verdict = self._verdict(task)

        def dists(prefixes) -> np.ndarray:
            logits = np.stack([
                rows[(pid, p)] if (pid, p) in rows else np.asarray(task.init_logits(pid, p), dtype=float)
                for p in prefixes
            ])
            expd = np.exp(logits - logits.max(axis=1, keepdims=True))
            return expd / expd.sum(axis=1, keepdims=True)

        head_len = max(task.horizon - self.TAIL, 0)
        block = vocab ** (task.horizon - head_len)
        total = 0.0
        for i, head in enumerate(itertools.product(range(vocab), repeat=head_len)):
            prob = 1.0
            for t in range(head_len):
                prob *= dists([head[:t]])[0][head[t]]
            joint = np.full(1, prob)
            prefixes = [head]
            for _ in range(head_len, task.horizon):
                joint = (joint[:, None] * dists(prefixes)).reshape(-1)
                prefixes = [p + (v,) for p in prefixes for v in range(vocab)]
            total += float(joint @ verdict[i * block:(i + 1) * block])
        return total


def brute_force_problems(brute: BruteForce, task, table, final_reward: float) -> list[str]:
    exact = brute.reward(task, table)
    if abs(exact - final_reward) > BRUTE_FORCE_ATOL:
        return [f"final validation_reward {final_reward!r} != enumeration {exact!r}"]
    return []


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def reference_problems(reference: dict, label: str, summary: dict) -> list[str]:
    expected = reference.get(label)
    if expected is None:
        return [f"no reference values stored for {label}"]
    return [
        f"{key} {summary[key]!r} != reference {expected[key]!r}"
        for key in REFERENCE_KEYS
        if not _close(summary[key], expected[key], REFERENCE_RTOL)
    ]
