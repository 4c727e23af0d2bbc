"""Golden trajectories: sha256 of the step and ledger CSVs over a small matrix.

The matrix is 6 methods x 3 regimes x 2 seeds at group size 4 and 16 steps
on a vocab-6 chain task (horizon 3, horizon 4 for ``mixed``), with a short
KL window so every method crosses its open and closed phases. Two blocks
follow it, stored with the hash of the run's summary JSON as well (the
credit concentration is in no CSV):

* ``deep_*``: the shape of perfbench's deep-cli sweep (``mixed``, V = 8,
  T = 6, G = 8) for 24 steps with a KL window that opens and closes, for
  ``routed_both``, ``rlsd_weighted`` and ``routed_fkl_key`` x 2 seeds;
* ``precision_*``: two ``routed_both`` runs of that shape with annotator
  precision 0.6, whose annotator draws depend on the data;
* ``lift_*``: ``routed_fkl_key`` at the lift study's config (300 steps,
  G = 12, lr 1.0) x 2 seeds, where peaked student rows pin the 1e-6 floor
  on most KL rows;
* ``clip_*`` and ``nofloor_*``: ``routed_both`` of the deep shape with
  tau = 1e-3, where per-vocabulary terms clip in both KL directions, and
  with floor_p_min = 0.

Any change to the numbers a run writes changes a hash.

    PYTHONPATH=src python tests/golden/generate.py            # rewrite hashes.json
    PYTHONPATH=src python tests/golden/generate.py --dump DIR # also write the CSVs
    PYTHONPATH=src python tests/golden/generate.py --compare OLD NEW # diff two dumps

A change that moves the numbers on purpose regenerates ``hashes.json`` and
records in CHANGES.md why, with a per-row comparison of the dumped CSVs
against the previous code's: ``--compare`` prints, for every CSV of the two
dumps, the largest absolute difference and the max abs diff of each row.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
from dataclasses import replace

from routedkl.routing import RoutingConfig
from routedkl.runner import METHODS, RunConfig, run_experiment
from routedkl.studies import LIFT_GROUP, LIFT_LR, LIFT_PARAMS, LIFT_ROUTING, LIFT_STEPS, study_run_config
from routedkl.tasks import REGIMES, TaskParams, chain_params

HASHES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "hashes.json")

SEEDS = (0, 1)
PARAMS = chain_params(vocab=6, horizon=3, p_star=0.004, alt_mass=0.85, n_contexts=2)
ROUTING = RoutingConfig(w0=1.0, t_start=4, t_decay=8, sync_n=5, tau=10.0, alpha=0.5)

DEEP_ROUTING = RoutingConfig(w0=2.0, t_start=4, t_decay=10, sync_n=5, tau=10.0, alpha=0.25)
DEEP_METHODS = ("routed_both", "rlsd_weighted", "routed_fkl_key")


def _deep(method: str, seed: int, routing: RoutingConfig = DEEP_ROUTING, **overrides) -> RunConfig:
    return RunConfig(
        method=method,
        regime="mixed",
        seed=seed,
        steps=24,
        group_size=8,
        learning_rate=0.5,
        routing=routing,
        task_params=TaskParams(vocab=8, horizon=6),
        **overrides,
    )


def matrix() -> list[tuple[str, RunConfig, bool]]:
    """(stem, config, whether the summary JSON is hashed) for every run."""
    runs = []
    for method in METHODS:
        for regime in REGIMES:
            params = replace(PARAMS, horizon=4) if regime == "mixed" else PARAMS
            for seed in SEEDS:
                cfg = RunConfig(
                    method=method,
                    regime=regime,
                    seed=seed,
                    steps=16,
                    group_size=4,
                    learning_rate=0.3,
                    routing=ROUTING,
                    task_params=params,
                )
                runs.append((f"{method}_{regime}_seed{seed}", cfg, False))
    for method in DEEP_METHODS:
        for seed in SEEDS:
            runs.append((f"deep_{method}_mixed_seed{seed}", _deep(method, seed), True))
    for seed in SEEDS:
        cfg = _deep("routed_both", seed, annotator_precision=0.6)
        runs.append((f"precision_routed_both_mixed_seed{seed}", cfg, True))
    for seed in SEEDS:
        cfg = study_run_config(
            "routed_fkl_key", "under_allocated", seed, LIFT_PARAMS, steps=LIFT_STEPS,
            learning_rate=LIFT_LR, routing=LIFT_ROUTING, group_size=LIFT_GROUP,
        )
        runs.append((f"lift_routed_fkl_key_under_allocated_seed{seed}", cfg, True))
    cfg = _deep("routed_both", 0, replace(DEEP_ROUTING, tau=1e-3))
    runs.append(("clip_routed_both_mixed_seed0", cfg, True))
    cfg = _deep("routed_both", 0, replace(DEEP_ROUTING, floor_p_min=0.0))
    runs.append(("nofloor_routed_both_mixed_seed0", cfg, True))
    return runs


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def golden_hashes(dump_dir: str | None = None) -> dict:
    """{stem: {"csv": sha256, "ledger": sha256[, "summary": sha256]}} for
    every run of the matrix; the summary text is what ``run_experiment``
    writes to ``{stem}_summary.json``."""
    out = {}
    for stem, cfg, with_summary in matrix():
        log, state = run_experiment(cfg)
        texts = {".csv": log.to_csv(), "_ledger.csv": state.ledger.to_csv()}
        if with_summary:
            texts["_summary.json"] = json.dumps(log.summary, sort_keys=True, indent=2) + "\n"
        kinds = {".csv": "csv", "_ledger.csv": "ledger", "_summary.json": "summary"}
        out[stem] = {kinds[suffix]: _sha(text) for suffix, text in texts.items()}
        if dump_dir is not None:
            os.makedirs(dump_dir, exist_ok=True)
            for suffix, text in texts.items():
                with open(os.path.join(dump_dir, stem + suffix), "w", newline="") as fh:
                    fh.write(text)
    return out


def _cell_diff(old: str, new: str) -> float:
    if old == new:
        return 0.0
    try:
        return abs(float(old) - float(new))
    except ValueError:  # an empty or non-numeric cell changed
        return math.inf


def _read_rows(path: str) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def compare(old_dir: str, new_dir: str) -> list[str]:
    """One line per CSV of either dump: the file's max abs diff, then each
    data row's, in row order. A missing file, a changed header or row count,
    and a changed non-numeric cell are reported as such or as inf."""
    lines = []
    names = sorted(n for n in set(os.listdir(old_dir)) | set(os.listdir(new_dir)) if n.endswith(".csv"))
    for name in names:
        paths = [os.path.join(old_dir, name), os.path.join(new_dir, name)]
        absent = [d for d, path in zip((old_dir, new_dir), paths) if not os.path.exists(path)]
        if absent:
            lines.append(f"{name}: missing in {absent[0]}")
            continue
        old, new = map(_read_rows, paths)
        if old[:1] != new[:1] or len(old) != len(new):
            lines.append(f"{name}: header or row count differs ({len(old)} vs {len(new)} lines)")
            continue
        per_row = [
            max((_cell_diff(a, b) for a, b in zip(r_old, r_new)), default=0.0)
            if len(r_old) == len(r_new) else math.inf
            for r_old, r_new in zip(old[1:], new[1:])
        ]
        cells = " ".join(f"{d:.3g}" for d in per_row) or "none"
        lines.append(f"{name}: max {max(per_row, default=0.0):.3g} | rows {cells}")
    return lines


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dump", metavar="DIR", default=None)
    parser.add_argument("--compare", nargs=2, metavar=("OLD_DIR", "NEW_DIR"), default=None)
    args = parser.parse_args()
    if args.compare is not None:
        print("\n".join(compare(*args.compare)))
        return
    with open(HASHES, "w") as fh:
        json.dump(golden_hashes(args.dump), fh, sort_keys=True, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()
