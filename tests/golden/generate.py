"""Golden trajectories: sha256 of the step and ledger CSVs over a small matrix.

The matrix is 6 methods x 3 regimes x 2 seeds at group size 4 and 16 steps
on a vocab-6 chain task (horizon 3, horizon 4 for ``mixed``), with a short
KL window so every method crosses its open and closed phases. Any change
to the numbers a run writes changes a hash.

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
from routedkl.tasks import REGIMES, chain_params

HASHES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "hashes.json")

SEEDS = (0, 1)
PARAMS = chain_params(vocab=6, horizon=3, p_star=0.004, alt_mass=0.85, n_contexts=2)
ROUTING = RoutingConfig(w0=1.0, t_start=4, t_decay=8, sync_n=5, tau=10.0, alpha=0.5)


def matrix() -> list[RunConfig]:
    cfgs = []
    for method in METHODS:
        for regime in REGIMES:
            params = replace(PARAMS, horizon=4) if regime == "mixed" else PARAMS
            for seed in SEEDS:
                cfgs.append(
                    RunConfig(
                        method=method,
                        regime=regime,
                        seed=seed,
                        steps=16,
                        group_size=4,
                        learning_rate=0.3,
                        routing=ROUTING,
                        task_params=params,
                    )
                )
    return cfgs


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def golden_hashes(dump_dir: str | None = None) -> dict:
    """{stem: {"csv": sha256, "ledger": sha256}} for every run of the matrix."""
    out = {}
    for cfg in matrix():
        log, state = run_experiment(cfg)
        stem = f"{cfg.method}_{cfg.regime}_seed{cfg.seed}"
        csv, ledger = log.to_csv(), state.ledger.to_csv()
        out[stem] = {"csv": _sha(csv), "ledger": _sha(ledger)}
        if dump_dir is not None:
            os.makedirs(dump_dir, exist_ok=True)
            for suffix, text in ((".csv", csv), ("_ledger.csv", ledger)):
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
