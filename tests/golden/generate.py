"""Golden trajectories: sha256 of the step and ledger CSVs over a small matrix.

The matrix is 6 methods x 3 regimes x 2 seeds at group size 4 and 16 steps
on a vocab-6 chain task (horizon 3, horizon 4 for ``mixed``), with a short
KL window so every method crosses its open and closed phases. Any change
to the numbers a run writes changes a hash.

    PYTHONPATH=src python tests/golden/generate.py            # rewrite hashes.json
    PYTHONPATH=src python tests/golden/generate.py --dump DIR # also write the CSVs

A change that moves the numbers on purpose regenerates ``hashes.json`` and
records in CHANGES.md why, with a per-row comparison of the dumped CSVs
against the previous code's.
"""

from __future__ import annotations

import argparse
import hashlib
import json
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


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dump", metavar="DIR", default=None)
    args = parser.parse_args()
    with open(HASHES, "w") as fh:
        json.dump(golden_hashes(args.dump), fh, sort_keys=True, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()
