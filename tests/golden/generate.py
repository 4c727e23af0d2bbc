"""Golden trajectories: sha256 of the files runs write over a small matrix.

The matrix is 6 methods x 3 regimes x 2 seeds at group size 4 and 16 steps
on a vocab-6 chain task (horizon 3, horizon 4 for ``mixed``), with a short
KL window so every method crosses its open and closed phases. Two blocks
follow it, stored with the hash of the run's summary JSON as well (the
credit concentration is in no CSV) and the hash of the final trie, the
``parent``, ``token`` and ``depth`` columns of its ``n`` nodes (node ids
appear in no artifact, so this pins the order in which nodes are added):

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
  with floor_p_min = 0;
* ``offsets_*``: ``alltoken_kl_persistent`` of the deep shape, with the
  task's teacher offsets replaced after ``init_run`` by normal draws at
  every depth. A generated task offsets at most two depths, so at most
  two of a rollout's ledger terms are nonzero and any order sums them
  alike; here every term is nonzero, the re-synced teacher rows differ
  from node to node, and the order in which a rollout's terms are summed
  shows in the ledger.

Each hash is of a file's text as ``run_experiment`` writes it
(``runner.output_texts``), under a kind named after the file's suffix in
``artifacts.ARTIFACTS``: ``csv``, ``ledger`` and ``summary``. A run with no
ledger records, which writes no ledger file, hashes the header-only
ledger. Any change to the numbers a run writes changes a hash.

There is one hash set per path numpy's float64 ``exp`` and ``log`` take:
its AVX-512 kernels differ from libm in the last bit on some inputs, and
every other path equals ``math.exp``/``math.log``. ``hashes.json`` holds the
AVX-512 set and ``hashes_libm.json`` the libm set. ``numpy_path`` tells
them apart by a probe, not a CPU flag: ``probe_inputs.json`` holds inputs
on which the AVX-512 kernels and libm differ. ``generate.py`` writes the set
of its own path and, on the AVX-512 path, runs itself again with
``NO_AVX512`` in the environment to write the libm set.

    PYTHONPATH=src python tests/golden/generate.py            # rewrite both sets
    PYTHONPATH=src python tests/golden/generate.py --dump DIR # also write the files
    PYTHONPATH=src python tests/golden/generate.py --compare OLD NEW # diff two dumps

A change that moves the numbers on purpose regenerates ``hashes.json`` and
records in CHANGES.md why, with a per-row comparison of the dumped files
against the previous code's: ``--compare`` prints, for every CSV of the two
dumps, the largest absolute difference and the max abs diff of each row,
then, for every summary JSON, the keys whose values differ.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np

from routedkl.artifacts import ARTIFACTS, LEDGER, SUMMARY, write
from routedkl.routing import RoutingConfig
from routedkl.runner import METHODS, RunConfig, init_run, output_texts, run_experiment
from routedkl.studies import LIFT_GROUP, LIFT_LR, LIFT_PARAMS, LIFT_ROUTING, LIFT_STEPS, study_run_config
from routedkl.tasks import REGIMES, TaskParams, chain_params

HERE = os.path.dirname(os.path.abspath(__file__))
HASH_SETS = {
    "avx512": os.path.join(HERE, "hashes.json"),
    "libm": os.path.join(HERE, "hashes_libm.json"),
}
PROBE = os.path.join(HERE, "probe_inputs.json")
# numpy's CPU dispatch without its AVX-512 targets: exp and log take libm's path.
NO_AVX512 = {"NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4"}


def numpy_path() -> str:
    """"libm" if numpy's ``exp`` and ``log`` equal ``math``'s on every probe
    input, else "avx512"."""
    with open(PROBE) as fh:
        probe = json.load(fh)
    for name in ("exp", "log"):
        xs = [float.fromhex(x) for x in probe[name]]
        if getattr(np, name)(np.array(xs)).tolist() != [getattr(math, name)(x) for x in xs]:
            return "avx512"
    return "libm"


HASHES = HASH_SETS[numpy_path()]  # the set this interpreter's runs write

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
    runs.append(("offsets_alltoken_kl_persistent_mixed_seed0", _deep("alltoken_kl_persistent", 0), True))
    return runs


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _trie_sha(table) -> str:
    """sha256 of the table's node columns, as little-endian int64."""
    columns = (table.parent, table.token, table.depth)
    return hashlib.sha256(b"".join(col[: table.n].astype("<i8").tobytes() for col in columns)).hexdigest()


def _kind(suffix: str) -> str:
    """A file's hash kind: its suffix without the leading ``_`` and the
    extension, or the extension alone (``.csv`` is "csv", ``_ledger.csv``
    "ledger")."""
    name, _, extension = suffix.lstrip("_").rpartition(".")
    return name or extension


KINDS = {suffix: _kind(suffix) for suffix in ARTIFACTS}


def golden_hashes(dump_dir: str | None = None, stems: tuple[str, ...] | None = None) -> dict:
    """{stem: {"csv": sha256, "ledger": sha256[, "summary": sha256, "trie":
    sha256]}} for every run of the matrix, or of ``stems`` only, of the texts
    ``run_experiment`` writes (``runner.output_texts``); a run with no ledger
    records hashes the header-only ledger."""
    out = {}
    for stem, cfg, with_summary in matrix():
        if stems is not None and stem not in stems:
            continue
        state = init_run(cfg)
        if stem.startswith("offsets_"):
            state.task.offsets = np.random.default_rng(cfg.seed).normal(size=state.task.offsets.shape)
        log, state = run_experiment(cfg, state)
        texts = output_texts(cfg, log, state.ledger)
        texts.setdefault(LEDGER, state.ledger.to_csv())
        if not with_summary:
            del texts[SUMMARY]
        out[stem] = {KINDS[suffix]: _sha(text) for suffix, text in texts.items()}
        if with_summary:
            out[stem]["trie"] = _trie_sha(state.table)
        if dump_dir is not None:
            write(dump_dir, stem, texts)
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


def _pairs(old_dir: str, new_dir: str, suffix: str):
    """(name, [old path, new path], the dump it is missing from or None) of
    every file of either dump whose name ends in ``suffix``, by name."""
    names = set(os.listdir(old_dir)) | set(os.listdir(new_dir))
    for name in sorted(n for n in names if n.endswith(suffix)):
        paths = [os.path.join(old_dir, name), os.path.join(new_dir, name)]
        absent = [d for d, path in zip((old_dir, new_dir), paths) if not os.path.exists(path)]
        yield name, paths, absent[0] if absent else None


def compare(old_dir: str, new_dir: str) -> list[str]:
    """One line per CSV of either dump: the file's max abs diff, then each
    data row's, in row order. A missing file, a changed header or row count,
    and a changed non-numeric cell are reported as such or as inf."""
    lines = []
    for name, paths, absent in _pairs(old_dir, new_dir, ".csv"):
        if absent:
            lines.append(f"{name}: missing in {absent}")
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


def compare_summaries(old_dir: str, new_dir: str) -> list[str]:
    """One line per summary JSON of either dump: the keys, in order, whose
    values differ as JSON text (a key one side lacks differs), or "none";
    a missing file is reported as such."""
    lines = []
    for name, paths, absent in _pairs(old_dir, new_dir, SUMMARY):
        if absent:
            lines.append(f"{name}: missing in {absent}")
            continue
        old, new = ({k: json.dumps(v) for k, v in _read_json(p).items()} for p in paths)
        keys = sorted(k for k in old.keys() | new.keys() if old.get(k) != new.get(k))
        lines.append(f"{name}: changed {' '.join(keys) or 'none'}")
    return lines


def _read_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dump", metavar="DIR", default=None)
    parser.add_argument("--compare", nargs=2, metavar=("OLD_DIR", "NEW_DIR"), default=None)
    args = parser.parse_args()
    if args.compare is not None:
        print("\n".join(compare(*args.compare) + compare_summaries(*args.compare)))
        return
    path, child = numpy_path(), NO_AVX512.items() <= os.environ.items()
    if child and path != "libm":
        raise SystemExit(f"numpy's exp and log still differ from libm with {NO_AVX512} set")
    with open(HASH_SETS[path], "w") as fh:
        json.dump(golden_hashes(args.dump), fh, sort_keys=True, indent=2)
        fh.write("\n")
    if not child and path != "libm":  # the libm set, without --dump
        env = {**os.environ, **NO_AVX512}
        subprocess.run([sys.executable, os.path.abspath(__file__)], env=env, check=True)


if __name__ == "__main__":
    main()
