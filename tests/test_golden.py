"""Every run of the golden matrix writes the same bytes as when it was recorded."""

import hashlib
import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import routedkl
from routedkl.runner import output_stem, run_experiment
from golden.generate import (
    HASH_SETS,
    HASHES,
    KINDS,
    NO_AVX512,
    compare,
    compare_summaries,
    golden_hashes,
    matrix,
)

# Runs of every block of the matrix whose hashes differ between the sets.
LIBM_STEMS = (
    "routed_fkl_key_mixed_seed0",
    "grpo_only_under_allocated_seed0",
    "alltoken_kl_persistent_mixed_seed1",
    "rlsd_weighted_confident_wrong_seed0",
    "deep_routed_both_mixed_seed0",
    "precision_routed_both_mixed_seed0",
    "lift_routed_fkl_key_under_allocated_seed0",
    "clip_routed_both_mixed_seed0",
    "offsets_alltoken_kl_persistent_mixed_seed0",
)


@pytest.fixture(scope="module")
def dump(tmp_path_factory):
    """The matrix's hashes, with its CSVs dumped to a directory."""
    path = tmp_path_factory.mktemp("golden") / "a"
    return golden_hashes(str(path)), path


def test_golden_trajectories_unchanged(dump):
    with open(HASHES) as fh:
        expected = json.load(fh)
    got = dump[0]
    assert sorted(got) == sorted(expected)
    changed = [
        f"{stem}:{kind}"
        for stem in sorted(expected)
        for kind in sorted(set(expected[stem]) | set(got[stem]))
        if got[stem].get(kind) != expected[stem].get(kind)
    ]
    assert not changed, f"trajectories changed: {changed}"


def test_goldens_pin_the_written_files(tmp_path):
    # The hashes are of the bytes a run writes to out_dir, every kind.
    stem = "deep_routed_both_mixed_seed0"
    cfg = next(replace(cfg, out_dir=str(tmp_path)) for name, cfg, _ in matrix() if name == stem)
    run_experiment(cfg)
    written = {
        KINDS[path.name[len(output_stem(cfg)):]]: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in tmp_path.iterdir()
    }
    with open(HASHES) as fh:
        expected = json.load(fh)[stem]
    assert written == {kind: sha for kind, sha in expected.items() if kind != "trie"}


def test_compare_reports_per_row_max_abs_diff(dump, tmp_path):
    _, first = dump
    second = tmp_path / "b"
    golden_hashes(str(second))
    lines = compare(str(first), str(second))
    assert len(lines) == 2 * len(dump[0])
    assert all(": max 0 | rows " in line for line in lines)
    # Runs without a teacher write a header-only ledger: no data rows.
    assert all(set(line.split(" | rows ")[1].split()) <= {"0", "none"} for line in lines)

    edited = tmp_path / "c"
    shutil.copytree(second, edited)
    name = "routed_both_mixed_seed1.csv"
    rows = (edited / name).read_text().splitlines()
    cells = rows[3].split(",")
    cells[1] = repr(float(cells[1]) + 0.25)  # train_reward of step 2
    rows[3] = ",".join(cells)
    (edited / name).write_text("\n".join(rows) + "\n")
    changed = {line.split(":")[0]: line for line in compare(str(first), str(edited))}
    per_row = changed.pop(name).split(" | rows ")[1].split()
    assert float(per_row[2]) == 0.25
    assert set(per_row[:2] + per_row[3:]) == {"0"}
    assert all(": max 0 |" in line for line in changed.values())


def test_compare_summaries_names_the_changed_keys(dump, tmp_path):
    hashes, first = dump
    with_summary = sorted(f"{stem}_summary.json" for stem in hashes if "summary" in hashes[stem])
    assert compare_summaries(str(first), str(first)) == [f"{n}: changed none" for n in with_summary]

    edited = tmp_path / "b"
    shutil.copytree(first, edited)
    name, gone = with_summary[0], with_summary[1]
    summary = json.loads((edited / name).read_text())
    summary["config_hash"] = "0" * 16
    summary["extra"] = 1.0
    (edited / name).write_text(json.dumps(summary, sort_keys=True, indent=2) + "\n")
    (edited / gone).unlink()
    lines = dict(line.split(": ", 1) for line in compare_summaries(str(first), str(edited)))
    assert lines.pop(name) == "changed config_hash extra"
    assert lines.pop(gone) == f"missing in {edited}"
    assert set(lines.values()) == {"changed none"}


def test_libm_set_without_avx512_dispatch():
    # A numpy whose AVX-512 dispatch is off takes libm's exp and log; its
    # runs must write the libm set, which differs from the AVX-512 set on
    # these runs.
    sets = {}
    for path, name in HASH_SETS.items():
        with open(name) as fh:
            sets[path] = json.load(fh)
    assert sorted(sets["libm"]) == sorted(sets["avx512"])
    assert all(sets["libm"][stem] != sets["avx512"][stem] for stem in LIBM_STEMS)
    paths = [str(Path(routedkl.__file__).parents[1]), str(Path(__file__).parent)]
    env = {**os.environ, **NO_AVX512, "PYTHONPATH": os.pathsep.join(paths)}
    code = (
        "import json; from golden.generate import golden_hashes, numpy_path; "
        f"print(json.dumps([numpy_path(), golden_hashes(stems={LIBM_STEMS!r})]))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    path, got = json.loads(out.stdout)
    assert path == "libm"
    assert got == {stem: sets["libm"][stem] for stem in LIBM_STEMS}
