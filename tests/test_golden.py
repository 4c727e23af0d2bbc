"""Every run of the golden matrix writes the same bytes as when it was recorded."""

import json
import shutil

import pytest

from golden.generate import HASHES, compare, golden_hashes


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
