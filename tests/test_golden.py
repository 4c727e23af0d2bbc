"""Every run of the golden matrix writes the same bytes as when it was recorded."""

import json

from golden.generate import HASHES, golden_hashes


def test_golden_trajectories_unchanged():
    with open(HASHES) as fh:
        expected = json.load(fh)
    got = golden_hashes()
    assert sorted(got) == sorted(expected)
    changed = [
        f"{stem}:{kind}"
        for stem in sorted(expected)
        for kind in ("csv", "ledger")
        if got[stem][kind] != expected[stem][kind]
    ]
    assert not changed, f"trajectories changed: {changed}"
