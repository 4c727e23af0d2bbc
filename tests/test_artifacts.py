"""Every file a run writes has the fields ``artifacts.ARTIFACTS`` declares,
and README's "Outputs" section is a rendering of that table."""

import csv
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from routedkl.artifacts import ABORT, ARTIFACTS, NAMES
from routedkl.cli import load_config
from routedkl.errors import NumericFailureError
from routedkl.runner import output_stem, run_experiment

from test_runner import fast_cfg

ROOT = Path(__file__).parents[1]


def _fields(path: Path) -> list[str]:
    """A CSV's header cells, or a JSON object's keys, sorted."""
    if path.suffix == ".csv":
        with open(path, newline="") as fh:
            return next(csv.reader(fh))
    return sorted(json.loads(path.read_text()))


def test_run_files_match_table(tmp_path):
    cfg = fast_cfg(steps=6, out_dir=str(tmp_path / "run"), emit_plot_data=True)
    run_experiment(cfg)
    # A huge step underflows an eval token's probability: the run aborts.
    corner = load_config(str(ROOT / "configs" / "corner_under.ini"))
    failing = replace(corner, learning_rate=1e6, out_dir=str(tmp_path / "abort"))
    with np.errstate(divide="ignore"), pytest.raises(NumericFailureError):
        run_experiment(failing)

    seen = {}
    for run in (cfg, failing):
        stem = output_stem(run)
        for path in sorted(Path(run.out_dir).iterdir()):
            assert path.name.startswith(stem)
            seen[path.name[len(stem):]] = _fields(path)
    assert sorted(seen) == sorted(ARTIFACTS)
    for suffix, fields in seen.items():
        expected = NAMES[suffix] if suffix.endswith(".csv") else sorted(NAMES[suffix])
        assert fields == list(expected), suffix
    assert not (tmp_path / "abort" / f"{output_stem(failing)}{ABORT}").read_text().endswith("\n")


def render() -> str:
    """Markdown of ``ARTIFACTS``: per file a heading, what it holds, and a
    table of its fields."""
    lines = []
    for suffix, artifact in ARTIFACTS.items():
        lines += [f"### `{{stem}}{suffix}`", "", artifact.about, ""]
        lines += ["| field | type | unit | meaning |", "| --- | --- | --- | --- |"]
        lines += [f"| `{name}` | {kind} | {unit} | {meaning} |" for name, kind, unit, meaning in artifact.fields]
        lines.append("")
    return "\n".join(lines)


def test_readme_outputs_section_renders_the_table():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Outputs\n", 1)[1].split("\n## ", 1)[0]
    tables = section[section.index("\n### ") + 1:]
    assert tables == render(), "README's Outputs tables differ from:\n" + render()
