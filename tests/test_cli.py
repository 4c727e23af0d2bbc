"""The INI schema: every section is typed from its config dataclass, each
file is read once, and every bad input exits 2, 3 or 4 naming its key."""

import configparser
import dataclasses
import tempfile
import warnings
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from routedkl import cli, runner
from routedkl.grpo import ClipConfig
from routedkl.routing import RoutingConfig
from routedkl.runner import METHODS, RunConfig
from routedkl.tasks import REGIMES, TaskParams

CONFIGS = Path(__file__).parents[1] / "configs"

# configs/corner_under.ini as the parser read it before the config
# dataclasses became the only schema (floor_top_k and clip_two_sided,
# since deleted, were None and True).
CORNER_UNDER = {
    "method": "routed_fkl_key",
    "regime": "under_allocated",
    "seed": 0,
    "steps": 220,
    "group_size": 8,
    "learning_rate": 0.7,
    "routing": {
        "mu_e": 0, "mu_k": 1, "alpha": 0.25, "tau": 10.0, "w0": 2.0,
        "t_start": 10, "t_decay": 50, "sync_n": 10, "floor_p_min": 1e-06,
    },
    "clip": {"eps_low": 0.2, "eps_high": 0.28},
    "task_params": {
        "vocab": 8, "horizon": 3, "p_star": 0.005, "alt_mass": 0.9,
        "trap_mass": 0.25, "n_trap_tokens": 2, "trap_position": 2,
        "confident_mass": 0.85, "n_contexts": 3, "teacher_boost_low": 0.55,
        "teacher_boost_high": 0.85, "teacher_suppress_low": 0.01,
        "teacher_suppress_high": 0.04, "quirk_mass": 0.0, "distractor_mass": 0.0,
    },
    "task_seed": None,
    "annotator_precision": 1.0,
    "teacher_sync": "interval",
    "rlsd_eps_w": 0.2,
    "out_dir": None,
    "emit_plot_data": False,
}

SMALL = """
[run]
method = routed_both
regime = mixed
seed = 1
steps = 2
group_size = 4
learning_rate = 0.3

[routing]
w0 = 1.0
t_start = 0
t_decay = 2
sync_n = 1
tau = 1.0
alpha = 0.5

[clip]
eps_low = 0.2
eps_high = 0.28

[task]
vocab = 5
horizon = 3
p_star = 0.005
n_contexts = 2
"""


def _edit(text, section, key, value):
    parser = configparser.ConfigParser()
    parser.read_string(text)
    if section not in parser:
        parser.add_section(section)
    parser[section][key] = value
    lines = []
    for name in parser.sections():
        lines.append(f"[{name}]")
        lines.extend(f"{k} = {v}" for k, v in parser[name].items())
    return "\n".join(lines) + "\n"


def _run(tmp_path, text):
    path = tmp_path / "cfg.ini"
    path.write_text(text)
    return cli.main(["run", str(path), "--out", str(tmp_path / "out")])


class TestSchema:
    def test_shipped_configs_parse_unchanged(self):
        corner = cli.load_config(str(CONFIGS / "corner_under.ini"))
        assert dataclasses.asdict(corner) == CORNER_UNDER
        sweep = str(CONFIGS / "sweep_methods.ini")
        assert dataclasses.asdict(cli.load_config(sweep)) == CORNER_UNDER
        runs = cli.load_sweep(sweep)
        methods = ("routed_fkl_key", "routed_rkl_error", "grpo_only")
        assert [combo for combo, _ in runs] == [
            {"method": m, "seed": s} for m in methods for s in (0, 1, 2)
        ]
        for combo, cfg in runs:
            assert dataclasses.asdict(cfg) == {**CORNER_UNDER, **combo}

    def test_run_section_takes_every_scalar_runconfig_field(self, tmp_path):
        text = SMALL
        for key, value in [
            ("task_seed", "7"), ("annotator_precision", "0.5"), ("teacher_sync", "frozen"),
            ("rlsd_eps_w", "0.1"), ("emit_plot_data", "yes"), ("out_dir", "elsewhere"),
        ]:
            text = _edit(text, "run", key, value)
        (tmp_path / "cfg.ini").write_text(text)
        cfg = cli.load_config(str(tmp_path / "cfg.ini"))
        assert (cfg.task_seed, cfg.annotator_precision, cfg.teacher_sync) == (7, 0.5, "frozen")
        assert (cfg.rlsd_eps_w, cfg.emit_plot_data, cfg.out_dir) == (0.1, True, "elsewhere")
        (tmp_path / "cfg.ini").write_text(_edit(text, "run", "task_seed", "none"))
        assert cli.load_config(str(tmp_path / "cfg.ini")).task_seed is None

    @pytest.mark.parametrize("key", ["routing", "clip", "task_params"])
    def test_run_section_rejects_nested_fields(self, tmp_path, capsys, key):
        assert _run(tmp_path, _edit(SMALL, "run", key, "x")) == 2
        assert f"unknown key {key!r} in [run]" in capsys.readouterr().err

    def test_routing_config_has_nine_fields(self):
        assert len(dataclasses.fields(RoutingConfig)) == 9

    @pytest.mark.parametrize("key, value", [("floor_top_k", "4"), ("clip_two_sided", "false")])
    def test_deleted_routing_knobs_are_unknown(self, tmp_path, capsys, key, value):
        assert _run(tmp_path, _edit(SMALL, "routing", key, value)) == 2
        assert f"unknown key {key!r}" in capsys.readouterr().err

    def test_sweep_reads_the_ini_once(self, tmp_path, monkeypatch):
        reads, runs = [], []
        original = configparser.ConfigParser.read

        def counting_read(self, *args, **kwargs):
            reads.append(args[0])
            return original(self, *args, **kwargs)

        def fake_run(cfg):
            runs.append(cfg)
            return SimpleNamespace(summary={"final_validation_reward": 0.0}), None

        monkeypatch.setattr(configparser.ConfigParser, "read", counting_read)
        monkeypatch.setattr(cli, "run_experiment", fake_run)
        path = str(CONFIGS / "sweep_methods.ini")
        assert cli.main(["sweep", path, "--out", str(tmp_path)]) == 0
        assert reads == [path]
        assert len(runs) == 9 and {cfg.out_dir for cfg in runs} == {str(tmp_path)}


class TestBadInputsNameTheKey:
    CORNER = (CONFIGS / "corner_under.ini").read_text()

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("task", "n_trap_tokens", "0"),
            ("task", "n_trap_tokens", "9"),
            ("task", "quirk_mass", "-0.1"),
            ("task", "alt_mass", "-0.1"),
            ("task", "distractor_mass", "-0.1"),
            ("task", "teacher_boost_low", "-0.5"),
            ("task", "teacher_suppress_high", "1.5"),
            ("routing", "floor_p_min", "0.2"),
            ("routing", "floor_p_min", "-0.1"),
            ("run", "emit_plot_data", "ture"),
            ("run", "seed", "-1"),
            ("task", "p_star", "0.05"),
            ("task", "trap_mass", "1.0"),
            ("task", "alt_mass", "0.9999"),
            ("task", "quirk_mass", "0.4"),
        ],
    )
    def test_rejected_before_any_step(self, tmp_path, capsys, section, key, value):
        assert _run(tmp_path, _edit(self.CORNER, section, key, value)) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_p_star_bound_is_the_drawn_teacher_boost(self, tmp_path, capsys):
        # corner_under.ini's smallest drawn boost is 0.7320: the
        # under-allocation certificate needs p_star <= 0.01 x 0.7320.
        text = _edit(self.CORNER, "run", "steps", "1")
        assert _run(tmp_path, _edit(text, "task", "p_star", "0.0073")) == 0
        (tmp_path / "b").mkdir()  # a fresh output directory for the second config
        assert _run(tmp_path / "b", _edit(text, "task", "p_star", "0.0074")) == 2
        assert "p_star" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edits, named",
        [
            ([("task", "p_star", "1e-310")], "p_star"),
            ([("run", "regime", "mixed"), ("task", "trap_mass", "1e-320")], "trap_mass"),
            (
                [("run", "regime", "mixed"), ("task", "trap_mass", "1e-320"), ("routing", "alpha", "1.0")],
                "trap_mass",
            ),
        ],
        ids=["p_star", "trap_mass-alpha0.25", "trap_mass-alpha1.0"],
    )
    def test_subnormal_construction_mass(self, tmp_path, capsys, edits, named):
        # A base probability this small needs a teacher offset that
        # overflows: refused at task construction, without a warning.
        text = self.CORNER
        for section, key, value in edits:
            text = _edit(text, section, key, value)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert _run(tmp_path, text) == 2
        assert named in capsys.readouterr().err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "key, value, named",
        [
            ("confident_mass", "1.0", "confident_mass"),
            ("confident_mass", "0.5", "confident_mass"),
            ("teacher_suppress_low", "0.1", "teacher_suppress_low"),
        ],
    )
    def test_confident_wrong_task_keys(self, tmp_path, capsys, key, value, named):
        text = _edit(self.CORNER, "run", "regime", "confident_wrong")
        if key == "teacher_suppress_low":
            text = _edit(text, "task", "teacher_suppress_high", "0.2")
        assert _run(tmp_path, _edit(text, "task", key, value)) == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_floor_checked_against_the_default_vocabulary(self, tmp_path, capsys):
        text = "[run]\nmethod = grpo_only\nsteps = 1\n[routing]\nfloor_p_min = 0.125\n"
        assert _run(tmp_path, text) == 2
        assert "floor_p_min" in capsys.readouterr().err

    def test_duplicate_key(self, tmp_path, capsys):
        text = self.CORNER.replace("tau = 10.0", "tau = 10.0\ntau = 5.0")
        assert _run(tmp_path, text) == 2
        err = capsys.readouterr().err
        assert "'tau'" in err and "line 18" in err

    def test_no_section_header(self, tmp_path, capsys):
        assert _run(tmp_path, "method = grpo_only\n") == 2
        assert "no section headers" in capsys.readouterr().err

    def test_unknown_section(self, tmp_path, capsys):
        assert _run(tmp_path, self.CORNER.replace("[clip]", "[clips]")) == 2
        assert "[clips]" in capsys.readouterr().err

    def test_empty_sweep_axis(self, tmp_path, capsys):
        (tmp_path / "cfg.ini").write_text(SMALL + "[sweep]\nseed = ,\n")
        assert cli.main(["sweep", str(tmp_path / "cfg.ini"), "--out", str(tmp_path)]) == 2
        assert "'seed'" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_eval_probability_underflow_exits_3_without_a_warning(self, tmp_path, capsys):
        # A huge step drives an eval token's student probability to exact
        # 0: the run stops before taking its log, names the column and
        # leaves an abort snapshot.
        assert _run(tmp_path, _edit(SMALL, "run", "learning_rate", "1e9")) == 3
        assert "non-finite delta_lift" in capsys.readouterr().err
        assert (tmp_path / "out" / "routed_both_mixed_seed1_abort_diagnostics.json").exists()
        assert not list((tmp_path / "out").glob("*.csv"))

    def test_abort_snapshots_of_two_runs_are_both_kept(self, tmp_path):
        text = _edit(SMALL, "run", "learning_rate", "1e9")
        assert _run(tmp_path, text) == 3
        assert _run(tmp_path, _edit(text, "run", "method", "grpo_only")) == 3
        snapshots = sorted(p.name for p in (tmp_path / "out").glob("*abort_diagnostics.json"))
        assert snapshots == [
            "grpo_only_mixed_seed1_abort_diagnostics.json",
            "routed_both_mixed_seed1_abort_diagnostics.json",
        ]

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_out_naming_a_file_is_refused_before_any_step(self, tmp_path, capsys, monkeypatch, command):
        # Refused as a config error naming out_dir, before the run starts.
        monkeypatch.setattr(runner, "init_run", lambda *a: pytest.fail("the run started"))
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(SMALL)
        taken = tmp_path / "taken.txt"
        taken.write_text("not a directory\n")
        for out in (taken, taken / "sub"):
            assert cli.main([command, str(cfg_path), "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert "out_dir" in err and str(out) in err
        assert taken.read_text() == "not a directory\n"


# ----- fuzz ---------------------------------------------------------------

BAD = ["-1", "0", "1e9", "nan", "inf", "-inf", "", "x", "none"]
BOUNDED = {  # keys that set the run's size: steps <= 3, G <= 4, V <= 6, T <= 4
    ("run", "steps"): ["-1", "0", "1", "3", "2.5", "x"],
    ("run", "group_size"): ["-1", "1", "2", "3", "4", "x"],
    ("task", "vocab"): ["-1", "3", "4", "5", "6", "x"],
    ("task", "horizon"): ["0", "1", "2", "3", "4", "x"],
}
CHOICES = {
    ("run", "method"): [*METHODS, "nope"],
    ("run", "regime"): [*REGIMES, "nope"],
    ("run", "teacher_sync"): ["interval", "frozen", "never"],
    ("run", "emit_plot_data"): ["yes", "no", "ture", "2"],
}
SECTIONS = {"run": RunConfig, "routing": RoutingConfig, "clip": ClipConfig, "task": TaskParams}
FUZZ_KEYS = [
    (section, f.name, f.type)
    for section, cls in SECTIONS.items()
    for f in dataclasses.fields(cls)
    if f.type in ("int", "float", "int | None") or (section, f.name) in CHOICES
]


def _fuzz_value(section, key, annotation):
    if (section, key) in BOUNDED:
        return st.sampled_from(BOUNDED[section, key])
    if (section, key) in CHOICES:
        return st.sampled_from(CHOICES[section, key])
    if annotation == "float":
        good = st.floats(0.0, 1.0).map(repr)
    else:
        good = st.integers(-1, 6).map(str)
    return st.one_of(good, st.sampled_from(BAD))


@st.composite
def ini_texts(draw):
    """The small config with random keys set to random values, and at
    times a structural fault: a repeated key, a lost header, a stray
    section or key."""
    text = SMALL
    for _ in range(draw(st.integers(0, 3))):
        section, key, annotation = draw(st.sampled_from(FUZZ_KEYS))
        text = _edit(text, section, key, draw(_fuzz_value(section, key, annotation)))
    fault = draw(st.sampled_from(["duplicate", "headless", "section", "key", *["none"] * 6]))
    if fault == "duplicate":
        text = text.replace("[routing]\n", "[routing]\ntau = 1.0\ntau = 2.0\n")
    elif fault == "headless":
        text = text.replace("[run]\n", "", 1)
    elif fault == "section":
        text += "[extra]\nx = 1\n"
    elif fault == "key":
        text += "bogus = 1\n"
    return text


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(ini_texts())
def test_fuzzed_ini_exits_with_a_documented_code(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.ini"
        path.write_text(text)
        assert cli.main(["run", str(path), "--out", str(Path(tmp) / "out")]) in (0, 2, 3, 4)
