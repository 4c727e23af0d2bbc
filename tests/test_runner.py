import configparser
import copy
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from routedkl import cli, runner
from routedkl.errors import ConfigError, EnumerationBudgetError, InternalConsistencyError
from routedkl.grpo import group_advantages
from routedkl.metrics import credit_concentration
from routedkl.policy import PolicyTable
from routedkl.privileged import context_variance, expected_deviation_sq
from routedkl.routing import RoutingConfig, lambda_schedule
from routedkl.runner import (
    RunConfig,
    build_eval_token_set,
    effective_lambda,
    effective_routing,
    init_run,
    run_experiment,
    should_sync,
    train_step,
)
from routedkl.tasks import TaskParams, chain_params, generate_task, sample_group

from oracles import reference_annotate, reference_credit_ratios

FAST_PARAMS = chain_params(vocab=6, horizon=3, p_star=0.004, alt_mass=0.85, n_contexts=2)
FAST_ROUTING = RoutingConfig(w0=1.0, t_start=4, t_decay=8, sync_n=5, tau=10.0, alpha=0.5)


def fast_cfg(method="routed_fkl_key", steps=20, **kw):
    base = dict(
        method=method,
        regime="under_allocated",
        seed=1,
        steps=steps,
        group_size=4,
        learning_rate=0.3,
        routing=FAST_ROUTING,
        task_params=FAST_PARAMS,
    )
    base.update(kw)
    return RunConfig(**base)


class TestShouldSync:
    def test_interval_hit_with_open_channel(self):
        assert should_sync(10, 10, 0.5)

    def test_closed_channel_blocks(self):
        assert not should_sync(10, 10, 0.0)

    def test_off_interval(self):
        assert not should_sync(7, 10, 0.5)


class TestConfigValidation:
    def test_unknown_method(self):
        with pytest.raises(ConfigError):
            RunConfig(method="nope")

    def test_bad_group(self):
        with pytest.raises(ConfigError):
            RunConfig(group_size=1)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("learning_rate", float("nan")),
            ("learning_rate", float("inf")),
            ("learning_rate", -0.1),
            ("rlsd_eps_w", 1.5),
            ("rlsd_eps_w", float("nan")),
        ],
    )
    def test_bad_float_names_key(self, key, value):
        with pytest.raises(ConfigError, match=key):
            RunConfig(method="grpo_only", **{key: value})

    def test_method_selects_assembly(self):
        assert effective_routing(fast_cfg("routed_fkl_key")).mu_k == 1
        assert effective_routing(fast_cfg("routed_fkl_key")).mu_e == 0
        assert effective_routing(fast_cfg("routed_rkl_error")).mu_e == 1
        both = effective_routing(fast_cfg("routed_both"))
        assert both.mu_e == 1 and both.mu_k == 1
        allt = effective_routing(fast_cfg("alltoken_kl_persistent"))
        assert allt.alpha == 1.0 and allt.mu_e == 1 and allt.mu_k == 1

    def test_alltoken_lambda_persistent(self):
        cfg = fast_cfg("alltoken_kl_persistent")
        assert effective_lambda(cfg, 0) == FAST_ROUTING.w0
        assert effective_lambda(cfg, 10_000) == FAST_ROUTING.w0
        assert effective_lambda(fast_cfg("routed_fkl_key"), 10_000) == 0.0


class TestDeterminism:
    def test_byte_identical_csv(self, tmp_path):
        for method in ("routed_fkl_key", "grpo_only", "alltoken_kl_persistent", "rlsd_weighted"):
            cfg = fast_cfg(method, steps=12, out_dir=str(tmp_path / "a" / method))
            log_a, _ = run_experiment(cfg)
            cfg_b = replace(cfg, out_dir=str(tmp_path / "b" / method))
            log_b, _ = run_experiment(cfg_b)
            assert log_a.to_csv() == log_b.to_csv()
            name = f"{method}_under_allocated_seed1.csv"
            bytes_a = (tmp_path / "a" / method / name).read_bytes()
            bytes_b = (tmp_path / "b" / method / name).read_bytes()
            assert bytes_a == bytes_b

    def test_run_log_columns_complete(self):
        log, _ = run_experiment(fast_cfg(steps=6))
        assert len(log.rows) == 6
        for row in log.rows:
            for col in ("step", "train_reward", "validation_reward", "entropy",
                        "lambda", "rho", "exposure", "delta_lift", "response_length"):
                assert col in row

    def test_summary_and_artifacts(self, tmp_path):
        cfg = fast_cfg(steps=6, out_dir=str(tmp_path), emit_plot_data=True)
        log, _ = run_experiment(cfg)
        stem = "routed_fkl_key_under_allocated_seed1"
        assert (tmp_path / f"{stem}.csv").exists()
        summary = json.loads((tmp_path / f"{stem}_summary.json").read_text())
        assert summary["config_hash"] == cfg.config_hash()
        assert (tmp_path / f"{stem}_ledger.csv").exists()
        long_lines = (tmp_path / f"{stem}_long.csv").read_text().splitlines()
        assert long_lines[0] == "step,series,value"


class TestReduction:
    def test_grpo_only_equals_routed_with_zero_schedule(self):
        # A routed run whose schedule is already past decay reproduces the
        # grpo_only trajectory exactly from the same seed.
        dead = replace(FAST_ROUTING, t_start=0, t_decay=1)
        cfg_routed = fast_cfg("routed_fkl_key", steps=10, routing=dead)
        state_r = init_run(cfg_routed)
        state_r.k = 2  # past decay from the start
        cfg_grpo = fast_cfg("grpo_only", steps=10, routing=dead)
        state_g = init_run(cfg_grpo)
        state_g.k = 2
        for _ in range(10):
            train_step(state_r)
            train_step(state_g)
        assert set(state_r.table.rows) == set(state_g.table.rows)
        for key, row in state_r.table.rows.items():
            np.testing.assert_array_equal(row, state_g.table.rows[key])

    def test_post_decay_bit_exact_fork(self):
        cfg = fast_cfg("routed_fkl_key", steps=1)
        state = init_run(cfg)
        end = FAST_ROUTING.t_start + FAST_ROUTING.t_decay + 1
        while state.k < end:
            train_step(state)
        fork = state.fork()
        fork.cfg = replace(cfg, method="grpo_only")
        for _ in range(8):
            train_step(state)
            train_step(fork)
            for key, row in state.table.rows.items():
                np.testing.assert_array_equal(row, fork.table.rows[key])

    def test_teacher_skipped_after_decay(self):
        cfg = fast_cfg("routed_fkl_key", steps=1)
        state = init_run(cfg)
        end = FAST_ROUTING.t_start + FAST_ROUTING.t_decay + 1
        while state.k < end:
            train_step(state)
        before = state.table.teacher_lookups
        syncs = state.table.sync_count
        for _ in range(5):
            row = train_step(state)
            assert row["lambda"] == 0.0
        assert state.table.teacher_lookups == before
        assert state.table.sync_count == syncs


class TestMethodBehaviour:
    def test_grpo_never_touches_teacher(self):
        cfg = fast_cfg("grpo_only", steps=8)
        _, state = run_experiment(cfg)
        assert state.table.teacher_lookups == 0
        assert state.ledger.exposure == 0.0

    def test_routed_accumulates_exposure(self):
        _, state = run_experiment(fast_cfg("routed_fkl_key", steps=8))
        assert state.ledger.exposure > 0.0
        assert state.ledger.exposure <= state.ledger.bound + 1e-12

    def test_credit_concentration_in_summary(self):
        log, _ = run_experiment(fast_cfg("routed_fkl_key", steps=8))
        assert log.summary["credit_norm"] == "l2"
        assert log.summary["mean_credit_concentration"] is not None
        grpo_log, _ = run_experiment(fast_cfg("grpo_only", steps=8))
        assert grpo_log.summary["mean_credit_concentration"] is None

    def test_frozen_teacher_never_resyncs(self):
        _, state = run_experiment(fast_cfg("alltoken_kl_persistent", steps=12, teacher_sync="frozen"))
        assert state.table.sync_count == 1  # the initial snapshot only

    def test_interval_sync_counts(self):
        _, state = run_experiment(fast_cfg("routed_fkl_key", steps=12))
        # Syncs at k = 0, 5, 10 while the channel is open (decay ends at 12).
        assert state.table.sync_count == 1 + 3

    def _rlsd_past_window(self):
        cfg = fast_cfg("rlsd_weighted", steps=1)
        state = init_run(cfg)
        while lambda_schedule(state.k, cfg.routing) > 0.0:
            train_step(state)
        return cfg, state

    def test_rlsd_runs_and_matches_grpo_after_window(self):
        # Past its window RLSD is plain GRPO: a fork switched to grpo_only
        # steps bit-identically and neither consults the teacher again.
        cfg, state = self._rlsd_past_window()
        lookups = state.table.teacher_lookups
        assert lookups > 0  # the window did weight some positive advantages
        fork = state.fork()
        fork.cfg = replace(cfg, method="grpo_only")
        for _ in range(8):
            assert train_step(state) == train_step(fork)
            assert state.table.rows.keys() == fork.table.rows.keys()
            for key, row in state.table.rows.items():
                np.testing.assert_array_equal(row, fork.table.rows[key])
        assert state.table.teacher_lookups == fork.table.teacher_lookups == lookups

    def test_rlsd_teacher_guard_after_window(self, monkeypatch):
        _, state = self._rlsd_past_window()
        build = runner._step_tensors

        def peeking(state, *args):
            state.task.teacher_dist(state.table, 0, ())
            return build(state, *args)

        monkeypatch.setattr(runner, "_step_tensors", peeking)
        with pytest.raises(InternalConsistencyError, match="KL channel is closed"):
            train_step(state)

    def test_first_step_ratio_is_exactly_one(self):
        # One optimizer step per batch: the recomputed log-prob matches the
        # sample-time value bit for bit, so exp(log ratio) == 1.0 exactly.
        from routedkl.tasks import sample_group

        cfg = fast_cfg(steps=1)
        state = init_run(cfg)
        dists = {}
        group = sample_group(state.table, state.task, state.rng_rollout, cfg.group_size, dists)
        advantages = np.zeros(cfg.group_size)
        step = runner._step_tensors(
            state, group, dists, advantages, effective_routing(cfg), 0.0, False
        )
        assert step.log_ratio.shape == (cfg.group_size, state.task.horizon)
        assert np.all(step.log_ratio == 0.0)

    def test_eval_token_set_is_teacher_supported(self):
        cfg = fast_cfg(steps=1)
        state = init_run(cfg)
        eval_set = build_eval_token_set(state.task, state.task.make_table())
        assert eval_set  # non-empty
        fresh = state.task.make_table()
        student = fresh.student_dist(state.task.prompt_id, ())
        matrix = state.task.teacher_dist_matrix(fresh, ())
        mean_teacher = state.task.context_probs @ matrix
        for prefix, v in eval_set:
            assert prefix == ()
            assert mean_teacher[v] > student[v]


class TestTeacherCache:
    def test_rows_after_sync_match_the_synced_table(self, monkeypatch):
        cfg = fast_cfg("routed_both")
        state = init_run(cfg)
        for _ in range(FAST_ROUTING.sync_n):  # steps 0..4; step 5 syncs first
            train_step(state)
        stale = runner._teacher_rows(state, ())[0]
        build = runner._step_tensors
        used = []

        def capture(state, group, *args):
            step = build(state, group, *args)
            horizon = group.tokens.shape[1]
            used.extend(
                (tuple(group.tokens[f // horizon, : f % horizon].tolist()), q)
                for f, q in zip(step.kl_rows.tolist(), step.teacher)
            )
            return step

        monkeypatch.setattr(runner, "_step_tensors", capture)
        train_step(state)
        assert state.table.sync_count == 3  # init snapshot, k = 0, k = 5
        synced = state.table.copy()  # same teacher snapshot, separate counter
        task = state.task
        fresh = {p: task.teacher_dist_matrix(synced, p) for p in state.teacher_cache}
        assert not np.array_equal(fresh[()], stale)
        for prefix, (matrix, variance, deviation) in state.teacher_cache.items():
            np.testing.assert_array_equal(matrix, fresh[prefix])
            assert variance == context_variance(task.context_probs, fresh[prefix])
            assert deviation == expected_deviation_sq(task.context_probs, fresh[prefix])
        assert used
        for prefix, q in used:
            assert any(np.array_equal(q, row) for row in fresh[prefix])

    def test_closed_channel_read_through_cache_raises(self, monkeypatch):
        cfg = fast_cfg("routed_fkl_key")
        state = init_run(cfg)
        while effective_lambda(cfg, state.k) > 0.0:
            train_step(state)
        assert () in state.teacher_cache  # filled while the channel was open
        build = runner._step_tensors

        def peeking(state, *args):
            runner._teacher_rows(state, ())
            return build(state, *args)

        monkeypatch.setattr(runner, "_step_tensors", peeking)
        with pytest.raises(InternalConsistencyError, match="KL channel is closed"):
            train_step(state)

    def test_cached_rows_are_read_only(self):
        state = init_run(fast_cfg("alltoken_kl_persistent"))
        train_step(state)
        matrix, _, _ = runner._teacher_rows(state, ())
        with pytest.raises(ValueError):
            matrix[0, 0] = 0.5
        with pytest.raises(ValueError):
            matrix[0][1] = 0.5


class TestGroupArrays:
    """What the step reads from its (G, T) arrays against per-token
    recomputation from the table."""

    @staticmethod
    def _capture(monkeypatch):
        """Record each step's group, loss inputs and gradient rows, the
        annotation stream before the inputs are built, and the table."""
        steps = []
        build, loss = runner._step_tensors, runner.routed_loss_rows

        def tensors(state, group, *args):
            record = {"group": group, "annot": copy.deepcopy(state.rng_annot)}
            record["table"] = state.table.copy()
            record["step"] = build(state, group, *args)
            steps.append(record)
            return record["step"]

        def rows(*args, **kwargs):
            report, grad_rows, grads = loss(*args, **kwargs)
            steps[-1]["grads"] = dict(zip(grad_rows.tolist(), grads))
            return report, grad_rows, grads

        monkeypatch.setattr(runner, "_step_tensors", tensors)
        monkeypatch.setattr(runner, "routed_loss_rows", rows)
        return steps

    def test_credit_concentration_reads_per_token_norms(self, monkeypatch):
        # Each step's ratio is the mean of metrics.credit_concentration
        # over the rollouts with both regions, on per-token gradient norms.
        steps = self._capture(monkeypatch)
        cfg = fast_cfg("routed_both", steps=10)
        _, state = run_experiment(cfg)
        expected = []
        for record in steps:
            mask, grads = record["step"].mask, record["grads"]
            horizon = mask.shape[1]
            ratios = []
            for i in np.flatnonzero(mask.any(axis=1) & ~mask.all(axis=1)):
                credit = np.array([
                    cfg.learning_rate * float(np.linalg.norm(grads[f])) if f in grads else 0.0
                    for f in range(i * horizon, (i + 1) * horizon)
                ])
                ratios.append(credit_concentration(credit, mask[i]))
            ratios = [r for r in ratios if r is not None]
            if ratios:
                expected.append(float(np.mean(ratios)))
        assert expected
        assert np.array(state.credit_ratios).tobytes() == np.array(expected).tobytes()

    def test_setup_leaves_the_automaton_unbuilt(self):
        # init_run is timed as set-up; the transition table is first built
        # by the first sampled group.
        state = init_run(fast_cfg("routed_both"))
        assert "transitions" not in vars(state.task)
        train_step(state)
        assert "transitions" in vars(state.task)

    def test_rlsd_multiplier_matches_the_scalar_weight(self, monkeypatch):
        steps = self._capture(monkeypatch)
        eps = 0.9  # a wide clip, so the drawn context shows in the weight
        _, state = run_experiment(fast_cfg("rlsd_weighted", steps=6, rlsd_eps_w=eps))
        task, weighted = state.task, 0
        for record in steps:
            group, table, scale = record["group"], record["table"], record["step"].adv_scale
            annot = record["annot"]
            contexts = [
                int(annot.choice(len(task.contexts), p=task.context_probs)) for _ in group.rollouts
            ]
            advantages = group_advantages(group.outcomes.astype(float))
            assert (scale is None) == (not np.any(advantages > 0))
            for i, rollout in enumerate(group.rollouts):
                for t, y in enumerate(rollout.tokens):
                    if advantages[i] <= 0:
                        assert scale is None or scale[i, t] == 1.0
                        continue
                    prefix = rollout.tokens[:t]
                    q = task.teacher_dist(table, contexts[i], prefix)[y]
                    p = table.student_dist(task.prompt_id, prefix)[y]
                    assert scale[i, t] == min(max(q / p, 1.0 - eps), 1.0 + eps)
                    weighted += 1.0 - eps < scale[i, t] < 1.0 + eps
        assert weighted > 0


class TestArrayAnnotationAndCredit:
    """The group's span mask and credit ratios against the per-rollout
    references, byte for byte."""

    @given(
        regime=st.sampled_from(["under_allocated", "confident_wrong", "mixed"]),
        vocab=st.integers(4, 8),
        horizon=st.integers(2, 7),
        trap=st.integers(1, 6),
        size=st.integers(1, 16),
        precision=st.sampled_from([1.0, 1.0, 0.6, 0.0]),
        alpha=st.sampled_from([0.1, 0.2, 0.25, 0.5, 1.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_annotation_equals_the_per_rollout_loop(
        self, regime, vocab, horizon, trap, size, precision, alpha, seed
    ):
        params = chain_params(vocab=vocab, horizon=horizon, trap_position=1 + trap % (horizon - 1))
        task = generate_task(regime, seed % 100, params)
        # Uniform logits, so every branch of the acceptance machine is sampled.
        table = PolicyTable(vocab=vocab, init_logits=lambda prompt, prefix: np.zeros(vocab))
        group = sample_group(table, task, np.random.default_rng(seed), size)
        rng, ref_rng = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
        ctx, mask = runner._annotate(task, group, precision, rng, alpha)
        want_ctx, want_mask = reference_annotate(task, group.rollouts, precision, ref_rng, alpha)
        assert ctx.tolist() == want_ctx.tolist()
        assert mask.dtype == bool and mask.tolist() == want_mask.tolist()
        assert rng.random() == ref_rng.random()

    @given(
        size=st.integers(1, 12),
        horizon=st.integers(2, 12),
        zero_frac=st.sampled_from([0.0, 0.3, 0.8]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_credit_ratios_equal_credit_concentration(self, size, horizon, zero_frac, seed):
        rng = np.random.default_rng(seed)
        credit = rng.random((size, horizon)) * 10.0 ** rng.integers(-8, 4, (size, horizon))
        credit[rng.random((size, horizon)) < zero_frac] = 0.0
        mask = rng.random((size, horizon)) < rng.random()
        got = runner._credit_ratios(credit, mask)
        assert got.tobytes() == reference_credit_ratios(credit, mask).tobytes()


class TestCli:
    CONFIG = """
[run]
method = grpo_only
regime = under_allocated
seed = 3
steps = 5
group_size = 4
learning_rate = 0.3

[routing]
w0 = 1.0
t_start = 4
t_decay = 8
tau = 10.0
alpha = 0.5

[task]
vocab = 6
horizon = 3
p_star = 0.004
n_contexts = 2
"""

    SWEEP = CONFIG + """
[sweep]
method = grpo_only, routed_fkl_key
seed = 0, 1
"""

    def _cli(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "routedkl.cli", *args],
            capture_output=True,
            text=True,
        )

    def test_run_subcommand(self, tmp_path):
        cfg_path = tmp_path / "run.ini"
        cfg_path.write_text(self.CONFIG)
        out = self._cli("run", str(cfg_path), "--out", str(tmp_path / "out"))
        assert out.returncode == 0, out.stderr
        assert "final_reward=" in out.stdout
        assert (tmp_path / "out" / "grpo_only_under_allocated_seed3.csv").exists()

    def test_run_is_reproducible_byte_for_byte(self, tmp_path):
        cfg_path = tmp_path / "run.ini"
        cfg_path.write_text(self.CONFIG)
        assert self._cli("run", str(cfg_path), "--out", str(tmp_path / "o1")).returncode == 0
        assert self._cli("run", str(cfg_path), "--out", str(tmp_path / "o2")).returncode == 0
        name = "grpo_only_under_allocated_seed3.csv"
        assert (tmp_path / "o1" / name).read_bytes() == (tmp_path / "o2" / name).read_bytes()

    def test_config_error_exit_code(self, tmp_path):
        cfg_path = tmp_path / "bad.ini"
        cfg_path.write_text("[run]\nmethod = not_a_method\n")
        assert self._cli("run", str(cfg_path)).returncode == 2

    def test_missing_file_exit_code(self):
        assert self._cli("run", "/nonexistent.ini").returncode == 2

    def test_enumeration_budget_exit_code(self, tmp_path):
        cfg_path = tmp_path / "huge.ini"
        cfg_path.write_text(
            self.CONFIG.replace("vocab = 6", "vocab = 16").replace("horizon = 3", "horizon = 6")
        )
        out = self._cli("run", str(cfg_path))
        assert out.returncode == 3  # distinct from the parse-error code

    @pytest.mark.parametrize(
        "line", ["learning_rate = nan", "learning_rate = inf", "rlsd_eps_w = 1.5"]
    )
    def test_bad_float_exit_code_names_key(self, tmp_path, capsys, line):
        cfg_path = tmp_path / "bad.ini"
        cfg_path.write_text(self.CONFIG.replace("learning_rate = 0.3", line))
        assert cli.main(["run", str(cfg_path)]) == 2
        assert line.split(" = ")[0] in capsys.readouterr().err

    def test_non_finite_row_aborts_with_diagnostics(self, tmp_path, capsys):
        # A huge step drives policy entries to exact zero, so the key-token
        # lift turns -inf; the run must not exit 0 with it in the CSV.
        cfg_path = tmp_path / "corner.ini"
        text = (Path(__file__).parents[1] / "configs" / "corner_under.ini").read_text()
        cfg_path.write_text(text.replace("learning_rate = 0.7", "learning_rate = 1e6"))
        with np.errstate(divide="ignore"):
            code = cli.main(["run", str(cfg_path), "--out", str(tmp_path / "out")])
        assert code == 3
        assert "non-finite delta_lift" in capsys.readouterr().err
        diag_path = tmp_path / "out" / "routed_fkl_key_under_allocated_seed0_abort_diagnostics.json"
        diag = json.loads(diag_path.read_text())
        assert diag["method"] == "routed_fkl_key"
        assert not (tmp_path / "out" / "routed_fkl_key_under_allocated_seed0.csv").exists()

    def test_enumeration_budget_checked_before_any_step(self, tmp_path, monkeypatch):
        params = TaskParams(vocab=20, horizon=6)
        with pytest.raises(EnumerationBudgetError):
            init_run(RunConfig(method="grpo_only", task_params=params))

        def no_step(state):
            raise AssertionError("a training step ran")

        monkeypatch.setattr(runner, "train_step", no_step)
        cfg_path = tmp_path / "huge.ini"
        cfg_path.write_text(
            self.CONFIG.replace("vocab = 6", "vocab = 20").replace("horizon = 3", "horizon = 6")
        )
        assert cli.main(["run", str(cfg_path)]) == 3

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("routing", "tau", "nan"),
            ("routing", "w0", "inf"),
            ("routing", "floor_p_min", "nan"),
            ("routing", "alpha", "nan"),
            ("clip", "eps_high", "inf"),
            ("clip", "eps_low", "nan"),
            ("task", "p_star", "nan"),
            ("task", "trap_mass", "-inf"),
            ("task", "teacher_boost_high", "inf"),
        ],
    )
    def test_non_finite_config_float_names_key(self, tmp_path, capsys, section, key, value):
        parser = configparser.ConfigParser()
        parser.read(Path(__file__).parents[1] / "configs" / "corner_under.ini")
        parser[section][key] = value
        cfg_path = tmp_path / "bad.ini"
        with open(cfg_path, "w") as fh:
            parser.write(fh)
        assert cli.main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
        assert f"{key} must be finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    LR_SWEEP = CONFIG + """
[sweep]
learning_rate = 0.1, 0.7
"""

    def test_sweep_refuses_stem_collisions(self, tmp_path, capsys):
        cfg_path = tmp_path / "sweep.ini"
        cfg_path.write_text(self.LR_SWEEP)
        assert cli.main(["sweep", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "learning_rate" in err and "grpo_only_under_allocated_seed3" in err
        assert not (tmp_path / "out").exists()

    def test_run_refuses_to_replace_another_configs_outputs(self, tmp_path, capsys):
        out = tmp_path / "out"
        summary = out / "grpo_only_under_allocated_seed3_summary.json"
        for lr in ("0.1", "0.7"):
            (tmp_path / f"lr{lr}.ini").write_text(
                self.CONFIG.replace("learning_rate = 0.3", f"learning_rate = {lr}")
            )
        assert cli.main(["run", str(tmp_path / "lr0.1.ini"), "--out", str(out)]) == 0
        written = summary.read_bytes()
        assert cli.main(["run", str(tmp_path / "lr0.7.ini"), "--out", str(out)]) == 2
        assert "refusing to overwrite" in capsys.readouterr().err
        assert summary.read_bytes() == written
        # The same config may rewrite its own outputs.
        assert cli.main(["run", str(tmp_path / "lr0.1.ini"), "--out", str(out)]) == 0
        assert summary.read_bytes() == written

    def test_sweep_subcommand(self, tmp_path):
        cfg_path = tmp_path / "sweep.ini"
        cfg_path.write_text(self.SWEEP)
        out = self._cli("sweep", str(cfg_path))
        assert out.returncode == 0, out.stderr
        assert out.stdout.count("final_reward=") == 4
