import configparser
import copy
import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from routedkl import cli, runner
from routedkl.artifacts import NAMES, STEPS
from routedkl.errors import ConfigError, EnumerationBudgetError, InternalConsistencyError
from routedkl.grpo import group_advantages
from routedkl.policy import PolicyTable, softmax
from routedkl.privileged import context_variance, expected_deviation_sq
from routedkl.routing import RoutingConfig, lambda_schedule
from routedkl.runner import (
    RunConfig,
    build_eval_token_set,
    effective_lambda,
    init_run,
    run_experiment,
    should_sync,
    train_step,
)
from routedkl.studies import LIFT_GROUP, LIFT_LR, LIFT_PARAMS, LIFT_ROUTING, study_run_config
from routedkl.tasks import TaskParams, chain_params, generate_task, oracle_annotate, sample_group

from golden.generate import DEEP_ROUTING

from oracles import (
    reference_annotate,
    reference_credit_concentration,
    reference_credit_ratios,
    reference_ledger_terms,
    reference_delta_lift,
    reference_expected_reward,
    reference_row_update,
)

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

    def test_method_selects_assembly(self, monkeypatch):
        # The method decides which rollouts carry KL and the kernel is told:
        # per method, whether the KL reaches (the error spans of a failed
        # rollout, the key spans of an accepted one), read at the first
        # step inside the KL window whose group has both outcomes.
        want = {
            "routed_fkl_key": (False, True),
            "routed_rkl_error": (True, False),
            "routed_both": (True, True),
            "alltoken_kl_persistent": (True, True),
            "grpo_only": (False, False),
            "rlsd_weighted": (False, False),
        }
        told = []
        kernel = runner.routed_loss_rows

        def recording(**kwargs):
            told.append((kwargs["failed"], kwargs["kl_on"]))
            return kernel(**kwargs)

        monkeypatch.setattr(runner, "routed_loss_rows", recording)
        for method, (on_error, on_key) in want.items():
            state = init_run(fast_cfg(method))
            told.clear()
            while not (told and 0 < told[-1][0].sum() < len(told[-1][0])):
                train_step(state)
            assert lambda_schedule(state.k - 1, FAST_ROUTING) > 0.0
            failed, kl_on = told[-1]
            assert kl_on.dtype == bool
            assert kl_on.tolist() == np.where(failed, on_error, on_key).tolist(), method

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
        assert all(tuple(row) == NAMES[STEPS] for row in log.rows)

    def test_summary_and_artifacts(self, tmp_path):
        cfg = fast_cfg(steps=6, out_dir=str(tmp_path), emit_plot_data=True)
        log, _ = run_experiment(cfg)
        stem = "routed_fkl_key_under_allocated_seed1"
        assert (tmp_path / f"{stem}.csv").exists()
        summary = json.loads((tmp_path / f"{stem}_summary.json").read_text())
        assert summary["config_hash"] == cfg.config_hash()
        assert (tmp_path / f"{stem}_ledger.csv").exists()
        assert (tmp_path / f"{stem}_long.csv").exists()


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
            state.task.teacher_dist_matrix(state.table, np.zeros(1, dtype=np.int64))
            return build(state, *args)

        monkeypatch.setattr(runner, "_step_tensors", peeking)
        with pytest.raises(InternalConsistencyError, match="KL channel is closed"):
            train_step(state)

    def test_scoring_rows_are_the_sampling_rows(self, monkeypatch):
        # One update per sampled group, after its loss: the student rows
        # the loss reads are the rows the group was sampled from, byte for
        # byte, so the GRPO ratio is exactly 1 and no log-prob is needed.
        sampled, scored = [], []
        sample, loss = runner.sample_group, runner.routed_loss_rows

        def sampling(table, *args):
            group = sample(table, *args)
            sampled.append(softmax(table.logits[group.prefix_index]))
            return group

        def scoring(**kwargs):
            scored.append(kwargs["student"])
            return loss(**kwargs)

        monkeypatch.setattr(runner, "sample_group", sampling)
        monkeypatch.setattr(runner, "routed_loss_rows", scoring)
        log, _ = run_experiment(fast_cfg("rlsd_weighted", steps=8))
        assert len(sampled) == len(scored) == 8
        assert len({row["validation_reward"] for row in log.rows}) > 1  # the policy moved
        for at_sampling, at_loss in zip(sampled, scored):
            assert at_sampling.tobytes() == at_loss.tobytes()

    def test_eval_token_set_is_teacher_supported(self):
        # The root tokens whose context-mean teacher probability exceeds
        # the student's at the snapshot, as an int array.
        cfg = fast_cfg(steps=1)
        state = init_run(cfg)
        eval_set = build_eval_token_set(state.task)
        assert eval_set.dtype.kind == "i" and eval_set.size  # non-empty
        fresh = state.task.make_table()
        student = fresh.student_dist(())
        matrix = state.task.teacher_dist_matrix(fresh, np.zeros(1, dtype=np.int64))[0]
        mean_teacher = state.task.context_probs @ matrix
        supported = [v for v in range(state.task.vocab) if mean_teacher[v] > student[v]]
        assert eval_set.tolist() == supported
        assert state.eval_tokens.tolist() == supported

    @pytest.mark.parametrize(
        "method",
        ["routed_fkl_key", "routed_both", "grpo_only", "alltoken_kl_persistent", "rlsd_weighted"],
    )
    def test_lift_equals_the_per_token_mean(self, monkeypatch, method):
        # Every logged lift is the per-token mean of the log-prob changes of
        # the eval tokens, byte for byte; a dead-zone step with the KL
        # channel closed changes no row and logs 0.0.
        probs = []
        read = runner._eval_probs

        def capture(state):
            probs.append(read(state))
            return probs[-1]

        monkeypatch.setattr(runner, "_eval_probs", capture)
        log, _ = run_experiment(fast_cfg(method, steps=40))
        assert len(probs) == 2 * len(log.rows)
        for row, before, after in zip(log.rows, probs[::2], probs[1::2]):
            assert repr(row["delta_lift"]) == repr(reference_delta_lift(before, after))
        dead = [r for r in log.rows if r["lambda"] == 0.0 and r["train_reward"] in (0.0, 1.0)]
        assert dead or method == "alltoken_kl_persistent"
        assert all(repr(r["delta_lift"]) == "0.0" for r in dead)

    def test_empty_eval_set_logs_no_lift(self):
        # No eval token: the lift is absent, not zero.
        state = init_run(fast_cfg())
        state.eval_tokens = state.eval_tokens[:0]
        assert train_step(state)["delta_lift"] is None


class TestTeacherCache:
    def test_rows_after_sync_match_the_synced_table(self, monkeypatch):
        cfg = fast_cfg("routed_both")
        state = init_run(cfg)
        for _ in range(FAST_ROUTING.sync_n):  # steps 0..4; step 5 syncs first
            train_step(state)
        root = 0
        stale = runner._teacher_rows(state, np.array([root]))[0][root].copy()
        build = runner._step_tensors
        used = []

        def capture(state, group, *args):
            step = build(state, group, *args)
            horizon, keys = group.tokens.shape[1], list(state.table.rows)
            kl_rows = np.flatnonzero(step.mask & step.kl_on[:, None])
            for f, q in zip(kl_rows.tolist(), step.teacher):
                node = group.prefix_index[f // horizon, f % horizon]
                assert keys[node][1] == tuple(group.tokens[f // horizon, : f % horizon].tolist())
                used.append((node, q))
            return step

        monkeypatch.setattr(runner, "_step_tensors", capture)
        train_step(state)
        assert state.table.sync_count == 3  # init snapshot, k = 0, k = 5
        synced = state.table.copy()  # same teacher snapshot, separate counter
        task = state.task
        cache = state.teacher_cache
        filled = np.flatnonzero(cache.have).tolist()
        fresh = dict(zip(filled, task.teacher_dist_matrix(synced, np.array(filled))))
        assert not np.array_equal(fresh[root], stale)
        for node in filled:
            np.testing.assert_array_equal(cache.matrices[node], fresh[node])
            assert cache.terms[node, 0] == context_variance(task.context_probs, fresh[node])
            assert cache.terms[node, 1] == expected_deviation_sq(task.context_probs, fresh[node])
        assert used
        for node, q in used:
            assert any(np.array_equal(q, row) for row in fresh[node])

    def test_closed_channel_read_through_cache_raises(self, monkeypatch):
        cfg = fast_cfg("routed_fkl_key")
        state = init_run(cfg)
        while effective_lambda(cfg, state.k) > 0.0:
            train_step(state)
        root = 0
        assert state.teacher_cache.have[root]  # filled while the channel was open
        build = runner._step_tensors

        def peeking(state, *args):
            runner._teacher_rows(state, np.array([root]))
            return build(state, *args)

        monkeypatch.setattr(runner, "_step_tensors", peeking)
        with pytest.raises(InternalConsistencyError, match="KL channel is closed"):
            train_step(state)

    def test_fully_cached_nodes_change_nothing(self, monkeypatch):
        state = init_run(fast_cfg("alltoken_kl_persistent"))
        train_step(state)
        cache = state.teacher_cache
        nodes = np.flatnonzero(cache.have)
        assert nodes.size > 1
        nodes = np.concatenate([nodes, nodes[::-1]])  # repeats, out of order
        before = (state.table.teacher_lookups, cache.have.copy(), cache.matrices.copy(), cache.terms.copy())
        calls = []
        lookup = PolicyTable.teacher_logits

        def counting(table, *args, **kwargs):
            calls.append(args)
            return lookup(table, *args, **kwargs)

        monkeypatch.setattr(PolicyTable, "teacher_logits", counting)
        matrices, terms = runner._teacher_rows(state, nodes)
        assert calls == [] and state.table.teacher_lookups == before[0]
        for got, want in zip((cache.have, cache.matrices, cache.terms), before[1:]):
            assert got.tobytes() == want.tobytes()
        assert matrices.tobytes() == before[2].tobytes() and terms is cache.terms

    def test_cached_rows_are_read_only(self):
        state = init_run(fast_cfg("alltoken_kl_persistent"))
        train_step(state)
        root = 0
        matrices, _ = runner._teacher_rows(state, np.array([root]))
        matrix = matrices[root]
        with pytest.raises(ValueError):
            matrix[0, 0] = 0.5
        with pytest.raises(ValueError):
            matrix[0][1] = 0.5


class TestStudentCache:
    """The table's student distributions and the stored exact E[R] equal
    what a fresh computation gives, byte for byte."""

    @pytest.mark.parametrize("method", runner.METHODS)
    def test_entries_and_stored_reward_are_fresh(self, method):
        state = init_run(fast_cfg(method))
        prompt = state.task.prompt_id
        for _ in range(state.cfg.steps):
            row = train_step(state)
            fresh = state.table.copy()
            dists = state.table.dists[: state.table.n]
            for dist, (_, prefix) in zip(dists, state.table.rows, strict=True):
                assert dist.tobytes() == fresh.student_dist(prefix).tobytes()
            want = state.task.expected_reward(fresh)
            assert np.float64(state.validation_reward).tobytes() == np.float64(want).tobytes()
            assert row["validation_reward"] == state.validation_reward

    def test_table_dists_are_the_softmax_of_the_logits(self):
        # Byte for byte, after every writer of logits or nodes: sampling, a
        # walk that adds nodes, an update, a fork and an in-place write.
        def assert_fresh(table):
            n = table.n
            assert table.dists[:n].tobytes() == softmax(table.logits[:n]).tobytes()

        params = TaskParams(vocab=5, horizon=4)
        state = init_run(fast_cfg("routed_both", regime="mixed", task_params=params))
        table, task = state.table, state.task
        group = sample_group(table, task, np.random.default_rng(0), 4)
        assert table.n > 1
        assert_fresh(table)
        n = table.n
        task.expected_reward(table)
        assert table.n > n
        assert_fresh(table)
        nodes = np.unique(group.prefix_index)
        table.apply_gradients(nodes, np.random.default_rng(1).normal(size=(len(nodes), 5)), 0.5)
        assert_fresh(table)
        for _ in range(4):
            train_step(state)
        fork = state.fork()
        assert_fresh(fork.table)
        train_step(fork)
        assert_fresh(fork.table)
        table.logits[nodes[-1]] += 2.0
        table.refresh(nodes[-1:])
        assert_fresh(table)

    def test_fork_starts_empty_and_advances_identically(self):
        state = init_run(fast_cfg("routed_both"))
        for _ in range(6):
            train_step(state)
        assert state.teacher_cache.have.any()
        fork = state.fork()
        assert not fork.teacher_cache.have.any()
        assert fork.table.dists[: fork.table.n].tobytes() == state.table.dists[: state.table.n].tobytes()
        for _ in range(10):
            assert train_step(state) == train_step(fork)
            assert list(state.table.rows) == list(fork.table.rows)
            for key, row in state.table.rows.items():
                assert row.tobytes() == fork.table.rows[key].tobytes()

    def test_run_experiment_drops_both_caches(self):
        _, state = run_experiment(fast_cfg("routed_both", steps=6))
        assert not state.teacher_cache.have.any()

    def test_fork_and_run_end_empty_the_reward_tree(self):
        state = init_run(fast_cfg("routed_both"))
        for _ in range(6):
            train_step(state)
        levels = state.reward_tree.levels
        assert levels
        assert not state.fork().reward_tree.levels
        assert state.reward_tree.levels is levels  # the source keeps its tree
        _, state = run_experiment(fast_cfg("routed_both", steps=6))
        assert not state.reward_tree.levels

    def test_one_walk_per_run_until_a_probability_reaches_or_leaves_zero(self, monkeypatch):
        # The golden matrix's deep shape. Its zero pattern never changes, so
        # the run walks once; a child forced to probability exactly 0 and
        # back makes one walk each. Every stored E[R] is the recursion's.
        cfg = RunConfig(
            method="routed_both", regime="mixed", seed=0, steps=24, group_size=8,
            learning_rate=0.5, routing=DEEP_ROUTING, task_params=TaskParams(vocab=8, horizon=6),
        )
        state = init_run(cfg)
        walks = []
        walk = state.task._walk
        monkeypatch.setattr(state.task, "_walk", lambda *args: walks.append(1) or walk(*args))

        def step_and_check():
            train_step(state)
            want = reference_expected_reward(state.task, state.table.copy())
            assert np.float64(state.validation_reward).tobytes() == np.float64(want).tobytes()

        for _ in range(12):
            step_and_check()
        assert len(walks) == 1
        tree = state.reward_tree
        row, token = np.argwhere(tree.expand[1:])[0] + (1, 0)  # an inner child below the root
        node = tree.nodes[row]
        for logit, n_walks in ((-1e4, 2), (0.0, 3)):
            state.table.logits[node, token] = logit
            state.table.refresh(np.array([node]))
            state.validation_reward = None
            for _ in range(6):
                step_and_check()
            assert len(walks) == n_walks

    def test_softmax_only_for_changed_rows(self, monkeypatch):
        # Past step 20 a grpo_only corner run materializes few new rows. A
        # step on known rows takes no softmax and no tree walk when its group
        # is a dead zone (uniform rewards, zero advantage, no update), and
        # exactly one softmax, the refresh of the changed rows, when it
        # updates.
        from routedkl import policy
        from routedkl.studies import CORNER_LR, CORNER_UNDER_PARAMS, study_run_config

        regime = "under_allocated"
        cfg = study_run_config(
            "grpo_only", regime, 1, CORNER_UNDER_PARAMS, steps=100,
            learning_rate=CORNER_LR[regime],
        )
        state = init_run(cfg)
        for _ in range(21):
            train_step(state)
        calls = []
        softmax = policy.softmax

        def counting(logits):
            calls.append(len(logits))
            return softmax(logits)

        walks = []
        walk = state.task.expected_reward

        def counting_walk(*args):
            walks.append(1)
            return walk(*args)

        monkeypatch.setattr(policy, "softmax", counting)
        monkeypatch.setattr(state.task, "expected_reward", counting_walk)
        seen = {False: 0, True: 0}
        for _ in range(60):
            n_rows = len(state.table.rows)
            calls.clear()
            walks.clear()
            row = train_step(state)
            if len(state.table.rows) != n_rows:
                continue
            updated = row["train_reward"] not in (0.0, 1.0)
            assert len(calls) == len(walks) == int(updated)
            seen[updated] += 1
        assert seen[False] and seen[True]


class TestRowUpdate:
    """The node-indexed update against the per-prefix dict loop, byte for
    byte, with the table's distributions refreshed for the changed rows."""

    @staticmethod
    def _check(prefix_index, rows, grads, learning_rate, seed):
        vocab = grads.shape[1]
        n_nodes = int(prefix_index.max()) + 1

        table = PolicyTable(np.zeros((n_nodes, vocab)), "p")
        for k in range(1, n_nodes):  # node k extends node (k - 1) // vocab
            table.children(np.array([(k - 1) // vocab]), np.array([(k - 1) % vocab]))
        logits = np.random.default_rng(seed).normal(0.0, 2.0, (n_nodes, vocab))
        logits[:, ::3] = 0.0
        table.logits[:n_nodes] = logits
        table.refresh(np.arange(n_nodes))
        ref = table.copy()
        state = SimpleNamespace(
            table=table, cfg=SimpleNamespace(learning_rate=learning_rate), validation_reward=0.5,
        )
        runner._apply_row_grads(state, SimpleNamespace(prefix_index=prefix_index), rows, grads)
        reference_row_update(ref, prefix_index.ravel()[rows], grads, learning_rate)
        assert table.logits[:n_nodes].tobytes() == ref.logits[:n_nodes].tobytes()
        assert table.dists[:n_nodes].tobytes() == softmax(table.logits[:n_nodes]).tobytes()
        assert state.validation_reward == (None if rows.size else 0.5)

    @staticmethod
    def _grads(rng, n_rows, vocab):
        grads = rng.normal(0.0, 1.0, (n_rows, vocab)) * 10.0 ** rng.integers(-8, 4, (n_rows, vocab))
        grads[rng.random(grads.shape) < 0.2] = -0.0
        grads[rng.random(grads.shape) < 0.1] = 0.0
        return grads

    @given(
        size=st.integers(1, 12),
        horizon=st.integers(1, 6),
        n_nodes=st.integers(1, 30),
        hot=st.sampled_from([0.0, 0.5, 0.9]),
        keep=st.sampled_from([0.3, 1.0]),
        learning_rate=st.sampled_from([0.0, 0.1, 0.5, 3.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_update_equals_the_dict_loop(self, size, horizon, n_nodes, hot, keep, learning_rate, seed):
        rng = np.random.default_rng(seed)
        prefix_index = rng.integers(0, n_nodes, (size, horizon))
        prefix_index[rng.random((size, horizon)) < hot] = 0
        rows = np.flatnonzero(rng.random(size * horizon) < keep)
        self._check(prefix_index, rows, self._grads(rng, rows.size, 8), learning_rate, seed)

    @pytest.mark.parametrize("seed", range(5))
    def test_a_node_hit_by_every_rollout(self, seed):
        # G = 12 rollouts share their first prefix: one node sums 12 rows,
        # with -0.0 entries among them.
        rng = np.random.default_rng(seed)
        prefix_index = np.column_stack([np.zeros(12, dtype=np.int64), rng.integers(1, 6, 12)])
        rows = np.arange(24)
        grads = self._grads(rng, 24, 8)
        grads[0, :4] = -0.0
        assert np.signbit(grads[0, 0])
        self._check(prefix_index, rows, grads, 0.5, seed)


class TestNoUniqueOnTheStepPath:
    """The step's node bookkeeping (teacher rows, row update, masked sums)
    runs with ``numpy.unique`` refused, on each benchmark workload's shape."""

    @staticmethod
    def _config(shape, method):
        from routedkl.studies import CORNER_LR, CORNER_UNDER_PARAMS, LIFT_STEPS

        if shape == "corner":
            return study_run_config(method, "under_allocated", 5, CORNER_UNDER_PARAMS, steps=8,
                                    learning_rate=CORNER_LR["under_allocated"])
        if shape == "alltoken":
            return study_run_config(method, "under_allocated", 5, LIFT_PARAMS, steps=LIFT_STEPS,
                                    learning_rate=LIFT_LR, teacher_sync="frozen",
                                    routing=LIFT_ROUTING, group_size=LIFT_GROUP)
        return RunConfig(method=method, regime="mixed", seed=5, steps=8, group_size=8,
                         learning_rate=0.5, routing=DEEP_ROUTING,
                         task_params=TaskParams(vocab=8, horizon=6))

    @pytest.mark.parametrize("shape, method", [
        ("corner", "routed_fkl_key"), ("alltoken", "alltoken_kl_persistent"),
        ("deep-cli", "routed_both"), ("deep-cli", "rlsd_weighted"),
    ])
    def test_train_step_without_unique(self, shape, method, monkeypatch):
        state = init_run(self._config(shape, method))
        n, logits = state.table.n, state.table.logits[:1].copy()
        monkeypatch.setattr(np, "unique", None)
        for _ in range(3):
            train_step(state)
        assert state.table.n > n and state.table.teacher_lookups > 0
        assert state.table.logits[:1].tobytes() != logits.tobytes()


class TestPerfbenchContract:
    """What the benchmark's checks and tracer read from a run's table."""

    def test_teacher_lookups_count_every_teacher_logits_call(self, monkeypatch):
        # Deep-cli-shaped runs (mixed regime at horizon 6) of every method
        # that reads the teacher, across the KL window's end; the
        # all-token baseline with its frozen teacher, as the alltoken
        # workload runs it.
        calls = {}
        lookup = PolicyTable.teacher_logits

        def counting(table, *args, **kwargs):
            calls[id(table)] = calls.get(id(table), 0) + 1
            return lookup(table, *args, **kwargs)

        monkeypatch.setattr(PolicyTable, "teacher_logits", counting)
        routing = RoutingConfig(w0=2.0, t_start=10, t_decay=50, sync_n=10, tau=10.0, alpha=0.25)
        methods = ("routed_both", "rlsd_weighted", "routed_fkl_key", "routed_rkl_error")
        configs = [
            RunConfig(
                method=method, regime="mixed", seed=3, steps=70, group_size=8,
                learning_rate=0.5, routing=routing, task_params=TaskParams(vocab=8, horizon=6),
            )
            for method in methods
        ]
        configs.append(study_run_config(
            "alltoken_kl_persistent", "under_allocated", 3, LIFT_PARAMS, steps=60,
            learning_rate=LIFT_LR, teacher_sync="frozen", routing=LIFT_ROUTING,
            group_size=LIFT_GROUP,
        ))
        for cfg in configs:
            calls.clear()  # a freed table's id may be reused by the next run's
            _, state = run_experiment(cfg)
            table = state.table
            assert table.teacher_lookups > 0
            assert calls[id(table)] == table.teacher_lookups
            assert len(table.rows) == len(set(table.rows)) == table.n

    def test_copied_rows_are_keyed_by_node(self):
        # perfbench's exact reward reads ``table.copy().rows`` by
        # (prompt_id, prefix) and ``task.init_logits`` for absent prefixes.
        cfg = RunConfig(
            method="routed_both", regime="mixed", seed=3, steps=20, group_size=8,
            learning_rate=0.5, task_params=TaskParams(vocab=8, horizon=6),
        )
        _, state = run_experiment(cfg)
        table, task = state.table, state.task
        want = []
        for i in range(table.n):  # walk up from every node
            prefix, j = [], i
            while j:
                prefix.append(int(table.token[j]))
                j = table.parent[j]
            want.append((task.prompt_id, tuple(reversed(prefix))))
        rows = table.copy().rows
        assert list(rows) == want and table.n > 100
        assert np.array(list(rows.values())).tobytes() == table.logits[: table.n].tobytes()
        for t in range(task.horizon):
            prefix = (t % task.vocab,) * t
            assert task.init_logits(task.prompt_id, prefix).tobytes() == task.init_rows[t].tobytes()


class TestKlBlockGuard:
    """The routed kernel floors KL rows only on steps that have one."""

    @staticmethod
    def _count_kl_blocks(monkeypatch):
        from routedkl import routing

        calls = []
        floored = routing._floored_kl_rows

        def counting(*args):
            calls.append(1)
            return floored(*args)

        monkeypatch.setattr(routing, "_floored_kl_rows", counting)
        return calls

    def test_grpo_only_never_enters_the_kl_block(self, monkeypatch):
        calls = self._count_kl_blocks(monkeypatch)
        run_experiment(fast_cfg("grpo_only"))
        assert calls == []

    def test_one_block_per_step_with_kl_rows_and_none_after_the_window(self, monkeypatch):
        from routedkl.studies import CORNER_LR, CORNER_UNDER_PARAMS, study_run_config

        regime = "under_allocated"
        cfg = study_run_config(
            "routed_fkl_key", regime, 1, CORNER_UNDER_PARAMS, steps=100,
            learning_rate=CORNER_LR[regime],
        )
        state = init_run(cfg)
        calls = self._count_kl_blocks(monkeypatch)
        kl_rows = []
        kernel = runner.routed_loss_rows

        def recording(**kwargs):
            kl_rows.append(len(kwargs["teacher"]))
            return kernel(**kwargs)

        monkeypatch.setattr(runner, "routed_loss_rows", recording)
        end = cfg.routing.t_start + cfg.routing.t_decay + 1
        seen = {False: 0, True: 0}
        for k in range(end + 20):
            calls.clear()
            kl_rows.clear()
            train_step(state)
            if k >= end:
                assert calls == [] and kl_rows == [0]
            else:
                assert len(calls) == int(kl_rows[0] > 0)
                seen[kl_rows[0] > 0] += 1
        assert seen[True]


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
        # Each step's ratio is the mean of reference_credit_concentration
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
                ratios.append(reference_credit_concentration(credit, mask[i]))
            ratios = [r for r in ratios if r is not None]
            if ratios:
                expected.append(float(np.mean(ratios)))
        assert expected
        assert np.array(state.credit_ratios).tobytes() == np.array(expected).tobytes()

    @pytest.mark.parametrize(
        "method, overrides",
        [
            ("routed_fkl_key", dict(regime="mixed", task_params=TaskParams(vocab=5, horizon=6))),
            ("alltoken_kl_persistent", dict(teacher_sync="frozen", task_params=TaskParams(horizon=6))),
        ],
    )
    def test_ledger_records_equal_the_per_rollout_loop(self, monkeypatch, method, overrides):
        # Every record's two terms, byte for byte, against the span loop on
        # the table as the step found it; the routed run counts error spans
        # that carry no KL. A generated task offsets at most two depths, so
        # at most two terms of a rollout are nonzero and any order sums
        # them alike; offsets at every depth make the order show.
        steps = self._capture(monkeypatch)
        cfg = fast_cfg(method, steps=16, **overrides)
        state = init_run(cfg)
        state.task.offsets = np.random.default_rng(5).normal(size=state.task.offsets.shape)
        _, state = run_experiment(cfg, state)
        records = state.ledger.records
        assert records and len({r.k for r in records}) == len(records)
        spans = set()
        for r in records:
            record = steps[r.k]
            mask = record["step"].mask
            spans.update(mask.sum(axis=1).tolist())
            want = reference_ledger_terms(
                state.task, record["table"], record["group"].prefix_index, mask
            )
            got = (r.masked_variance_mean, r.deviation_sq_mean)
            assert np.array(got).tobytes() == np.array(want).tobytes(), r.k
        # The routed run's rollouts hold different span counts; the
        # all-token run's span is the whole horizon.
        assert len(spans) > 1 if method == "routed_fkl_key" else spans == {state.task.horizon}

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
                int(annot.choice(len(task.contexts), p=task.context_probs)) for _ in group.tokens
            ]
            advantages = group_advantages(group.outcomes.astype(float))
            assert (scale is None) == (not np.any(advantages > 0))
            for i, tokens in enumerate(map(tuple, group.tokens.tolist())):
                for t, y in enumerate(tokens):
                    if advantages[i] <= 0:
                        assert scale is None or scale[i, t] == 1.0
                        continue
                    prefix = tokens[:t]
                    node = np.array([table.node(prefix)])
                    q = task.teacher_dist_matrix(table, node)[0, contexts[i], y]
                    p = table.student_dist(prefix)[y]
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
        table = PolicyTable(np.zeros((horizon, vocab)), task.prompt_id)
        group = sample_group(table, task, np.random.default_rng(seed), size)
        rng, ref_rng = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
        ctx, mask = oracle_annotate(task, group, precision, rng, alpha)
        want_ctx, want_mask = reference_annotate(task, group.tokens, precision, ref_rng, alpha)
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
        # The step passes the credit of its gradient rows only: every
        # nonzero entry and some of the zero ones (a zero-norm row).
        # Horizons 9-12 hold regions of 8 or more positions.
        rng = np.random.default_rng(seed)
        credit = rng.random((size, horizon)) * 10.0 ** rng.integers(-8, 4, (size, horizon))
        credit[rng.random((size, horizon)) < zero_frac] = 0.0
        mask = rng.random((size, horizon)) < rng.random()
        rows = np.flatnonzero((credit > 0) | (rng.random((size, horizon)) < 0.5))
        got = runner._credit_ratios(mask, rows, credit.ravel()[rows])
        assert got.tobytes() == reference_credit_ratios(credit, mask).tobytes()

    @pytest.mark.parametrize(
        "credit, mask, want",
        [
            ([1.0] * 10, [True] * 3 + [False] * 7, [1.0]),
            ([8.5, 8.5, 1.0, 1.0], [True, True, False, False], [8.5]),
            ([1.0, 1.0, 0.0, 0.0], [True, True, False, False], []),
            ([1.0] * 4, [True] * 4, []),
            # Horizon 9, 8 positions outside: numpy's pairwise sum of them
            # is 1 + 3 * 2**-52, a left-to-right sum 1.0.
            ([1.0] + [2.0**-53] * 7 + [2.0], [False] * 8 + [True], [16.0 / (1.0 + 3 * 2.0**-52)]),
        ],
        ids=["uniform", "arithmetic", "zero_outside", "all_span", "pairwise_outside"],
    )
    def test_credit_ratio_fixtures(self, credit, mask, want):
        # One row each, every position a gradient row; a row with a zero
        # outside mean or one region only has no ratio.
        rows = np.arange(len(credit))
        got = runner._credit_ratios(np.array([mask]), rows, np.array(credit))
        assert got.tolist() == want == reference_credit_ratios(np.array([credit]), np.array([mask])).tolist()

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=200)
    def test_own_top_mass_mask_at_least_one(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 20))
        credit = rng.random(n)
        mask = np.zeros(n, dtype=bool)
        mask[np.argsort(-credit)[: int(rng.integers(1, n - 1))]] = True
        assert (runner._credit_ratios(mask[None], np.arange(n), credit) >= 1.0).all()


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
            ("run", "learning_rate", "inf"),
            ("run", "annotator_precision", "nan"),
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

    def test_sweep_checks_every_run_before_the_first(self, tmp_path, capsys):
        # Seed 1's outputs belong to another config, so the sweep is refused
        # before seed 0 runs.
        out = tmp_path / "out"
        (tmp_path / "run.ini").write_text(self.CONFIG.replace("seed = 3", "seed = 1"))
        assert cli.main(["run", str(tmp_path / "run.ini"), "--out", str(out)]) == 0
        written = {p.name: p.read_bytes() for p in out.iterdir()}
        sweep = self.CONFIG.replace("learning_rate = 0.3", "learning_rate = 0.7")
        (tmp_path / "sweep.ini").write_text(sweep + "[sweep]\nseed = 0, 1\n")
        assert cli.main(["sweep", str(tmp_path / "sweep.ini"), "--out", str(out)]) == 2
        assert "refusing to overwrite" in capsys.readouterr().err
        assert not list(out.glob("*seed0*"))
        assert {p.name: p.read_bytes() for p in out.iterdir()} == written

    def test_sweep_subcommand(self, tmp_path):
        cfg_path = tmp_path / "sweep.ini"
        cfg_path.write_text(self.SWEEP)
        out = self._cli("sweep", str(cfg_path))
        assert out.returncode == 0, out.stderr
        assert out.stdout.count("final_reward=") == 4
