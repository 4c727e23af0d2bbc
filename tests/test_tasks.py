import copy
import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from routedkl.errors import EnumerationBudgetError, RangeError
from routedkl import policy, tasks
from routedkl.policy import PolicyTable, softmax
from routedkl.routing import coverage_cap
from routedkl.tasks import (
    _DEAD,
    _START,
    TaskParams,
    chain_params,
    draw_contexts,
    generate_task,
    RewardTree,
    oracle_annotate,
    sample_group,
)

from oracles import (
    enumerate_expected_reward,
    fd_reward_gradient,
    reference_expected_reward,
    reference_reward_gradient,
    reference_root_cause,
    reference_sample_sequence,
    reference_teacher_dist_matrix,
    ReferenceTrie,
)

SMALL = TaskParams(vocab=4, horizon=3, p_star=0.004, n_contexts=2)


class TestGenerateTask:
    def test_deterministic_in_seed(self):
        a = generate_task("under_allocated", 5)
        b = generate_task("under_allocated", 5)
        assert a.to_json() == b.to_json()

    def test_distinct_across_seeds(self):
        a = generate_task("under_allocated", 5)
        b = generate_task("under_allocated", 6)
        assert a.to_json() != b.to_json()

    def test_unknown_regime(self):
        with pytest.raises(RangeError):
            generate_task("nope", 0)

    def test_under_allocation_certificate(self):
        task = generate_task("under_allocated", 0)
        student = softmax(task.init_rows[0])
        assert student[task.v_star] <= 0.01
        for c in range(len(task.contexts)):
            teacher = softmax(task.init_rows[0] + task.offsets[c, 0])
            assert student[task.v_star] <= 0.01 * teacher[task.v_star]
            assert teacher[task.v_star] >= 0.5

    def test_confident_wrong_certificate(self):
        task = generate_task("confident_wrong", 0)
        student = softmax(task.init_rows[0])
        assert student[task.bad_token] >= 0.7
        for c in range(len(task.contexts)):
            teacher = softmax(task.init_rows[0] + task.offsets[c, 0])
            assert teacher[task.bad_token] <= 0.05

    def test_critical_positions_strict_subset(self):
        for regime in ("under_allocated", "confident_wrong", "mixed"):
            task = generate_task(regime, 1)
            assert 0 < len(task.critical_positions) < task.horizon

    def test_accepting_sequence_exists(self):
        for regime in ("under_allocated", "confident_wrong", "mixed"):
            task = generate_task(regime, 2)
            table = task.make_table()
            assert task.expected_reward(table) > 0


class TestVerifier:
    def test_accepting_sequence(self):
        task = generate_task("under_allocated", 0, chain_params())
        seq = (task.v_star, 0, 0)
        assert task.verifier(seq) == 1

    def test_flipping_critical_token_rejects(self):
        task = generate_task("under_allocated", 0, TaskParams())
        accept = (task.v_star, 0, 0)
        assert task.verifier(accept) == 1
        wrong = tuple(
            (task.v_star + 1) % task.vocab if t == 0 else tok
            for t, tok in enumerate(accept)
        )
        assert task.verifier(wrong) == 0

    def test_trap_rejects_on_guarded_branch(self):
        task = generate_task("under_allocated", 0, chain_params())
        trapped = (task.alt_token, 0, task.trap_tokens[0])
        safe_tok = next(v for v in range(task.vocab) if v not in task.trap_tokens)
        safe = (task.alt_token, 0, safe_tok)
        assert task.verifier(trapped) == 0
        assert task.verifier(safe) == 1

    def test_deterministic(self):
        task = generate_task("confident_wrong", 1)
        seq = (task.bad_token, 1, 2)
        assert task.verifier(seq) == task.verifier(seq) == 0

    @pytest.mark.parametrize("regime", ["under_allocated", "confident_wrong", "mixed"])
    def test_equals_a_full_walk(self, regime):
        # The verifier stops at the first dead or free state; walking every
        # token of every sequence must give the same outcome.
        for seed, params in itertools.product(range(3), (None, chain_params(vocab=4, horizon=4))):
            task = generate_task(regime, seed, params)
            for seq in itertools.product(range(task.vocab), repeat=task.horizon):
                state = _START
                for t, tok in enumerate(seq):
                    state = task._step_state(state, t, tok)
                assert task.verifier(seq) == int(state != _DEAD)


class TestExactEnumeration:
    def test_expected_reward_matches_full_enumeration(self):
        for regime in ("under_allocated", "confident_wrong", "mixed"):
            task = generate_task(regime, 4, SMALL)
            table = task.make_table()
            # Perturb so the check is not at the symmetric init.
            table.student_logits(())[0] += 0.7
            table.refresh([0])
            pruned = task.expected_reward(table)
            brute = enumerate_expected_reward(task, table)
            assert pruned == pytest.approx(brute, abs=1e-12)

    def test_reward_gradient_matches_finite_differences(self):
        task = generate_task("mixed", 4, SMALL)
        table = task.make_table()
        table.student_logits(())[0] += 0.7
        table.refresh([0])
        grads = task.reward_gradient(table)
        walked = np.flatnonzero(grads.any(axis=1))
        assert walked[0] == 0 and len(walked) > 1  # the root and a deeper node
        for node in walked:
            fd = fd_reward_gradient(task, table, node)
            np.testing.assert_allclose(grads[node], fd, atol=1e-5)

    def test_gradient_rows_zero_sum(self):
        task = generate_task("mixed", 5, SMALL)
        grads = task.reward_gradient(task.make_table())
        for vec in grads:
            assert abs(vec.sum()) < 1e-12

    def test_constant_reward_gives_zero_gradient(self):
        # Deterministic-accept task: the confident-wrong trap token sits
        # outside the vocabulary so every sequence is accepted.
        task = generate_task("under_allocated", 0, SMALL)
        task_all = copy.deepcopy(task)
        task_all.v_star = None
        task_all.alt_token = None
        task_all.bad_token = task.vocab
        table = task_all.make_table()
        assert task_all.expected_reward(table) == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(task_all.reward_gradient(table), 0.0, atol=1e-12)

    def test_budget_guard(self):
        with pytest.raises(EnumerationBudgetError):
            generate_task("under_allocated", 0, TaskParams(vocab=16, horizon=6)).expected_reward(
                generate_task("under_allocated", 0, TaskParams(vocab=16, horizon=6)).make_table()
            )


class TestSampling:
    def test_rollout_fields(self):
        task = generate_task("under_allocated", 0)
        table = task.make_table()
        group = sample_group(table, task, np.random.default_rng(0), 1)
        tokens = tuple(group.tokens[0].tolist())
        assert group.tokens.shape == group.prefix_index.shape == (1, task.horizon)
        assert group.states.shape == (1, task.horizon + 1)
        assert group.outcomes[0] in (0, 1)
        for t in range(task.horizon):
            assert table.student_dist(tokens[:t])[tokens[t]] > 0.0
            assert table.node(tokens[:t]) == group.prefix_index[0, t]

    def test_deterministic_given_rng(self):
        task = generate_task("confident_wrong", 2)
        a = sample_group(task.make_table(), task, np.random.default_rng(7), 1)
        b = sample_group(task.make_table(), task, np.random.default_rng(7), 1)
        assert a.tokens.tolist() == b.tokens.tolist()


def _random_rows(rng, shape, zero_frac):
    """Random logit rows; entries set to -1000 get probability exactly 0."""
    rows = rng.normal(0.0, 2.0, shape)
    rows[rng.random(shape) < zero_frac] = -1000.0
    return rows


def _random_table(vocab, seed, zero_frac, prompt="p", depths=6):
    """A table with random per-depth init rows."""
    return PolicyTable(_random_rows(np.random.default_rng(seed), (depths, vocab), zero_frac), prompt)


def _vary_every_prefix(table, horizon, seed, zero_frac):
    """Add every prefix shorter than ``horizon``, level by level, and give
    each its own random row seeded by the prefix, so rows at one depth
    differ by prefix."""
    vocab, level = table.vocab, np.zeros(1, dtype=np.int64)
    for _ in range(1, horizon):
        level = table.children(np.repeat(level, vocab), np.tile(np.arange(vocab), len(level)))
    for i, (_, prefix) in enumerate(table.rows):
        table.logits[i] = _random_rows(np.random.default_rng([seed, len(prefix), *prefix]), vocab, zero_frac)
    table.refresh(np.arange(table.n))


class TestGroupStreamAlignment:
    """Group sampling against the per-token ``Generator.choice`` loop."""

    @given(
        vocab=st.integers(4, 9),
        horizon=st.integers(2, 5),
        size=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
        zero_frac=st.sampled_from([0.0, 0.3, 0.7]),
    )
    @settings(max_examples=150, deadline=None)
    def test_same_tokens_states_and_stream(self, vocab, horizon, size, seed, zero_frac):
        params = TaskParams(vocab=vocab, horizon=horizon, trap_position=1)
        task = generate_task("under_allocated", 0, params)
        # Odd seeds give every prefix its own row; even seeds keep the
        # per-depth init rows, which the table fills without a softmax.
        table = _random_table(vocab, seed, zero_frac, task.prompt_id)
        if seed % 2:
            _vary_every_prefix(table, horizon, seed, zero_frac)
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        group = sample_group(table, task, rng, size)
        ref = [reference_sample_sequence(table, task, ref_rng) for _ in range(size)]
        assert group.outcomes.tolist() == [r.outcome for r in ref]
        assert group.tokens.tolist() == [list(r.tokens) for r in ref]
        assert group.states.tolist() == [list(r.states) for r in ref]
        assert rng.random() == ref_rng.random()
        # Every position points at its prefix's node, with its row; a table
        # grown only by the group holds exactly the group's nodes, each once.
        rows, keys = table.dists[: table.n], list(table.rows)
        assert len(set(keys)) == len(keys) == table.n
        visited = set(group.prefix_index.ravel().tolist())
        assert visited <= set(range(table.n)) if seed % 2 else visited == set(range(table.n))
        for i, r in enumerate(ref):
            for t in range(horizon):
                node = group.prefix_index[i, t]
                assert keys[node] == (task.prompt_id, r.tokens[:t])
                assert rows[node].tobytes() == table.student_dist(r.tokens[:t]).tobytes()

    def test_rows_with_zero_entries_are_exercised(self):
        table = _random_table(6, 3, 0.7)
        assert all((table.student_dist((0,) * t) == 0).any() for t in range(2))
        _vary_every_prefix(table, 2, 3, 0.7)
        assert any((table.student_dist((v,)) == 0).any() for v in range(6))

    def test_size_one_groups_follow_the_reference_loop(self):
        task = generate_task("mixed", 2)
        table = task.make_table()
        a, b = np.random.default_rng(4), np.random.default_rng(4)
        for _ in range(20):
            got, want = sample_group(table, task, a, 1), reference_sample_sequence(table, task, b)
            assert tuple(got.tokens[0].tolist()) == want.tokens
            assert tuple(got.states[0].tolist()) == want.states
            assert [table.node(want.tokens[:t]) for t in range(task.horizon)] == got.prefix_index[0].tolist()
        assert a.random() == b.random()

    @given(
        n_contexts=st.integers(1, 6),
        size=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
        zero_frac=st.sampled_from([0.0, 0.4]),
    )
    @settings(max_examples=150, deadline=None)
    def test_context_draws_match_choice(self, n_contexts, size, seed, zero_frac):
        task = generate_task("under_allocated", 0, TaskParams(n_contexts=n_contexts))
        weights = np.random.default_rng(seed).random(n_contexts)
        weights[np.random.default_rng(seed + 1).random(n_contexts) < zero_frac] = 0.0
        weights[seed % n_contexts] += 0.5  # at least one context has mass
        task = replace(task, context_probs=weights / weights.sum())
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = draw_contexts(task, rng, size)
        want = [int(ref_rng.choice(n_contexts, p=task.context_probs)) for _ in range(size)]
        assert got.tolist() == want
        assert rng.random() == ref_rng.random()

    def test_context_cdf_is_built_once_and_read_only(self, monkeypatch):
        task = generate_task("mixed", 0, TaskParams(n_contexts=3))
        calls = []
        cdf_rows = policy.cdf_rows
        monkeypatch.setattr(tasks, "cdf_rows", lambda dist: calls.append(1) or cdf_rows(dist))
        for _ in range(3):
            draw_contexts(task, np.random.default_rng(0), 4)
        assert len(calls) == 1
        assert task.context_cdf.tobytes() == cdf_rows(task.context_probs).tobytes()
        with pytest.raises(ValueError):
            task.context_cdf[0] = 0.5
        # A replaced task computes its own cdf.
        other = replace(task, context_probs=np.array([0.5, 0.25, 0.25]))
        assert other.context_cdf.tolist() == [0.5, 0.75, 1.0]


def _reference_columns(ref, vocab):
    """The parent, token, depth, child and logits columns of a ``ReferenceTrie``."""
    prefixes = [prefix for _, prefix in ref.keys]
    parent = np.array([-1] + [ref.ids[ref.keys[0][0], p[:-1]] for p in prefixes[1:]])
    token = np.array([-1] + [p[-1] for p in prefixes[1:]])
    child = np.full((len(prefixes), vocab), -1)
    child[parent[1:], token[1:]] = np.arange(1, len(prefixes))
    depth = np.array([len(p) for p in prefixes])
    return dict(parent=parent, token=token, depth=depth, child=child, logits=np.array(ref.logits))


class TestGroupGrowth:
    """A group's new prefixes, added as one id block, against one
    ``ReferenceTrie.children`` call per position."""

    @given(
        vocab=st.integers(4, 6),
        horizon=st.integers(2, 4),
        size=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
        zero_frac=st.sampled_from([0.0, 0.3, 0.7]),
        stored=st.sampled_from(["root", "partial", "all"]),
    )
    @settings(max_examples=150, deadline=None)
    def test_one_block_equals_per_position_children(self, vocab, horizon, size, seed, zero_frac, stored):
        task = generate_task("under_allocated", 0, TaskParams(vocab=vocab, horizon=horizon, trap_position=1))
        table = _random_table(vocab, seed, zero_frac, task.prompt_id)
        ref = ReferenceTrie(table.init_rows, task.prompt_id)
        rng = np.random.default_rng([seed, 1])
        if stored == "partial":
            for _ in range(int(rng.integers(1, 8))):
                prefix = tuple(rng.integers(0, vocab, int(rng.integers(1, horizon))).tolist())
                assert table.node(prefix) == ref.node(task.prompt_id, prefix)
        elif stored == "all":
            level = np.zeros(1, dtype=np.int64)
            for _ in range(1, horizon):
                nodes, tokens = np.repeat(level, vocab), np.tile(np.arange(vocab), len(level))
                want = ref.children(nodes.tolist(), tokens.tolist())
                level = table.children(nodes, tokens)
                assert level.tolist() == want
        before = table.n
        appends, append = [], PolicyTable._append
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(PolicyTable, "_append", lambda t, *args: appends.append(len(args[0])) or append(t, *args))
            group = sample_group(table, task, rng, size)
        assert len(appends) <= 1 and sum(appends) == table.n - before
        if stored == "all":
            assert appends == []
        if stored == "root":  # every rollout leaves the stored trie at t = 1
            assert (group.prefix_index[:, 1:] >= before).all()
        assert (group.prefix_index[:, 0] == 0).all()
        for t in range(1, horizon):
            want = ref.children(group.prefix_index[:, t - 1].tolist(), group.tokens[:, t - 1].tolist())
            assert group.prefix_index[:, t].tolist() == want
        assert table.n == len(ref.keys)
        for name, column in _reference_columns(ref, vocab).items():
            got = getattr(table, name)[: table.n]
            assert got.dtype == column.dtype and got.tobytes() == column.tobytes(), name


def _random_task(regime, vocab, horizon, trap_position, seed):
    params = chain_params(vocab=vocab, horizon=horizon, trap_position=trap_position)
    return generate_task(regime, seed, params)


task_shapes = dict(
    regime=st.sampled_from(["under_allocated", "confident_wrong", "mixed"]),
    vocab=st.integers(4, 8),
    horizon=st.integers(2, 5),
    trap=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)


class TestBatchedTaskPaths:
    """The level-wise evaluation, the tabulated automaton and the stacked
    teacher rows against their per-prefix and per-sequence references."""

    @given(zero_frac=st.sampled_from([0.0, 0.3, 0.6]), **task_shapes)
    @settings(max_examples=200, deadline=None)
    def test_level_wise_expected_reward_is_the_recursion(
        self, regime, vocab, horizon, trap, seed, zero_frac
    ):
        task = _random_task(regime, vocab, horizon, 1 + trap % (horizon - 1), seed % 100)
        ref_table, table = (_random_table(vocab, seed, zero_frac, task.prompt_id) for _ in range(2))
        if seed % 2:
            for t in (ref_table, table):
                _vary_every_prefix(t, horizon, seed, zero_frac)
        want = reference_expected_reward(task, ref_table)
        got = task.expected_reward(table)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()
        assert set(table.rows) == set(ref_table.rows)

    @given(zero_frac=st.sampled_from([0.0, 0.3, 0.6]), **task_shapes)
    @settings(max_examples=200, deadline=None)
    def test_reward_gradient_from_the_levels_is_the_recursion(
        self, regime, vocab, horizon, trap, seed, zero_frac
    ):
        task = _random_task(regime, vocab, horizon, 1 + trap % (horizon - 1), seed % 100)
        table = _random_table(vocab, seed, zero_frac, task.prompt_id)
        if seed % 2:
            _vary_every_prefix(table, horizon, seed, zero_frac)
        grads = task.reward_gradient(table)
        assert grads.shape == (table.n, vocab)
        # The recursion also enters children of probability 0, and adds
        # the nodes the levels skipped: past the returned rows, their
        # reference rows must be zero.
        want = reference_reward_gradient(task, table)
        walked = [table.node(prefix) for prefix in want]
        for node, row in zip(walked, want.values()):
            got = grads[node] if node < len(grads) else np.zeros(vocab)
            # Equal entries. Where a child has probability 0 the entry is a
            # zero whose sign follows a child value only the recursion knows.
            assert np.array_equal(got, row)
        decided = np.setdiff1d(np.arange(len(grads)), walked)
        assert not grads[decided].any()

    @given(
        zero_frac=st.sampled_from([0.0, 0.3, 0.6]),
        flip_frac=st.sampled_from([0.0, 0.1, 0.4]),
        evals=st.integers(2, 6),
        **task_shapes,
    )
    @settings(max_examples=150, deadline=None)
    def test_kept_tree_equals_a_fresh_walk(
        self, regime, vocab, horizon, trap, seed, zero_frac, flip_frac, evals
    ):
        # Twin tables take the same row updates and the same sampled growth
        # between evaluations; one is evaluated through a kept tree, the
        # other by a fresh walk each time. An update flips a share of its
        # entries to -1000 (probability exactly 0) or back from it.
        task = _random_task(regime, vocab, horizon, 1 + trap % (horizon - 1), seed % 100)
        kept, walked = (_random_table(vocab, seed, zero_frac, task.prompt_id) for _ in range(2))
        if seed % 2:
            for t in (kept, walked):
                _vary_every_prefix(t, horizon, seed, zero_frac)
        tree, rng = RewardTree(), np.random.default_rng(seed)
        for k in range(evals):
            got = task.expected_reward(kept, tree)
            want = task.expected_reward(walked)
            assert np.float64(got).tobytes() == np.float64(want).tobytes()
            for table in (kept, walked):
                sample_group(table, task, np.random.default_rng([seed, k]), 3)
            picked = [rng.choice(tree.nodes, 2), rng.integers(0, kept.n, 2)]  # tree and table nodes
            nodes = np.unique(np.concatenate(picked))
            rows = kept.logits[nodes] + rng.normal(0.0, 0.5, (len(nodes), vocab))
            flip = rng.random(rows.shape) < flip_frac
            rows[flip] = np.where(rows[flip] < -500.0, rng.normal(0.0, 2.0, flip.sum()), -1000.0)
            kept.logits[nodes] = walked.logits[nodes] = rows
            for table in (kept, walked):
                table.refresh(nodes)
        assert kept.n == walked.n
        for name in ("parent", "token", "logits"):
            assert getattr(kept, name)[: kept.n].tobytes() == getattr(walked, name)[: kept.n].tobytes()

    @pytest.mark.parametrize("regime", ["under_allocated", "mixed"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_expected_reward_through_a_filled_map(self, regime, seed, monkeypatch):
        # One sampled rollout adds part of the tree's nodes to the table.
        task = generate_task(regime, seed, chain_params(vocab=5, horizon=4))
        table = task.make_table()
        sample_group(table, task, np.random.default_rng(seed), 1)
        filled = table.dists[: table.n].copy()
        ref = table.copy()
        softmaxed = []
        stack_softmax = policy.softmax
        monkeypatch.setattr(policy, "softmax", lambda z: softmaxed.append(len(z)) or stack_softmax(z))
        got = task.expected_reward(table)
        monkeypatch.undo()
        want = task.expected_reward(ref)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()
        assert list(table.rows) == list(ref.rows)
        rows = table.dists[: table.n]
        assert len(rows) == len(table.rows) > len(filled)
        # The sampled nodes' rows are kept, and every node new to the walk
        # holds its depth's init row, so it takes that depth's
        # distribution: no softmax is computed.
        assert softmaxed == []
        assert rows[: len(filled)].tobytes() == filled.tobytes()
        for row, (_, prefix) in zip(rows, table.rows, strict=True):
            assert row.tobytes() == ref.student_dist(prefix).tobytes()

    @given(size=st.integers(1, 16), zero_frac=st.sampled_from([0.0, 0.5]), **task_shapes)
    @settings(max_examples=200, deadline=None)
    def test_automaton_outcomes_and_root_cause(
        self, regime, vocab, horizon, trap, seed, size, zero_frac
    ):
        task = _random_task(regime, vocab, horizon, 1 + trap % (horizon - 1), seed % 100)
        table = _random_table(vocab, seed, zero_frac, task.prompt_id)
        group = sample_group(table, task, np.random.default_rng(seed), size)
        for i, seq in enumerate(map(tuple, group.tokens.tolist())):
            assert group.outcomes[i] == task.verifier(seq)
            state = _START
            for t, tok in enumerate(seq):
                assert group.states[i, t] == state
                state = task._step_state(state, t, tok)
            assert group.states[i, -1] == state
            dead = np.flatnonzero(group.states[i, 1:] == _DEAD)
            first = int(dead[0]) if dead.size else None
            want = reference_root_cause(task, seq)
            assert want == (first if first in task.critical_positions else None)

    @pytest.mark.parametrize("regime", ["under_allocated", "confident_wrong", "mixed"])
    def test_teacher_matrix_is_the_per_context_rows(self, regime):
        task = generate_task(regime, 3, TaskParams(n_contexts=4, horizon=4))
        table = _random_table(task.vocab, 3, 0.3, task.prompt_id)
        table.sync_teacher()
        nodes = np.array([table.node(p) for p in [(), (1,), (2, 5), (0, 3, 1)]])
        for node in nodes:
            before = table.teacher_lookups
            matrix = task.teacher_dist_matrix(table, node[None])
            assert table.teacher_lookups - before == 1  # one row serves every context
            want = reference_teacher_dist_matrix(task, table, node)
            assert matrix.shape == (1, len(task.contexts), task.vocab)
            assert matrix[0].tobytes() == want.tobytes()
        before = table.teacher_lookups
        stacked = task.teacher_dist_matrix(table, nodes)
        assert table.teacher_lookups - before == len(nodes)  # one lookup per node
        assert stacked.tobytes() == np.array([
            reference_teacher_dist_matrix(task, table, node) for node in nodes
        ]).tobytes()

    @given(
        n_contexts=st.integers(1, 6),
        quirk=st.sampled_from([0.0, 0.05]),
        distractor=st.sampled_from([0.0, 0.5]),
        **task_shapes,
    )
    @settings(max_examples=150, deadline=None)
    def test_teacher_matrix_equals_the_per_context_loop(
        self, regime, vocab, horizon, trap, seed, n_contexts, quirk, distractor
    ):
        # Some contexts have no offset at some depths (every depth but the
        # first and the trap's, and the trap's unless mixed or distracted).
        # Rows are read at every depth once an update has moved the student
        # past the sync, at prefixes first visited after the sync, and at
        # random prefixes added just before the read, all in one stack.
        params = chain_params(
            vocab=vocab, horizon=horizon, trap_position=1 + trap % (horizon - 1),
            n_contexts=n_contexts, quirk_mass=quirk, distractor_mass=distractor,
        )
        task = generate_task(regime, seed % 100, params)
        table, rng = _random_table(vocab, seed, 0.3, task.prompt_id), np.random.default_rng(seed)
        sample_group(table, task, rng, 4)
        table.sync_teacher()
        synced = table.n
        table.apply_gradients(np.arange(synced), rng.normal(size=(synced, vocab)), 0.5)
        sample_group(table, task, rng, 8)
        unvisited = [tuple(rng.integers(0, vocab, t).tolist()) for t in range(horizon)]
        nodes = [table.node(prefix) for prefix in unvisited]
        nodes = rng.permutation(np.arange(table.n).tolist() + nodes)  # out of order, repeats
        assert set(table.depth[nodes].tolist()) == set(range(horizon))
        before = table.teacher_lookups
        got = task.teacher_dist_matrix(table, nodes)
        assert table.teacher_lookups == before + len(nodes)
        for node, matrix in zip(nodes, got, strict=True):
            want = reference_teacher_dist_matrix(task, table, node)
            assert matrix.tobytes() == want.tobytes()


class TestOracleAnnotate:
    """The group annotator on groups of one rollout."""

    @staticmethod
    def _rollout_with_outcome(task, outcome, rng):
        table = task.make_table()
        for _ in range(4000):
            group = sample_group(table, task, rng, 1)
            if group.outcomes[0] == outcome:
                return group
        raise AssertionError("no rollout with requested outcome")

    def test_perfect_precision_marks_critical(self):
        task = generate_task("confident_wrong", 0)
        rng = np.random.default_rng(0)
        group = self._rollout_with_outcome(task, 1, rng)
        _, mask = oracle_annotate(task, group, 1.0, rng, 1.0)
        assert set(np.flatnonzero(mask[0]).tolist()) == set(task.critical_positions)
        assert group.outcomes[0] == 1

    def test_rejected_rollout_marks_root_cause(self):
        task = generate_task("confident_wrong", 0)
        rng = np.random.default_rng(1)
        group = self._rollout_with_outcome(task, 0, rng)
        _, mask = oracle_annotate(task, group, 1.0, rng, 1.0)
        assert group.outcomes[0] == 0
        assert np.flatnonzero(mask[0]).tolist() == [0]  # earliest critical divergence

    def test_non_critical_divergence_yields_no_span(self):
        task = generate_task("under_allocated", 0, chain_params())
        rng = np.random.default_rng(2)
        for _ in range(3000):
            group = sample_group(task.make_table(), task, rng, 1)
            if group.outcomes[0] == 0 and group.tokens[0, 0] == task.alt_token:
                _, mask = oracle_annotate(task, group, 1.0, rng, 1.0)
                assert not mask.any()
                return
        raise AssertionError("no trapped rollout found")

    def test_zero_precision_marks_non_critical(self):
        task = generate_task("confident_wrong", 0)
        rng = np.random.default_rng(3)
        group = self._rollout_with_outcome(task, 1, rng)
        for _ in range(20):
            _, mask = oracle_annotate(task, group, 0.0, rng, 1.0)
            assert set(np.flatnonzero(mask[0]).tolist()).isdisjoint(task.critical_positions)

    def test_precision_estimator_converges(self):
        # Empirical true-critical fraction tracks q within 0.03 over ten
        # thousand annotated selections.
        task = generate_task("confident_wrong", 0)
        rng = np.random.default_rng(4)
        table = task.make_table()
        critical = list(task.critical_positions)
        for q in (0.3, 0.7, 0.9):
            hits, total = 0, 0
            while total < 10_000:
                group = sample_group(table, task, rng, 1)
                _, mask = oracle_annotate(task, group, q, rng, 1.0)
                total += int(mask.sum())
                hits += int(mask[0, critical].sum())
            assert abs(hits / total - q) < 0.03

    def test_annotations_respect_coverage_after_projection(self):
        task = generate_task("mixed", 1, TaskParams(vocab=8, horizon=8, trap_position=4))
        rng = np.random.default_rng(5)
        table = task.make_table()
        cap = coverage_cap(0.25, task.horizon)
        assert len(task.critical_positions) <= cap
        for _ in range(200):
            group = sample_group(table, task, rng, 1)
            _, mask = oracle_annotate(task, group, 1.0, rng, 0.25)
            assert mask.sum() <= cap
        # A cap of one position binds on the two-position key spans: the
        # mask keeps the lowest marked position of the uncapped mask, from
        # the same draws.
        trimmed = 0
        for _ in range(200):
            group = sample_group(table, task, rng, 1)
            uncapped_rng = copy.deepcopy(rng)
            _, mask = oracle_annotate(task, group, 1.0, rng, 0.1)
            _, uncapped = oracle_annotate(task, group, 1.0, uncapped_rng, 1.0)
            marked = np.flatnonzero(uncapped[0])
            assert np.flatnonzero(mask[0]).tolist() == marked[:1].tolist()
            trimmed += marked.size > 1
        assert trimmed

    def test_annotation_type_is_a_context_label(self):
        task = generate_task("under_allocated", 0)
        rng = np.random.default_rng(6)
        group = sample_group(task.make_table(), task, rng, 1)
        ref = copy.deepcopy(rng)
        ctx, mask = oracle_annotate(task, group, 1.0, rng, 1.0)
        # The span type is the drawn context's label: one context uniform.
        assert ctx.tolist() == draw_contexts(task, ref, 1).tolist()
        assert 0 <= ctx[0] < len(task.contexts) and mask.shape == (1, task.horizon)

    @pytest.mark.parametrize("precision", [-0.1, 1.1, float("nan")])
    def test_precision_outside_the_unit_interval_is_rejected(self, precision):
        task = generate_task("under_allocated", 0)
        rng = np.random.default_rng(7)
        group = sample_group(task.make_table(), task, rng, 2)
        with pytest.raises(RangeError):
            oracle_annotate(task, group, precision, rng, 1.0)

    @pytest.mark.parametrize("alpha", [0.0, -0.25, 1.5, float("nan")])
    def test_alpha_outside_the_cap_interval_is_rejected(self, alpha):
        task = generate_task("under_allocated", 0)
        rng = np.random.default_rng(7)
        group = sample_group(task.make_table(), task, rng, 2)
        with pytest.raises(RangeError, match="alpha"):
            oracle_annotate(task, group, 1.0, rng, alpha)
