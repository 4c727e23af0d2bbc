import copy
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from routedkl.errors import EnumerationBudgetError, RangeError
from routedkl.policy import PolicyTable, softmax
from routedkl.routing import coverage_cap, enforce_coverage_cap, project_spans_to_mask
from routedkl.tasks import (
    _DEAD,
    _START,
    TaskParams,
    chain_params,
    draw_contexts,
    generate_task,
    oracle_annotate,
    sample_group,
    single_route_params,
)

from oracles import (
    enumerate_expected_reward,
    fd_reward_gradient,
    reference_expected_reward,
    reference_sample_sequence,
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
            teacher = softmax(task.init_rows[0] + task.context_offset(c, 0))
            assert student[task.v_star] <= 0.01 * teacher[task.v_star]
            assert teacher[task.v_star] >= 0.5

    def test_confident_wrong_certificate(self):
        task = generate_task("confident_wrong", 0)
        student = softmax(task.init_rows[0])
        assert student[task.bad_token] >= 0.7
        for c in range(len(task.contexts)):
            teacher = softmax(task.init_rows[0] + task.context_offset(c, 0))
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
        task = generate_task("under_allocated", 0, single_route_params())
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


class TestExactEnumeration:
    def test_expected_reward_matches_full_enumeration(self):
        for regime in ("under_allocated", "confident_wrong", "mixed"):
            task = generate_task(regime, 4, SMALL)
            table = task.make_table()
            # Perturb so the check is not at the symmetric init.
            table.student_logits(task.prompt_id, ())[0] += 0.7
            pruned = task.expected_reward(table)
            brute = enumerate_expected_reward(task, table)
            assert pruned == pytest.approx(brute, abs=1e-12)

    def test_reward_gradient_matches_finite_differences(self):
        task = generate_task("under_allocated", 4, SMALL)
        table = task.make_table()
        grads = task.reward_gradient(table)
        key = (task.prompt_id, ())
        fd = fd_reward_gradient(task, table, key)
        np.testing.assert_allclose(grads[key], fd, atol=1e-5)

    def test_gradient_rows_zero_sum(self):
        task = generate_task("mixed", 5, SMALL)
        grads = task.reward_gradient(task.make_table())
        for vec in grads.values():
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
        grads = task_all.reward_gradient(table)
        for vec in grads.values():
            np.testing.assert_allclose(vec, 0.0, atol=1e-12)

    def test_budget_guard(self):
        with pytest.raises(EnumerationBudgetError):
            generate_task("under_allocated", 0, TaskParams(vocab=16, horizon=6)).expected_reward(
                generate_task("under_allocated", 0, TaskParams(vocab=16, horizon=6)).make_table()
            )


class TestSampling:
    def test_rollout_fields(self):
        task = generate_task("under_allocated", 0)
        table = task.make_table()
        rollout = sample_group(table, task, np.random.default_rng(0), 1).rollouts[0]
        assert len(rollout) == task.horizon
        assert rollout.outcome in (0, 1)
        for t in range(task.horizon):
            dist = table.student_dist(task.prompt_id, rollout.prefix(t))
            assert rollout.logprobs[t] == pytest.approx(np.log(dist[rollout.tokens[t]]), abs=1e-12)

    def test_deterministic_given_rng(self):
        task = generate_task("confident_wrong", 2)
        a = sample_group(task.make_table(), task, np.random.default_rng(7), 1).rollouts[0]
        b = sample_group(task.make_table(), task, np.random.default_rng(7), 1).rollouts[0]
        assert a.tokens == b.tokens


def _random_table(vocab, seed, zero_frac):
    """Random logit rows; entries set to -1000 get probability exactly 0."""

    def init(prompt, prefix):
        rng = np.random.default_rng([seed, len(prefix), *prefix])
        logits = rng.normal(0.0, 2.0, vocab)
        logits[rng.random(vocab) < zero_frac] = -1000.0
        return logits

    return PolicyTable(vocab=vocab, init_logits=init)


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
    def test_same_tokens_logprobs_and_stream(self, vocab, horizon, size, seed, zero_frac):
        params = TaskParams(vocab=vocab, horizon=horizon, trap_position=1)
        task = generate_task("under_allocated", 0, params)
        table = _random_table(vocab, seed, zero_frac)
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        dists = {}
        group = sample_group(table, task, rng, size, dists)
        ref = [reference_sample_sequence(table, task, ref_rng) for _ in range(size)]
        assert [r.tokens for r in group.rollouts] == [r.tokens for r in ref]
        assert [r.outcome for r in group.rollouts] == [r.outcome for r in ref]
        assert group.outcomes.tolist() == [r.outcome for r in ref]
        for got, want in zip(group.rollouts, ref):
            assert got.logprobs.tobytes() == want.logprobs.tobytes()
        assert group.tokens.tolist() == [list(r.tokens) for r in ref]
        assert group.logprobs.tobytes() == np.stack([r.logprobs for r in ref]).tobytes()
        assert rng.random() == ref_rng.random()
        # Every position points at its prefix, listed once, with its row.
        assert len(set(group.prefixes)) == len(group.prefixes) == len(dists)
        for i, r in enumerate(ref):
            for t in range(horizon):
                prefix = group.prefixes[group.prefix_index[i, t]]
                assert prefix == r.tokens[:t]
                assert dists[prefix].tobytes() == table.student_dist(task.prompt_id, prefix).tobytes()

    def test_rows_with_zero_entries_are_exercised(self):
        table = _random_table(6, 3, 0.7)
        assert any((table.student_dist("p", (v,)) == 0).any() for v in range(6))

    def test_size_one_groups_follow_the_reference_loop(self):
        task = generate_task("mixed", 2)
        table = task.make_table()
        a, b = np.random.default_rng(4), np.random.default_rng(4)
        for _ in range(20):
            got, want = sample_group(table, task, a, 1).rollouts[0], reference_sample_sequence(table, task, b)
            assert got.tokens == want.tokens
            assert got.logprobs.tobytes() == want.logprobs.tobytes()
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
        ref_table, table = (_random_table(vocab, seed, zero_frac) for _ in range(2))
        want = reference_expected_reward(task, ref_table)
        got = task.expected_reward(table)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()
        assert set(table.rows) == set(ref_table.rows)

    @given(size=st.integers(1, 16), zero_frac=st.sampled_from([0.0, 0.5]), **task_shapes)
    @settings(max_examples=200, deadline=None)
    def test_automaton_outcomes_and_root_cause(
        self, regime, vocab, horizon, trap, seed, size, zero_frac
    ):
        task = _random_task(regime, vocab, horizon, 1 + trap % (horizon - 1), seed % 100)
        table = _random_table(vocab, seed, zero_frac)
        group = sample_group(table, task, np.random.default_rng(seed), size)
        for i, seq in enumerate(map(tuple, group.tokens.tolist())):
            assert group.outcomes[i] == group.rollouts[i].outcome == task.verifier(seq)
            state = _START
            for t, tok in enumerate(seq):
                assert group.states[i, t] == state
                state = task._step_state(state, t, tok)
            assert group.states[i, -1] == state
            dead = np.flatnonzero(group.states[i, 1:] == _DEAD)
            first = int(dead[0]) if dead.size else None
            want = task.root_cause(seq)
            assert want == (first if first in task.critical_positions else None)

    @pytest.mark.parametrize("regime", ["under_allocated", "confident_wrong", "mixed"])
    def test_teacher_matrix_is_the_per_context_rows(self, regime):
        task = generate_task(regime, 3, TaskParams(n_contexts=4, horizon=4))
        table = _random_table(task.vocab, 3, 0.3)
        table.sync_teacher()
        for prefix in [(), (1,), (2, 5), (0, 3, 1)]:
            before = table.teacher_lookups
            matrix = task.teacher_dist_matrix(table, prefix)
            assert table.teacher_lookups - before == len(task.contexts)
            for c in range(len(task.contexts)):
                assert matrix[c].tobytes() == task.teacher_dist(table, c, prefix).tobytes()


class TestOracleAnnotate:
    @staticmethod
    def _rollout_with_outcome(task, outcome, rng):
        table = task.make_table()
        for _ in range(4000):
            r = sample_group(table, task, rng, 1).rollouts[0]
            if r.outcome == outcome:
                return r
        raise AssertionError("no rollout with requested outcome")

    def test_perfect_precision_marks_critical(self):
        task = generate_task("confident_wrong", 0)
        rng = np.random.default_rng(0)
        rollout = self._rollout_with_outcome(task, 1, rng)
        ann = oracle_annotate(rollout, task, 1.0, rng)
        marked = {t for s in ann.spans for t in range(s.start, s.end)}
        assert marked == set(task.critical_positions)
        assert ann.outcome == 1

    def test_rejected_rollout_marks_root_cause(self):
        task = generate_task("confident_wrong", 0)
        rng = np.random.default_rng(1)
        rollout = self._rollout_with_outcome(task, 0, rng)
        ann = oracle_annotate(rollout, task, 1.0, rng)
        assert ann.outcome == 0
        marked = {t for s in ann.spans for t in range(s.start, s.end)}
        assert marked == {0}  # earliest critical divergence

    def test_non_critical_divergence_yields_no_span(self):
        task = generate_task("under_allocated", 0, chain_params())
        rng = np.random.default_rng(2)
        for _ in range(3000):
            r = sample_group(task.make_table(), task, rng, 1).rollouts[0]
            if r.outcome == 0 and r.tokens[0] == task.alt_token:
                ann = oracle_annotate(r, task, 1.0, rng)
                assert ann.spans == ()
                return
        raise AssertionError("no trapped rollout found")

    def test_zero_precision_marks_non_critical(self):
        task = generate_task("confident_wrong", 0)
        rng = np.random.default_rng(3)
        rollout = self._rollout_with_outcome(task, 1, rng)
        for _ in range(20):
            ann = oracle_annotate(rollout, task, 0.0, rng)
            marked = {t for s in ann.spans for t in range(s.start, s.end)}
            assert marked.isdisjoint(task.critical_positions)

    def test_precision_estimator_converges(self):
        # Empirical true-critical fraction tracks q within 0.03 over ten
        # thousand annotated selections.
        task = generate_task("confident_wrong", 0)
        rng = np.random.default_rng(4)
        table = task.make_table()
        for q in (0.3, 0.7, 0.9):
            hits, total = 0, 0
            while total < 10_000:
                rollout = sample_group(table, task, rng, 1).rollouts[0]
                ann = oracle_annotate(rollout, task, q, rng)
                for s in ann.spans:
                    for t in range(s.start, s.end):
                        total += 1
                        hits += t in task.critical_positions
            assert abs(hits / total - q) < 0.03

    def test_annotations_respect_coverage_after_projection(self):
        task = generate_task("mixed", 1, TaskParams(vocab=8, horizon=8, trap_position=4))
        rng = np.random.default_rng(5)
        table = task.make_table()
        assert len(task.critical_positions) <= coverage_cap(0.25, task.horizon)
        for _ in range(200):
            rollout = sample_group(table, task, rng, 1).rollouts[0]
            ann = oracle_annotate(rollout, task, 1.0, rng)
            mask = project_spans_to_mask(list(ann.spans), rollout.token_char_intervals())
            capped = enforce_coverage_cap(mask, np.ones(len(rollout)), 0.25)
            assert capped.sum() <= coverage_cap(0.25, len(rollout))

    def test_annotation_type_is_a_context_label(self):
        task = generate_task("under_allocated", 0)
        rng = np.random.default_rng(6)
        rollout = sample_group(task.make_table(), task, rng, 1).rollouts[0]
        ann = oracle_annotate(rollout, task, 1.0, rng)
        assert ann.span_type == task.contexts[ann.context_index].label
