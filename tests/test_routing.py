from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from routedkl.divergence import fkl_logit_grad, rkl_logit_grad
from routedkl.errors import (
    DimensionError,
    InternalConsistencyError,
    RangeError,
    SpanAlignmentError,
)
from routedkl.grpo import group_advantages
from routedkl.routing import (
    CharSpan,
    RolloutLossInput,
    RoutingConfig,
    coverage_cap,
    enforce_coverage_cap,
    lambda_schedule,
    partition,
    project_spans_to_mask,
    rho,
    routed_step_loss,
    schedule_weight_sums,
    spans_from_json,
    spans_to_json,
)

from oracles import interval_intersection_mask

ATOMIC = [(t, t + 1) for t in range(8)]


class TestSpanProjection:
    def test_no_spans(self):
        np.testing.assert_array_equal(project_spans_to_mask([], ATOMIC), np.zeros(8, dtype=np.int8))

    def test_exact_cover(self):
        mask = project_spans_to_mask([CharSpan(3, 4, "t")], ATOMIC)
        assert mask.tolist() == [0, 0, 0, 1, 0, 0, 0, 0]

    def test_straddling_span(self):
        intervals = [(0, 3), (3, 7), (7, 12)]
        mask = project_spans_to_mask([CharSpan(5, 9, "t")], intervals)
        assert mask.tolist() == [0, 1, 1]
        oracle = interval_intersection_mask([(5, 9)], intervals)
        np.testing.assert_array_equal(mask, oracle)

    @given(st.lists(st.tuples(st.integers(0, 30), st.integers(1, 6)), max_size=4))
    @settings(max_examples=200)
    def test_matches_brute_force(self, raw_spans):
        spans = [CharSpan(s, s + w, "t") for s, w in raw_spans]
        intervals = [(3 * t, 3 * t + 3) for t in range(10)]
        mask = project_spans_to_mask(spans, intervals)
        oracle = interval_intersection_mask([(s.start, s.end) for s in spans], intervals)
        np.testing.assert_array_equal(mask, oracle)

    def test_overlapping_intervals_rejected(self):
        with pytest.raises(SpanAlignmentError):
            project_spans_to_mask([], [(0, 2), (1, 3)])


class TestCoverageCap:
    def test_under_cap_unchanged(self):
        mask = np.zeros(10, dtype=np.int8)
        mask[[2, 5]] = 1
        out = enforce_coverage_cap(mask, np.ones(10), 0.25)
        np.testing.assert_array_equal(out, mask)

    def test_quarter_of_hundred(self):
        mask = np.zeros(100, dtype=np.int8)
        mask[:40] = 1
        out = enforce_coverage_cap(mask, np.ones(100), 0.25)
        assert out.sum() == 25

    def test_tie_break_by_lowest_index(self):
        # Enumerating tie-break outcomes: equal weights must keep the
        # lowest-index marked tokens.
        mask = np.zeros(8, dtype=np.int8)
        mask[[1, 3, 4, 6, 7]] = 1
        out = enforce_coverage_cap(mask, np.ones(8), 0.25)
        assert out.tolist() == [0, 1, 0, 1, 0, 0, 0, 0]

    def test_keeps_top_weights(self):
        mask = np.ones(8, dtype=np.int8)
        weights = np.array([0.1, 0.9, 0.2, 0.8, 0.3, 0.7, 0.4, 0.6])
        out = enforce_coverage_cap(mask, weights, 0.25)
        assert out.tolist() == [0, 1, 0, 1, 0, 0, 0, 0]


class TestPartition:
    def test_key_spans_on_accept(self):
        mask = np.zeros(8, dtype=np.int8)
        mask[[2, 5]] = 1
        part = partition(8, mask, 1)
        assert part.key_idx == (2, 5)
        assert part.error_idx == ()
        assert len(part.nonspan_idx) == 6

    def test_error_spans_on_reject(self):
        mask = np.zeros(8, dtype=np.int8)
        mask[[2, 5]] = 1
        part = partition(8, mask, 0)
        assert part.error_idx == (2, 5)
        assert part.key_idx == ()

    def test_empty_mask_all_nonspan(self):
        part = partition(5, np.zeros(5, dtype=np.int8), 1)
        assert part.nonspan_idx == tuple(range(5))

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            partition(4, np.zeros(5, dtype=np.int8), 1)


class TestSchedule:
    CFG = RoutingConfig()

    def test_paper_constants(self):
        assert lambda_schedule(5, self.CFG) == 0.5
        assert lambda_schedule(25, self.CFG) == pytest.approx(0.25, abs=1e-15)
        assert lambda_schedule(100, self.CFG) == 0.0

    def test_non_increasing(self):
        lams = [lambda_schedule(k, self.CFG) for k in range(200)]
        assert all(a >= b for a, b in zip(lams, lams[1:]))

    def test_closed_form_sums_match_direct_summation(self):
        l1, l2 = schedule_weight_sums(self.CFG)
        d1, d2 = schedule_weight_sums(self.CFG, horizon=10_000)
        assert l1 == pytest.approx(d1, abs=1e-10)
        assert l2 == pytest.approx(d2, abs=1e-10)

    def test_rho_endpoints(self):
        assert rho(0.5, 0.5) == 0.0
        assert rho(0.0, 0.5) == 1.0
        assert rho(0.25, 0.5) == 0.5

    def test_rho_range_error(self):
        with pytest.raises(RangeError):
            rho(0.6, 0.5)


def _loss_inputs(rng, g=3, length=4, vocab=6, masked=(1,), outcomes=None, teacher_dist=None):
    items = []
    outcomes = outcomes or [1] * g
    for i in range(g):
        student = np.stack([rng.dirichlet(np.ones(vocab)) for _ in range(length)])
        mask = np.zeros(length, dtype=np.int8)
        mask[list(masked)] = 1
        part = partition(length, mask, outcomes[i])
        teacher = {t: (teacher_dist if teacher_dist is not None else rng.dirichlet(np.ones(vocab))) for t in part.span_idx}
        items.append(
            RolloutLossInput(
                student=student,
                log_ratio=np.zeros(length),
                sampled=rng.integers(0, vocab, size=length),
                part=part,
                teacher=teacher,
            )
        )
    return items


class TestRoutedStepLoss:
    CFG = RoutingConfig(tau=100.0, alpha=0.5, w0=0.5, t_start=10, t_decay=30)

    def test_total_decomposition_invariant(self):
        rng = np.random.default_rng(0)
        for outcome in (0, 1):
            for k in (0, 20, 100):
                items = _loss_inputs(rng, outcomes=[outcome] * 3)
                adv = group_advantages(np.array([1.0, 0.0, outcome]))
                cfg = RoutingConfig(tau=100.0, alpha=0.5, mu_e=1, mu_k=1)
                rep = routed_step_loss(items, adv, k, cfg)
                expected = (
                    rep.grpo_nonspan
                    + rep.rho * rep.grpo_span
                    + rep.lam * (cfg.mu_e * rep.kl_error_branch + cfg.mu_k * rep.kl_key_branch)
                )
                assert rep.total == pytest.approx(expected, abs=1e-10)

    def test_span_mean_form_coincides(self):
        rng = np.random.default_rng(1)
        items = _loss_inputs(rng, outcomes=[1, 0, 1])
        adv = group_advantages(np.array([1.0, 0.0, 1.0]))
        cfg = RoutingConfig(tau=100.0, alpha=0.5, mu_e=1, mu_k=1)
        rep = routed_step_loss(items, adv, 0, cfg)
        assert rep.kl_error_branch == pytest.approx(rep.kl_error_span_mean_form, abs=1e-12)
        assert rep.kl_key_branch == pytest.approx(rep.kl_key_span_mean_form, abs=1e-12)

    def test_post_decay_ignores_teacher(self):
        rng = np.random.default_rng(2)
        items = _loss_inputs(rng)
        for item in items:
            item.teacher = None  # must never be consulted at lambda = 0
        adv = group_advantages(np.array([1.0, 0.0, 1.0]))
        rep = routed_step_loss(items, adv, k=100, cfg=self.CFG)
        assert rep.lam == 0.0
        assert rep.kl_key_branch == 0.0

    def test_dead_zone_key_gradient(self):
        # All-correct group: GRPO silent, forward-KL alive on key spans only.
        rng = np.random.default_rng(3)
        teacher = rng.dirichlet(np.ones(6))
        items = _loss_inputs(rng, teacher_dist=teacher)
        adv = group_advantages(np.ones(3))
        rep = routed_step_loss(items, adv, 0, self.CFG)
        assert set(rep.per_token_logit_grads) == {(i, 1) for i in range(3)}
        for (i, t), grad in rep.per_token_logit_grads.items():
            assert np.abs(grad).max() > 0
            assert abs(grad.sum()) < 1e-10

    def test_student_equals_teacher_kills_kl(self):
        rng = np.random.default_rng(4)
        vocab = 6
        shared = rng.dirichlet(np.ones(vocab))
        items = []
        for outcome in (1, 0, 1):
            student = np.tile(shared, (4, 1))
            mask = np.zeros(4, dtype=np.int8)
            mask[1] = 1
            part = partition(4, mask, outcome)
            items.append(
                RolloutLossInput(
                    student=student,
                    log_ratio=np.zeros(4),
                    sampled=np.zeros(4, dtype=int),
                    part=part,
                    teacher={t: shared for t in part.span_idx},
                )
            )
        cfg = RoutingConfig(tau=100.0, alpha=0.5, mu_e=1, mu_k=1)
        rep = routed_step_loss(items, group_advantages(np.array([1.0, 0.0, 1.0])), 0, cfg)
        assert rep.kl_error_branch == pytest.approx(0.0, abs=1e-9)
        assert rep.kl_key_branch == pytest.approx(0.0, abs=1e-9)

    def test_advantage_multiplier(self):
        # An all-ones multiplier is the absent one, bit for bit, with the KL
        # channel open; a per-token scale on the positive-advantage
        # rollouts scales their GRPO gradients and leaves the others alone.
        rng = np.random.default_rng(5)
        items = _loss_inputs(rng, outcomes=[1, 0, 1])
        adv = group_advantages(np.array([1.0, 0.0, 1.0]))
        cfg = RoutingConfig(tau=100.0, alpha=0.5, mu_e=1, mu_k=1)
        ones = [replace(item, adv_scale=np.ones(4)) for item in items]
        for k in (5, 100):
            plain, scaled = routed_step_loss(items, adv, k, cfg), routed_step_loss(ones, adv, k, cfg)
            assert plain.total == scaled.total
            assert plain.per_token_logit_grads.keys() == scaled.per_token_logit_grads.keys()
            for key, grad in plain.per_token_logit_grads.items():
                np.testing.assert_array_equal(grad, scaled.per_token_logit_grads[key])

        # Powers of two keep the comparison exact.
        scale = np.array([2.0, 0.5, 4.0, 0.25])
        weighted = [
            replace(item, adv_scale=scale) if a > 0 else item for item, a in zip(items, adv)
        ]
        plain = routed_step_loss(items, adv, 100, cfg)
        rep = routed_step_loss(weighted, adv, 100, cfg)
        assert rep.per_token_logit_grads.keys() == plain.per_token_logit_grads.keys()
        for (i, t), grad in plain.per_token_logit_grads.items():
            factor = scale[t] if adv[i] > 0 else 1.0
            np.testing.assert_array_equal(rep.per_token_logit_grads[(i, t)], grad * factor)

        with pytest.raises(DimensionError):
            routed_step_loss([replace(items[0], adv_scale=np.ones(3))], adv[:1], 100, cfg)

    def test_action_endpoint_consistency(self):
        # (mu_e, mu_k) = (0, 0) with lambda > 0 equals the lambda = 0
        # output except for the rho scaling of span-token GRPO.
        rng = np.random.default_rng(6)
        items = _loss_inputs(rng, outcomes=[1, 0, 1])
        adv = group_advantages(np.array([1.0, 0.0, 1.0]))
        cfg_off = RoutingConfig(tau=100.0, alpha=0.5, mu_e=0, mu_k=0)
        rep_on = routed_step_loss(items, adv, 0, cfg_off)
        rep_post = routed_step_loss(items, adv, 100, cfg_off)
        assert rep_on.lam > 0 and rep_on.rho == 0.0
        assert rep_on.grpo_nonspan == pytest.approx(rep_post.grpo_nonspan, abs=1e-12)
        assert rep_on.grpo_span == pytest.approx(rep_post.grpo_span, abs=1e-12)
        assert rep_on.total == pytest.approx(rep_post.total - rep_post.rho * rep_post.grpo_span, abs=1e-12)

    def test_coverage_cap_enforced(self):
        rng = np.random.default_rng(7)
        items = _loss_inputs(rng, masked=(0, 1, 2), outcomes=[1, 1, 1])
        adv = np.zeros(3)
        with pytest.raises(InternalConsistencyError):
            routed_step_loss(items, adv, 0, RoutingConfig(tau=100.0, alpha=0.25))

    def test_zero_length_rollout_rejected(self):
        item = RolloutLossInput(
            student=np.zeros((0, 4)),
            log_ratio=np.zeros(0),
            sampled=np.zeros(0, dtype=int),
            part=partition(0, np.zeros(0, dtype=np.int8), 1),
            teacher=None,
        )
        with pytest.raises(DimensionError):
            routed_step_loss([item], np.zeros(1), 0, RoutingConfig())

    def test_gradients_match_branch_identities(self):
        # lambda-weighted branch gradients equal the closed-form KL
        # identities scaled by lam / (G * L).
        rng = np.random.default_rng(8)
        vocab = 6
        teacher = rng.dirichlet(np.ones(vocab))
        items = _loss_inputs(rng, g=1, teacher_dist=teacher, outcomes=[1])
        adv = np.zeros(1)
        cfg = RoutingConfig(tau=1e6, alpha=0.5, floor_p_min=0.0)
        rep = routed_step_loss(items, adv, 0, cfg)
        grad = rep.per_token_logit_grads[(0, 1)]
        expected = fkl_logit_grad(items[0].student[1], teacher) * cfg.w0 / 4.0
        np.testing.assert_allclose(grad, expected, atol=1e-10)

        items = _loss_inputs(rng, g=1, teacher_dist=teacher, outcomes=[0])
        cfg = RoutingConfig(tau=1e6, alpha=0.5, floor_p_min=0.0, mu_e=1, mu_k=0)
        rep = routed_step_loss(items, adv, 0, cfg)
        grad = rep.per_token_logit_grads[(0, 1)]
        expected = rkl_logit_grad(items[0].student[1], teacher) * cfg.w0 / 4.0
        np.testing.assert_allclose(grad, expected, atol=1e-10)


class TestSpanSchema:
    def test_round_trip(self):
        spans = [CharSpan(0, 3, "type_a"), CharSpan(5, 6, "type_b")]
        text = spans_to_json(spans, 1)
        back, outcome = spans_from_json(text)
        assert back == spans
        assert outcome == 1

    def test_cap_helper(self):
        assert coverage_cap(0.25, 100) == 25
        assert coverage_cap(0.25, 3) == 1
