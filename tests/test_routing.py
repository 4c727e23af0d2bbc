import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from routedkl.divergence import fkl_logit_grad, rkl_logit_grad
from routedkl.errors import (
    DimensionError,
    InternalConsistencyError,
    InvalidDistributionError,
    NonFiniteInputError,
    RangeError,
    RoutedKlError,
    SpanAlignmentError,
)
from routedkl.grpo import ClipConfig, group_advantages
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

from oracles import interval_intersection_mask, reference_routed_step_loss

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


@st.composite
def loss_groups(draw):
    """A random group and loss config covering every array-form fallback:
    pinned floors (p_min near 1/V), clipped terms (tau = 1e-3, or a teacher
    near the student so that single terms clip on either side), zero
    student entries, and both KL directions."""
    vocab = draw(st.sampled_from([4, 6, 8, 9]))
    g = draw(st.integers(1, 4))
    lengths = draw(st.lists(st.integers(1, 5), min_size=g, max_size=g))
    outcomes = draw(st.lists(st.integers(0, 1), min_size=g, max_size=g))
    scaled = draw(st.lists(st.booleans(), min_size=g, max_size=g))
    alpha = draw(st.sampled_from([0.25, 0.5, 1.0]))
    floor = draw(st.sampled_from(["plain", "pin", "zero"]))
    p_min = {"plain": 1e-6, "pin": 0.9 / vocab, "zero": 0.0}[floor]
    cfg = RoutingConfig(
        mu_e=draw(st.integers(0, 1)),
        mu_k=draw(st.integers(0, 1)),
        alpha=alpha,
        tau=draw(st.sampled_from([1e-3, 0.02, 0.05, 10.0])),
        floor_p_min=p_min,
    )
    lam = draw(st.sampled_from([0.0, cfg.w0, 0.3 * cfg.w0]))
    concentration = draw(st.sampled_from([0.1, 1.0, 5.0]))
    near = draw(st.booleans())  # teacher = student with noisy logits
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    items = []
    for length, outcome, scale in zip(lengths, outcomes, scaled):
        student = rng.dirichlet(np.full(vocab, concentration), size=length)
        if floor == "zero" and rng.random() < 0.5:
            student[rng.integers(length), rng.integers(vocab)] = 0.0
            student /= student.sum(axis=1, keepdims=True)
        n_span = rng.integers(0, coverage_cap(alpha, length) + 1)
        mask = np.zeros(length, dtype=np.int8)
        mask[rng.choice(length, size=n_span, replace=False)] = 1
        part = partition(length, mask, outcome)
        log_ratio = np.where(rng.random(length) < 0.3, 0.0, rng.normal(0.0, 0.3, length))
        items.append(
            RolloutLossInput(
                student=student,
                log_ratio=log_ratio,
                sampled=rng.integers(0, vocab, size=length),
                part=part,
                teacher={t: _teacher_row(rng, student[t], near) for t in part.span_idx},
                adv_scale=rng.uniform(0.8, 1.2, length) if scale else None,
            )
        )
    rewards = np.asarray(outcomes, dtype=float)
    advantages = group_advantages(rewards) if g > 1 else rng.normal(size=1)
    return items, advantages, cfg, lam


def _teacher_row(rng, student_row, near):
    if not near:
        return rng.dirichlet(np.ones(len(student_row)))
    q = (student_row + 1e-3) * np.exp(rng.normal(0.0, 0.3, len(student_row)))
    return q / q.sum()


def _report_or_error(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs), None
    except RoutedKlError as exc:
        return None, type(exc)


class TestBatchMatchesReference:
    """The array-form loss against the per-token reference loop."""

    CLIP = ClipConfig(eps_low=0.2, eps_high=0.28)
    CFG_KEY = RoutingConfig(tau=100.0, alpha=0.5)
    BRANCHES = (
        "total", "grpo_nonspan", "grpo_span", "kl_error_branch", "kl_key_branch",
        "kl_error_span_mean_form", "kl_key_span_mean_form",
    )

    def _compare(self, items, advantages, cfg, lam):
        ref, ref_err = _report_or_error(
            reference_routed_step_loss, items, advantages, 0, cfg, self.CLIP, lam_override=lam
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got, got_err = _report_or_error(
                routed_step_loss, items, advantages, 0, cfg, self.CLIP, lam_override=lam
            )
        assert got_err == ref_err
        if ref is None:
            return
        assert list(got.per_token_logit_grads) == list(ref.per_token_logit_grads)
        for key, grad in ref.per_token_logit_grads.items():
            assert got.per_token_logit_grads[key].tobytes() == grad.tobytes(), key
        for name in self.BRANCHES:
            assert getattr(got, name) == pytest.approx(getattr(ref, name), rel=1e-12, abs=1e-300)
        assert (got.lam, got.rho) == (ref.lam, ref.rho)

    @given(loss_groups())
    @settings(max_examples=300, deadline=None)
    def test_matches_reference(self, group):
        self._compare(*group)

    @given(loss_groups(), st.sampled_from([np.nan, np.inf, -np.inf]))
    @settings(max_examples=40, deadline=None)
    def test_non_finite_log_ratio_raises_like_reference(self, group, bad):
        items, advantages, cfg, lam = group
        # One fault per group: which of two errors comes first is not pinned.
        assume(_report_or_error(routed_step_loss, *group[:2], 0, cfg, lam_override=lam)[1] is None)
        items[-1].log_ratio[-1] = bad
        with pytest.raises(NonFiniteInputError):
            routed_step_loss(items, advantages, 0, cfg, self.CLIP, lam_override=lam)
        self._compare(items, advantages, cfg, lam)

    @pytest.mark.parametrize("row", [[0.5, 0.5, 0.5, 0.5], [np.nan, 0.5, 0.25, 0.25]])
    def test_off_simplex_student_row_raises_like_reference(self, row):
        items = _loss_inputs(np.random.default_rng(9), vocab=4, outcomes=[1, 0, 1])
        items[2].student[1] = row  # a key-span row on the active branch
        adv = group_advantages(np.array([1.0, 0.0, 1.0]))
        _, ref_err = _report_or_error(reference_routed_step_loss, items, adv, 0, self.CFG_KEY)
        assert ref_err in (InvalidDistributionError, NonFiniteInputError)
        with pytest.raises(ref_err):
            routed_step_loss(items, adv, 0, self.CFG_KEY)

    def test_underflowed_rows_emit_no_warning(self):
        # A policy pushed to exact zeros (a huge step) pins the floor on
        # every KL row; the array form must route them without log(0).
        items = _loss_inputs(np.random.default_rng(10), vocab=6, outcomes=[1, 0, 1])
        for item in items:
            item.student[:] = np.eye(6)[np.arange(4) % 6]
            item.teacher = {t: np.eye(6)[t % 6] for t in item.teacher}
        adv = group_advantages(np.array([1.0, 0.0, 1.0]))
        cfg = RoutingConfig(tau=10.0, alpha=0.5, mu_e=1, mu_k=1)
        self._compare(items, adv, cfg, cfg.w0)


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
