import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from routedkl.divergence import fkl_logit_grad, rkl_logit_grad
from routedkl.errors import (
    DimensionError,
    InvalidDistributionError,
    NonFiniteInputError,
    RangeError,
    RoutedKlError,
    UndefinedDivergenceError,
)
from routedkl.grpo import group_advantages
from routedkl.policy import softmax
from routedkl.routing import (
    RoutingConfig,
    _floored_kl_rows,
    coverage_cap,
    lambda_schedule,
    rho,
    routed_loss_rows,
    schedule_weight_sums,
)

from oracles import (
    CharSpan,
    SpanAlignmentError,
    enforce_coverage_cap,
    interval_intersection_mask,
    project_spans_to_mask,
    reference_fkl_clipped_value_and_grad,
    reference_rkl_clipped_value_and_grad,
    reference_routed_loss_rows,
    reference_truncate_and_floor,
)

ATOMIC = [(t, t + 1) for t in range(8)]


class TestSpanProjection:
    """The character-span projection behind ``oracles.reference_annotate``."""

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
    """The weighted cap behind ``oracles.reference_annotate``; with unit
    weights it is the runner's ``cumsum`` cap."""

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
    """The outcome routes a rollout's span positions: key spans (forward
    KL) on an accepted rollout, error spans (reverse KL) on a failed one."""

    CFG = RoutingConfig(tau=100.0, alpha=0.25)

    def _spans_at(self, outcome):
        group = _group(np.random.default_rng(11), g=1, length=8, masked=(2, 5), outcomes=[outcome])
        return _run_kernel(group, np.zeros(1), 0, self.CFG, BOTH)

    def test_key_spans_on_accept(self):
        rep, grads = self._spans_at(1)
        assert rep.kl_key_branch > 0 and rep.kl_error_branch == 0.0
        assert set(grads) == {(0, 2), (0, 5)}

    def test_error_spans_on_reject(self):
        rep, grads = self._spans_at(0)
        assert rep.kl_error_branch > 0 and rep.kl_key_branch == 0.0
        assert set(grads) == {(0, 2), (0, 5)}

    def test_empty_mask_all_nonspan(self):
        group = _group(np.random.default_rng(12), g=1, length=5, masked=())
        rep, grads = _run_kernel(group, np.ones(1), 0, self.CFG)
        assert rep.grpo_span == 0.0 and rep.kl_key_branch == 0.0
        assert rep.grpo_nonspan == pytest.approx(-1.0, abs=1e-12)  # ratio 1, advantage 1
        assert set(grads) == {(0, t) for t in range(5)}

    def test_length_mismatch(self):
        inputs = _kernel_inputs(_group(np.random.default_rng(13), g=1, length=4), np.zeros(1), 0.0, self.CFG)
        inputs["in_span"] = np.zeros((1, 5), dtype=bool)
        with pytest.raises(DimensionError):
            routed_loss_rows(**inputs)


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


# Whether the KL reaches (the error spans of a failed rollout, the key
# spans of an accepted one): the routed_both and routed_fkl_key entries
# of ``runner.KL_BRANCHES``.
BOTH, KEY = (True, True), (False, True)


def _group(rng, g=3, length=4, vocab=6, masked=(1,), outcomes=None, teacher_row=None):
    """Kernel inputs of a toy group marked at ``masked`` in every rollout.

    ``span_teacher`` (G, T, V) holds a teacher row at every span position;
    ``_kernel_inputs`` passes the rows of the ``kl_on`` rollouts.
    """
    outcomes = np.array(outcomes or [1] * g)
    student = np.empty((g, length, vocab))
    span_teacher = np.zeros((g, length, vocab))
    sampled = np.empty((g, length), dtype=np.int64)
    in_span = np.zeros((g, length), dtype=bool)
    in_span[:, list(masked)] = True
    for i in range(g):
        student[i] = [rng.dirichlet(np.ones(vocab)) for _ in range(length)]
        for t in masked:
            span_teacher[i, t] = teacher_row if teacher_row is not None else rng.dirichlet(np.ones(vocab))
        sampled[i] = rng.integers(0, vocab, size=length)
    return dict(
        student=student,
        sampled=sampled,
        in_span=in_span,
        failed=outcomes == 0,
        span_teacher=span_teacher,
    )


def _kernel_inputs(group, advantages, lam, cfg, branches=KEY):
    """``routed_loss_rows`` arguments of a ``_group`` whose KL reaches
    ``branches``, with the teacher rows of the ``kl_on`` rollouts."""
    inputs = dict(group)
    span_teacher = inputs.pop("span_teacher")
    kl_on = np.where(inputs["failed"], *branches)
    teacher = span_teacher[inputs["in_span"] & ((lam > 0.0) & kl_on)[:, None]]
    return dict(inputs, kl_on=kl_on, teacher=teacher, advantages=advantages, lam=lam, cfg=cfg)


def _run_kernel(group, advantages, k, cfg, branches=KEY, **kwargs):
    """``routed_loss_rows`` at step k; the gradients keyed by (rollout, position)."""
    inputs = _kernel_inputs(group, advantages, lambda_schedule(k, cfg), cfg, branches)
    rep, idx, grads = routed_loss_rows(**inputs, **kwargs)
    length = group["student"].shape[1]
    return rep, {divmod(i, length): grad for i, grad in zip(idx.tolist(), grads)}


class TestRoutedStepLoss:
    CFG = RoutingConfig(tau=100.0, alpha=0.5, w0=0.5, t_start=10, t_decay=30)

    def test_total_decomposition_invariant(self):
        rng = np.random.default_rng(0)
        for outcome in (0, 1):
            for k in (0, 20, 100):
                group = _group(rng, outcomes=[outcome] * 3)
                adv = group_advantages(np.array([1.0, 0.0, outcome]))
                rep, _ = _run_kernel(group, adv, k, self.CFG, BOTH)
                expected = (
                    rep.grpo_nonspan
                    + rep.rho * rep.grpo_span
                    + rep.lam * (rep.kl_error_branch + rep.kl_key_branch)
                )
                assert rep.total == pytest.approx(expected, abs=1e-10)

    def test_post_decay_ignores_teacher(self):
        # lambda = 0 takes no teacher rows at all; any row is one too many.
        rng = np.random.default_rng(2)
        group = _group(rng)
        adv = group_advantages(np.array([1.0, 0.0, 1.0]))
        rep, _ = _run_kernel(group, adv, k=100, cfg=self.CFG)
        assert rep.lam == 0.0
        assert rep.kl_key_branch == 0.0
        inputs = _kernel_inputs(group, adv, 0.0, self.CFG)
        inputs["teacher"] = group["span_teacher"][:, 1]
        with pytest.raises(DimensionError):
            routed_loss_rows(**inputs)

    def test_dead_zone_key_gradient(self):
        # All-correct group: GRPO silent, forward-KL alive on key spans only.
        rng = np.random.default_rng(3)
        teacher = rng.dirichlet(np.ones(6))
        group = _group(rng, teacher_row=teacher)
        adv = group_advantages(np.ones(3))
        _, grads = _run_kernel(group, adv, 0, self.CFG)
        assert set(grads) == {(i, 1) for i in range(3)}
        for (i, t), grad in grads.items():
            assert np.abs(grad).max() > 0
            assert abs(grad.sum()) < 1e-10

    def test_student_equals_teacher_kills_kl(self):
        rng = np.random.default_rng(4)
        shared = rng.dirichlet(np.ones(6))
        group = _group(rng, outcomes=[1, 0, 1], teacher_row=shared)
        group["student"][:] = shared
        group["sampled"][:] = 0
        rep, _ = _run_kernel(group, group_advantages(np.array([1.0, 0.0, 1.0])), 0, self.CFG, BOTH)
        assert rep.kl_error_branch == pytest.approx(0.0, abs=1e-9)
        assert rep.kl_key_branch == pytest.approx(0.0, abs=1e-9)

    def test_advantage_multiplier(self):
        # An all-ones multiplier is the absent one, bit for bit, with the KL
        # channel open; a per-token scale on the positive-advantage
        # rollouts scales their GRPO gradients and leaves the others alone.
        rng = np.random.default_rng(5)
        group = _group(rng, outcomes=[1, 0, 1])
        adv = group_advantages(np.array([1.0, 0.0, 1.0]))
        cfg = self.CFG
        for k in (5, 100):
            plain = _run_kernel(group, adv, k, cfg, BOTH)
            scaled = _run_kernel(group, adv, k, cfg, BOTH, adv_scale=np.ones((3, 4)))
            assert plain[0].total == scaled[0].total
            assert plain[1].keys() == scaled[1].keys()
            for key, grad in plain[1].items():
                np.testing.assert_array_equal(grad, scaled[1][key])

        # Powers of two keep the comparison exact.
        scale = np.array([2.0, 0.5, 4.0, 0.25])
        weighted = np.where(adv[:, None] > 0, scale, 1.0)
        _, plain = _run_kernel(group, adv, 100, cfg, BOTH)
        _, grads = _run_kernel(group, adv, 100, cfg, BOTH, adv_scale=weighted)
        assert grads.keys() == plain.keys()
        for (i, t), grad in plain.items():
            factor = scale[t] if adv[i] > 0 else 1.0
            np.testing.assert_array_equal(grads[(i, t)], grad * factor)

        with pytest.raises(DimensionError):
            _run_kernel(group, adv, 100, cfg, BOTH, adv_scale=np.ones((3, 3)))

    def test_action_endpoint_consistency(self):
        # No rollout's KL on with lambda > 0 equals the lambda = 0 output
        # except for the rho scaling of span-token GRPO.
        rng = np.random.default_rng(6)
        group = _group(rng, outcomes=[1, 0, 1])
        adv = group_advantages(np.array([1.0, 0.0, 1.0]))
        rep_on, _ = _run_kernel(group, adv, 0, self.CFG, (False, False))
        rep_post, _ = _run_kernel(group, adv, 100, self.CFG, (False, False))
        assert rep_on.lam > 0 and rep_on.rho == 0.0
        assert rep_on.grpo_nonspan == pytest.approx(rep_post.grpo_nonspan, abs=1e-12)
        assert rep_on.grpo_span == pytest.approx(rep_post.grpo_span, abs=1e-12)
        assert rep_on.total == pytest.approx(rep_post.total - rep_post.rho * rep_post.grpo_span, abs=1e-12)

    def test_zero_length_rollout_rejected(self):
        with pytest.raises(DimensionError):
            routed_loss_rows(
                student=np.zeros((1, 0, 4)),
                sampled=np.zeros((1, 0), dtype=int),
                in_span=np.zeros((1, 0), dtype=bool),
                failed=np.zeros(1, dtype=bool),
                kl_on=np.zeros(1, dtype=bool),
                teacher=np.zeros((0, 4)),
                advantages=np.zeros(1),
                lam=0.0,
                cfg=RoutingConfig(),
            )

    def test_teacher_and_advantage_counts_checked(self):
        rng = np.random.default_rng(14)
        group = _group(rng, outcomes=[1, 0, 1])
        cfg = RoutingConfig(tau=100.0, alpha=0.5)  # key spans only: two teacher rows
        inputs = _kernel_inputs(group, np.zeros(3), cfg.w0, cfg)
        routed_loss_rows(**inputs)
        span_teacher = group["span_teacher"]
        for teacher in (span_teacher[:, 1], span_teacher[:1, 1], span_teacher[:2, 1, :5]):
            with pytest.raises(DimensionError):
                routed_loss_rows(**dict(inputs, teacher=teacher))
        for name in ("advantages", "kl_on"):
            with pytest.raises(DimensionError, match=name):
                routed_loss_rows(**dict(inputs, **{name: inputs[name][:2]}))

    def test_gradients_match_branch_identities(self):
        # lambda-weighted branch gradients equal the closed-form KL
        # identities scaled by lam / (G * L).
        rng = np.random.default_rng(8)
        vocab = 6
        teacher = rng.dirichlet(np.ones(vocab))
        group = _group(rng, g=1, teacher_row=teacher, outcomes=[1])
        adv = np.zeros(1)
        cfg = RoutingConfig(tau=1e6, alpha=0.5, floor_p_min=0.0)
        _, grads = _run_kernel(group, adv, 0, cfg)
        expected = fkl_logit_grad(group["student"][0, 1], teacher) * cfg.w0 / 4.0
        np.testing.assert_allclose(grads[(0, 1)], expected, atol=1e-10)

        group = _group(rng, g=1, teacher_row=teacher, outcomes=[0])
        _, grads = _run_kernel(group, adv, 0, cfg, (True, False))
        expected = rkl_logit_grad(group["student"][0, 1], teacher) * cfg.w0 / 4.0
        np.testing.assert_allclose(grads[(0, 1)], expected, atol=1e-10)


@st.composite
def loss_groups(draw):
    """Kernel inputs of a random group covering every floor and clip case:
    pinned floors (p_min near 1/V, or peaked student and teacher rows at
    the production floor 1e-6, the lift config's pin pattern), clipped
    terms (tau = 1e-3, or a teacher near the student so that single terms
    clip on either side), zero student entries, and both KL directions.
    ``kl_on`` is drawn per rollout apart from its outcome, so every
    combination of outcome and branch occurs."""
    vocab = draw(st.sampled_from([4, 6, 8, 9]))
    g = draw(st.integers(1, 4))
    length = draw(st.integers(1, 5))
    outcomes = draw(st.lists(st.integers(0, 1), min_size=g, max_size=g))
    kl_on = draw(st.lists(st.booleans(), min_size=g, max_size=g))
    scaled = draw(st.lists(st.booleans(), min_size=g, max_size=g))
    alpha = draw(st.sampled_from([0.25, 0.5, 1.0]))
    floor = draw(st.sampled_from(["plain", "pin", "zero", "peaked"]))
    p_min = {"plain": 1e-6, "pin": 0.9 / vocab, "zero": 0.0, "peaked": 1e-6}[floor]
    logit_scale = draw(st.sampled_from([10.0, 30.0, 50.0]))
    cfg = RoutingConfig(
        alpha=alpha,
        tau=draw(st.sampled_from([1e-3, 0.02, 0.05, 10.0])),
        floor_p_min=p_min,
    )
    lam = draw(st.sampled_from([0.0, cfg.w0, 0.3 * cfg.w0]))
    concentration = draw(st.sampled_from([0.1, 1.0, 5.0]))
    near = draw(st.booleans())  # teacher = student with noisy logits
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    student = np.empty((g, length, vocab))
    sampled = np.empty((g, length), dtype=np.int64)
    in_span = np.zeros((g, length), dtype=bool)
    adv_scale = np.ones((g, length))
    teacher = []
    for i, scale in enumerate(scaled):
        if floor == "peaked":
            logits = rng.normal(0.0, logit_scale, (length, vocab))
            student[i] = softmax(logits)
        else:
            student[i] = rng.dirichlet(np.full(vocab, concentration), size=length)
        if floor == "zero" and rng.random() < 0.5:
            student[i, rng.integers(length), rng.integers(vocab)] = 0.0
            student[i] /= student[i].sum(axis=1, keepdims=True)
        n_span = rng.integers(0, coverage_cap(alpha, length) + 1)
        in_span[i, rng.choice(length, size=n_span, replace=False)] = True
        sampled[i] = rng.integers(0, vocab, size=length)
        active = lam > 0.0 and kl_on[i]
        for t in np.flatnonzero(in_span[i]):
            if floor == "peaked":  # a synced teacher: the student's logits plus an offset
                row = softmax(logits[t] + rng.normal(0.0, 1.0, vocab))
            else:
                row = _teacher_row(rng, student[i, t], near)
            if active:
                teacher.append(row)
        if scale:
            adv_scale[i] = rng.uniform(0.8, 1.2, length)
    rewards = np.asarray(outcomes, dtype=float)
    return dict(
        student=student,
        sampled=sampled,
        in_span=in_span,
        failed=rewards == 0.0,
        kl_on=np.array(kl_on),
        teacher=np.array(teacher).reshape(-1, vocab),
        advantages=group_advantages(rewards) if g > 1 else rng.normal(size=1),
        lam=lam,
        cfg=cfg,
        adv_scale=adv_scale if any(scaled) else None,
    )


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
    """The array-form loss against the per-token reference loop at log
    ratio 0: a run's GRPO term is on-policy."""

    CFG_KEY = RoutingConfig(tau=100.0, alpha=0.5)
    BRANCHES = ("total", "grpo_nonspan", "grpo_span", "kl_error_branch", "kl_key_branch")

    def _compare(self, inputs, **clip):
        ref, ref_err = _report_or_error(reference_routed_loss_rows, **inputs, **clip)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got, got_err = _report_or_error(routed_loss_rows, **inputs)
        assert got_err == ref_err
        if ref is None:
            return
        (ref_report, ref_grads), (report, idx, grads) = ref, got
        length = inputs["student"].shape[1]
        assert [divmod(i, length) for i in idx.tolist()] == list(ref_grads)
        for grad, (key, want) in zip(grads, ref_grads.items()):
            assert grad.tobytes() == want.tobytes(), key
        got_fields = np.array([getattr(report, name) for name in (*self.BRANCHES, "lam", "rho")])
        want_fields = np.array([getattr(ref_report, name) for name in (*self.BRANCHES, "lam", "rho")])
        assert got_fields.tobytes() == want_fields.tobytes()

    @given(loss_groups())
    @settings(max_examples=300, deadline=None)
    def test_matches_reference(self, inputs):
        self._compare(inputs)

    def _compare_closed(self, inputs):
        """``_compare``, and the KL fields are the +0.0 of an empty sum."""
        self._compare(inputs)
        report, idx, grads = routed_loss_rows(**inputs)
        for name in self.BRANCHES[3:]:
            value = getattr(report, name)
            assert value == 0.0 and np.copysign(1.0, value) == 1.0, name
        return idx, grads

    def test_closed_channel_dead_zone_has_no_gradient_rows(self):
        group = _group(np.random.default_rng(11), vocab=5, masked=(), outcomes=[1, 1, 1])
        adv = group_advantages(np.array([1.0, 1.0, 1.0]))
        idx, grads = self._compare_closed(_kernel_inputs(group, adv, 0.0, self.CFG_KEY))
        assert idx.shape == (0,) and grads.shape == (0, 5)

    def test_closed_channel_live_group(self):
        group = _group(np.random.default_rng(12), vocab=5, masked=(), outcomes=[1, 0, 1])
        adv = group_advantages(np.array([1.0, 0.0, 1.0]))
        idx, grads = self._compare_closed(_kernel_inputs(group, adv, 0.0, self.CFG_KEY))
        assert idx.size == 12 and grads.shape == (12, 5)

    def test_open_channel_with_spans_only_on_the_inactive_branch(self):
        # KL on key spans only: the error spans of the two failed rollouts
        # carry no KL, only their rho-scaled GRPO term.
        group = _group(np.random.default_rng(13), vocab=5, outcomes=[1, 0, 0])
        group["in_span"][0] = False
        adv = group_advantages(np.array([1.0, 0.0, 0.0]))
        inputs = _kernel_inputs(group, adv, 0.5 * self.CFG_KEY.w0, self.CFG_KEY)
        assert inputs["teacher"].shape == (0, 5)
        idx, grads = self._compare_closed(inputs)
        assert idx.size == 12 and grads.shape == (12, 5)

    @given(loss_groups(), st.sampled_from([(0.2, 0.28), (0.1, 0.1), (0.05, 0.5), (0.9, 10.0)]))
    @settings(max_examples=60, deadline=None)
    def test_clip_bounds_change_nothing_at_ratio_one(self, inputs, eps):
        # The clipped surrogate at ratio 1 is -A for any bounds, so the
        # kernel, which takes no bounds, equals the reference under each.
        eps_low, eps_high = eps
        self._compare(inputs, eps_low=eps_low, eps_high=eps_high)

    @pytest.mark.parametrize("row", [[0.5, 0.5, 0.5, 0.5], [np.nan, 0.5, 0.25, 0.25]])
    def test_off_simplex_student_row_raises_like_reference(self, row):
        group = _group(np.random.default_rng(9), vocab=4, outcomes=[1, 0, 1])
        group["student"][2, 1] = row  # a key-span row on the active branch
        adv = group_advantages(np.array([1.0, 0.0, 1.0]))
        inputs = _kernel_inputs(group, adv, self.CFG_KEY.w0, self.CFG_KEY)
        _, ref_err = _report_or_error(reference_routed_loss_rows, **inputs)
        assert ref_err in (InvalidDistributionError, NonFiniteInputError)
        with pytest.raises(ref_err):
            routed_loss_rows(**inputs)

    def test_underflowed_rows_emit_no_warning(self):
        # A policy pushed to exact zeros (a huge step) pins the floor on
        # every KL row; the array form must route them without log(0).
        group = _group(np.random.default_rng(10), vocab=6, outcomes=[1, 0, 1])
        group["student"][:] = np.eye(6)[np.arange(4) % 6]
        group["span_teacher"][:, 1] = np.eye(6)[1]
        adv = group_advantages(np.array([1.0, 0.0, 1.0]))
        cfg = RoutingConfig(tau=10.0, alpha=0.5)
        self._compare(_kernel_inputs(group, adv, cfg.w0, cfg, BOTH))


@st.composite
def kl_row_stacks(draw):
    """Unfloored (M, V) student and teacher stacks with mixed directions
    and a config: the clip binds (tau = 1e-3), the floor pins (p_min near
    1/V, or peaked rows at the production floor 1e-6), or p_min = 0 with
    exact zeros in the teacher rows of forward-KL rows."""
    vocab = draw(st.integers(2, 12))
    m = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    case = draw(st.sampled_from(["plain", "clip", "pin", "peaked", "zero"]))
    p_min = {"pin": 0.9 / vocab, "zero": 0.0}.get(case, 1e-6)
    tau = 1e-3 if case == "clip" else 10.0 ** draw(st.floats(-2.0, 1.0))
    reverse = rng.random(m) < 0.5
    if case == "peaked":
        student = softmax(rng.normal(0.0, 30.0, (m, vocab)))
        teacher = softmax(np.log(student + 1e-300) + rng.normal(0.0, 1.0, (m, vocab)))
    else:
        student = rng.dirichlet(np.full(vocab, draw(st.sampled_from([0.3, 1.0, 5.0]))), size=m)
        teacher = np.array([_teacher_row(rng, row, draw(st.booleans())) for row in student])
    if case == "zero":
        zeros = (rng.random((m, vocab)) < 0.3) & ~reverse[:, None]
        zeros[np.arange(m), teacher.argmax(axis=1)] = False
        teacher[zeros] = 0.0
        teacher /= teacher.sum(axis=1, keepdims=True)
    return student, teacher, reverse, RoutingConfig(tau=tau, floor_p_min=p_min)


def _reference_kl_rows(student, teacher, reverse, cfg):
    """Each row through the one-row reference floor and clipped KL; the
    (value, grad) pairs, or the first row's error."""
    vocab, out = student.shape[1], []
    for p, q, rev in zip(student, teacher, reverse):
        try:
            p_f, q_f = (reference_truncate_and_floor(row, vocab, cfg.floor_p_min) for row in (p, q))
            kl = reference_rkl_clipped_value_and_grad if rev else reference_fkl_clipped_value_and_grad
            out.append(kl(p_f, q_f, cfg.tau))
        except RoutedKlError as exc:
            return exc
    return out


class TestFlooredKlRows:
    """The kernel's one-pass floored KL of a mixed-direction stack against
    the one-row reference floor and clipped KLs, byte for byte."""

    @staticmethod
    def _run(student, teacher, reverse, cfg):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                return _floored_kl_rows(student, teacher, reverse, cfg)
            except RoutedKlError as exc:
                return exc

    @given(kl_row_stacks())
    @settings(max_examples=300, deadline=None)
    def test_rows_equal_the_reference(self, stack):
        want = _reference_kl_rows(*stack)
        got = self._run(*stack)
        if isinstance(want, RoutedKlError):
            assert type(got) is type(want)
            return
        values, grads = got
        assert len(values) == len(want)
        for (value, grad), got_value, got_grad in zip(want, values, grads):
            assert got_value.tobytes() == np.float64(value).tobytes()
            assert got_grad.tobytes() == grad.tobytes()

    @given(kl_row_stacks(), st.integers(0, 2**32 - 1),
           st.sampled_from(["scaled", "negative", "nan", "inf", "inf-inf", "undefined"]))
    @settings(max_examples=200, deadline=None)
    def test_one_bad_row_raises_the_reference_error(self, stack, seed, fault):
        student, teacher, reverse, cfg = stack
        rng = np.random.default_rng(seed)
        j, v = int(rng.integers(len(student))), int(rng.integers(student.shape[1]))
        row = (student if rng.random() < 0.5 else teacher)[j]
        if fault == "scaled":
            row *= 1.5
        elif fault == "negative":
            row[v] = -0.1 - row[v]
            row[(v + 1) % len(row)] += 1.0 - row.sum()
        elif fault == "nan":
            row[v] = np.nan
        elif fault == "inf":
            row[v] = np.inf
        elif fault == "inf-inf":
            row[v], row[(v + 1) % len(row)] = np.inf, -np.inf
        else:  # a zero student entry: undefined in both directions without a floor
            cfg = RoutingConfig(tau=cfg.tau, floor_p_min=0.0)
            student[j, v] = 0.0
            student[j] /= student[j].sum()
            teacher[j, v] = max(teacher[j, v], 0.5)
            teacher[j] /= teacher[j].sum()
        want = _reference_kl_rows(student, teacher, reverse, cfg)
        assert isinstance(want, RoutedKlError)
        if fault == "undefined":
            assert isinstance(want, UndefinedDivergenceError)
        got = self._run(student, teacher, reverse, cfg)
        assert type(got) is type(want)
        assert str(got).startswith(str(want))


class TestSpanSchema:
    def test_cap_helper(self):
        assert coverage_cap(0.25, 100) == 25
        assert coverage_cap(0.25, 3) == 1
