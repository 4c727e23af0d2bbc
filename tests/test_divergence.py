import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from routedkl.divergence import (
    _clipped_kl,
    clip_per_vocab_kl,
    fkl_clipped_value_and_grad,
    fkl_logit_grad,
    kl,
    rkl_clipped_value_and_grad,
    rkl_logit_grad,
)
from routedkl.errors import (
    DimensionError,
    InvalidDistributionError,
    RoutedKlError,
    UndefinedDivergenceError,
)
from routedkl.policy import softmax

from oracles import (
    fd_kl_logit_grad,
    reference_fkl_clipped_value_and_grad,
    reference_rkl_clipped_value_and_grad,
    reference_truncate_and_floor,
)

STUDENT = np.array([0.9, 0.1])
TEACHER = np.array([0.5, 0.5])


def random_pair(rng, v):
    """Dirichlet pair, floored away from zero so log ratios stay finite."""
    p = rng.dirichlet(np.ones(v)) + 1e-4
    q = rng.dirichlet(np.ones(v)) + 1e-4
    return p / p.sum(), q / q.sum()


class TestKlValue:
    def test_zero_iff_equal(self):
        p = np.array([0.3, 0.7])
        assert kl(p, p) == 0.0

    def test_frozen_value(self):
        # Direct summation cross-checked against an independent evaluation.
        assert kl(STUDENT, TEACHER) == pytest.approx(0.36806420716849714, abs=1e-12)

    def test_support_violation(self):
        with pytest.raises(UndefinedDivergenceError):
            kl(np.array([0.5, 0.5]), np.array([1.0, 0.0]))

    @given(st.integers(min_value=2, max_value=16), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=300)
    def test_gibbs_nonnegativity(self, v, seed):
        rng = np.random.default_rng(seed)
        p, q = random_pair(rng, v)
        assert kl(p, q) >= 0.0


class TestLogitGradients:
    def test_fkl_frozen_value(self):
        np.testing.assert_allclose(fkl_logit_grad(STUDENT, TEACHER), [0.4, -0.4], atol=1e-12)

    def test_rkl_frozen_value(self):
        np.testing.assert_allclose(
            rkl_logit_grad(STUDENT, TEACHER), [0.19775021196025975, -0.19775021196025975], atol=1e-9
        )

    def test_identical_distributions_zero(self):
        p = np.array([0.25, 0.25, 0.5])
        np.testing.assert_allclose(fkl_logit_grad(p, p), 0.0, atol=1e-15)
        np.testing.assert_allclose(rkl_logit_grad(p, p), 0.0, atol=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            fkl_logit_grad(np.array([0.5, 0.5]), np.array([0.3, 0.3, 0.4]))

    def test_one_row_routines_reject_a_stack(self):
        # Only the clipped KLs and their terms take (N, V) stacks.
        stack = np.array([[0.9, 0.1], [0.5, 0.5]])
        for fn in (kl, fkl_logit_grad, rkl_logit_grad):
            with pytest.raises(InvalidDistributionError):
                fn(stack, stack)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            v = int(rng.integers(2, 24))
            logits = rng.normal(size=v)
            student = softmax(logits)
            teacher = rng.dirichlet(np.ones(v)) + 1e-3
            teacher /= teacher.sum()
            for forward, grad_fn in ((True, fkl_logit_grad), (False, rkl_logit_grad)):
                fd = fd_kl_logit_grad(logits, teacher, forward)
                analytic = grad_fn(student, teacher)
                scale = max(1.0, np.abs(fd).max())
                assert np.abs(analytic - fd).max() / scale < 1e-5

    @given(st.integers(min_value=2, max_value=64), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=400)
    def test_zero_sum(self, v, seed):
        rng = np.random.default_rng(seed)
        p, q = random_pair(rng, v)
        assert abs(fkl_logit_grad(p, q).sum()) < 1e-10
        assert abs(rkl_logit_grad(p, q).sum()) < 1e-10


class TestRegimeAsymmetries:
    def test_under_allocation_fkl_dominates(self):
        # Student mass at most eps * teacher mass: the forward entry stays
        # Theta(teacher) while the reverse entry vanishes with the student.
        rng = np.random.default_rng(1)
        for _ in range(200):
            v = int(rng.integers(3, 16))
            q = rng.dirichlet(np.ones(v))
            q = np.maximum(q, 0.05)
            q /= q.sum()
            eps = rng.uniform(1e-4, 0.01)
            p = q.copy()
            p[0] = eps * q[0]
            p /= p.sum()
            r = np.log(p) - np.log(q)
            if abs(float((p * r).sum())) > 5:
                continue
            fkl_entry = abs(fkl_logit_grad(p, q)[0])
            rkl_entry = abs(rkl_logit_grad(p, q)[0])
            assert fkl_entry >= 10 * rkl_entry

    def test_confident_wrong_rkl_grows_with_gap(self):
        # Hold the student fixed and shrink the teacher mass on one token:
        # reverse-KL down-pressure grows with the log gap, forward-KL
        # depends only on the probability difference.
        p = np.array([0.7, 0.2, 0.1])
        rkl_entries, fkl_entries = [], []
        for q0 in (0.05, 0.01, 0.002, 0.0004):
            q = np.array([q0, 0.5 * (1 - q0), 0.5 * (1 - q0)])
            rkl_entries.append(rkl_logit_grad(p, q)[0])
            fkl_entries.append(fkl_logit_grad(p, q)[0])
        assert all(b > a for a, b in zip(rkl_entries, rkl_entries[1:]))
        fkl_diffs = np.diff(fkl_entries)
        assert np.all(np.abs(fkl_diffs - fkl_diffs[0]) < 0.06)
        assert np.all(np.asarray(fkl_entries) == p[0] - np.array([0.05, 0.01, 0.002, 0.0004]))

    def test_rkl_descent_lowers_high_ratio_logit(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            v = int(rng.integers(2, 10))
            logits = rng.normal(size=v)
            p = softmax(logits)
            q = rng.dirichlet(np.ones(v)) + 1e-3
            q /= q.sum()
            r = np.log(p) - np.log(q)
            grad = rkl_logit_grad(p, q)
            for tok in range(v):
                if r[tok] > float((p * r).sum()):
                    assert (logits - 0.1 * grad)[tok] < logits[tok]

    def test_fkl_descent_lowers_over_allocated_logit(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            v = int(rng.integers(2, 10))
            logits = rng.normal(size=v)
            p = softmax(logits)
            q = rng.dirichlet(np.ones(v))
            grad = fkl_logit_grad(p, q)
            for tok in range(v):
                if p[tok] > q[tok]:
                    assert (logits - 0.1 * grad)[tok] < logits[tok]


class TestClipping:
    def test_within_band_unchanged(self):
        terms = np.array([0.01, -0.04, 0.05])
        np.testing.assert_allclose(clip_per_vocab_kl(terms, 0.05), terms, atol=1e-15)

    def test_clamps_both_sides(self):
        np.testing.assert_allclose(
            clip_per_vocab_kl(np.array([0.30, -0.30]), 0.05), [0.05, -0.05], atol=1e-15
        )

    def test_clipped_values_sum_matches_terms(self):
        rng = np.random.default_rng(4)
        p, q = random_pair(rng, 8)
        val, _ = fkl_clipped_value_and_grad(p, q, tau=0.05)
        assert val == pytest.approx(clip_per_vocab_kl(q * np.log(q / p), 0.05).sum(), abs=1e-12)
        val, _ = rkl_clipped_value_and_grad(p, q, tau=0.05)
        assert val == pytest.approx(clip_per_vocab_kl(p * np.log(p / q), 0.05).sum(), abs=1e-12)

    def test_unclipped_gradients_reduce_to_identities(self):
        rng = np.random.default_rng(5)
        p, q = random_pair(rng, 8)
        _, g = fkl_clipped_value_and_grad(p, q, tau=1e9)
        np.testing.assert_allclose(g, fkl_logit_grad(p, q), atol=1e-12)
        _, g = rkl_clipped_value_and_grad(p, q, tau=1e9)
        np.testing.assert_allclose(g, rkl_logit_grad(p, q), atol=1e-12)

    def test_clipped_entries_carry_no_gradient(self):
        # One hugely divergent entry saturates; its direct term leaves the
        # gradient, which then matches finite differences of the clipped sum.
        p = np.array([0.02, 0.49, 0.49])
        q = np.array([0.9, 0.05, 0.05])
        tau = 0.05
        _, grad = fkl_clipped_value_and_grad(p, q, tau)

        def clipped_total(logits):
            s = softmax(logits)
            terms = np.clip(q * np.log(q / s), -tau, tau)
            return terms.sum()

        logits = np.log(p)
        h = 1e-6
        fd = np.zeros(3)
        for v in range(3):
            up, down = logits.copy(), logits.copy()
            up[v] += h
            down[v] -= h
            fd[v] = (clipped_total(up) - clipped_total(down)) / (2 * h)
        np.testing.assert_allclose(grad, fd, atol=1e-5)


@st.composite
def floored_pairs(draw):
    """(N, V) student and teacher rows floored by the reference, a tau from
    1e-3 to 10 and the floor used; at p_min = 0 some entries are exact
    zeros, and a teacher near the student makes single terms clip on
    either side."""
    vocab = draw(st.integers(2, 20))
    n_rows = draw(st.integers(1, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p_min = draw(st.sampled_from([0.0, 1e-6, 1e-3]))
    student = rng.dirichlet(np.full(vocab, draw(st.sampled_from([0.1, 1.0, 5.0]))), size=n_rows)
    if draw(st.booleans()):
        teacher = student * np.exp(rng.normal(0.0, 0.3, student.shape)) + 1e-3
    else:
        teacher = rng.dirichlet(np.ones(vocab), size=n_rows)
    if p_min == 0.0:
        for rows in (student, teacher):
            rows[rng.random(rows.shape) < draw(st.sampled_from([0.0, 0.1, 0.3]))] = 0.0
            rows[np.arange(n_rows), rng.integers(0, vocab, n_rows)] += 0.1
    student /= student.sum(axis=1, keepdims=True)
    teacher /= teacher.sum(axis=1, keepdims=True)
    floor = [[reference_truncate_and_floor(row, vocab, p_min) for row in rows] for rows in (student, teacher)]
    tau = 10.0 ** draw(st.floats(-3.0, 1.0))
    return np.array(floor[0]), np.array(floor[1]), tau


def _result_or_error(fn, *args):
    try:
        return fn(*args)
    except RoutedKlError as exc:
        return type(exc)


class TestClippedKlMatchesReference:
    """Stacked and one-row clipped KL against the moved one-row reference,
    byte for byte, in both directions."""

    PAIRS = (
        (fkl_clipped_value_and_grad, reference_fkl_clipped_value_and_grad),
        (rkl_clipped_value_and_grad, reference_rkl_clipped_value_and_grad),
    )

    @given(floored_pairs())
    @settings(max_examples=300, deadline=None)
    def test_rows_equal_the_reference(self, pair):
        student, teacher, tau = pair
        for kl_fn, reference in self.PAIRS:
            want = [_result_or_error(reference, p, q, tau) for p, q in zip(student, teacher)]
            errors = [w for w in want if isinstance(w, type)]
            if errors:
                with pytest.raises(errors[0]):
                    kl_fn(student, teacher, tau)
            else:
                values, grads = kl_fn(student, teacher, tau)
                for (value, grad), got_value, got_grad in zip(want, values, grads):
                    assert got_value.tobytes() == np.float64(value).tobytes()
                    assert got_grad.tobytes() == grad.tobytes()
            for p, q, w in zip(student, teacher, want):
                got = _result_or_error(kl_fn, p, q, tau)
                if isinstance(w, type):
                    assert got is w
                else:
                    assert type(got[0]) is float
                    assert np.float64(got[0]).tobytes() == np.float64(w[0]).tobytes()
                    assert got[1].tobytes() == w[1].tobytes()

    @given(floored_pairs(), st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_mixed_direction_stack_equals_the_reference(self, pair, seed):
        # One core call for a stack of forward and reverse rows; rows the
        # reference rejects (zero entries under reverse KL) are left out,
        # as the kernel checks its rows before the core.
        student, teacher, tau = pair
        reverse = np.random.default_rng(seed).random(len(student)) < 0.5
        want = [
            _result_or_error(
                reference_rkl_clipped_value_and_grad if rev else reference_fkl_clipped_value_and_grad,
                p, q, tau,
            )
            for p, q, rev in zip(student, teacher, reverse)
        ]
        keep = np.array([not isinstance(w, type) for w in want])
        values, grads = _clipped_kl(student[keep], teacher[keep], reverse[keep, None], tau)
        assert values.shape == (keep.sum(),) and grads.shape == (keep.sum(), student.shape[1])
        for (value, grad), got_value, got_grad in zip([w for w in want if not isinstance(w, type)], values, grads):
            assert got_value.tobytes() == np.float64(value).tobytes()
            assert got_grad.tobytes() == grad.tobytes()

    def test_zero_entries_take_no_log_of_zero(self):
        # Zero teacher entries leave forward KL defined; reverse KL is not.
        p = np.array([[0.5, 0.5, 0.0], [0.2, 0.3, 0.5]])
        q = np.array([[0.4, 0.6, 0.0], [0.3, 0.3, 0.4]])
        values, _ = fkl_clipped_value_and_grad(p, q, 10.0)
        assert np.isfinite(values).all()
        with pytest.raises(UndefinedDivergenceError):
            rkl_clipped_value_and_grad(p, q, 10.0)
