import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from routedkl.artifacts import LEDGER, NAMES
from routedkl.errors import InternalConsistencyError, RangeError
from routedkl.privileged import (
    ExposureLedger,
    context_variance,
    deviation_vector,
    expected_deviation_sq,
    exposure_accumulate,
    rlsd_weight,
)
from routedkl.routing import RoutingConfig, lambda_schedule

from oracles import reference_context_variance, reference_expected_deviation_sq

# Two equally likely contexts and their teacher rows at one position.
TWO_PROBS = np.array([0.5, 0.5])
TWO_DISTS = np.array([[0.8, 0.2], [0.6, 0.4]])


class TestPrivilegedVariance:
    def test_single_context_zero(self):
        assert context_variance(np.array([1.0]), np.array([[0.7, 0.3]])) == 0.0

    def test_two_context_frozen_value(self):
        # Per-entry population variance 0.01 each, summed over the vocabulary.
        assert context_variance(TWO_PROBS, TWO_DISTS) == pytest.approx(0.02, abs=1e-15)

    def test_identical_dists_zero(self):
        dists = np.array([[0.5, 0.5], [0.5, 0.5]])
        assert context_variance(np.array([0.3, 0.7]), dists) == 0.0

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=200)
    def test_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        m, v = int(rng.integers(1, 8)), int(rng.integers(2, 10))
        probs = rng.dirichlet(np.ones(m))
        dists = np.stack([rng.dirichlet(np.ones(v)) for _ in range(m)])
        assert context_variance(probs, dists) >= 0.0


class TestStackedLedgerTerms:
    """A stack of teacher matrices gets each matrix's one-matrix bytes."""

    @given(
        n_contexts=st.integers(1, 6),
        vocab=st.integers(2, 16),
        n_matrices=st.integers(1, 30),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_stack_equals_the_one_matrix_reference(self, n_contexts, vocab, n_matrices, seed):
        rng = np.random.default_rng(seed)
        probs = rng.dirichlet(np.ones(n_contexts))
        if abs(probs.sum() - 1.0) > 1e-9:
            return
        stack = rng.dirichlet(np.ones(vocab), size=(n_matrices, n_contexts))
        variance = context_variance(probs, stack)
        deviation = expected_deviation_sq(probs, stack)
        assert variance.shape == deviation.shape == (n_matrices,)
        for m, dists in enumerate(stack):
            want = reference_context_variance(probs, dists)
            assert np.float64(variance[m]).tobytes() == np.float64(want).tobytes()
            assert context_variance(probs, dists) == want
            want = reference_expected_deviation_sq(probs, dists)
            assert np.float64(deviation[m]).tobytes() == np.float64(want).tobytes()
            assert expected_deviation_sq(probs, dists) == want


class TestPrivilegedDeviation:
    def test_single_context_zero_vector(self):
        delta = deviation_vector(np.array([1.0]), np.array([[0.7, 0.3]]), 0, np.array([0.5, 0.5]))
        np.testing.assert_allclose(delta, 0.0, atol=1e-15)

    def test_zero_mean_over_contexts(self):
        student = np.array([0.5, 0.5])
        total = np.zeros(2)
        for c in range(2):
            total += TWO_PROBS[c] * deviation_vector(TWO_PROBS, TWO_DISTS, c, student)
        np.testing.assert_allclose(total, 0.0, atol=1e-12)

    def test_norm_squared_matches_enumeration(self):
        student = np.array([0.5, 0.5])
        delta = deviation_vector(TWO_PROBS, TWO_DISTS, 0, student)
        assert float((delta**2).sum()) == pytest.approx(0.02, abs=1e-12)

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=200)
    def test_zero_mean_random_context_sets(self, seed):
        rng = np.random.default_rng(seed)
        m, v = int(rng.integers(2, 9)), int(rng.integers(2, 10))
        probs = rng.dirichlet(np.ones(m))
        dists = np.stack([rng.dirichlet(np.ones(v)) for _ in range(m)])
        student = rng.dirichlet(np.ones(v))
        total = np.zeros(v)
        for c in range(m):
            total += probs[c] * deviation_vector(probs, dists, c, student)
        np.testing.assert_allclose(total, 0.0, atol=1e-12)

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=200)
    def test_second_moment_equals_variance(self, seed):
        # Tabular score rows collapse the deviation to the coefficient
        # vector, so E_c ||delta||^2 equals V_t exactly.
        rng = np.random.default_rng(seed)
        m, v = int(rng.integers(1, 8)), int(rng.integers(2, 12))
        probs = rng.dirichlet(np.ones(m))
        dists = np.stack([rng.dirichlet(np.ones(v)) for _ in range(m)])
        student = rng.dirichlet(np.ones(v))
        direct = sum(
            probs[c] * float((deviation_vector(probs, dists, c, student) ** 2).sum())
            for c in range(m)
        )
        assert direct == pytest.approx(context_variance(probs, dists), abs=1e-10)
        assert expected_deviation_sq(probs, dists) == pytest.approx(direct, abs=1e-10)


class TestExposureLedger:
    def test_zero_lambda_leaves_exposure(self):
        ledger = ExposureLedger()
        exposure_accumulate(ledger, 0, 0.0, 0.5, 0.5)
        assert ledger.exposure == 0.0

    def test_linear_growth_under_constant_weight(self):
        ledger = ExposureLedger()
        for k in range(100):
            exposure_accumulate(ledger, k, 0.5, 0.1, 0.1)
        assert ledger.exposure == pytest.approx(100 * 0.25 * 0.1, abs=1e-12)

    def test_schedule_freezes_exposure(self):
        cfg = RoutingConfig()
        ledger = ExposureLedger()
        for k in range(200):
            lam = lambda_schedule(k, cfg)
            exposure_accumulate(ledger, k, lam, 0.1, 0.1)
        frozen = next(r.exposure_lhs for r in ledger.records if r.k == 41)
        assert ledger.exposure == frozen

    def test_inequality_violation_aborts(self):
        ledger = ExposureLedger()
        with pytest.raises(InternalConsistencyError):
            exposure_accumulate(ledger, 0, 0.5, 0.1, 0.2)

    def test_csv_export_schema(self):
        ledger = ExposureLedger()
        exposure_accumulate(ledger, 0, 0.5, 0.1, 0.1)
        text = ledger.to_csv()
        header, row = text.strip().split("\n")
        assert header == ",".join(NAMES[LEDGER])
        assert row.startswith("0,0.5,0.1,")


class TestRlsdWeight:
    def test_raw_ratio(self):
        w = rlsd_weight(0.02, 0.5, 0.2)
        assert w.raw == pytest.approx(0.04, abs=1e-15)

    def test_clip_floor(self):
        w = rlsd_weight(0.02, 0.5, 0.2)
        assert w.clipped == pytest.approx(0.8, abs=1e-15)

    def test_equal_probs(self):
        w = rlsd_weight(0.3, 0.3, 0.2)
        assert w.raw == 1.0 and w.clipped == 1.0

    def test_zero_student_rejected(self):
        with pytest.raises(RangeError):
            rlsd_weight(0.1, 0.0, 0.2)
        with pytest.raises(RangeError):
            rlsd_weight(np.array([0.1, 0.2]), np.array([0.5, 0.0]), 0.2)

    def test_arrays_match_scalars(self):
        teacher, student = np.array([0.02, 0.3, 0.5, 0.9]), np.array([0.5, 0.3, 0.45, 0.2])
        w = rlsd_weight(teacher, student, 0.2)
        for i in range(teacher.size):
            raw = float(teacher[i]) / float(student[i])
            assert (w.raw[i], w.clipped[i]) == (raw, min(max(raw, 0.8), 1.2))

    def test_damping_bound_on_grid(self):
        # Whenever teacher <= delta and student >= p0 the raw weight is at
        # most delta / p0; the clipped weight never falls below 1 - eps.
        for delta in np.linspace(0.001, 0.2, 8):
            for p0 in np.linspace(0.2, 0.95, 8):
                for teacher in np.linspace(0.0005, delta, 5):
                    for student in np.linspace(p0, 0.99, 5):
                        w = rlsd_weight(teacher, student, 0.2)
                        assert w.raw <= delta / p0 + 1e-12
                        assert w.clipped >= 0.8 - 1e-15
