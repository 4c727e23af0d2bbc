import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from routedkl.errors import InfeasibleFloorError, NonFiniteInputError
from routedkl.policy import (
    PolicyTable,
    entropy,
    softmax,
    truncate_and_floor,
)

from oracles import brute_force_floor_fixed_point


def logits_arrays(min_size=2, max_size=16):
    return st.lists(
        st.floats(min_value=-20, max_value=20), min_size=min_size, max_size=max_size
    ).map(np.array)


class TestSoftmax:
    def test_uniform_from_equal_logits(self):
        np.testing.assert_allclose(softmax(np.zeros(4)), 0.25, atol=1e-15)

    def test_two_token_analytic(self):
        np.testing.assert_allclose(
            softmax(np.array([np.log(2.0), 0.0])), [2 / 3, 1 / 3], atol=1e-15
        )

    @given(logits_arrays(), st.floats(min_value=-50, max_value=50))
    @settings(max_examples=200)
    def test_shift_invariance(self, logits, c):
        np.testing.assert_allclose(softmax(logits + c), softmax(logits), atol=1e-12)

    def test_rejects_non_finite(self):
        with pytest.raises(NonFiniteInputError):
            softmax(np.array([0.0, np.inf]))
        with pytest.raises(NonFiniteInputError):
            softmax(np.array([0.0, np.nan]))

    @given(logits_arrays())
    @settings(max_examples=200)
    def test_sums_to_one(self, logits):
        assert abs(softmax(logits).sum() - 1.0) < 1e-12


class TestEntropy:
    def test_uniform(self):
        assert entropy(np.full(4, 0.25)) == pytest.approx(np.log(4), abs=1e-12)

    def test_point_mass(self):
        assert entropy(np.array([1.0, 0.0, 0.0])) == 0.0

    def test_two_point_value(self):
        # Frozen from direct high-precision summation.
        assert entropy(np.array([0.9, 0.1])) == pytest.approx(0.32508297339144845, abs=1e-12)

    @given(logits_arrays(min_size=3, max_size=8))
    @settings(max_examples=150)
    def test_equal_logits_maximize(self, logits):
        p = softmax(logits)
        assert entropy(p) <= np.log(p.size) + 1e-12


class TestTruncateAndFloor:
    def test_identity_when_above_floor(self):
        p = np.full(4, 0.25)
        np.testing.assert_allclose(truncate_and_floor(p, 4, 0.01), p, atol=1e-15)

    def test_identity_configuration(self):
        p = np.array([0.6, 0.3, 0.1])
        np.testing.assert_allclose(truncate_and_floor(p, 3, 0.0), p, atol=1e-15)

    def test_three_token_fixed_point(self):
        # Oracle: literal truncate -> floor -> renormalize iteration; the
        # fixed point puts the small survivor exactly at the floor.
        p = np.array([0.97, 0.02, 0.01])
        out = truncate_and_floor(p, 2, 0.05)
        np.testing.assert_allclose(out, [0.95, 0.05, 0.0], atol=1e-12)
        oracle = brute_force_floor_fixed_point(p, 2, 0.05)
        np.testing.assert_allclose(out, oracle, atol=1e-9)

    def test_infeasible_floor_rejected(self):
        with pytest.raises(InfeasibleFloorError):
            truncate_and_floor(np.full(4, 0.25), 4, 0.3)

    @given(
        logits_arrays(min_size=3, max_size=12),
        st.integers(min_value=1, max_value=12),
        st.floats(min_value=0.0, max_value=0.2),
    )
    @settings(max_examples=300)
    def test_floor_postconditions(self, logits, top_k, p_min):
        p = softmax(logits)
        top_k = min(top_k, p.size)
        if p_min * top_k >= 1.0:
            return
        out = truncate_and_floor(p, top_k, p_min)
        assert abs(out.sum() - 1.0) < 1e-9
        support = out > 0
        assert support.sum() <= top_k
        if p_min > 0:
            assert out[support].min() >= p_min - 1e-12


class TestPolicyTable:
    @staticmethod
    def _table(vocab=4):
        return PolicyTable(vocab=vocab, init_logits=lambda prompt, prefix: np.zeros(vocab))

    def test_rows_materialize_lazily(self):
        table = self._table()
        assert not table.rows
        table.student_logits("p", (1, 2))
        assert ("p", (1, 2)) in table.rows

    def test_student_and_teacher_share_parameters(self):
        table = self._table()
        row = table.student_logits("p", ())
        row += 1.5
        table.sync_teacher()
        offset = np.array([2.0, 0.0, 0.0, 0.0])
        teacher = table.teacher_logits("p", (), offset)
        np.testing.assert_allclose(teacher, row + offset, atol=1e-15)

    def test_teacher_is_stale_between_syncs(self):
        table = self._table()
        table.student_logits("p", ())
        table.sync_teacher()
        table.rows[("p", ())] += 3.0
        teacher = table.teacher_logits("p", ())
        np.testing.assert_allclose(teacher, np.zeros(4), atol=1e-15)

    def test_teacher_lookup_counter(self):
        table = self._table()
        assert table.teacher_lookups == 0
        table.teacher_dist("p", ())
        assert table.teacher_lookups == 1

    def test_apply_gradients_descends(self):
        table = self._table()
        table.apply_gradients({("p", ()): np.array([1.0, 0.0, 0.0, 0.0])}, 0.5)
        np.testing.assert_allclose(
            table.student_logits("p", ()), [-0.5, 0.0, 0.0, 0.0], atol=1e-15
        )
