import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from routedkl.errors import InfeasibleFloorError, InvalidDistributionError, NonFiniteInputError
from routedkl.policy import (
    PolicyTable,
    entropy,
    floor_fixed_point,
    masked_row_sum,
    softmax,
    truncate_and_floor,
    validate_distribution,
    validate_rows,
)

from oracles import (
    brute_force_floor_fixed_point,
    reference_entropy,
    reference_softmax,
    reference_truncate_and_floor,
)


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


class TestBatchedSoftmax:
    """A stack of rows against the one-row reference, byte for byte."""

    @given(
        vocab=st.integers(2, 20),
        n_rows=st.integers(1, 30),
        scale=st.sampled_from([1e-3, 1.0, 10.0, 100.0, 1e3]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_rows_equal_the_one_row_reference(self, vocab, n_rows, scale, seed):
        logits = np.random.default_rng(seed).normal(0.0, scale, (n_rows, vocab))
        batched = softmax(logits)
        for row, got in zip(logits, batched):
            want = reference_softmax(row)
            assert got.tobytes() == want.tobytes()
            assert softmax(row).tobytes() == want.tobytes()

    def test_stack_rejects_non_finite(self):
        with pytest.raises(NonFiniteInputError):
            softmax(np.array([[0.0, 1.0], [0.0, np.inf]]))

    def test_student_dists_materialize_in_order(self):
        table = PolicyTable(vocab=5, init_logits=lambda _, prefix: np.arange(5.0) * len(prefix))
        prefixes = [(2,), (), (0, 1)]
        got = table.student_dists("p", prefixes)
        assert list(table.rows) == [("p", p) for p in prefixes]
        for prefix, row in zip(prefixes, got):
            assert row.tobytes() == table.student_dist("p", prefix).tobytes()


class TestEntropy:
    def test_uniform(self):
        assert entropy(np.full(4, 0.25)) == pytest.approx(np.log(4), abs=1e-12)

    def test_point_mass(self):
        assert entropy(np.array([1.0, 0.0, 0.0])) == 0.0

    def test_two_point_value(self):
        # Frozen from direct high-precision summation.
        assert entropy(np.array([0.9, 0.1])) == pytest.approx(0.32508297339144845, abs=1e-12)

    @given(
        vocab=st.integers(2, 20),
        n_rows=st.integers(1, 12),
        zero_frac=st.sampled_from([0.0, 0.3, 0.8]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_stack_rows_equal_the_one_row_reference(self, vocab, n_rows, zero_frac, seed):
        # Rows with exact zeros sum over their nonzero entries only.
        rng = np.random.default_rng(seed)
        rows = rng.dirichlet(np.ones(vocab), size=n_rows)
        rows[rng.random(rows.shape) < zero_frac] = 0.0
        rows[np.arange(n_rows), rng.integers(0, vocab, n_rows)] += 0.5
        rows /= rows.sum(axis=1, keepdims=True)
        got = entropy(rows)
        for row, ent in zip(rows, got):
            want = reference_entropy(row)
            assert ent.tobytes() == np.float64(want).tobytes()
            assert np.float64(entropy(row)).tobytes() == np.float64(want).tobytes()

    @given(logits_arrays(min_size=3, max_size=8))
    @settings(max_examples=150)
    def test_equal_logits_maximize(self, logits):
        p = softmax(logits)
        assert entropy(p) <= np.log(p.size) + 1e-12


@st.composite
def floor_stacks(draw):
    """(N, V) rows on the simplex: Dirichlet rows, rows of tied entries, and
    peaked softmax rows (logit scale up to 50) whose small entries pin."""
    vocab = draw(st.integers(2, 20))
    n_rows = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["dirichlet", "tied", "peaked"]))
    if kind == "dirichlet":
        rows = rng.dirichlet(np.full(vocab, draw(st.sampled_from([0.1, 1.0, 5.0]))), size=n_rows)
    elif kind == "tied":
        rows = rng.integers(1, 4, size=(n_rows, vocab)).astype(float)
        rows /= rows.sum(axis=1, keepdims=True)
    else:
        scale = draw(st.floats(1.0, 50.0))
        rows = softmax(rng.normal(0.0, scale, (n_rows, vocab)))
    return rows


def floor_levels(top_k):
    """p_min from 0 up to just below 1/top_k, the production 1e-6 included."""
    return st.one_of(
        st.sampled_from([0.0, 1e-6]),
        st.floats(0.0, 0.999).map(lambda frac: frac / top_k),
        st.floats(0.999, 1.0, exclude_max=True).map(lambda frac: frac / top_k),
    ).filter(lambda p_min: p_min * top_k < 1.0)


class TestFloorMatchesReference:
    """The stacked floor and the one-row call against the moved reference,
    byte for byte."""

    @given(rows=floor_stacks(), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_stack_rows_equal_the_one_row_reference(self, rows, data):
        p_min = data.draw(floor_levels(rows.shape[1]))
        got = floor_fixed_point(rows / rows.sum(axis=1, keepdims=True), p_min)
        for row, floored in zip(rows, got):
            want = reference_truncate_and_floor(row, row.size, p_min)
            assert floored.tobytes() == want.tobytes()
            assert truncate_and_floor(row, row.size, p_min).tobytes() == want.tobytes()

    @given(rows=floor_stacks(), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_top_k_truncation_equals_the_reference(self, rows, data):
        row = rows[0]
        top_k = data.draw(st.integers(1, row.size))
        p_min = data.draw(floor_levels(top_k))
        want = reference_truncate_and_floor(row, top_k, p_min)
        assert truncate_and_floor(row, top_k, p_min).tobytes() == want.tobytes()

    def test_infeasible_floor_raises_in_the_stack(self):
        with pytest.raises(InfeasibleFloorError):
            floor_fixed_point(np.full((3, 4), 0.25), 0.25)

    def test_pinned_and_free_rows_in_one_stack(self):
        rows = np.array([[0.25, 0.25, 0.25, 0.25], [1.0 - 3e-9, 1e-9, 1e-9, 1e-9]])
        got = floor_fixed_point(rows, 1e-6)
        np.testing.assert_array_equal(got[1, 1:], 1e-6)
        for row, floored in zip(rows, got):
            assert floored.tobytes() == reference_truncate_and_floor(row, 4, 1e-6).tobytes()


class TestMaskedRowSum:
    @given(
        vocab=st.integers(1, 20),
        n_rows=st.integers(0, 12),
        live=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_the_compacted_sum_of_each_row(self, vocab, n_rows, live, seed):
        rng = np.random.default_rng(seed)
        values = rng.normal(0.0, 1.0, (n_rows, vocab)) * 10.0 ** rng.integers(-8, 8, (n_rows, vocab))
        mask = rng.random((n_rows, vocab)) < live
        got = masked_row_sum(values, mask)
        assert got.shape == (n_rows,)
        for row, m, total in zip(values, mask, got):
            assert np.float64(total).tobytes() == row[m].sum().tobytes()


class TestStackValidation:
    def test_first_failing_row_sets_the_error(self):
        rows = np.full((3, 2), 0.5)
        rows[1] = [0.5, 0.6]
        rows[2] = [np.nan, 1.0]
        with pytest.raises(InvalidDistributionError):
            validate_rows(rows)
        rows[1] = [0.5, 0.5]
        with pytest.raises(NonFiniteInputError):
            validate_rows(rows)

    def test_mixed_infinities_raise_without_a_warning(self):
        with pytest.raises(NonFiniteInputError):
            validate_rows(np.array([[0.5, 0.5], [np.inf, -np.inf]]))

    def test_rows_of_one_entry_are_rejected(self):
        with pytest.raises(InvalidDistributionError):
            validate_rows(np.ones((3, 1)))

    def test_one_distribution_checks_one_vector(self):
        with pytest.raises(InvalidDistributionError):
            validate_distribution(np.full((2, 2), 0.5))
        with pytest.raises(InvalidDistributionError):
            truncate_and_floor(np.full((2, 2), 0.5), 2, 0.0)


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
