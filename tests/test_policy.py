import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from routedkl.errors import InfeasibleFloorError, InvalidDistributionError, NonFiniteInputError
from routedkl.policy import (
    PolicyTable,
    cdf_rows,
    entropy,
    floor_fixed_point,
    masked_row_sum,
    region_sums,
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
    ReferenceTrie,
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

    def test_student_cache_reads_nodes_in_first_visit_order(self):
        table = PolicyTable(np.arange(3.0)[:, None] * np.arange(5.0), "p")  # depth d: d * arange
        root = table.node(())
        first = table.children(np.array([root, root, root]), np.array([2, 0, 2]))
        second = table.children(first, np.array([1, 1, 3]))
        assert first.tolist() == [1, 2, 1] and second.tolist() == [3, 4, 5]
        prefixes = [(), (2,), (0,), (2, 1), (0, 1), (2, 3)]
        assert list(table.rows) == [("p", p) for p in prefixes]
        for prefix, row in zip(prefixes, table.dists[: table.n], strict=True):
            assert row.tobytes() == table.student_dist(prefix).tobytes()


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


    def test_rows_of_every_count_in_a_stack(self, monkeypatch):
        # Counts 0 (an empty sum is 0.0), 1, 3 and 5 in one (2, 3, 5) stack,
        # with numpy.unique refused: the counts come from their bincount.
        values = np.random.default_rng(7).normal(size=(2, 3, 5)) * 1e3
        mask = np.zeros((2, 3, 5), dtype=bool)
        mask[0, 1, 2] = mask[0, 2, :3] = mask[1, 0] = mask[1, 2, ::2] = True
        monkeypatch.setattr(np, "unique", None)
        got = masked_row_sum(values, mask)
        assert got.shape == (2, 3) and got[0, 0] == got[1, 1] == 0.0
        for row, m, total in zip(values.reshape(6, 5), mask.reshape(6, 5), got.ravel()):
            assert np.float64(total).tobytes() == row[m].sum().tobytes()

    def test_rows_around_the_pairwise_threshold(self):
        # Rows of 7, 8 and 9 entries in one stack, with -0.0 entries and an
        # all -0.0 row: left to right below 8 entries, pairwise from 8.
        rng = np.random.default_rng(11)
        values = rng.normal(size=(8, 10)) * 10.0 ** rng.integers(-8, 8, (8, 10))
        values[rng.random((8, 10)) < 0.2] = -0.0
        values[1, :8], values[7] = [1.0] + [2.0**-53] * 7, -0.0
        mask = np.zeros((8, 10), dtype=bool)
        for row, count in enumerate((7, 8, 9, 7, 8, 9, 3, 7)):
            mask[row, rng.permutation(10)[:count] if row != 1 else slice(8)] = True
        got = masked_row_sum(values, mask)
        assert got[1] == 1.0 + 3 * 2.0**-52  # 1.0 added left to right
        for row, m, total in zip(values, mask, got):
            assert np.float64(total).tobytes() == row[m].sum().tobytes()


class TestRegionSums:
    @given(
        horizon=st.integers(1, 12),
        n_rows=st.integers(0, 8),
        inside=st.floats(0.0, 1.0),
        present=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_the_dense_sum_of_each_region(self, horizon, n_rows, inside, present, seed):
        # Sparse values, -0.0 among them, against the dense array's 1-d sums
        # of each row's two regions, across the pairwise threshold.
        rng = np.random.default_rng(seed)
        region = rng.random((n_rows, horizon)) < inside
        flat = np.flatnonzero(rng.random(n_rows * horizon) < present)
        values = rng.normal(size=flat.size) * 10.0 ** rng.integers(-8, 8, flat.size)
        values[rng.random(flat.size) < 0.1] = -0.0
        dense = np.zeros(n_rows * horizon)
        dense[flat] = values
        got = region_sums(region, flat, values)
        assert got.shape == (n_rows, 2)
        for row, m, (out, ins) in zip(dense.reshape(n_rows, horizon), region, got):
            assert np.float64(out).tobytes() == row[~m].sum().tobytes()
            assert np.float64(ins).tobytes() == row[m].sum().tobytes()


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
        return PolicyTable(np.zeros((4, vocab)), "p")

    def test_rows_materialize_lazily(self):
        table = self._table()
        assert list(table.rows) == [("p", ())]  # the root, node 0
        table.student_logits((1, 2))
        assert list(table.rows) == [("p", ()), ("p", (1,)), ("p", (1, 2))]

    def test_student_and_teacher_share_parameters(self):
        table = self._table()
        row = table.student_logits(())
        row += 1.5
        table.sync_teacher()
        teacher = table.teacher_logits(0)
        assert teacher.tobytes() == row.tobytes()
        teacher += 2.0  # a fresh copy: the synced row is untouched
        assert table.teacher_logits(0).tobytes() == row.tobytes()

    def test_teacher_is_stale_between_syncs(self):
        table = self._table()
        table.student_logits(())
        table.sync_teacher()
        table.rows[("p", ())] += 3.0
        teacher = table.teacher_logits(0)
        np.testing.assert_allclose(teacher, np.zeros(4), atol=1e-15)

    def test_teacher_lookup_counter(self):
        table = self._table()
        assert table.teacher_lookups == 0
        table.teacher_logits(0)
        assert table.teacher_lookups == 1

    def test_a_node_added_after_the_sync_reads_its_init_row(self):
        table = PolicyTable(np.arange(3.0)[:, None] * np.ones(4), "p")
        table.student_logits((1,))[:] = 5.0
        table.sync_teacher()
        deep = table.node((1, 2))
        table.student_logits((1, 2))[:] = 7.0
        assert table.teacher_logits(1).tolist() == [5.0] * 4
        assert table.teacher_logits(deep).tolist() == [2.0] * 4

    def test_apply_gradients_descends(self):
        table = self._table()
        table.apply_gradients(np.array([table.node(())]), np.array([[1.0, 0.0, 0.0, 0.0]]), 0.5)
        np.testing.assert_allclose(
            table.student_logits(()), [-0.5, 0.0, 0.0, 0.0], atol=1e-15
        )

    def test_row_view_is_valid_until_the_next_row_is_materialized(self):
        table = self._table()
        view = table.student_logits(())
        capacity = len(table.logits)
        for v in range(capacity):  # more rows than the array holds
            table.student_logits((v % 4, v // 4))
        assert len(table.logits) > capacity
        view += 1.0  # a stale view writes to the dead buffer
        assert table.rows["p", ()].tolist() == [0.0] * 4
        table.student_logits(())[0] += 1.0  # re-fetched
        assert table.rows["p", ()].tolist() == [1.0, 0.0, 0.0, 0.0]

    def test_rows_are_keyed_in_first_visit_order(self):
        # What perfbench reads: a (prompt, prefix) -> row mapping whose
        # length counts the nodes. The root comes first and a prefix's
        # missing ancestors are added before it.
        table = PolicyTable(np.arange(4.0)[:, None] * np.ones(3), "p")  # depth d: all d
        table.student_logits((2, 1))
        order = [(), (2,), (2, 1)]
        assert list(table.rows) == [("p", p) for p in order]
        table.student_logits(())
        # (2, 1) exists; (0,) and (2, 0) are new, in first-visit order.
        got = table.children(np.array([1, 0, 1, 0]), np.array([1, 0, 0, 0]))
        assert got.tolist() == [2, 3, 4, 3]
        table.teacher_logits(3)  # teacher lookups add no node
        table.student_logits((2, 1, 0))
        order += [(0,), (2, 0), (2, 1, 0)]
        assert list(table.rows) == [("p", p) for p in order] and table.n == len(order)
        for prefix in order:
            assert table.rows["p", prefix].tolist() == [float(len(prefix))] * 3
        with pytest.raises(KeyError):
            table.rows["p", (1,)]
        with pytest.raises(KeyError):
            table.node((3,))  # outside the vocabulary

    def test_init_rows_must_be_a_finite_matrix(self):
        with pytest.raises(InvalidDistributionError):
            PolicyTable(np.zeros(4), "p")
        with pytest.raises(NonFiniteInputError):  # the init distributions are computed at once
            PolicyTable(np.array([[0.0, 1.0], [0.0, np.inf]]), "p")
        table = PolicyTable(np.zeros((2, 3)), "p")
        with pytest.raises(IndexError):
            table.node((0, 1))  # no init row at depth 2
        assert table.n == 2  # the prefix's ancestor, not the prefix

    def test_copy_rows_do_not_follow_the_source(self):
        table = self._table()
        table.student_logits((1,))[:] = 2.0
        table.sync_teacher()
        dup = table.copy()
        rows = dup.rows
        table.student_logits((1,))[0] = 5.0
        table.student_logits((3,))
        table.apply_gradients(np.array([0]), np.ones((1, 4)), 1.0)
        assert list(rows) == [("p", ()), ("p", (1,))] and len(rows) == 2
        assert rows["p", ()].tolist() == [0.0] * 4
        assert rows["p", (1,)].tolist() == [2.0] * 4
        assert dup.teacher_logits(1).tolist() == [2.0] * 4

    @given(
        ops=st.lists(
            st.one_of(
                st.tuples(st.just("node"), st.lists(st.integers(0, 3), max_size=4)),
                st.tuples(
                    st.just("children"),
                    st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 3)), min_size=1, max_size=12),
                ),
            ),
            max_size=12,
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_columns_equal_the_reference_trie(self, ops, seed):
        init_rows = np.random.default_rng(seed).normal(size=(5, 4))
        table, ref = PolicyTable(init_rows, "p"), ReferenceTrie(init_rows, "p")
        for kind, arg in ops:
            if kind == "node":
                assert table.node(tuple(arg)) == ref.node("p", tuple(arg))
                continue
            open_nodes = np.flatnonzero(table.depth[: table.n] < len(init_rows) - 1)
            nodes = open_nodes[[i % len(open_nodes) for i, _ in arg]]
            tokens = np.array([v for _, v in arg])
            got = table.children(nodes, tokens)
            assert got.tolist() == ref.children(nodes.tolist(), tokens.tolist())
        n = table.n
        assert list(table.rows) == ref.keys and list(table.copy().rows) == ref.keys
        assert table.logits[:n].tobytes() == np.array(ref.logits).tobytes()
        for i, (_, prefix) in enumerate(ref.keys[1:], start=1):
            assert table.depth[i] == len(prefix) and table.token[i] == prefix[-1]
            assert table.parent[i] == ref.ids["p", prefix[:-1]]
            assert table.child[table.parent[i], table.token[i]] == i


class TestStudentDists:
    """The table's student distributions, ``PolicyTable.dists``."""

    @staticmethod
    def _fresh(table):
        return softmax(table.logits[: table.n])

    def test_new_nodes_take_their_depths_rows(self, monkeypatch):
        from routedkl import policy

        init_rows = np.random.default_rng(0).normal(size=(3, 5))
        table = PolicyTable(init_rows, "p")
        assert table.init_dists.tobytes() == softmax(init_rows).tobytes()
        assert table.init_cdfs.tobytes() == cdf_rows(softmax(init_rows)).tobytes()
        table.children(np.zeros(5, dtype=np.int64), np.arange(5))
        calls = []
        stack_softmax = policy.softmax
        monkeypatch.setattr(policy, "softmax", lambda z: calls.append(len(z)) or stack_softmax(z))
        table.children(np.arange(1, 6), np.arange(5))
        assert calls == []  # every new row is its depth's init row
        assert table.dists[: table.n].tobytes() == self._fresh(table).tobytes()

    def test_updated_and_refreshed_rows_get_their_own_softmax(self):
        init_rows = np.random.default_rng(1).normal(size=(3, 5))
        table = PolicyTable(init_rows, "p")
        table.children(np.zeros(5, dtype=np.int64), np.arange(5))
        table.apply_gradients(np.array([0, 3]), np.eye(5)[:2], 0.5)
        assert table.dists[: table.n].tobytes() == self._fresh(table).tobytes()
        assert table.dists[3].tobytes() != softmax(init_rows[1]).tobytes()
        # A row written in place through student_logits keeps its old
        # distribution until the writer refreshes it.
        table.student_logits((1, 4))[2] += 3.0
        stale = table.dists[6].copy()
        table.student_logits((1, 3))
        assert table.dists[6].tobytes() == stale.tobytes() == softmax(init_rows[2]).tobytes()
        table.refresh(np.array([6]))
        got = table.dists[: table.n]
        assert got.tobytes() == self._fresh(table).tobytes()
        assert got[6].tobytes() != got[7].tobytes() == softmax(init_rows[2]).tobytes()
