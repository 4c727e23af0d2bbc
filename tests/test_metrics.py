import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from routedkl.metrics import LiftSample, credit_concentration, delta_lift


def sample(before, after, supported=True):
    return LiftSample(0, 0, before, after, supported)


class TestDeltaLift:
    def test_identity_update(self):
        assert delta_lift([sample(-1.2, -1.2)]) == 0.0

    def test_single_sample_frozen_value(self):
        assert delta_lift([sample(-2.0, -1.855)]) == pytest.approx(0.145, abs=1e-12)

    def test_filter_then_average(self):
        # Brute-force oracle: mean of (after - before) over supported only.
        samples = [
            sample(-2.0, -1.0, True),
            sample(-3.0, -3.5, False),
            sample(-1.0, -0.5, True),
        ]
        qualifying = [(-1.0) - (-2.0), (-0.5) - (-1.0)]
        assert delta_lift(samples) == pytest.approx(np.mean(qualifying), abs=1e-12)

    def test_empty_filter_is_absent(self):
        assert delta_lift([sample(-1.0, 0.0, supported=False)]) is None
        assert delta_lift([]) is None


class TestCreditConcentration:
    def test_uniform_credit(self):
        credit = np.ones(10)
        mask = np.zeros(10, dtype=bool)
        mask[:3] = True
        assert credit_concentration(credit, mask) == pytest.approx(1.0, abs=1e-15)

    def test_arithmetic_fixture(self):
        credit = np.array([8.5, 8.5, 1.0, 1.0])
        mask = np.array([True, True, False, False])
        assert credit_concentration(credit, mask) == pytest.approx(8.5, abs=1e-12)

    def test_zero_outside_guarded(self):
        credit = np.array([1.0, 1.0, 0.0, 0.0])
        mask = np.array([True, True, False, False])
        assert credit_concentration(credit, mask) is None

    def test_empty_region_guarded(self):
        assert credit_concentration(np.ones(4), np.ones(4, dtype=bool)) is None

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=200)
    def test_own_top_mass_mask_at_least_one(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 20))
        credit = rng.random(n)
        k = int(rng.integers(1, n - 1))
        mask = np.zeros(n, dtype=bool)
        mask[np.argsort(-credit)[:k]] = True
        ratio = credit_concentration(credit, mask)
        if ratio is not None:
            assert ratio >= 1.0
