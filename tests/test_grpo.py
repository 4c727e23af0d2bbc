import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from routedkl.errors import NonFiniteInputError, RangeError
from routedkl.grpo import ClipConfig, group_advantages, grpo_token_loss, grpo_token_losses

from oracles import reference_grpo_token_loss


class TestGroupAdvantages:
    def test_all_correct_dead_zone(self):
        np.testing.assert_array_equal(group_advantages(np.ones(4)), np.zeros(4))

    def test_all_wrong_dead_zone(self):
        np.testing.assert_array_equal(group_advantages(np.zeros(4)), np.zeros(4))

    def test_two_rollout_split(self):
        # Population standard deviation gives the exact (1, -1) pair.
        np.testing.assert_allclose(group_advantages(np.array([1.0, 0.0])), [1.0, -1.0], atol=1e-15)

    @given(st.lists(st.integers(min_value=0, max_value=1), min_size=2, max_size=32))
    @settings(max_examples=300)
    def test_standardization(self, rewards):
        adv = group_advantages(np.array(rewards, dtype=float))
        if np.std(rewards) == 0:
            assert np.all(adv == 0.0)
        else:
            assert abs(adv.mean()) < 1e-12
            assert abs(adv.var() - 1.0) < 1e-10

    def test_group_too_small(self):
        with pytest.raises(RangeError):
            group_advantages(np.array([1.0]))


class TestGrpoTokenLoss:
    def test_on_policy_unclipped(self):
        loss, factor = grpo_token_loss(0.0, 1.0)
        assert loss == -1.0
        assert factor == -1.0

    def test_high_ratio_positive_advantage_clipped(self):
        # rho = 1.5 with eps_high = 0.28: the clamp branch wins, gradient dies.
        loss, factor = grpo_token_loss(np.log(1.5), 1.0)
        assert loss == pytest.approx(-1.28, abs=1e-12)
        assert factor == 0.0

    def test_dead_zone_token(self):
        loss, factor = grpo_token_loss(0.37, 0.0)
        assert loss == 0.0
        assert factor == 0.0

    def test_low_ratio_positive_advantage_flows(self):
        loss, factor = grpo_token_loss(np.log(0.5), 1.0)
        assert loss == pytest.approx(-0.5, abs=1e-12)
        assert factor == pytest.approx(-0.5, abs=1e-12)

    def test_low_ratio_negative_advantage_clipped(self):
        _, factor = grpo_token_loss(np.log(0.5), -1.0)
        assert factor == 0.0

    def test_high_ratio_negative_advantage_flows(self):
        _, factor = grpo_token_loss(np.log(1.5), -1.0)
        assert factor == pytest.approx(1.5, abs=1e-12)

    def test_raising_eps_high_enlarges_upper_region(self):
        tight = ClipConfig(eps_low=0.2, eps_high=0.28)
        wide = ClipConfig(eps_low=0.2, eps_high=0.6)
        _, f_tight = grpo_token_loss(np.log(1.5), 1.0, tight)
        _, f_wide = grpo_token_loss(np.log(1.5), 1.0, wide)
        assert f_tight == 0.0 and f_wide != 0.0
        # Below one the behaviour is unchanged.
        for lr_ in (np.log(0.5), np.log(0.9)):
            assert grpo_token_loss(lr_, 1.0, tight) == grpo_token_loss(lr_, 1.0, wide)
            assert grpo_token_loss(lr_, -1.0, tight) == grpo_token_loss(lr_, -1.0, wide)

    def test_surrogate_matches_brute_force(self):
        # Sign analysis of the min against a literal evaluation.
        rng = np.random.default_rng(0)
        clip = ClipConfig()
        for _ in range(300):
            lr_ = float(rng.normal(scale=0.5))
            adv = float(rng.normal())
            rho = np.exp(lr_)
            clamped = np.clip(rho, 1 - clip.eps_low, 1 + clip.eps_high)
            expected = -min(rho * adv, clamped * adv)
            loss, _ = grpo_token_loss(lr_, adv, clip)
            assert loss == pytest.approx(expected, abs=1e-12)

    @given(
        # exp overflows past 709.78 in both, with a RuntimeWarning.
        log_ratio=st.one_of(st.just(0.0), st.floats(-800.0, 700.0)),
        advantage=st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.floats(-5.0, 5.0)),
        eps=st.sampled_from([(0.2, 0.28), (0.1, 0.1), (0.05, 0.5)]),
    )
    @settings(max_examples=500)
    def test_one_token_equals_the_reference(self, log_ratio, advantage, eps):
        clip = ClipConfig(*eps)
        want = reference_grpo_token_loss(log_ratio, advantage, clip)
        got = grpo_token_loss(log_ratio, advantage, clip)
        assert all(type(x) is float for x in got)
        assert np.array(got).tobytes() == np.array(want).tobytes()
        loss, factor = grpo_token_losses(np.array([log_ratio]), np.array([advantage]), clip)
        assert np.array([loss[0], factor[0]]).tobytes() == np.array(want).tobytes()

    @given(n=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=200)
    def test_token_arrays_equal_the_reference_element_for_element(self, n, seed):
        rng = np.random.default_rng(seed)
        log_ratio = np.where(rng.random(n) < 0.3, 0.0, rng.normal(0.0, 0.5, n))
        advantage = np.where(rng.random(n) < 0.2, 0.0, rng.normal(0.0, 1.0, n))
        loss, factor = grpo_token_losses(log_ratio, advantage)
        for i in range(n):
            want = reference_grpo_token_loss(float(log_ratio[i]), float(advantage[i]))
            assert np.array([loss[i], factor[i]]).tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_log_ratio_raises(self, bad):
        with pytest.raises(NonFiniteInputError):
            grpo_token_loss(bad, 1.0)
        with pytest.raises(NonFiniteInputError):
            reference_grpo_token_loss(bad, 1.0)

    def test_clip_config_validation(self):
        with pytest.raises(RangeError):
            ClipConfig(eps_low=0.3, eps_high=0.2)
