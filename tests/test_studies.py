import subprocess
import sys

from routedkl.checks import run_checks
from routedkl.studies import (
    exposure_dichotomy_study,
    post_decay_equivalence_probe,
)


class TestExposureDichotomy:
    def test_ratio_grows_without_bound(self):
        # The all-token-to-routed exposure ratio is O(K)/O(1): strictly
        # increasing checkpoints, and the 1000-vs-50 ratio quotient reaches
        # the exact horizon ratio of 20 (up to roundoff) in the stationary
        # measurement configuration.
        study = exposure_dichotomy_study(steps=1000, seed=0, learning_rate=0.0)
        ratios = [
            study.alltoken_exposure_at(k) / study.routed_exposure_at(k)
            for k in (50, 100, 500, 1000)
        ]
        assert ratios == sorted(ratios)
        assert ratios[-1] > ratios[0] * 19.999999

    def test_equality_under_training(self):
        study = exposure_dichotomy_study(steps=150, seed=1, learning_rate=0.3)
        for rec in list(study.alltoken.records) + list(study.routed.records):
            assert abs(rec.exposure_lhs - rec.bound_rhs) < 1e-10


class TestPostDecayProbe:
    def test_trajectories_identical(self):
        identical, steps = post_decay_equivalence_probe(seed=0, extra_steps=6)
        assert identical and steps == 6


class TestVerifySuite:
    def test_fast_checks_green(self):
        lines = []
        failures = run_checks(fast=True, report=lines.append)
        assert failures == 0, "\n".join(lines)
        assert any(line.startswith("[PASS]") for line in lines)

    def test_cli_verify_fast(self):
        out = subprocess.run(
            [sys.executable, "-m", "routedkl.cli", "verify", "--fast"],
            capture_output=True,
            text=True,
        )
        assert out.returncode == 0, out.stdout + out.stderr
        assert "0 failure(s)" in out.stdout
