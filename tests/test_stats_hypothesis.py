"""Tests for the sanitation hypothesis-testing machinery (Section 5.3)."""

import math

import numpy as np
import pytest
from scipy import stats as scipy_stats

from repro.errors import ConfigurationError
from repro.stats.hypothesis import (
    SanitationTestPlan,
    normal_quantile,
    rejection_threshold,
    required_sample_size,
    sanitation_parameters,
)


class TestNormalQuantile:
    @pytest.mark.parametrize("p", [0.001, 0.01, 0.05, 0.2, 0.5, 0.8, 0.95, 0.99, 0.999])
    def test_matches_scipy(self, p):
        assert normal_quantile(p) == pytest.approx(
            scipy_stats.norm.ppf(p), abs=1e-8
        )

    def test_known_critical_values(self):
        assert normal_quantile(0.95) == pytest.approx(1.6449, abs=1e-4)
        assert normal_quantile(0.8) == pytest.approx(0.8416, abs=1e-4)

    def test_symmetry(self):
        assert normal_quantile(0.3) == pytest.approx(-normal_quantile(0.7), abs=1e-9)

    def test_domain_validation(self):
        for p in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(ConfigurationError):
                normal_quantile(p)


class TestSampleSize:
    def test_eqn17_against_manual_computation(self):
        """Fleiss formula with the paper's defaults at theta0 = 0.05."""
        theta0, gamma, eta, phi = 0.05, 0.05, 0.2, 0.1
        theta1 = theta0 * (1 + phi)
        z_g = scipy_stats.norm.ppf(1 - gamma)
        z_e = scipy_stats.norm.ppf(1 - eta)
        expected = math.ceil(
            (
                (z_g * math.sqrt(theta0 * (1 - theta0)) + z_e * math.sqrt(theta1 * (1 - theta1)))
                / (theta1 - theta0)
            )
            ** 2
        )
        assert required_sample_size(theta0) == expected

    def test_stronger_privacy_needs_fewer_samples(self):
        """Figure 6l's explanation: larger theta0 -> smaller N_H."""
        sizes = [required_sample_size(t) for t in (0.01, 0.02, 0.05, 0.1)]
        assert sizes == sorted(sizes, reverse=True)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            required_sample_size(0.0)
        with pytest.raises(ConfigurationError):
            required_sample_size(0.95, phi=0.5)  # theta1 >= 1
        with pytest.raises(ConfigurationError):
            required_sample_size(0.05, gamma=0.7)

    @pytest.mark.parametrize(
        "field, value",
        [("gamma", "x"), ("gamma", float("nan")), ("eta", 0.5), ("eta", -0.1), ("phi", -0.5)],
    )
    def test_one_check_names_the_field(self, field, value):
        parameters = {"gamma": 0.05, "eta": 0.2, "phi": 0.1, field: value}
        with pytest.raises(ConfigurationError, match=field):
            sanitation_parameters(**parameters)
        with pytest.raises(ConfigurationError, match=field):
            required_sample_size(0.05, **parameters)


class TestRejectionThreshold:
    def test_eqn16_value(self):
        n, theta0, gamma = 10_000, 0.05, 0.05
        z = scipy_stats.norm.ppf(1 - gamma)
        expected = n * theta0 + z * math.sqrt(n * theta0 * (1 - theta0))
        assert rejection_threshold(n, theta0, gamma) == pytest.approx(expected)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            rejection_threshold(0, 0.05)
        with pytest.raises(ConfigurationError):
            rejection_threshold(100, 1.5)


class TestSanitationTestPlan:
    def test_from_parameters_defaults(self):
        plan = SanitationTestPlan.from_parameters(0.05)
        assert plan.n_samples == required_sample_size(0.05)
        assert plan.threshold == pytest.approx(
            rejection_threshold(plan.n_samples, 0.05)
        )

    def test_override_changes_samples_and_threshold(self):
        plan = SanitationTestPlan.from_parameters(0.05, n_samples_override=500)
        assert plan.n_samples == 500
        assert plan.threshold == pytest.approx(rejection_threshold(500, 0.05))

    def test_is_safe_semantics(self):
        plan = SanitationTestPlan.from_parameters(0.05, n_samples_override=1000)
        assert plan.is_safe(1000)
        assert not plan.is_safe(0)
        assert not plan.is_safe(int(plan.threshold))

    def test_type_i_error_calibration(self):
        """Empirically: with theta exactly theta0, the safe verdict (reject
        H0) must occur with probability <= ~gamma."""
        theta0, gamma = 0.1, 0.05
        plan = SanitationTestPlan.from_parameters(theta0, gamma=gamma, n_samples_override=2000)
        rng = np.random.default_rng(0)
        false_safes = sum(
            plan.is_safe(int(rng.binomial(plan.n_samples, theta0)))
            for _ in range(2000)
        )
        assert false_safes / 2000 < gamma + 0.02

    def test_power_at_theta1(self):
        """With theta = theta1 = theta0(1+phi) and the Eqn-17 sample size,
        the test must reject H0 with probability >= 1 - eta."""
        theta0, eta, phi = 0.05, 0.2, 0.1
        plan = SanitationTestPlan.from_parameters(theta0, eta=eta, phi=phi)
        theta1 = theta0 * (1 + phi)
        rng = np.random.default_rng(1)
        safes = sum(
            plan.is_safe(int(rng.binomial(plan.n_samples, theta1)))
            for _ in range(1000)
        )
        assert safes / 1000 > 1 - eta - 0.05
