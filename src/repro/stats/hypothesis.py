"""One-tailed hypothesis testing for the inequality-attack region size.

Implements Section 5.3 of the paper:

- ``H0: theta <= theta_0`` (the attack succeeds) versus
  ``H1: theta > theta_0`` (the user's feasible region is large enough),
- reject H0 when the count X of Monte-Carlo samples inside the region
  exceeds ``N_H * theta_0 + z_gamma * sqrt(N_H * theta_0 * (1 - theta_0))``
  (Eqn 16),
- the sample size N_H bounding both error types comes from the Fleiss
  formula (Eqn 17) with ``theta_1 = theta_0 * (1 + phi)``.

The normal quantile uses Acklam's rational approximation (absolute error
below 1.2e-9) so the core library does not depend on scipy; the test suite
cross-checks it against ``scipy.stats.norm.ppf``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigurationError, finite_real

# Coefficients of Acklam's inverse-normal-CDF approximation.
_A = (
    -3.969683028665376e01, 2.209460984245205e02, -2.759285104469687e02,
    1.383577518672690e02, -3.066479806614716e01, 2.506628277459239e00,
)
_B = (
    -5.447609879822406e01, 1.615858368580409e02, -1.556989798598866e02,
    6.680131188771972e01, -1.328068155288572e01,
)
_C = (
    -7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e00,
    -2.549732539343734e00, 4.374664141464968e00, 2.938163982698783e00,
)
_D = (
    7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e00,
    3.754408661907416e00,
)
_P_LOW = 0.02425
_P_HIGH = 1.0 - _P_LOW


def normal_quantile(p: float) -> float:
    """The standard normal quantile ``Phi^{-1}(p)`` for ``p`` in (0, 1)."""
    if not 0.0 < p < 1.0:
        raise ConfigurationError(f"quantile argument must be in (0, 1), got {p}")
    if p < _P_LOW:
        q = math.sqrt(-2.0 * math.log(p))
        return (
            ((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5]
        ) / ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0)
    if p <= _P_HIGH:
        q = p - 0.5
        r = q * q
        return (
            (((((_A[0] * r + _A[1]) * r + _A[2]) * r + _A[3]) * r + _A[4]) * r + _A[5])
            * q
            / (((((_B[0] * r + _B[1]) * r + _B[2]) * r + _B[3]) * r + _B[4]) * r + 1.0)
        )
    q = math.sqrt(-2.0 * math.log(1.0 - p))
    return -(
        ((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5]
    ) / ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0)


def sanitation_parameters(gamma: object, eta: object, phi: object) -> tuple[float, float, float]:
    """The sanitation test's ``gamma``, ``eta`` and ``phi`` as floats, checked.

    ``gamma`` and ``eta`` bound the two error probabilities, so each must
    be a real number in (0, 0.5); ``phi`` must be a finite real number
    above 0.  Anything else raises :class:`ConfigurationError` naming the
    field.  ``theta_1 = theta_0 * (1 + phi) < 1`` is checked with each
    ``theta_0`` (:func:`required_sample_size`).
    """
    for name, value in (("gamma", gamma), ("eta", eta)):
        if not (finite_real(value) and 0.0 < value < 0.5):
            raise ConfigurationError(f"{name} must be a real number in (0, 0.5), not {value!r}")
    if not (finite_real(phi) and phi > 0.0):
        raise ConfigurationError(f"phi must be a finite real number above 0, not {phi!r}")
    return float(gamma), float(eta), float(phi)


def required_sample_size(
    theta0: float, gamma: float = 0.05, eta: float = 0.2, phi: float = 0.1
) -> int:
    """Eqn (17): the Monte-Carlo sample count N_H for the sanitation test.

    Bounds Pr(Type I error) <= gamma and Pr(Type II error) <= eta for the
    alternative ``theta_1 = theta_0 * (1 + phi)``.
    """
    gamma, eta, phi = sanitation_parameters(gamma, eta, phi)
    if not 0.0 < theta0 < 1.0:
        raise ConfigurationError("theta0 must be in (0, 1)")
    theta1 = theta0 * (1.0 + phi)
    if not theta0 < theta1 < 1.0:
        raise ConfigurationError("theta1 = theta0 * (1 + phi) must stay below 1")
    z_gamma = normal_quantile(1.0 - gamma)
    z_eta = normal_quantile(1.0 - eta)
    numerator = z_gamma * math.sqrt(theta0 * (1.0 - theta0)) + z_eta * math.sqrt(
        theta1 * (1.0 - theta1)
    )
    return math.ceil((numerator / (theta1 - theta0)) ** 2)


def rejection_threshold(n_samples: int, theta0: float, gamma: float = 0.05) -> float:
    """Eqn (16): reject H0 (declare the prefix safe) when X exceeds this."""
    if n_samples < 1:
        raise ConfigurationError("sample count must be positive")
    if not 0.0 < theta0 < 1.0:
        raise ConfigurationError("theta0 must be in (0, 1)")
    z_gamma = normal_quantile(1.0 - gamma)
    return n_samples * theta0 + z_gamma * math.sqrt(n_samples * theta0 * (1.0 - theta0))


@dataclass(frozen=True, slots=True)
class SanitationTestPlan:
    """A fully resolved test: sample size and rejection threshold.

    Built once per ``(theta0, gamma, eta, phi)`` configuration and reused
    across every candidate query and target user.
    """

    theta0: float
    gamma: float
    eta: float
    phi: float
    n_samples: int
    threshold: float

    @classmethod
    def from_parameters(
        cls,
        theta0: float,
        gamma: float = 0.05,
        eta: float = 0.2,
        phi: float = 0.1,
        n_samples_override: int | None = None,
    ) -> "SanitationTestPlan":
        """Resolve Eqns (16)-(17) for the given privacy parameters.

        ``n_samples_override`` substitutes a custom sample count (tests use
        small counts for speed) while keeping the threshold consistent.
        """
        n_samples = (
            n_samples_override
            if n_samples_override is not None
            else required_sample_size(theta0, gamma, eta, phi)
        )
        return cls(
            theta0=theta0,
            gamma=gamma,
            eta=eta,
            phi=phi,
            n_samples=n_samples,
            threshold=rejection_threshold(n_samples, theta0, gamma),
        )

    def is_safe(self, inside_count: int) -> bool:
        """Whether a count of in-region samples rejects H0 (prefix is safe)."""
        return inside_count > self.threshold
