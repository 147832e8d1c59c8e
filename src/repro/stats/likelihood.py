"""Poisson counting likelihoods with background uncertainty."""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.special import gammaln

from repro.errors import StatsError


def poisson_nll(n_observed: int, expected: float) -> float:
    """Negative log of the Poisson probability ``P(n | expected)``."""
    if n_observed < 0:
        raise StatsError(f"n_observed must be >= 0, got {n_observed}")
    if expected <= 0.0:
        # Zero expectation is only compatible with zero observation.
        return 0.0 if n_observed == 0 else float("inf")
    return float(expected - n_observed * math.log(expected)
                 + gammaln(n_observed + 1))


@dataclass(frozen=True)
class CountingExperiment:
    """A single-bin counting experiment.

    ``background`` carries a log-normal-ish Gaussian constraint of width
    ``background_uncertainty`` (absolute). ``signal_efficiency`` times
    ``luminosity`` converts a signal cross-section into an expected count.
    """

    n_observed: int
    background: float
    background_uncertainty: float
    signal_efficiency: float
    luminosity: float

    def __post_init__(self) -> None:
        if self.background < 0.0:
            raise StatsError("background must be >= 0")
        if self.background_uncertainty < 0.0:
            raise StatsError("background uncertainty must be >= 0")
        if not 0.0 <= self.signal_efficiency <= 1.0:
            raise StatsError(
                f"signal efficiency must be in [0, 1], got "
                f"{self.signal_efficiency}"
            )
        if self.luminosity <= 0.0:
            raise StatsError("luminosity must be positive")

    def expected_signal(self, cross_section: float) -> float:
        """Expected signal count for a cross-section (same units as lumi)."""
        return cross_section * self.signal_efficiency * self.luminosity

    def nll(self, cross_section: float,
            background_shift: float = 0.0) -> float:
        """Constrained negative log-likelihood at the given parameters."""
        background = self.background + background_shift
        if background < 0.0:
            return float("inf")
        expected = self.expected_signal(cross_section) + background
        value = poisson_nll(self.n_observed, expected)
        if self.background_uncertainty > 0.0:
            value += 0.5 * (background_shift
                            / self.background_uncertainty) ** 2
        return value

    def profiled_nll(self, cross_section: float) -> float:
        """NLL with the background nuisance profiled out."""
        if self.background_uncertainty == 0.0:
            return self.nll(cross_section)
        # Imported at the call site, not the module top: scipy.optimize
        # is a cold-start cost that most importers never use.
        from scipy import optimize

        result = optimize.minimize_scalar(
            lambda shift: self.nll(cross_section, shift),
            bounds=(-5.0 * self.background_uncertainty,
                    5.0 * self.background_uncertainty),
            method="bounded",
        )
        return float(result.fun)

    def best_fit_cross_section(self, upper_bound: float = 1e6) -> float:
        """Maximum-likelihood signal cross-section (bounded at zero)."""
        from scipy import optimize

        result = optimize.minimize_scalar(
            self.profiled_nll, bounds=(0.0, upper_bound), method="bounded"
        )
        return float(result.x)


def discovery_significance(n_observed: int, background: float,
                           background_uncertainty: float = 0.0) -> float:
    """Asymptotic discovery significance of an excess, in sigma.

    Uses the profile-likelihood Asimov formula; with a background
    uncertainty ``db`` the standard extension

        Z^2 = 2 [ n ln( n(b + db^2) / (b^2 + n db^2) )
                  - (b^2/db^2) ln( 1 + db^2 (n - b) / (b (b + db^2)) ) ]

    is used. Deficits (n <= b) return 0.
    """
    if background <= 0.0:
        raise StatsError("significance needs positive background")
    if n_observed <= background:
        return 0.0
    n = float(n_observed)
    b = background
    db2 = background_uncertainty**2
    if db2 == 0.0:
        z_squared = 2.0 * (n * math.log(n / b) - (n - b))
    else:
        first = n * math.log(n * (b + db2) / (b * b + n * db2))
        second = (b * b / db2) * math.log(
            1.0 + db2 * (n - b) / (b * (b + db2))
        )
        z_squared = 2.0 * (first - second)
    return math.sqrt(max(0.0, z_squared))


def profile_likelihood_ratio(experiment: CountingExperiment,
                             cross_section: float) -> float:
    """The test statistic ``q = 2 [NLL(sigma) - NLL(sigma_hat)]``.

    Clamped at zero so downward fluctuations do not count as evidence
    against a signal hypothesis larger than the best fit.
    """
    best = experiment.best_fit_cross_section()
    q = 2.0 * (experiment.profiled_nll(cross_section)
               - experiment.profiled_nll(best))
    return max(0.0, float(q))
