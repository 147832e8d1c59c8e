"""CLs exclusion limits for counting experiments.

This is the "advanced interpretation" capability the paper attributes to
RECAST and not to RIVET: given a preserved search (background estimate,
observed count, signal efficiency for a new model), derive the 95% CL
upper limit on the new model's cross-section with the frequentist CLs
prescription, using toy Monte Carlo for the test-statistic distributions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import StatsError
from repro.stats.likelihood import CountingExperiment


@dataclass(frozen=True)
class LimitResult:
    """A CLs upper limit and its inputs."""

    upper_limit: float
    confidence_level: float
    n_observed: int
    background: float
    signal_efficiency: float
    luminosity: float
    n_toys: int

    @property
    def excluded(self) -> bool:
        """Whether the limit is finite (always true for CLs scans)."""
        return math.isfinite(self.upper_limit)

    def excludes_cross_section(self, cross_section: float) -> bool:
        """True if the given cross-section is excluded at this CL."""
        return cross_section > self.upper_limit

    def summary(self) -> str:
        """One-line human-readable result."""
        return (
            f"sigma < {self.upper_limit:.4g} at "
            f"{self.confidence_level:.0%} CL "
            f"(n_obs={self.n_observed}, b={self.background:.2f}, "
            f"eff={self.signal_efficiency:.3f})"
        )


def _cls_value(experiment: CountingExperiment, cross_section: float,
               rng: np.random.Generator, n_toys: int) -> float:
    """CLs = CL_{s+b} / CL_b for one signal hypothesis, via toys."""
    signal = experiment.expected_signal(cross_section)
    background = experiment.background
    b_unc = experiment.background_uncertainty
    n_observed = experiment.n_observed

    # Sample nuisance-fluctuated background expectations.
    if b_unc > 0.0:
        b_toys = np.maximum(0.0, rng.normal(background, b_unc, n_toys))
    else:
        b_toys = np.full(n_toys, background)
    # Test statistic: the observed count itself (optimal for one bin).
    sb_counts = rng.poisson(b_toys + signal)
    b_counts = rng.poisson(b_toys)
    # p-values: probability of an outcome <= observed under s+b (signal
    # exclusion works on downward compatibility) and under b.
    cl_sb = float(np.mean(sb_counts <= n_observed))
    cl_b = float(np.mean(b_counts <= n_observed))
    if cl_b == 0.0:
        return 1.0
    return min(1.0, cl_sb / cl_b)


def cls_upper_limit(
    experiment: CountingExperiment,
    confidence_level: float = 0.95,
    n_toys: int = 4000,
    seed: int = 9090,
    max_cross_section: float | None = None,
) -> LimitResult:
    """Scan for the cross-section where CLs crosses ``1 - CL``.

    Uses bisection over the cross-section; the bracket grows automatically
    until the upper edge is excluded.
    """
    if not 0.0 < confidence_level < 1.0:
        raise StatsError(
            f"confidence level must be in (0, 1), got {confidence_level}"
        )
    if experiment.signal_efficiency <= 0.0:
        raise StatsError(
            "cannot set a limit with zero signal efficiency"
        )
    if n_toys < 1:
        raise StatsError(f"n_toys must be at least 1, got {n_toys}")
    rng = np.random.default_rng(seed)
    alpha = 1.0 - confidence_level

    # Initial bracket: a couple of events' worth of cross-section.
    low = 0.0
    high = (max_cross_section if max_cross_section is not None else
            (experiment.n_observed + 3.0 * math.sqrt(
                experiment.background + 1.0) + 5.0)
            / (experiment.signal_efficiency * experiment.luminosity))
    for _ in range(20):
        if _cls_value(experiment, high, rng, n_toys) < alpha:
            break
        high *= 2.0
    else:
        raise StatsError("could not bracket the CLs limit")

    for _ in range(40):
        middle = 0.5 * (low + high)
        if _cls_value(experiment, middle, rng, n_toys) < alpha:
            high = middle
        else:
            low = middle
        if high - low < 1e-3 * high:
            break
    return LimitResult(
        upper_limit=0.5 * (low + high),
        confidence_level=confidence_level,
        n_observed=experiment.n_observed,
        background=experiment.background,
        signal_efficiency=experiment.signal_efficiency,
        luminosity=experiment.luminosity,
        n_toys=n_toys,
    )


def expected_limit(
    background: float,
    background_uncertainty: float,
    signal_efficiency: float,
    luminosity: float,
    confidence_level: float = 0.95,
    n_toys: int = 2000,
    seed: int = 9091,
) -> LimitResult:
    """The median expected limit under the background-only hypothesis."""
    experiment = CountingExperiment(
        n_observed=int(round(background)),
        background=background,
        background_uncertainty=background_uncertainty,
        signal_efficiency=signal_efficiency,
        luminosity=luminosity,
    )
    return cls_upper_limit(experiment, confidence_level, n_toys, seed)
