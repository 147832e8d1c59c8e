"""Histogram comparison tests for generator validation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import chdtrc, kolmogorov

from repro.errors import StatsError
from repro.stats.histogram import Histogram1D, edges_compatible


@dataclass(frozen=True)
class ComparisonResult:
    """The outcome of a data/prediction shape comparison."""

    statistic: float
    n_dof: int
    p_value: float
    test: str

    @property
    def compatible(self) -> bool:
        """True at the conventional 5% level."""
        return self.p_value >= 0.05

    def summary(self) -> str:
        """One-line human-readable verdict."""
        verdict = "COMPATIBLE" if self.compatible else "DISCREPANT"
        return (
            f"{self.test}: stat={self.statistic:.2f}/{self.n_dof} dof, "
            f"p={self.p_value:.3g} -> {verdict}"
        )


def chi2_test(data: Histogram1D, prediction: Histogram1D,
              min_error: float = 1e-9) -> ComparisonResult:
    """Bin-by-bin chi-square using both histograms' errors in quadrature.

    Bins where both histograms are empty are skipped and do not count as
    degrees of freedom.
    """
    if not edges_compatible(data.edges, prediction.edges):
        raise StatsError(
            f"incompatible binning: {data.name!r} vs {prediction.name!r}"
        )
    data_values = data.values()
    pred_values = prediction.values()
    errors2 = data.errors() ** 2 + prediction.errors() ** 2
    mask = (data_values != 0.0) | (pred_values != 0.0)
    if not np.any(mask):
        raise StatsError("both histograms are empty")
    errors2 = np.maximum(errors2[mask], min_error**2)
    chi2 = float(((data_values[mask] - pred_values[mask]) ** 2
                  / errors2).sum())
    n_dof = int(mask.sum())
    p_value = float(chdtrc(n_dof, chi2))
    return ComparisonResult(statistic=chi2, n_dof=n_dof, p_value=p_value,
                            test="chi2")


def ks_test(data: Histogram1D, prediction: Histogram1D) -> ComparisonResult:
    """Two-sample Kolmogorov-Smirnov test on the binned shapes.

    Uses the effective entry counts (``integral^2 / sum(errors^2)``) to set
    the sample sizes, which makes the test meaningful for weighted fills.
    """
    if not edges_compatible(data.edges, prediction.edges):
        raise StatsError(
            f"incompatible binning: {data.name!r} vs {prediction.name!r}"
        )
    data_total = data.integral()
    pred_total = prediction.integral()
    if data_total <= 0.0 or pred_total <= 0.0:
        raise StatsError("KS test needs non-empty histograms")
    data_cdf = np.cumsum(data.values()) / data_total
    pred_cdf = np.cumsum(prediction.values()) / pred_total
    d_statistic = float(np.max(np.abs(data_cdf - pred_cdf)))

    def effective_n(histogram: Histogram1D) -> float:
        err2 = float((histogram.errors() ** 2).sum())
        if err2 == 0.0:
            return float(histogram.n_entries or 1)
        return histogram.integral() ** 2 / err2

    n1 = effective_n(data)
    n2 = effective_n(prediction)
    n_effective = n1 * n2 / (n1 + n2)
    p_value = float(kolmogorov(d_statistic * np.sqrt(n_effective)))
    return ComparisonResult(statistic=d_statistic, n_dof=data.nbins,
                            p_value=p_value, test="ks")


def ratio_points(numerator: Histogram1D, denominator: Histogram1D
                 ) -> list[tuple[float, float, float]]:
    """Per-bin ``(center, ratio, error)`` points for ratio panels.

    Bins with an empty denominator are skipped.
    """
    if not edges_compatible(numerator.edges, denominator.edges):
        raise StatsError("incompatible binning for ratio")
    points = []
    centers = numerator.bin_centers()
    num_values = numerator.values()
    den_values = denominator.values()
    num_errors = numerator.errors()
    den_errors = denominator.errors()
    for i in range(numerator.nbins):
        if den_values[i] == 0.0:
            continue
        ratio = num_values[i] / den_values[i]
        if num_values[i] != 0.0:
            relative = np.hypot(num_errors[i] / num_values[i],
                                den_errors[i] / den_values[i])
            error = abs(ratio) * float(relative)
        else:
            error = float(num_errors[i] / den_values[i])
        points.append((float(centers[i]), float(ratio), error))
    return points
