"""Peak and lifetime fits plus sideband background subtraction."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import StatsError
from repro.stats.histogram import Histogram1D


@dataclass(frozen=True)
class FitResult:
    """Fitted parameters and their covariance-derived errors."""

    parameters: dict[str, float]
    errors: dict[str, float]
    chi2: float
    n_dof: int

    @property
    def chi2_per_dof(self) -> float:
        """Reduced chi-square (inf for zero degrees of freedom)."""
        if self.n_dof <= 0:
            return float("inf")
        return self.chi2 / self.n_dof

    def parameter(self, name: str) -> float:
        """Look up a fitted parameter by name."""
        try:
            return self.parameters[name]
        except KeyError:
            raise StatsError(f"fit has no parameter {name!r}") from None


def _prepare_points(histogram: Histogram1D
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    centers = histogram.bin_centers()
    values = histogram.values()
    errors = histogram.errors()
    mask = values > 0.0
    if mask.sum() < 4:
        raise StatsError(
            f"histogram {histogram.name!r} has too few populated bins "
            f"({int(mask.sum())}) to fit"
        )
    return centers[mask], values[mask], np.maximum(errors[mask], 1e-9)


def fit_gaussian_peak(histogram: Histogram1D,
                      linear_background: bool = True) -> FitResult:
    """Fit ``A exp(-(x-mu)^2 / 2 sigma^2) [+ p0 + p1 x]`` to a histogram."""
    # Imported at the call site, not the module top: scipy.optimize is a
    # cold-start cost that most importers never use.
    from scipy import optimize

    x, y, err = _prepare_points(histogram)
    peak_guess = float(x[np.argmax(y)])
    amplitude_guess = float(y.max())
    sigma_guess = max(histogram.std() / 2.0, 1e-3)

    if linear_background:
        def model(x, amplitude, mu, sigma, p0, p1):
            return (amplitude * np.exp(-0.5 * ((x - mu) / sigma) ** 2)
                    + p0 + p1 * x)
        names = ["amplitude", "mu", "sigma", "p0", "p1"]
        p0 = [amplitude_guess, peak_guess, sigma_guess, float(y.min()), 0.0]
    else:
        def model(x, amplitude, mu, sigma):
            return amplitude * np.exp(-0.5 * ((x - mu) / sigma) ** 2)
        names = ["amplitude", "mu", "sigma"]
        p0 = [amplitude_guess, peak_guess, sigma_guess]

    try:
        popt, pcov = optimize.curve_fit(model, x, y, p0=p0, sigma=err,
                                        absolute_sigma=True, maxfev=20000)
    except (RuntimeError, optimize.OptimizeWarning) as exc:
        raise StatsError(f"gaussian fit failed: {exc}")
    popt = [float(v) for v in popt]
    perr = [float(math.sqrt(max(0.0, pcov[i, i])))
            for i in range(len(popt))]
    residuals = (y - model(x, *popt)) / err
    chi2 = float((residuals**2).sum())
    # Report |sigma| — the model is symmetric in its sign.
    result = dict(zip(names, popt))
    result["sigma"] = abs(result["sigma"])
    return FitResult(
        parameters=result,
        errors=dict(zip(names, perr)),
        chi2=chi2,
        n_dof=len(x) - len(popt),
    )


def fit_exponential_lifetime(histogram: Histogram1D) -> FitResult:
    """Fit ``N exp(-t / tau)`` to a decay-time histogram.

    Returns ``tau`` in whatever unit the histogram axis uses.
    """
    from scipy import optimize

    x, y, err = _prepare_points(histogram)

    def model(t, norm, tau):
        return norm * np.exp(-t / tau)

    tau_guess = max(float(np.average(x, weights=y)), 1e-6)
    try:
        popt, pcov = optimize.curve_fit(
            model, x, y, p0=[float(y.max()), tau_guess], sigma=err,
            absolute_sigma=True, maxfev=20000,
        )
    except (RuntimeError, optimize.OptimizeWarning) as exc:
        raise StatsError(f"lifetime fit failed: {exc}")
    residuals = (y - model(x, *popt)) / err
    return FitResult(
        parameters={"norm": float(popt[0]), "tau": float(popt[1])},
        errors={
            "norm": float(math.sqrt(max(0.0, pcov[0, 0]))),
            "tau": float(math.sqrt(max(0.0, pcov[1, 1]))),
        },
        chi2=float((residuals**2).sum()),
        n_dof=len(x) - 2,
    )


def sideband_subtract(histogram: Histogram1D, signal_window: tuple[float, float],
                      sidebands: tuple[tuple[float, float],
                                       tuple[float, float]]
                      ) -> tuple[float, float]:
    """Sideband-subtracted signal yield in a window.

    The background density is estimated from the two sidebands and
    interpolated linearly under the signal window. Returns
    ``(signal_yield, error)`` — the "background subtraction" capability
    the paper notes plain RIVET lacks.
    """
    low, high = signal_window
    if high <= low:
        raise StatsError("empty signal window")
    (sb1_low, sb1_high), (sb2_low, sb2_high) = sidebands
    if sb1_high > low or sb2_low < high:
        raise StatsError("sidebands must not overlap the signal window")

    def window_sum(w_low: float, w_high: float) -> tuple[float, float, float]:
        centers = histogram.bin_centers()
        values = histogram.values()
        errors2 = histogram.errors() ** 2
        mask = (centers >= w_low) & (centers < w_high)
        width = float(histogram.bin_widths()[mask].sum())
        return float(values[mask].sum()), float(errors2[mask].sum()), width

    signal_sum, signal_err2, signal_width = window_sum(low, high)
    sb1_sum, sb1_err2, sb1_width = window_sum(sb1_low, sb1_high)
    sb2_sum, sb2_err2, sb2_width = window_sum(sb2_low, sb2_high)
    sideband_width = sb1_width + sb2_width
    if sideband_width <= 0.0 or signal_width <= 0.0:
        raise StatsError("windows contain no bins")
    density = (sb1_sum + sb2_sum) / sideband_width
    background = density * signal_width
    background_err2 = (sb1_err2 + sb2_err2) * (signal_width
                                               / sideband_width) ** 2
    yield_value = signal_sum - background
    yield_error = math.sqrt(signal_err2 + background_err2)
    return yield_value, yield_error
