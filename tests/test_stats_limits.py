"""Tests for likelihoods, limits, efficiency grids, and fits."""

import math

import numpy as np
import pytest

from repro.errors import StatsError
from repro.stats import (
    CountingExperiment,
    EfficiencyGrid,
    Histogram1D,
    binomial_interval,
    cls_upper_limit,
    expected_limit,
    fit_exponential_lifetime,
    fit_gaussian_peak,
    poisson_nll,
    profile_likelihood_ratio,
    sideband_subtract,
)


class TestPoissonNll:
    def test_minimum_at_observed(self):
        values = [poisson_nll(10, mu) for mu in (8.0, 10.0, 12.0)]
        assert values[1] < values[0]
        assert values[1] < values[2]

    def test_zero_expectation(self):
        assert poisson_nll(0, 0.0) == 0.0
        assert poisson_nll(3, 0.0) == math.inf

    def test_negative_observation_rejected(self):
        with pytest.raises(StatsError):
            poisson_nll(-1, 5.0)


class TestCountingExperiment:
    def test_validation(self):
        with pytest.raises(StatsError):
            CountingExperiment(5, -1.0, 0.0, 0.5, 10.0)
        with pytest.raises(StatsError):
            CountingExperiment(5, 1.0, 0.0, 1.5, 10.0)
        with pytest.raises(StatsError):
            CountingExperiment(5, 1.0, 0.0, 0.5, 0.0)

    def test_best_fit_tracks_excess(self):
        experiment = CountingExperiment(
            n_observed=20, background=5.0, background_uncertainty=0.5,
            signal_efficiency=0.5, luminosity=10.0,
        )
        best = experiment.best_fit_cross_section()
        # Excess of 15 events over b=5 -> sigma ~ 15 / (0.5*10) = 3.
        assert best == pytest.approx(3.0, rel=0.1)

    def test_best_fit_zero_for_deficit(self):
        experiment = CountingExperiment(
            n_observed=1, background=5.0, background_uncertainty=0.5,
            signal_efficiency=0.5, luminosity=10.0,
        )
        assert experiment.best_fit_cross_section() < 0.1

    def test_profile_likelihood_ratio_zero_at_best_fit(self):
        experiment = CountingExperiment(
            n_observed=10, background=5.0, background_uncertainty=1.0,
            signal_efficiency=0.5, luminosity=10.0,
        )
        best = experiment.best_fit_cross_section()
        assert profile_likelihood_ratio(experiment, best) == \
            pytest.approx(0.0, abs=1e-3)

    def test_q_grows_away_from_best_fit(self):
        experiment = CountingExperiment(
            n_observed=10, background=5.0, background_uncertainty=1.0,
            signal_efficiency=0.5, luminosity=10.0,
        )
        best = experiment.best_fit_cross_section()
        assert profile_likelihood_ratio(experiment, best + 3.0) > 1.0


class TestClsLimits:
    def test_limit_scales_with_efficiency(self):
        def limit(efficiency):
            experiment = CountingExperiment(
                n_observed=3, background=3.0,
                background_uncertainty=0.5,
                signal_efficiency=efficiency, luminosity=100.0,
            )
            return cls_upper_limit(experiment, n_toys=1500,
                                   seed=1).upper_limit

        assert limit(0.5) < limit(0.1)

    def test_limit_magnitude_sane(self):
        # n_obs = b with no uncertainty: the 95% limit should be a few
        # events' worth of cross-section.
        experiment = CountingExperiment(
            n_observed=3, background=3.0, background_uncertainty=0.0,
            signal_efficiency=1.0, luminosity=1.0,
        )
        result = cls_upper_limit(experiment, n_toys=4000, seed=2)
        assert 3.0 < result.upper_limit < 10.0

    def test_exclusion_logic(self):
        experiment = CountingExperiment(
            n_observed=3, background=3.0, background_uncertainty=0.3,
            signal_efficiency=0.5, luminosity=1000.0,
        )
        result = cls_upper_limit(experiment, n_toys=1500, seed=3)
        assert result.excludes_cross_section(result.upper_limit * 10.0)
        assert not result.excludes_cross_section(
            result.upper_limit / 10.0
        )

    def test_zero_efficiency_rejected(self):
        experiment = CountingExperiment(
            n_observed=3, background=3.0, background_uncertainty=0.3,
            signal_efficiency=0.0, luminosity=10.0,
        )
        with pytest.raises(StatsError):
            cls_upper_limit(experiment)

    @pytest.mark.parametrize("toys", [0, -5])
    def test_non_positive_toys_rejected(self, toys):
        experiment = CountingExperiment(
            n_observed=3, background=3.0, background_uncertainty=0.3,
            signal_efficiency=0.5, luminosity=10.0,
        )
        with pytest.raises(StatsError, match="n_toys"):
            cls_upper_limit(experiment, n_toys=toys)

    def test_expected_limit_close_to_observed_at_median(self):
        observed = cls_upper_limit(CountingExperiment(
            n_observed=5, background=5.0, background_uncertainty=0.5,
            signal_efficiency=0.3, luminosity=100.0,
        ), n_toys=2000, seed=4)
        expected = expected_limit(5.0, 0.5, 0.3, 100.0, n_toys=2000,
                                  seed=5)
        assert observed.upper_limit == pytest.approx(
            expected.upper_limit, rel=0.3
        )

    def test_summary_readable(self):
        experiment = CountingExperiment(
            n_observed=3, background=3.0, background_uncertainty=0.3,
            signal_efficiency=0.5, luminosity=10.0,
        )
        result = cls_upper_limit(experiment, n_toys=800, seed=6)
        assert "95% CL" in result.summary()


class TestEfficiencyGrid:
    def test_record_and_lookup(self):
        grid = EfficiencyGrid("eff", [0, 100, 200], [0, 50, 100])
        for _ in range(80):
            grid.record(50.0, 25.0, True)
        for _ in range(20):
            grid.record(50.0, 25.0, False)
        assert grid.efficiency(50.0, 25.0) == pytest.approx(0.8)

    def test_empty_cell_raises(self):
        grid = EfficiencyGrid("eff", [0, 100], [0, 100])
        with pytest.raises(StatsError):
            grid.efficiency(50.0, 50.0)

    def test_out_of_grid_ignored_on_record(self):
        grid = EfficiencyGrid("eff", [0, 100], [0, 100])
        grid.record(500.0, 50.0, True)
        with pytest.raises(StatsError):
            grid.efficiency(50.0, 50.0)

    def test_efficiency_map_nan_for_empty(self):
        grid = EfficiencyGrid("eff", [0, 100, 200], [0, 100])
        grid.record(50.0, 50.0, True)
        eff_map = grid.efficiency_map()
        assert eff_map[0, 0] == 1.0
        assert np.isnan(eff_map[1, 0])

    def test_wilson_interval_contains_point(self):
        grid = EfficiencyGrid("eff", [0, 100], [0, 100])
        for _ in range(30):
            grid.record(50.0, 50.0, True)
        for _ in range(10):
            grid.record(50.0, 50.0, False)
        low, high = grid.interval(50.0, 50.0)
        assert low < 0.75 < high

    def test_roundtrip(self):
        grid = EfficiencyGrid("eff", [0, 100, 200], [0, 100],
                              x_label="m1", y_label="m2")
        grid.record(50.0, 50.0, True)
        restored = EfficiencyGrid.from_dict(grid.to_dict())
        assert restored.efficiency(50.0, 50.0) == 1.0
        assert restored.x_label == "m1"

    def test_binomial_interval_validation(self):
        with pytest.raises(StatsError):
            binomial_interval(5, 0)
        with pytest.raises(StatsError):
            binomial_interval(6, 5)


class TestFitting:
    def test_gaussian_peak_on_background(self, rng):
        histogram = Histogram1D("m", 60, 60.0, 120.0)
        histogram.fill_array(rng.normal(91.0, 3.0, 4000))
        histogram.fill_array(rng.uniform(60.0, 120.0, 2000))
        fit = fit_gaussian_peak(histogram)
        assert fit.parameter("mu") == pytest.approx(91.0, abs=0.3)
        assert fit.parameter("sigma") == pytest.approx(3.0, rel=0.15)

    def test_exponential_lifetime(self, rng):
        histogram = Histogram1D("t", 40, 0.0, 12.0)
        histogram.fill_array(rng.exponential(2.0, 10000))
        fit = fit_exponential_lifetime(histogram)
        assert fit.parameter("tau") == pytest.approx(2.0, rel=0.05)

    def test_too_few_bins_rejected(self):
        histogram = Histogram1D("m", 10, 0.0, 10.0)
        histogram.fill(5.0)
        with pytest.raises(StatsError):
            fit_gaussian_peak(histogram)

    def test_unknown_parameter_raises(self, rng):
        histogram = Histogram1D("t", 40, 0.0, 12.0)
        histogram.fill_array(rng.exponential(2.0, 1000))
        fit = fit_exponential_lifetime(histogram)
        with pytest.raises(StatsError):
            fit.parameter("mu")

    def test_sideband_subtraction(self, rng):
        histogram = Histogram1D("m", 60, 1.7, 2.0)
        histogram.fill_array(rng.normal(1.865, 0.01, 3000))
        histogram.fill_array(rng.uniform(1.7, 2.0, 3000))
        signal, error = sideband_subtract(
            histogram, (1.84, 1.89),
            ((1.74, 1.80), (1.93, 1.99)),
        )
        assert signal == pytest.approx(3000.0, rel=0.1)
        assert error > 0.0

    def test_sideband_overlap_rejected(self, rng):
        histogram = Histogram1D("m", 60, 1.7, 2.0)
        histogram.fill_array(rng.uniform(1.7, 2.0, 100))
        with pytest.raises(StatsError):
            sideband_subtract(histogram, (1.84, 1.89),
                              ((1.80, 1.86), (1.93, 1.99)))


class TestDiscoverySignificance:
    def test_values_match_asimov_formula(self):
        from repro.stats import discovery_significance

        # n = b + sqrt(b) excess is about one sigma for large b.
        z = discovery_significance(110, 100.0)
        assert 0.9 < z < 1.1

    def test_deficit_is_zero(self):
        from repro.stats import discovery_significance

        assert discovery_significance(3, 5.0) == 0.0
        assert discovery_significance(5, 5.0) == 0.0

    def test_uncertainty_degrades_significance(self):
        from repro.stats import discovery_significance

        clean = discovery_significance(10, 5.0)
        smeared = discovery_significance(10, 5.0, 2.0)
        assert smeared < clean

    def test_grows_with_excess(self):
        from repro.stats import discovery_significance

        values = [discovery_significance(n, 10.0)
                  for n in (12, 20, 40, 80)]
        assert values == sorted(values)
        assert values[-1] > 5.0

    def test_zero_background_rejected(self):
        from repro.errors import StatsError
        from repro.stats import discovery_significance

        with pytest.raises(StatsError):
            discovery_significance(5, 0.0)
