"""Tests for histogram comparison and unfolding."""

import numpy as np
import pytest

from repro.errors import StatsError
from repro.stats import Histogram1D, chi2_test, ks_test, ratio_points
from repro.stats.unfolding import (
    bin_by_bin_factors,
    closure_deviation,
    unfold,
)


def _gaussian_histogram(name, mu, sigma, n, seed):
    rng = np.random.default_rng(seed)
    histogram = Histogram1D(name, 40, mu - 5 * sigma, mu + 5 * sigma)
    histogram.fill_array(rng.normal(mu, sigma, n))
    return histogram


class TestChi2:
    def test_identical_samples_compatible(self):
        a = _gaussian_histogram("a", 50.0, 5.0, 5000, 1)
        b = _gaussian_histogram("b", 50.0, 5.0, 5000, 2)
        assert chi2_test(a, b).compatible

    def test_shifted_samples_discrepant(self):
        a = _gaussian_histogram("a", 50.0, 5.0, 5000, 1)
        b = Histogram1D("b", 40, 25.0, 75.0)
        b.fill_array(np.random.default_rng(2).normal(53.0, 5.0, 5000))
        result = chi2_test(a, b)
        assert not result.compatible
        assert result.p_value < 1e-6

    def test_incompatible_binning_rejected(self):
        a = Histogram1D("a", 10, 0.0, 10.0)
        b = Histogram1D("b", 20, 0.0, 10.0)
        with pytest.raises(StatsError):
            chi2_test(a, b)

    def test_empty_histograms_rejected(self):
        a = Histogram1D("a", 10, 0.0, 10.0)
        b = Histogram1D("b", 10, 0.0, 10.0)
        with pytest.raises(StatsError):
            chi2_test(a, b)

    def test_dof_counts_populated_bins(self):
        a = Histogram1D("a", 10, 0.0, 10.0)
        b = Histogram1D("b", 10, 0.0, 10.0)
        a.fill(1.0)
        b.fill(2.0)
        assert chi2_test(a, b).n_dof == 2

    def test_summary_readable(self):
        a = _gaussian_histogram("a", 50.0, 5.0, 1000, 3)
        b = _gaussian_histogram("b", 50.0, 5.0, 1000, 4)
        assert "chi2" in chi2_test(a, b).summary()


class TestKS:
    def test_identical_compatible(self):
        a = _gaussian_histogram("a", 0.0, 1.0, 3000, 5)
        b = _gaussian_histogram("b", 0.0, 1.0, 3000, 6)
        assert ks_test(a, b).compatible

    def test_different_widths_discrepant(self):
        a = _gaussian_histogram("a", 0.0, 1.0, 5000, 7)
        b = Histogram1D("b", 40, -5.0, 5.0)
        rng = np.random.default_rng(8)
        b.fill_array(rng.normal(0.0, 1.6, 5000))
        assert not ks_test(a, b).compatible

    def test_statistic_bounded(self):
        a = _gaussian_histogram("a", 0.0, 1.0, 500, 9)
        b = _gaussian_histogram("b", 0.0, 1.0, 500, 10)
        assert 0.0 <= ks_test(a, b).statistic <= 1.0


def _histogram_pairs():
    """Seeded pairs spanning p-values from ~1 down to underflow."""
    for seed in range(40):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(20, 4000))
        shift = float(rng.uniform(0.0, 0.2)) * (seed % 4)
        width = 1.0 + float(rng.uniform(0.0, 0.1)) * (seed % 3)
        a = Histogram1D("a", int(rng.integers(5, 60)), -5.0, 5.0)
        b = Histogram1D("b", a.nbins, -5.0, 5.0)
        a.fill_array(rng.normal(0.0, 1.0, n))
        b.fill_array(rng.normal(shift, width,
                                int(n * rng.uniform(0.5, 1.5))))
        yield a, b


class TestPValueIdentity:
    """The scipy.special survival functions equal scipy.stats' bit for bit.

    ``chi2_test`` and ``ks_test`` call ``chdtrc`` and ``kolmogorov``
    directly; the distribution objects wrap exactly those functions.
    """

    def test_chi2_matches_distribution_sf(self):
        from scipy import stats

        for a, b in _histogram_pairs():
            result = chi2_test(a, b)
            expected = float(stats.chi2.sf(result.statistic, result.n_dof))
            assert result.p_value.hex() == expected.hex()

    def test_ks_matches_distribution_sf(self):
        from scipy import stats

        for a, b in _histogram_pairs():
            result = ks_test(a, b)
            n1 = a.integral() ** 2 / float((a.errors() ** 2).sum())
            n2 = b.integral() ** 2 / float((b.errors() ** 2).sum())
            y = result.statistic * np.sqrt(n1 * n2 / (n1 + n2))
            expected = float(stats.kstwobign.sf(y))
            assert result.p_value.hex() == expected.hex()

    def test_zero_statistic_gives_unit_p_value(self):
        a = _gaussian_histogram("a", 0.0, 1.0, 2000, 11)
        b = _gaussian_histogram("b", 0.0, 1.0, 2000, 11)
        chi2_result = chi2_test(a, b)
        ks_result = ks_test(a, b)
        assert chi2_result.statistic == 0.0
        assert ks_result.statistic == 0.0
        assert chi2_result.p_value == 1.0
        assert ks_result.p_value == 1.0


class TestRatio:
    def test_unit_ratio_for_identical(self):
        a = _gaussian_histogram("a", 0.0, 1.0, 2000, 11)
        points = ratio_points(a, a)
        for _, ratio, _ in points:
            assert ratio == pytest.approx(1.0)

    def test_empty_denominator_bins_skipped(self):
        a = Histogram1D("a", 4, 0.0, 4.0)
        b = Histogram1D("b", 4, 0.0, 4.0)
        a.fill(0.5)
        a.fill(1.5)
        b.fill(0.5)
        points = ratio_points(a, b)
        assert len(points) == 1


class TestUnfolding:
    def _response_pair(self, seed):
        rng = np.random.default_rng(seed)
        truth = Histogram1D("truth", 20, 0.0, 100.0)
        reco = Histogram1D("reco", 20, 0.0, 100.0)
        samples = rng.uniform(5.0, 95.0, 8000)
        truth.fill_array(samples)
        # Reco loses 20% of entries and smears by 3 GeV.
        kept = samples[rng.uniform(size=len(samples)) < 0.8]
        reco.fill_array(kept + rng.normal(0.0, 3.0, len(kept)))
        return truth, reco

    def test_factors_correct_efficiency_loss(self):
        truth, reco = self._response_pair(12)
        factors = bin_by_bin_factors(truth, reco)
        central = factors[5:15]
        assert np.all(central > 1.0)
        assert np.mean(central) == pytest.approx(1.25, rel=0.1)

    def test_closure_is_exact(self):
        truth, reco = self._response_pair(13)
        assert closure_deviation(truth, reco) < 1e-12

    def test_unfolded_data_matches_truth_shape(self):
        truth, reco = self._response_pair(14)
        # Independent "data" with the same response.
        data_truth, data_reco = self._response_pair(15)
        unfolded = unfold(data_reco, truth, reco)
        result = chi2_test(unfolded, data_truth)
        assert result.p_value > 1e-4

    def test_binning_mismatch_rejected(self):
        truth = Histogram1D("t", 10, 0.0, 10.0)
        reco = Histogram1D("r", 20, 0.0, 10.0)
        with pytest.raises(StatsError):
            bin_by_bin_factors(truth, reco)

    def test_empty_reco_bins_zeroed(self):
        truth = Histogram1D("t", 4, 0.0, 4.0)
        reco = Histogram1D("r", 4, 0.0, 4.0)
        truth.fill(0.5)
        truth.fill(1.5)
        reco.fill(1.5)
        factors = bin_by_bin_factors(truth, reco)
        assert factors[0] == 0.0
        assert factors[1] == 1.0
