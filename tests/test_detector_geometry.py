"""Tests for detector geometries."""

import pytest

from repro.detector import (
    DetectorGeometry,
    SubDetector,
    forward_spectrometer,
    generic_lhc_detector,
)
from repro.detector.geometry import SubDetectorKind
from repro.errors import ConfigurationError


class TestSubDetector:
    def test_inverted_envelope_rejected(self):
        with pytest.raises(ConfigurationError):
            SubDetector("bad", SubDetectorKind.TRACKER, 2.5, 100.0, 50.0)

    def test_layer_outside_envelope_rejected(self):
        with pytest.raises(ConfigurationError):
            SubDetector("bad", SubDetectorKind.TRACKER, 2.5, 50.0, 100.0,
                        layer_radii_mm=(200.0,))

    def test_non_positive_eta_rejected(self):
        with pytest.raises(ConfigurationError):
            SubDetector("bad", SubDetectorKind.ECAL, 0.0, 10.0, 20.0)

    @pytest.mark.parametrize("eta_cells,phi_cells", [
        (-1, 0), (0, -1), (-4, 8), (8, -4), (-2, -2),
    ])
    def test_negative_cell_counts_rejected(self, eta_cells, phi_cells):
        with pytest.raises(ConfigurationError, match="non-negative"):
            SubDetector("bad", SubDetectorKind.ECAL, 2.5, 10.0, 20.0,
                        eta_cells=eta_cells, phi_cells=phi_cells)

    @pytest.mark.parametrize("eta_cells,phi_cells", [(10, 0), (0, 10)])
    def test_half_granular_cells_rejected(self, eta_cells, phi_cells):
        with pytest.raises(ConfigurationError, match="both"):
            SubDetector("bad", SubDetectorKind.ECAL, 2.5, 10.0, 20.0,
                        eta_cells=eta_cells, phi_cells=phi_cells)

    @pytest.mark.parametrize("eta_cells,phi_cells", [(0, 0), (1, 1), (7, 3)])
    def test_consistent_cell_counts_accepted(self, eta_cells, phi_cells):
        sub = SubDetector("ok", SubDetectorKind.ECAL, 2.5, 10.0, 20.0,
                          eta_cells=eta_cells, phi_cells=phi_cells)
        assert (sub.eta_cells, sub.phi_cells) == (eta_cells, phi_cells)


class TestGeometry:
    def test_generic_detector_has_all_systems(self):
        geometry = generic_lhc_detector()
        assert geometry.tracker.name == "tracker"
        assert geometry.ecal.eta_cells > 0
        assert geometry.hcal.kind == SubDetectorKind.HCAL
        assert len(geometry.muon_system.layer_radii_mm) == 3

    def test_forward_detector_layout(self):
        geometry = forward_spectrometer()
        assert geometry.tracker.hit_resolution_mm < 0.05
        assert geometry.tracker.eta_max > 4.0

    def test_duplicate_name_rejected(self):
        geometry = generic_lhc_detector()
        with pytest.raises(ConfigurationError):
            geometry.add(SubDetector("tracker", SubDetectorKind.TRACKER,
                                     2.5, 10.0, 20.0))

    def test_missing_system_raises(self):
        geometry = DetectorGeometry("empty", 2.0)
        with pytest.raises(ConfigurationError):
            _ = geometry.tracker

    def test_of_kind_filtering(self):
        geometry = generic_lhc_detector()
        trackers = geometry.of_kind(SubDetectorKind.TRACKER)
        assert len(trackers) == 1


class TestDisplayExport:
    def test_export_is_self_documenting(self):
        record = generic_lhc_detector().to_display_dict()
        assert record["schema"]["format"] == "repro-display-geometry"
        assert "units" in record["schema"]
        assert len(record["subdetectors"]) == 4

    def test_export_units_and_fields(self):
        record = forward_spectrometer().to_display_dict()
        assert record["schema"]["units"]["length"] == "mm"
        names = [s["name"] for s in record["subdetectors"]]
        assert "velo_tracker" in names

    def test_export_round_numbers(self):
        record = generic_lhc_detector().to_display_dict()
        tracker = next(s for s in record["subdetectors"]
                       if s["name"] == "tracker")
        assert tracker["layer_radii_mm"][0] == 50.0
