"""Detector geometry descriptions.

A geometry is both a *simulation input* (layer radii, cell granularity,
acceptance) and a *preservation artifact*: Table 1 of the paper records how
each experiment ships a geometry description (ROOT, XML, XML/JSON) to its
event displays. :meth:`DetectorGeometry.to_display_dict` is our equivalent
of those exports — a self-describing JSON structure the outreach display
layer renders.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import ConfigurationError


class SubDetectorKind(enum.Enum):
    """Coarse functional classes of sub-detectors."""

    TRACKER = "tracker"
    ECAL = "ecal"
    HCAL = "hcal"
    MUON = "muon"


@dataclass(frozen=True)
class SubDetector:
    """One cylindrical sub-detector.

    ``layer_radii_mm`` lists the sensitive layers for tracking detectors
    (empty for calorimeters); ``eta_cells`` x ``phi_cells`` gives the
    calorimeter cell granularity (zero for trackers); ``eta_max`` is the
    acceptance edge.
    """

    name: str
    kind: SubDetectorKind
    eta_max: float
    inner_radius_mm: float
    outer_radius_mm: float
    layer_radii_mm: tuple[float, ...] = ()
    eta_cells: int = 0
    phi_cells: int = 0
    hit_resolution_mm: float = 0.0

    def __post_init__(self) -> None:
        if self.inner_radius_mm >= self.outer_radius_mm:
            raise ConfigurationError(
                f"{self.name}: inner radius {self.inner_radius_mm} must be "
                f"less than outer radius {self.outer_radius_mm}"
            )
        if self.eta_max <= 0.0:
            raise ConfigurationError(f"{self.name}: eta_max must be positive")
        for radius in self.layer_radii_mm:
            if not self.inner_radius_mm <= radius <= self.outer_radius_mm:
                raise ConfigurationError(
                    f"{self.name}: layer at {radius} mm outside envelope"
                )
        if self.eta_cells < 0 or self.phi_cells < 0:
            raise ConfigurationError(
                f"{self.name}: cell counts must be non-negative, got "
                f"{self.eta_cells} x {self.phi_cells}"
            )
        if (self.eta_cells == 0) != (self.phi_cells == 0):
            raise ConfigurationError(
                f"{self.name}: eta_cells and phi_cells must both be zero "
                f"(no cells) or both positive, got "
                f"{self.eta_cells} x {self.phi_cells}"
            )

    def to_dict(self) -> dict:
        """Serialise for the display-geometry export."""
        return {
            "name": self.name,
            "kind": self.kind.value,
            "eta_max": self.eta_max,
            "inner_radius_mm": self.inner_radius_mm,
            "outer_radius_mm": self.outer_radius_mm,
            "layer_radii_mm": list(self.layer_radii_mm),
            "eta_cells": self.eta_cells,
            "phi_cells": self.phi_cells,
        }


@dataclass
class DetectorGeometry:
    """A complete detector: named sub-detectors plus the solenoid field."""

    name: str
    bfield_tesla: float
    subdetectors: dict[str, SubDetector] = field(default_factory=dict)

    def add(self, subdetector: SubDetector) -> None:
        """Register a sub-detector; names must be unique."""
        if subdetector.name in self.subdetectors:
            raise ConfigurationError(
                f"duplicate sub-detector name {subdetector.name!r}"
            )
        self.subdetectors[subdetector.name] = subdetector

    def of_kind(self, kind: SubDetectorKind) -> list[SubDetector]:
        """All sub-detectors of a functional kind."""
        return [s for s in self.subdetectors.values() if s.kind == kind]

    @property
    def tracker(self) -> SubDetector:
        """The (single) tracking detector."""
        trackers = self.of_kind(SubDetectorKind.TRACKER)
        if len(trackers) != 1:
            raise ConfigurationError(
                f"{self.name}: expected exactly one tracker, found "
                f"{len(trackers)}"
            )
        return trackers[0]

    @property
    def ecal(self) -> SubDetector:
        """The electromagnetic calorimeter."""
        ecals = self.of_kind(SubDetectorKind.ECAL)
        if len(ecals) != 1:
            raise ConfigurationError(
                f"{self.name}: expected exactly one ECAL, found {len(ecals)}"
            )
        return ecals[0]

    @property
    def hcal(self) -> SubDetector:
        """The hadronic calorimeter."""
        hcals = self.of_kind(SubDetectorKind.HCAL)
        if len(hcals) != 1:
            raise ConfigurationError(
                f"{self.name}: expected exactly one HCAL, found {len(hcals)}"
            )
        return hcals[0]

    @property
    def muon_system(self) -> SubDetector:
        """The muon spectrometer."""
        muons = self.of_kind(SubDetectorKind.MUON)
        if len(muons) != 1:
            raise ConfigurationError(
                f"{self.name}: expected exactly one muon system, found "
                f"{len(muons)}"
            )
        return muons[0]

    def to_display_dict(self) -> dict:
        """Self-describing geometry export for event displays.

        This is the analogue of the XML/JSON geometry files in Table 1: it
        contains everything a display needs to draw the detector, plus a
        ``schema`` block documenting its own fields.
        """
        return {
            "schema": {
                "format": "repro-display-geometry",
                "version": "1.0",
                "units": {"length": "mm", "field": "tesla"},
                "fields": {
                    "name": "detector name",
                    "bfield_tesla": "solenoid field strength",
                    "subdetectors": "list of cylindrical sub-detectors",
                },
            },
            "name": self.name,
            "bfield_tesla": self.bfield_tesla,
            "subdetectors": [s.to_dict() for s in self.subdetectors.values()],
        }


def generic_lhc_detector(name: str = "GPD") -> DetectorGeometry:
    """A general-purpose (ATLAS/CMS-like) detector geometry."""
    geometry = DetectorGeometry(name=name, bfield_tesla=2.0)
    geometry.add(SubDetector(
        name="tracker",
        kind=SubDetectorKind.TRACKER,
        eta_max=2.5,
        inner_radius_mm=30.0,
        outer_radius_mm=1100.0,
        layer_radii_mm=(50.0, 90.0, 160.0, 250.0, 400.0, 600.0, 850.0,
                        1050.0),
        hit_resolution_mm=0.05,
    ))
    geometry.add(SubDetector(
        name="ecal",
        kind=SubDetectorKind.ECAL,
        eta_max=3.0,
        inner_radius_mm=1300.0,
        outer_radius_mm=1700.0,
        eta_cells=120,
        phi_cells=128,
    ))
    geometry.add(SubDetector(
        name="hcal",
        kind=SubDetectorKind.HCAL,
        eta_max=4.0,
        inner_radius_mm=1800.0,
        outer_radius_mm=3000.0,
        eta_cells=80,
        phi_cells=64,
    ))
    geometry.add(SubDetector(
        name="muon",
        kind=SubDetectorKind.MUON,
        eta_max=2.4,
        inner_radius_mm=4000.0,
        outer_radius_mm=7000.0,
        layer_radii_mm=(4500.0, 5500.0, 6500.0),
        hit_resolution_mm=0.3,
    ))
    return geometry


def forward_spectrometer(name: str = "FWD") -> DetectorGeometry:
    """An LHCb-like forward spectrometer.

    Modelled as a cylinder but with acceptance restricted to the forward
    region (2 < eta < 4.8 approximated by ``eta_max`` plus an ``eta_min``
    convention handled in the simulation via the acceptance helper).
    """
    geometry = DetectorGeometry(name=name, bfield_tesla=1.1)
    geometry.add(SubDetector(
        name="velo_tracker",
        kind=SubDetectorKind.TRACKER,
        eta_max=4.8,
        inner_radius_mm=8.0,
        outer_radius_mm=900.0,
        layer_radii_mm=(10.0, 30.0, 70.0, 150.0, 300.0, 550.0, 800.0),
        hit_resolution_mm=0.012,
    ))
    geometry.add(SubDetector(
        name="ecal",
        kind=SubDetectorKind.ECAL,
        eta_max=4.8,
        inner_radius_mm=1000.0,
        outer_radius_mm=1300.0,
        eta_cells=100,
        phi_cells=100,
    ))
    geometry.add(SubDetector(
        name="hcal",
        kind=SubDetectorKind.HCAL,
        eta_max=4.8,
        inner_radius_mm=1400.0,
        outer_radius_mm=1900.0,
        eta_cells=60,
        phi_cells=60,
    ))
    geometry.add(SubDetector(
        name="muon",
        kind=SubDetectorKind.MUON,
        eta_max=4.8,
        inner_radius_mm=2000.0,
        outer_radius_mm=3000.0,
        layer_radii_mm=(2200.0, 2600.0),
        hit_resolution_mm=0.5,
    ))
    return geometry
