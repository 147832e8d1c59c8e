"""Parameterised detector simulation and digitisation.

This package stands in for the full GEANT-based simulation chains of the
LHC experiments. A :class:`DetectorGeometry` describes the apparatus (the
same description the outreach event displays consume); the
:class:`DetectorSimulation` transports truth particles through it, applying
acceptance, efficiency, and resolution; :mod:`repro.detector.digitization`
converts the energy deposits into the RAW data tier that reconstruction
consumes — completing the "Raw -> Reconstruction" half of the paper's
workflow taxonomy.

Random draws are written in numpy's primitive forms, so they cost less
and return the same bits as the convenience forms: ``rng.random()`` for
``rng.uniform()``, ``a + (b - a) * rng.random()`` for ``rng.uniform(a,
b)`` and ``0.0 + s * rng.standard_normal()`` for ``rng.normal(0.0, s)``
(see "Exact-tier scalar draws" in ``docs/performance.md``).
"""

from repro.detector.geometry import (
    DetectorGeometry,
    SubDetector,
    forward_spectrometer,
    generic_lhc_detector,
)
from repro.detector.response import (
    CaloResponse,
    EfficiencyCurve,
    TrackerResponse,
)
from repro.detector.simulation import DetectorSimulation, SimulatedEvent
from repro.detector.digitization import (
    CaloCellHit,
    Digitizer,
    MuonChamberHit,
    RawEvent,
    TrackerHit,
)

__all__ = [
    "DetectorGeometry",
    "SubDetector",
    "generic_lhc_detector",
    "forward_spectrometer",
    "TrackerResponse",
    "CaloResponse",
    "EfficiencyCurve",
    "DetectorSimulation",
    "SimulatedEvent",
    "Digitizer",
    "RawEvent",
    "TrackerHit",
    "CaloCellHit",
    "MuonChamberHit",
]
