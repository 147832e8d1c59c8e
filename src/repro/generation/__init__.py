"""Toy Monte Carlo event generation.

This package plays the role of the event generators (Pythia/Herwig/...) and
the HepMC exchange format in the paper's ecosystem: it produces truth-level
events — :class:`GenEvent` records of generated particles — that the
detector simulation consumes and that the RIVET-analogue framework analyses
directly.

The physics is deliberately simplified (factorised production spectra,
isotropic decays, toy fragmentation) but statistically honest: mass peaks
are Breit-Wigners, lifetimes are exponential, spectra have the right gross
shapes, so every downstream preservation workflow exercises realistic data.

Random draws are written in numpy's primitive forms, so they cost less
and return the same bits as the convenience forms: ``rng.random()`` for
``rng.uniform()``, ``a + (b - a) * rng.random()`` for ``rng.uniform(a,
b)`` and ``0.0 + s * rng.standard_normal()`` for ``rng.normal(0.0, s)``
(see "Exact-tier scalar draws" in ``docs/performance.md``).
"""

from repro.generation.hepmc import GenEvent, GenParticle, ParticleStatus
from repro.generation.generator import (
    GeneratorConfig,
    GeneratorRunInfo,
    ToyGenerator,
)
from repro.generation.processes import (
    DrellYanZ,
    DzeroProduction,
    HiggsToFourLeptons,
    JpsiToMuMu,
    KshortProduction,
    MinimumBias,
    Process,
    QCDDijets,
    WProduction,
    ZPrimeResonance,
)

__all__ = [
    "GenEvent",
    "GenParticle",
    "ParticleStatus",
    "GeneratorConfig",
    "GeneratorRunInfo",
    "ToyGenerator",
    "Process",
    "DrellYanZ",
    "WProduction",
    "HiggsToFourLeptons",
    "QCDDijets",
    "DzeroProduction",
    "KshortProduction",
    "JpsiToMuMu",
    "MinimumBias",
    "ZPrimeResonance",
]
