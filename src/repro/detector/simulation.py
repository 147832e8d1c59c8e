"""Transport of truth particles through the detector.

:class:`DetectorSimulation` converts a :class:`~repro.generation.GenEvent`
into a :class:`SimulatedEvent`: the set of charged-particle traversals that
will make tracker hits, the muon-system traversals, and the calorimeter
energy deposits. Truth links are retained *here* (they are needed for
efficiency studies and for the truth-vs-reco fidelity benchmarks) but are
deliberately dropped at digitisation: the RAW tier, as in a real experiment,
carries detector signals only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.detector.geometry import DetectorGeometry, SubDetector
from repro.detector.response import CaloResponse, EfficiencyCurve
from repro.generation.hepmc import GenEvent, GenParticle
from repro.kinematics import FourVector, ParticleTable, default_particle_table

#: PDG ids of particles that never leave a detector signal.
INVISIBLE_PDG_IDS = frozenset({12, -12, 14, -14, 16, -16, 1000022, -1000022})

#: Fraction of a charged hadron's energy deposited in the ECAL.
_HADRON_ECAL_FRACTION = 0.25

#: Mean ionisation energy a muon leaves in the calorimeters, GeV.
_MUON_MIP_ENERGY = 3.0


@dataclass(frozen=True)
class Traversal:
    """A charged particle crossing the tracker (and maybe muon system).

    ``origin`` is the production point in mm; ``truth_index`` links back to
    the generator record for efficiency bookkeeping.
    """

    truth_index: int
    pdg_id: int
    charge: float
    momentum: FourVector
    origin: tuple[float, float, float]
    reaches_muon_system: bool


@dataclass(frozen=True)
class CaloDeposit:
    """An energy deposit in one calorimeter, pre-digitisation.

    ``measured_energy`` already includes the calorimeter resolution
    smearing; the digitiser distributes it over cells and adds noise.
    """

    truth_index: int
    subdetector: str
    eta: float
    phi: float
    measured_energy: float


@dataclass
class SimulatedEvent:
    """Simulation output for one event, with truth links intact."""

    event_number: int
    process_name: str
    primary_vertex: tuple[float, float, float]
    traversals: list[Traversal] = field(default_factory=list)
    deposits: list[CaloDeposit] = field(default_factory=list)
    truth: GenEvent | None = None

    def traversal_for(self, truth_index: int) -> Traversal | None:
        """The traversal made by a given truth particle, if any."""
        for traversal in self.traversals:
            if traversal.truth_index == truth_index:
                return traversal
        return None


@dataclass(frozen=True)
class SimulationConfig:
    """Tunable parameters of the fast simulation."""

    track_efficiency: EfficiencyCurve = EfficiencyCurve(
        plateau=0.97, threshold=0.5, width=0.15
    )
    muon_efficiency: EfficiencyCurve = EfficiencyCurve(
        plateau=0.95, threshold=3.0, width=0.8
    )
    ecal_response: CaloResponse = CaloResponse(
        stochastic_term=0.10, constant_term=0.007
    )
    hcal_response: CaloResponse = CaloResponse(
        stochastic_term=0.50, constant_term=0.03
    )
    #: Minimum pt for a charged particle to cross the tracker at all.
    min_track_pt: float = 0.2
    #: Minimum pseudorapidity for forward spectrometers (0 disables).
    eta_min: float = 0.0
    #: Beam-spot z spread used when the generator did not set a vertex, mm.
    beamspot_sigma_z_mm: float = 35.0
    beamspot_sigma_xy_mm: float = 0.015


class DetectorSimulation:
    """Fast simulation of one detector geometry.

    >>> from repro.detector import generic_lhc_detector
    >>> sim = DetectorSimulation(generic_lhc_detector(), seed=7)
    """

    def __init__(
        self,
        geometry: DetectorGeometry,
        config: SimulationConfig | None = None,
        table: ParticleTable | None = None,
        seed: int = 42,
    ) -> None:
        self.geometry = geometry
        self.config = config if config is not None else SimulationConfig()
        self.table = table if table is not None else default_particle_table()
        self.seed = seed
        self._rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------

    def _in_acceptance(self, particle: GenParticle, eta_max: float) -> bool:
        eta = particle.momentum.eta
        if math.isinf(eta):
            return False
        if abs(eta) > eta_max:
            return False
        if self.config.eta_min > 0.0 and abs(eta) < self.config.eta_min:
            return False
        return True

    def _charge_of(self, pdg_id: int) -> float:
        if pdg_id in self.table:
            return self.table.by_id(pdg_id).charge
        # Unknown exotics are treated as neutral and invisible.
        return 0.0

    def _is_visible(self, particle: GenParticle) -> bool:
        if particle.pdg_id in INVISIBLE_PDG_IDS:
            return False
        if particle.pdg_id not in self.table:
            return False
        return True

    # ------------------------------------------------------------------

    def simulate(self, event: GenEvent) -> SimulatedEvent:
        """Run the fast simulation over one truth event."""
        rng = self._rng
        sigma_xy = self.config.beamspot_sigma_xy_mm
        primary_vertex = (
            0.0 + sigma_xy * rng.standard_normal(),
            0.0 + sigma_xy * rng.standard_normal(),
            0.0 + self.config.beamspot_sigma_z_mm * rng.standard_normal(),
        )
        sim_event = SimulatedEvent(
            event_number=event.event_number,
            process_name=event.process_name,
            primary_vertex=primary_vertex,
            truth=event,
        )
        tracker = self.geometry.tracker
        muon_system = self.geometry.muon_system
        ecal = self.geometry.ecal
        hcal = self.geometry.hcal

        for particle in event.final_state():
            if not self._is_visible(particle):
                continue
            momentum = particle.momentum
            charge = self._charge_of(particle.pdg_id)
            origin = particle.production_vertex
            if origin is None:
                origin = primary_vertex
            else:
                origin = (
                    origin[0] + primary_vertex[0],
                    origin[1] + primary_vertex[1],
                    origin[2] + primary_vertex[2],
                )
            abs_id = abs(particle.pdg_id)
            is_muon = abs_id == 13

            # Charged particles: tracker traversal, subject to efficiency.
            if charge != 0.0 and momentum.pt >= self.config.min_track_pt:
                if self._in_acceptance(particle, tracker.eta_max):
                    efficiency = (
                        self.config.muon_efficiency
                        if is_muon
                        else self.config.track_efficiency
                    )
                    if efficiency.passes(momentum.pt, rng):
                        reaches_muon = (
                            is_muon
                            and momentum.pt > 3.0
                            and self._in_acceptance(particle,
                                                    muon_system.eta_max)
                        )
                        sim_event.traversals.append(Traversal(
                            truth_index=particle.index,
                            pdg_id=particle.pdg_id,
                            charge=charge,
                            momentum=momentum,
                            origin=origin,
                            reaches_muon_system=reaches_muon,
                        ))

            # Calorimeter deposits.
            self._deposit(sim_event, particle, is_muon, ecal, hcal)

        return sim_event

    def _deposit(self, sim_event: SimulatedEvent, particle: GenParticle,
                 is_muon: bool, ecal: SubDetector, hcal: SubDetector) -> None:
        """Deposit the particle's energy into the calorimeters."""
        rng = self._rng
        momentum = particle.momentum
        energy = momentum.e
        eta = momentum.eta
        phi = momentum.phi
        if math.isinf(eta):
            return
        abs_id = abs(particle.pdg_id)
        config = self.config

        if is_muon:
            # Minimum-ionising deposit, split between the calorimeters.
            if abs(eta) <= hcal.eta_max:
                mip = min(energy, rng.exponential(_MUON_MIP_ENERGY))
                sim_event.deposits.append(CaloDeposit(
                    particle.index, hcal.name, eta, phi,
                    config.hcal_response.smear(0.7 * mip, rng)))
                sim_event.deposits.append(CaloDeposit(
                    particle.index, ecal.name, eta, phi,
                    config.ecal_response.smear(0.3 * mip, rng)))
            return

        if abs_id in (11, 22):
            # Electrons and photons shower fully in the ECAL.
            if abs(eta) <= ecal.eta_max:
                measured = config.ecal_response.smear(energy, rng)
                sim_event.deposits.append(CaloDeposit(
                    particle.index, ecal.name, eta, phi, measured))
            return

        # Hadrons: a fraction in the ECAL, the rest in the HCAL.
        if abs(eta) <= hcal.eta_max:
            ecal_part = _HADRON_ECAL_FRACTION * energy
            hcal_part = energy - ecal_part
            if abs(eta) <= ecal.eta_max:
                sim_event.deposits.append(CaloDeposit(
                    particle.index, ecal.name, eta, phi,
                    config.ecal_response.smear(ecal_part, rng)))
            else:
                hcal_part = energy
            sim_event.deposits.append(CaloDeposit(
                particle.index, hcal.name, eta, phi,
                config.hcal_response.smear(hcal_part, rng)))

    def simulate_many(self, events: list[GenEvent]) -> list[SimulatedEvent]:
        """Simulate a list of events in order."""
        return [self.simulate(event) for event in events]

    def describe(self) -> dict:
        """Provenance description of the simulation configuration."""
        return {
            "simulator": "repro-fastsim",
            "version": "1.0.0",
            "geometry": self.geometry.name,
            "bfield_tesla": self.geometry.bfield_tesla,
            "track_efficiency_plateau":
                self.config.track_efficiency.plateau,
            "ecal_stochastic": self.config.ecal_response.stochastic_term,
            "hcal_stochastic": self.config.hcal_response.stochastic_term,
        }
