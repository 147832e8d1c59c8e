"""Batched simulation/digitisation kernels: determinism and statistics.

The batch kernels draw their randomness per *phase* (all vertices, then
all efficiencies, then all smears, ...) instead of per event, so their
output is statistically — not bitwise — equivalent to the scalar path.
These tests pin down what IS guaranteed:

* the kernels are deterministic functions of (seed, input events),
* everything RNG-free is exactly identical (deposit structure, truth
  links, bunch-crossing bookkeeping),
* the RNG-dependent observables agree statistically with the scalar
  path at sample sizes far above the test's noise floor.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.columnar.kernels import (
    DIGITIZATION_PHASES,
    SIMULATION_PHASES,
    batch_stream,
    digitize_batch,
    simulate_batch,
)
from repro.detector import DetectorSimulation, Digitizer
from repro.generation import DrellYanZ, GeneratorConfig, ToyGenerator
from repro.runtime.scheduler import derive_seed

N_EVENTS = 60


@pytest.fixture(scope="module")
def gen_events():
    generator = ToyGenerator(GeneratorConfig(
        processes=[DrellYanZ()], seed=9100))
    return generator.generate(N_EVENTS)


@pytest.fixture(scope="module")
def scalar_sim(gpd_geometry, gen_events):
    simulation = DetectorSimulation(gpd_geometry, seed=9101)
    return simulation.simulate_many(gen_events)


@pytest.fixture(scope="module")
def batch_sim(gpd_geometry, gen_events):
    simulation = DetectorSimulation(gpd_geometry, seed=9101)
    return simulate_batch(simulation, gen_events)


class TestPhaseStreams:
    def test_streams_are_independent_and_deterministic(self):
        assert len(set(SIMULATION_PHASES)) == len(SIMULATION_PHASES)
        assert len(set(DIGITIZATION_PHASES)) == len(DIGITIZATION_PHASES)
        for phase in SIMULATION_PHASES + DIGITIZATION_PHASES:
            a = batch_stream(1234, phase).normal(size=4)
            b = batch_stream(1234, phase).normal(size=4)
            assert a.tolist() == b.tolist()
        # Distinct phases derive distinct seeds.
        seeds = {derive_seed(1234, "columnar", phase)
                 for phase in SIMULATION_PHASES + DIGITIZATION_PHASES}
        assert len(seeds) == len(SIMULATION_PHASES
                                 + DIGITIZATION_PHASES)


class TestSimulateBatch:
    def test_deterministic(self, gpd_geometry, gen_events):
        first = simulate_batch(
            DetectorSimulation(gpd_geometry, seed=9101), gen_events)
        second = simulate_batch(
            DetectorSimulation(gpd_geometry, seed=9101), gen_events)
        for a, b in zip(first, second):
            assert a.primary_vertex == b.primary_vertex
            assert a.traversals == b.traversals
            assert a.deposits == b.deposits

    def test_rng_free_structure_identical(self, scalar_sim, batch_sim):
        # Which particles deposit where is pure classification — no
        # randomness — so the deposit structure (truth links,
        # subdetectors, directions) matches the scalar path exactly.
        for scalar, batch in zip(scalar_sim, batch_sim):
            assert scalar.event_number == batch.event_number
            assert scalar.process_name == batch.process_name
            assert ([(d.truth_index, d.subdetector, d.eta, d.phi)
                     for d in batch.deposits]
                    == [(d.truth_index, d.subdetector, d.eta, d.phi)
                        for d in scalar.deposits])

    def test_statistical_equivalence(self, scalar_sim, batch_sim):
        scalar_traversals = sum(len(e.traversals) for e in scalar_sim)
        batch_traversals = sum(len(e.traversals) for e in batch_sim)
        # Efficiency draws differ in order, not in distribution.
        assert batch_traversals == pytest.approx(scalar_traversals,
                                                 rel=0.1)
        scalar_energy = sum(d.measured_energy for e in scalar_sim
                            for d in e.deposits)
        batch_energy = sum(d.measured_energy for e in batch_sim
                           for d in e.deposits)
        assert batch_energy == pytest.approx(scalar_energy, rel=0.05)

    def test_vertices_follow_beam_spot(self, batch_sim):
        zs = [event.primary_vertex[2] for event in batch_sim]
        assert np.std(zs) > 0.0
        assert abs(float(np.mean(zs))) < 50.0


class TestDigitizeBatch:
    def test_deterministic(self, gpd_geometry, batch_sim):
        first = digitize_batch(
            Digitizer(gpd_geometry, run_number=71, seed=9102), batch_sim)
        second = digitize_batch(
            Digitizer(gpd_geometry, run_number=71, seed=9102), batch_sim)
        assert ([r.to_dict() for r in first]
                == [r.to_dict() for r in second])

    def test_bunch_crossings_match_scalar_loop(self, gpd_geometry,
                                               batch_sim):
        scalar_digi = Digitizer(gpd_geometry, run_number=71, seed=9102)
        scalar_raws = scalar_digi.digitize_many(batch_sim)
        batch_digi = Digitizer(gpd_geometry, run_number=71, seed=9102)
        batch_raws = digitize_batch(batch_digi, batch_sim)
        assert ([r.bunch_crossing for r in batch_raws]
                == [r.bunch_crossing for r in scalar_raws])
        assert ([r.run_number for r in batch_raws]
                == [r.run_number for r in scalar_raws])
        # Both paths leave the counter in the same place, so scalar
        # and batch calls can be interleaved without divergence.
        assert scalar_digi._bx == batch_digi._bx

    def test_statistical_equivalence(self, gpd_geometry, batch_sim):
        scalar_raws = Digitizer(gpd_geometry, run_number=71,
                                seed=9102).digitize_many(batch_sim)
        batch_raws = digitize_batch(
            Digitizer(gpd_geometry, run_number=71, seed=9102), batch_sim)
        for kind in ("tracker_hits", "calo_hits", "muon_hits"):
            scalar_count = sum(len(getattr(r, kind))
                               for r in scalar_raws)
            batch_count = sum(len(getattr(r, kind))
                              for r in batch_raws)
            assert batch_count == pytest.approx(
                scalar_count, rel=0.15, abs=20), kind

    def test_hits_are_well_formed(self, gpd_geometry, batch_sim):
        raws = digitize_batch(
            Digitizer(gpd_geometry, run_number=71, seed=9102), batch_sim)
        for raw in raws:
            for hit in raw.tracker_hits:
                assert -math.pi < hit.phi <= math.pi
            for hit in raw.muon_hits:
                assert -math.pi < hit.phi <= math.pi
            for hit in raw.calo_hits:
                assert hit.energy >= 0.0
                assert hit.subdetector in ("ecal", "hcal")


class TestBatchChainReconstructs:
    def test_batch_raws_flow_through_reconstruction(
            self, gpd_geometry, conditions_store, batch_sim):
        from repro.reconstruction import GlobalTagView, Reconstructor

        raws = digitize_batch(
            Digitizer(gpd_geometry, run_number=71, seed=9102), batch_sim)
        reconstructor = Reconstructor(
            gpd_geometry, GlobalTagView(conditions_store, "GT-FINAL"))
        recos = reconstructor.reconstruct_many(raws)
        assert len(recos) == len(raws)
        assert any(reco.muons for reco in recos)
