"""Tests for the physics processes."""

import numpy as np
import pytest

from repro.errors import GenerationError
from repro.generation import (
    DrellYanZ,
    DzeroProduction,
    GenEvent,
    HiggsToFourLeptons,
    JpsiToMuMu,
    MinimumBias,
    QCDDijets,
    WProduction,
    ZPrimeResonance,
)
from repro.generation.processes import Tune
from repro.kinematics import default_particle_table, invariant_mass


@pytest.fixture
def table():
    return default_particle_table()


def _fill_one(process, table, seed=3):
    rng = np.random.default_rng(seed)
    event = GenEvent(0, process.process_id, process.name, 8000.0)
    process.fill(event, rng, table, Tune.tune_a())
    event.validate()
    return event


class TestDrellYanZ:
    def test_produces_opposite_charge_muons(self, table):
        event = _fill_one(DrellYanZ(), table)
        muons = [p for p in event.final_state() if abs(p.pdg_id) == 13]
        assert len(muons) == 2
        assert muons[0].pdg_id == -muons[1].pdg_id

    def test_mass_peak(self, table):
        rng = np.random.default_rng(8)
        masses = []
        process = DrellYanZ()
        for i in range(300):
            event = GenEvent(i, 230, "z", 8000.0)
            process.fill(event, rng, table, Tune.tune_a())
            pair = [p.momentum for p in event.final_state()
                    if abs(p.pdg_id) == 13]
            masses.append(invariant_mass(pair))
        assert float(np.median(masses)) == pytest.approx(91.2, abs=1.0)

    def test_electron_flavour(self, table):
        event = _fill_one(DrellYanZ(flavour="e"), table)
        electrons = [p for p in event.final_state()
                     if abs(p.pdg_id) == 11]
        assert len(electrons) == 2

    def test_bad_flavour_rejected(self):
        with pytest.raises(GenerationError):
            DrellYanZ(flavour="tau")


class TestWProduction:
    def test_charge_correlation(self, table):
        event = _fill_one(WProduction(charge=1), table)
        leptons = [p for p in event.final_state()
                   if abs(p.pdg_id) == 13]
        neutrinos = [p for p in event.final_state()
                     if abs(p.pdg_id) == 14]
        assert len(leptons) == 1 and len(neutrinos) == 1
        # W+ -> mu+ (pdg -13) + nu_mu (pdg 14).
        assert leptons[0].pdg_id == -13
        assert neutrinos[0].pdg_id == 14

    def test_minus_charge(self, table):
        event = _fill_one(WProduction(charge=-1), table)
        leptons = [p for p in event.final_state()
                   if abs(p.pdg_id) == 13]
        assert leptons[0].pdg_id == 13

    def test_bad_charge_rejected(self):
        with pytest.raises(GenerationError):
            WProduction(charge=2)


class TestHiggs:
    def test_four_leptons_with_zero_net_charge(self, table):
        event = _fill_one(HiggsToFourLeptons(), table)
        leptons = [p for p in event.final_state()
                   if abs(p.pdg_id) in (11, 13)]
        assert len(leptons) == 4
        charges = sum(-1 if p.pdg_id > 0 else 1 for p in leptons)
        assert charges == 0

    def test_four_lepton_mass_is_higgs(self, table):
        event = _fill_one(HiggsToFourLeptons(), table)
        leptons = [p.momentum for p in event.final_state()
                   if abs(p.pdg_id) in (11, 13)]
        assert invariant_mass(leptons) == pytest.approx(125.0, abs=0.5)


class TestQCDDijets:
    def test_produces_hadrons(self, table):
        event = _fill_one(QCDDijets(), table)
        hadrons = [p for p in event.final_state()
                   if abs(p.pdg_id) in (211, 111, 321, 130)]
        assert len(hadrons) >= 4

    def test_spectrum_bounds(self, table):
        process = QCDDijets(pt_min=30.0, pt_max=100.0)
        rng = np.random.default_rng(5)
        for _ in range(200):
            pt = process._sample_pt(rng)
            assert 30.0 <= pt <= 100.0

    def test_falling_spectrum(self, table):
        process = QCDDijets(pt_min=20.0, pt_max=500.0)
        rng = np.random.default_rng(6)
        samples = np.array([process._sample_pt(rng) for _ in range(4000)])
        low = np.sum(samples < 40.0)
        high = np.sum(samples > 100.0)
        assert low > 10 * high

    def test_bad_range_rejected(self):
        with pytest.raises(GenerationError):
            QCDDijets(pt_min=100.0, pt_max=50.0)


class TestDzero:
    def test_displaced_decay_vertex(self, table):
        event = _fill_one(DzeroProduction(), table, seed=11)
        d0 = event.particles_with_pdg(421)[0]
        assert d0.decay_vertex is not None
        kaons = event.particles_with_pdg(-321)
        assert kaons[0].production_vertex == d0.decay_vertex

    def test_kpi_mass(self, table):
        event = _fill_one(DzeroProduction(), table, seed=12)
        kaon = event.particles_with_pdg(-321)[0]
        pion = event.particles_with_pdg(211)[0]
        mass = invariant_mass([kaon.momentum, pion.momentum])
        assert mass == pytest.approx(1.865, abs=0.01)

    def test_forward_production(self, table):
        event = _fill_one(DzeroProduction(), table, seed=13)
        d0 = event.particles_with_pdg(421)[0]
        assert 2.0 <= d0.momentum.eta <= 4.5


class TestJpsi:
    def test_dimuon_at_jpsi_mass(self, table):
        event = _fill_one(JpsiToMuMu(), table)
        muons = [p.momentum for p in event.final_state()
                 if abs(p.pdg_id) == 13]
        assert invariant_mass(muons) == pytest.approx(3.097, abs=0.01)


class TestMinimumBias:
    def test_multiplicity_follows_tune(self, table):
        rng = np.random.default_rng(9)
        process = MinimumBias()
        counts = []
        for i in range(300):
            event = GenEvent(i, 1, "mb", 8000.0)
            process.fill(event, rng, table, Tune.tune_a())
            counts.append(len(event.final_state()))
        assert float(np.mean(counts)) == pytest.approx(12.0, rel=0.15)

    def test_tune_b_is_busier(self, table):
        rng = np.random.default_rng(10)
        process = MinimumBias()

        def mean_mult(tune):
            counts = []
            for i in range(300):
                event = GenEvent(i, 1, "mb", 8000.0)
                process.fill(event, rng, table, tune)
                counts.append(len(event.final_state()))
            return float(np.mean(counts))

        assert mean_mult(Tune.tune_b()) > mean_mult(Tune.tune_a())


class TestZPrime:
    def test_mass_peak_at_requested_mass(self, table):
        rng = np.random.default_rng(14)
        process = ZPrimeResonance(mass=2000.0)
        masses = []
        for i in range(100):
            event = GenEvent(i, 3200, "zp", 8000.0)
            process.fill(event, rng, table, Tune.tune_a())
            pair = [p.momentum for p in event.final_state()
                    if abs(p.pdg_id) == 13]
            masses.append(invariant_mass(pair))
        assert float(np.median(masses)) == pytest.approx(2000.0, rel=0.05)

    def test_too_light_rejected(self):
        with pytest.raises(GenerationError):
            ZPrimeResonance(mass=100.0)

    @pytest.mark.parametrize("mass", [float("nan"), float("inf")])
    def test_non_finite_mass_rejected(self, mass):
        with pytest.raises(GenerationError):
            ZPrimeResonance(mass=mass)

    def test_electron_flavour(self, table):
        event = _fill_one(ZPrimeResonance(flavour="e"), table)
        assert sorted(p.pdg_id for p in event.final_state()) == [-11, 11]

    def test_bad_flavour_rejected(self):
        # A tau flavour used to be accepted, named ``..._to_tautau``,
        # and generated electrons.
        with pytest.raises(GenerationError):
            ZPrimeResonance(flavour="tau")

    def test_mass_scan_rejects_bad_flavour(self):
        from repro.datamodel import CountCut, SkimSpec
        from repro.recast import FullChainBackend, PreservedSearch
        from repro.recast.scan import run_mass_scan

        search = PreservedSearch(
            analysis_id="GPD-EXO-01", title="dilepton", experiment="GPD",
            selection=SkimSpec("dimuon", CountCut("muons", 2)),
            n_observed=3, background=2.5, background_uncertainty=0.6,
            luminosity_ipb=20000.0)
        backend = FullChainBackend("GPD", n_events=5, n_limit_toys=50)
        with pytest.raises(GenerationError, match="tau"):
            run_mass_scan(backend, search, [600.0], flavour="tau")
