"""Golden digests of the full physics chain.

Every physics process runs about 20 events through generation ->
simulation -> digitisation -> reconstruction -> ``make_aod``, and the
SHA-256 of the canonical RAW and AOD records is compared with a pinned
value. The chain's random draws are a preservation contract: a rewrite
that is meant to be a pure speed-up (a cheaper RNG call form, a batched
draw, a hoisted lookup) must leave every RAW and AOD byte unchanged,
and this test is the check that it did.

A failure here means the chain's output changed. If that change is
intended, the new digests are a new physics version and belong in the
change log; if it is not, look first at ``tests/test_rng_draw_forms.py``,
which names the draw-form equivalence a numpy upgrade may have broken.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.conditions import default_conditions
from repro.core.canonical import canonical_json
from repro.datamodel import (
    AndCut,
    CountCut,
    GoodRunList,
    MassWindowCut,
    RunRecord,
    RunRegistry,
    SkimSpec,
    make_aod,
)
from repro.detector import (
    DetectorSimulation,
    Digitizer,
    forward_spectrometer,
    generic_lhc_detector,
)
from repro.detector.simulation import SimulationConfig
from repro.generation import GeneratorConfig, ToyGenerator
from repro.generation import processes as proc
from repro.recast import FullChainBackend, PreservedSearch
from repro.recast.scan import run_mass_scan
from repro.reconstruction import GlobalTagView, Reconstructor
from repro.workflow import ProcessingCampaign

N_EVENTS = 20


def _case(processes, *, seed, geometry=generic_lhc_detector,
          sim_config=None, pileup_mu=0.0):
    return {"processes": processes, "seed": seed, "geometry": geometry,
            "sim_config": sim_config, "pileup_mu": pileup_mu}


CASES = {
    "z_to_mumu": _case(lambda: [proc.DrellYanZ("mu")], seed=101),
    "z_to_ee": _case(lambda: [proc.DrellYanZ("e")], seed=102),
    "wplus_to_munu": _case(lambda: [proc.WProduction("mu", 1)], seed=103),
    "wminus_to_enu": _case(lambda: [proc.WProduction("e", -1)], seed=104),
    "higgs_to_4l": _case(lambda: [proc.HiggsToFourLeptons()], seed=105),
    "qcd_dijets": _case(lambda: [proc.QCDDijets()], seed=106),
    "d0_to_kpi": _case(lambda: [proc.DzeroProduction()], seed=107,
                       geometry=forward_spectrometer,
                       sim_config=SimulationConfig(eta_min=1.8)),
    "kshort_to_pipi": _case(lambda: [proc.KshortProduction()], seed=108),
    "jpsi_to_mumu": _case(lambda: [proc.JpsiToMuMu()], seed=109),
    "minimum_bias": _case(lambda: [proc.MinimumBias()], seed=110),
    "zprime_1500_to_mumu": _case(lambda: [proc.ZPrimeResonance()],
                                 seed=111),
    "zmumu_dijets_pileup5": _case(
        lambda: [proc.DrellYanZ("mu"), proc.QCDDijets(cross_section_pb=550.0)],
        seed=112, pileup_mu=5.0),
}

#: ``case -> (RAW sha256, AOD sha256)``, computed before any of the
#: chain's RNG call forms were rewritten.
GOLDEN = {
    "d0_to_kpi": (
        "591a2fc4f38e04560626c1c6399ea78b05a84038f664f5967586cda661400c84",
        "5bf7e634a4b6d9b911cff553fa731c27bfebdb50c1a865fd010f182320b23040"),
    "higgs_to_4l": (
        "37fab7e6a8166153e86e94bf6ba68b2e1b81a932cac32459451d26dff580bcd8",
        "ebfc86c2ad24a5943d4e4a120739a817ab3009c4f8f5d0fe0f30c0d154ad2b91"),
    "jpsi_to_mumu": (
        "87c152d171b4a33a8fc1d3526d3a605e3b7cadc7901d99186d9b18041b8f7174",
        "09a96f8aca9bd0279e1fbedec7bc6ec14822bff2c6f3e60f1f1ce9a9befde2ae"),
    "kshort_to_pipi": (
        "790e62a0e674c621464d3af3079c412acae55e4d7cae7709b07a47ffb00b8294",
        "6b82fc0fed3b546f46042e60618501a8f60feebbfc544cae01a2b484ffd5005a"),
    "minimum_bias": (
        "2a081491606fa179747a9d0c2b366e6ab2f29b200cfd6acfb25804ae66f03738",
        "57e319eb3c27d553778fa24c2283e1ec45b573f766348da063a32daad6756f2a"),
    "qcd_dijets": (
        "a7a1d1fd2b2aa462325b9f6dee47b956b076394022c4b2b7f579c6611d455efd",
        "fb9edb5532d8e21de498d538fe2833ade785a838ea44ba6f39fec4f901579f33"),
    "wminus_to_enu": (
        "49eb45bcf310b8e616e3659a3fa1d1279c745d7fd824023592f109e2b18bb213",
        "8d1fd8a9a03240b095c5851f4a230a33076280208e1b91a4e024699ef81991c7"),
    "wplus_to_munu": (
        "917b458b9dab2dd3dec7ee297ecb83810881fbbdbc9eae840987155ed55c3d7a",
        "35ffbde23d263e71bd018e0a4c5667f4397f32382e49bc78bd44445e690e18ff"),
    "z_to_ee": (
        "939a6bcade935f9cc2a685a28dfc736b97a9b3b23da2d19c28a8d155f3635d18",
        "2e2323a27184c4e5a62f70ba34111e203f65f70c337975182b6d3495492c6f5e"),
    "z_to_mumu": (
        "479d9962c0089828547d376585b5081defdb1ceddffa57c57cb79887bf377ea8",
        "e0e88644f6efeb9ffd4b22455cebd010307d9ece0938bba1ec12ea73eb52e11f"),
    "zmumu_dijets_pileup5": (
        "10f77a5dfbac26b03a4099fd6a764a6337b0185efffd327a101d8d00603f8c0c",
        "a0d30ec90e95dd2909adadc30c9d4881995453216f0dd11d996f8979cef14efd"),
    "zprime_1500_to_mumu": (
        "7186ff7a312967429a5bfdc01284ed3ad20cfa55363f0571b5e647efe0efffaa",
        "c23d298796fcf0420291a782eb66dc676ba8f76b9a9ee973a3ab18a8625f8a0d"),
}


def run_case(case: dict) -> tuple[str, str]:
    """Run one case through the chain; return the RAW and AOD digests."""
    seed = case["seed"]
    geometry = case["geometry"]()
    generator = ToyGenerator(GeneratorConfig(
        processes=case["processes"](), seed=seed,
        pileup_mu=case["pileup_mu"]))
    simulation = DetectorSimulation(geometry, config=case["sim_config"],
                                    seed=seed + 1)
    digitizer = Digitizer(geometry, run_number=42, seed=seed + 2)
    reconstructor = Reconstructor(
        geometry, GlobalTagView(default_conditions(), "GT-FINAL"))
    raw_digest = hashlib.sha256()
    aod_digest = hashlib.sha256()
    for event in generator.generate(N_EVENTS):
        raw = digitizer.digitize(simulation.simulate(event))
        raw_digest.update(canonical_json(raw.to_dict()) + b"\n")
        aod = make_aod(reconstructor.reconstruct(raw))
        aod_digest.update(canonical_json(aod.to_dict()) + b"\n")
    return raw_digest.hexdigest(), aod_digest.hexdigest()


def test_every_process_class_has_a_case():
    covered = {type(p) for case in CASES.values()
               for p in case["processes"]()}
    concrete = {cls for cls in vars(proc).values()
                if isinstance(cls, type) and issubclass(cls, proc.Process)
                and cls is not proc.Process}
    assert concrete <= covered


@pytest.mark.parametrize("name", sorted(CASES))
def test_chain_digests_are_pinned(name):
    raw, aod = run_case(CASES[name])
    expected_raw, expected_aod = GOLDEN[name]
    assert raw == expected_raw, f"{name}: RAW records changed"
    assert aod == expected_aod, f"{name}: AOD records changed"


# The cases above drive the chain stage by stage. The two below pin the
# library's own drivers of it — a multi-run processing campaign and a
# full-chain RECAST mass scan — so a change to how they wire the stages
# (per-run seeds, conditions views, selection, limits) changes a digest.

#: SHA-256 of a 2-run campaign's AOD records plus its conditions
#: manifest, one canonical JSON line each.
CAMPAIGN_GOLDEN = (
    "04e31db623deb3436d085ccdc8f4db0a5aad988d2021214c00af8cf6ef14fdff")

#: SHA-256 of a 2-point full-chain mass scan: per-point ``n_selected``
#: and the ``(mass, limit)`` pairs.
SCAN_GOLDEN = (
    "4704e36bdbca7969e7057f93a88a74fe0b07e0ec16e18397134c9e64c193a547")


def run_campaign_case() -> str:
    """Process two certified runs; digest AODs and conditions manifest."""
    registry = RunRegistry("RunA")
    registry.add(RunRecord(5, 60, 0.5))
    registry.add(RunRecord(25, 80, 0.5))
    good_runs = GoodRunList("GRL")
    good_runs.certify(5, 1, 60)
    good_runs.certify(25, 1, 80)
    campaign = ProcessingCampaign(
        name="Reco-v1",
        geometry=generic_lhc_detector(),
        conditions=default_conditions(),
        global_tag="GT-FINAL",
        generator=ToyGenerator(GeneratorConfig(
            processes=[proc.DrellYanZ()], seed=6100)),
        events_per_section=0.3,
        max_events_per_run=20,
    )
    campaign.process(registry, good_runs)
    digest = hashlib.sha256()
    for aod in campaign.all_aods():
        digest.update(canonical_json(aod.to_dict()) + b"\n")
    digest.update(canonical_json(campaign.conditions_manifest()) + b"\n")
    return digest.hexdigest()


def run_scan_case() -> str:
    """Scan two Z' masses through the full chain; digest counts + limits."""
    search = PreservedSearch(
        analysis_id="GPD-EXO-01",
        title="High-mass dimuon search",
        experiment="GPD",
        selection=SkimSpec("highmass", AndCut((
            CountCut("muons", 2, min_pt=30.0),
            MassWindowCut("muons", 500.0, 1e9, opposite_charge=True),
        ))),
        n_observed=3,
        background=2.5,
        background_uncertainty=0.6,
        luminosity_ipb=20000.0,
    )
    backend = FullChainBackend("GPD", n_events=80, n_limit_toys=400,
                               seed=900)
    scan = run_mass_scan(backend, search, [800.0, 1500.0])
    payload = {
        "n_selected": [p.result.n_selected for p in scan.points],
        "limits": scan.limits(),
    }
    return hashlib.sha256(canonical_json(payload)).hexdigest()


def test_campaign_digest_is_pinned():
    assert run_campaign_case() == CAMPAIGN_GOLDEN, \
        "campaign AODs or conditions manifest changed"


def test_mass_scan_digest_is_pinned():
    assert run_scan_case() == SCAN_GOLDEN, \
        "full-chain mass scan counts or limits changed"
