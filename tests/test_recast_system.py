"""Integration tests for the full RECAST system and the RIVET bridge."""

import math

import pytest

from repro.datamodel import AndCut, CountCut, MassWindowCut, SkimSpec
from repro.errors import RecastError
from repro.recast import (
    AnalysisCatalog,
    FullChainBackend,
    ModelSpec,
    PreservedSearch,
    RecastAPI,
    RecastFrontend,
    RecastResult,
    RivetBridgeBackend,
)
from repro.recast.bridge import RivetSignalRegion
from repro.rivet import standard_repository


def _search():
    selection = SkimSpec("highmass", AndCut((
        CountCut("muons", 2, min_pt=30.0),
        MassWindowCut("muons", 500.0, 1e9, opposite_charge=True),
    )))
    return PreservedSearch(
        analysis_id="GPD-EXO-01",
        title="High-mass dimuon search",
        experiment="GPD",
        selection=selection,
        n_observed=3,
        background=2.5,
        background_uncertainty=0.6,
        luminosity_ipb=20000.0,
    )


@pytest.fixture(scope="module")
def api():
    catalog = AnalysisCatalog("GPD")
    catalog.register(_search())
    api = RecastAPI()
    api.register_experiment(
        catalog,
        FullChainBackend("GPD", n_events=120, n_limit_toys=1200,
                         seed=900),
    )
    return api


@pytest.fixture(scope="module")
def approved_request(api):
    frontend = RecastFrontend(api)
    request_id = frontend.submit_request(
        "GPD-EXO-01",
        ModelSpec("Zp-1.5TeV", "zprime",
                  {"mass": 1500.0, "cross_section_pb": 0.05}),
        requester="theorist@ippp",
    )
    api.accept(request_id)
    api.run(request_id)
    api.approve(request_id, "physics coordinator")
    return request_id


class TestFullRoundTrip:
    def test_catalog_browsable(self, api):
        frontend = RecastFrontend(api)
        listing = frontend.browse_catalog()
        assert listing[0]["analysis_id"] == "GPD-EXO-01"
        assert "selection" not in listing[0]

    def test_result_after_approval(self, api, approved_request):
        frontend = RecastFrontend(api)
        result = frontend.result(approved_request)
        assert result is not None
        assert result["signal_efficiency"] > 0.3
        assert result["upper_limit_pb"] < 0.01
        assert result["excluded"] is True

    def test_unknown_analysis_rejected(self, api):
        frontend = RecastFrontend(api)
        with pytest.raises(RecastError):
            frontend.submit_request(
                "NOPE", ModelSpec("m", "zprime", {"mass": 1000.0}), "x"
            )

    def test_duplicate_experiment_rejected(self, api):
        catalog = AnalysisCatalog("GPD")
        with pytest.raises(RecastError):
            api.register_experiment(
                catalog, FullChainBackend("GPD", n_events=10)
            )

    def test_failure_captured_not_raised(self, api):
        frontend = RecastFrontend(api)
        # Z' so light the generator refuses: backend fails gracefully.
        request_id = frontend.submit_request(
            "GPD-EXO-01",
            ModelSpec("Zp-too-light", "zprime", {"mass": 150.0}),
            requester="theorist",
        )
        api.accept(request_id)
        api.run(request_id)
        view = frontend.status(request_id)
        assert view["status"] == "failed"
        assert "failure_reason" in view

    def test_resolution_failure_during_run_fails_request(self):
        # Regression: a request accepted while its analysis was
        # catalogued must land in FAILED — not be stranded mid
        # -PROCESSING with an exception — if the catalogue entry is
        # gone by the time the back end is resolved.
        catalog = AnalysisCatalog("GPD")
        catalog.register(_search())
        api = RecastAPI()
        api.register_experiment(
            catalog, FullChainBackend("GPD", n_events=10))
        request_id = api.submit(
            "GPD-EXO-01",
            ModelSpec("Zp", "zprime",
                      {"mass": 1500.0, "cross_section_pb": 0.05}),
            "theorist",
        ).request_id
        api.accept(request_id)
        api._catalogs.clear()
        api.run(request_id)
        view = api.public_status(request_id)
        assert view["status"] == "failed"
        assert "GPD-EXO-01" in view["failure_reason"]

    def test_off_peak_model_not_excluded(self, api):
        # A model whose dimuon mass sits below the search window has
        # low efficiency and must not be excluded.
        frontend = RecastFrontend(api)
        request_id = frontend.submit_request(
            "GPD-EXO-01",
            ModelSpec("SM-Z", "drell_yan_z",
                      {"cross_section_pb": 1100.0}),
            requester="theorist",
        )
        api.accept(request_id)
        api.run(request_id)
        api.approve(request_id, "coordinator")
        result = frontend.result(request_id)
        assert result["signal_efficiency"] < 0.05


class TestFullChainBackendConfig:
    @pytest.mark.parametrize("toys", [0, -5])
    def test_non_positive_limit_toys_rejected(self, toys):
        from repro.errors import BackendError

        with pytest.raises(BackendError, match="n_limit_toys"):
            FullChainBackend("GPD", n_events=10, n_limit_toys=toys)


class TestBridge:
    def test_rivet_analysis_as_backend(self):
        repository = standard_repository()
        bridge = RivetBridgeBackend(
            repository,
            signal_regions={
                "GPD-EXO-01": RivetSignalRegion(
                    "TOY_2013_I0006", "mass", 500.0, 202.0 + 1e4,
                ),
            },
            n_events=400,
            n_limit_toys=1200,
        )
        result = bridge.process(
            _search(),
            ModelSpec("Zp-100", "zprime",
                      {"mass": 1500.0, "cross_section_pb": 0.05}),
        )
        assert result.backend == "rivet-bridge"
        assert result.extra["truth_level_only"] is True
        # The 1.5 TeV peak is above the histogram range (202 GeV), so
        # entries land in overflow -> low in-window efficiency is
        # possible; what matters is the machinery ran and set a limit.
        assert result.n_generated == 400

    def test_bridge_limit_setting_works(self):
        repository = standard_repository()
        bridge = RivetBridgeBackend(
            repository,
            signal_regions={
                "GPD-EXO-01": RivetSignalRegion(
                    "TOY_2013_I0006", "mass", 60.0, 120.0,
                ),
            },
            n_events=400,
            n_limit_toys=1200,
        )
        # A Z sample fills the 60-120 window with high efficiency.
        result = bridge.process(
            _search(),
            ModelSpec("SM-Z", "drell_yan_z",
                      {"cross_section_pb": 1100.0, "flavour": "mu"}),
        )
        assert result.signal_efficiency > 0.3
        assert math.isfinite(result.upper_limit_pb)

    def test_missing_signal_region_rejected(self):
        repository = standard_repository()
        bridge = RivetBridgeBackend(repository, signal_regions={},
                                    n_events=10)
        from repro.errors import BackendError

        with pytest.raises(BackendError):
            bridge.process(_search(),
                           ModelSpec("m", "zprime", {"mass": 1000.0}))


class TestResultPayload:
    def test_roundtrip(self):
        result = RecastResult(
            analysis_id="A", model_name="M", n_generated=100,
            n_selected=42, signal_efficiency=0.42,
            efficiency_error=0.05, upper_limit_pb=0.3,
            model_cross_section_pb=0.1, excluded=False,
            backend="full-chain", extra={"note": "x"},
        )
        assert RecastResult.from_dict(result.to_dict()) == result

    def test_validation(self):
        with pytest.raises(RecastError):
            RecastResult(
                analysis_id="A", model_name="M", n_generated=10,
                n_selected=20, signal_efficiency=0.5,
                efficiency_error=0.1, upper_limit_pb=1.0,
                model_cross_section_pb=0.1, excluded=False,
                backend="b",
            )

    def test_summary_readable(self):
        result = RecastResult(
            analysis_id="A", model_name="M", n_generated=100,
            n_selected=42, signal_efficiency=0.42,
            efficiency_error=0.05, upper_limit_pb=0.3,
            model_cross_section_pb=0.5, excluded=True,
            backend="full-chain",
        )
        assert "EXCLUDED" in result.summary()
