"""Tests for multi-run processing campaigns."""

import pytest

from repro.datamodel import GoodRunList, RunRecord, RunRegistry
from repro.errors import WorkflowError
from repro.generation import DrellYanZ, GeneratorConfig, ToyGenerator
from repro.workflow import ProcessingCampaign


@pytest.fixture(scope="module")
def campaign_setup(gpd_geometry, conditions_store):
    registry = RunRegistry("RunA")
    registry.add(RunRecord(5, 60, 0.5))
    registry.add(RunRecord(25, 80, 0.5))
    registry.add(RunRecord(45, 40, 0.5, detector_ok=False))
    good_runs = GoodRunList("GRL")
    good_runs.certify(5, 1, 60)
    good_runs.certify(25, 1, 80)
    campaign = ProcessingCampaign(
        name="Reco-v1",
        geometry=gpd_geometry,
        conditions=conditions_store,
        global_tag="GT-FINAL",
        generator=ToyGenerator(GeneratorConfig(
            processes=[DrellYanZ()], seed=6100)),
        events_per_section=0.3,
        max_events_per_run=20,
    )
    results = campaign.process(registry, good_runs)
    return campaign, registry, good_runs, results


class TestCampaign:
    def test_only_certified_runs_processed(self, campaign_setup):
        _, _, _, results = campaign_setup
        assert set(results) == {5, 25}

    def test_event_counts_follow_luminosity(self, campaign_setup):
        _, _, _, results = campaign_setup
        assert results[25].n_events >= results[5].n_events
        assert all(result.n_events > 0 for result in results.values())

    def test_events_carry_their_run_number(self, campaign_setup):
        _, _, _, results = campaign_setup
        for run_number, result in results.items():
            assert all(aod.run_number == run_number
                       for aod in result.aods)

    def test_per_run_conditions_recorded(self, campaign_setup):
        campaign, _, _, results = campaign_setup
        manifest = campaign.conditions_manifest()
        assert set(manifest["runs"]) == {"5", "25"}
        for run_number, result in results.items():
            assert "calo/ecal_energy_scale" in result.conditions_used

    def test_conditions_differ_across_iov_boundaries(self,
                                                     campaign_setup,
                                                     conditions_store):
        # Runs 5 and 25 sit in different 10-run IOV blocks, so the
        # campaign used genuinely different constants for them.
        _, _, _, results = campaign_setup
        scale_5 = results[5].conditions_used[
            "calo/ecal_energy_scale"]["scale"]
        scale_25 = results[25].conditions_used[
            "calo/ecal_energy_scale"]["scale"]
        assert scale_5 != scale_25

    def test_combined_sample_run_ordered(self, campaign_setup):
        campaign, _, _, _ = campaign_setup
        runs = [aod.run_number for aod in campaign.all_aods()]
        assert runs == sorted(runs)

    def test_describe_block(self, campaign_setup):
        campaign, _, _, _ = campaign_setup
        record = campaign.describe()
        assert record["campaign"] == "Reco-v1"
        assert record["global_tag"] == "GT-FINAL"

    def test_bad_configuration_rejected(self, gpd_geometry,
                                        conditions_store):
        with pytest.raises(WorkflowError):
            ProcessingCampaign(
                name="bad", geometry=gpd_geometry,
                conditions=conditions_store, global_tag="GT-FINAL",
                generator=ToyGenerator(GeneratorConfig(
                    processes=[DrellYanZ()], seed=1)),
                events_per_section=0.0,
            )

    @pytest.mark.parametrize("settings", [
        {"max_events_per_run": 0},
        {"max_events_per_run": -3},
        {"events_per_section": float("nan")},
    ], ids=["zero-max-events", "negative-max-events", "nan-rate"])
    def test_degenerate_run_sizes_rejected(self, gpd_geometry,
                                          conditions_store, settings):
        with pytest.raises(WorkflowError):
            ProcessingCampaign(
                name="bad", geometry=gpd_geometry,
                conditions=conditions_store, global_tag="GT-FINAL",
                generator=ToyGenerator(GeneratorConfig(
                    processes=[DrellYanZ()], seed=1)),
                **settings,
            )
