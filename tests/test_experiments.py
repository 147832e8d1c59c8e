"""Tests for experiment profiles, workflows, and the Table 1 matrix."""

import statistics

import pytest

from repro.errors import ExperimentError
from repro.experiments import (
    all_experiments,
    build_workflow,
    diversity_report,
    get_experiment,
    lhc_experiments,
    outreach_feature_matrix,
    post_aod_subgraph,
    pre_aod_subgraph,
    render_table1,
    similarity_matrix,
    verify_outreach_capabilities,
    workflow_similarity,
)
from repro.experiments.profiles import (
    ConstantsHandling,
    DataPolicyStatus,
)


class TestRegistry:
    def test_six_experiments(self):
        assert len(all_experiments()) == 6

    def test_lhc_subset_ordered(self):
        names = [profile.name for profile in lhc_experiments()]
        assert names == ["ALICE", "ATLAS", "CMS", "LHCb"]

    def test_unknown_experiment_raises(self):
        with pytest.raises(ExperimentError):
            get_experiment("UA1")

    def test_alice_text_file_constants(self):
        assert get_experiment("ALICE").constants_handling == \
            ConstantsHandling.TEXT_FILES

    def test_data_policies_match_section4(self):
        assert get_experiment("CMS").data_policy.status == \
            DataPolicyStatus.APPROVED
        assert get_experiment("CMS").data_policy.year == 2013
        assert get_experiment("LHCb").data_policy.status == \
            DataPolicyStatus.APPROVED
        assert get_experiment("ATLAS").data_policy.status == \
            DataPolicyStatus.UNDER_DISCUSSION
        assert get_experiment("ALICE").data_policy.status == \
            DataPolicyStatus.UNDER_DISCUSSION


class TestWorkflowGraphs:
    def test_common_spine_present(self):
        for profile in all_experiments():
            graph = build_workflow(profile)
            for node in ("raw", "reconstruction", "aod",
                         "analyst_scripts", "publication"):
                graph.node(node)

    def test_constants_node_differs_for_alice(self):
        alice = build_workflow(get_experiment("ALICE"))
        atlas = build_workflow(get_experiment("ATLAS"))
        alice.node("constants_files")
        atlas.node("conditions_db")
        with pytest.raises(ExperimentError):
            alice.node("conditions_db")

    def test_self_similarity_is_one(self):
        graph = build_workflow(get_experiment("CMS"))
        assert workflow_similarity(graph, graph) == 1.0

    def test_symmetry(self):
        cms = build_workflow(get_experiment("CMS"))
        lhcb = build_workflow(get_experiment("LHCb"))
        assert workflow_similarity(cms, lhcb) == pytest.approx(
            workflow_similarity(lhcb, cms)
        )

    def test_paper_claim_pre_aod_similar_post_aod_varied(self):
        experiments = all_experiments()
        pre = similarity_matrix(experiments, "pre_aod")
        post = similarity_matrix(experiments, "post_aod")
        assert statistics.mean(pre.values()) > 0.85
        assert (statistics.mean(pre.values())
                > statistics.mean(post.values()) + 0.2)

    def test_paper_claim_alice_is_the_pre_aod_outlier(self):
        experiments = all_experiments()
        pre = similarity_matrix(experiments, "pre_aod")
        alice_scores = [value for pair, value in pre.items()
                        if "ALICE" in pair]
        other_scores = [value for pair, value in pre.items()
                        if "ALICE" not in pair]
        assert max(alice_scores) < min(other_scores)
        # Non-ALICE pre-AOD workflows are *identical*.
        assert min(other_scores) == 1.0

    def test_subgraph_split_partitions_nodes(self):
        graph = build_workflow(get_experiment("ATLAS"))
        pre = pre_aod_subgraph(graph)
        post = post_aod_subgraph(graph)
        assert len(pre) + len(post) == len(graph)

    def test_unknown_region_rejected(self):
        with pytest.raises(ExperimentError):
            similarity_matrix(all_experiments(), "sideways")

    def test_cycle_rejected(self):
        graph = build_workflow(get_experiment("CMS"))
        with pytest.raises(ExperimentError):
            graph.add_edge("publication", "raw")

    def test_rejected_edge_leaves_graph_unchanged(self):
        graph = build_workflow(get_experiment("CMS"))
        dot, labels = graph.to_dot(), graph.edge_labels()
        for source, target in (("publication", "raw"), ("aod", "aod")):
            with pytest.raises(ExperimentError):
                graph.add_edge(source, target)
        assert graph.to_dot() == dot
        assert graph.edge_labels() == labels


class TestTable1:
    def test_matrix_rows_and_columns(self):
        matrix = outreach_feature_matrix(lhc_experiments())
        assert "Event Display(s)" in matrix
        assert set(matrix["Data Format(s)"]) == \
            {"ALICE", "ATLAS", "CMS", "LHCb"}

    def test_transcribed_values(self):
        matrix = outreach_feature_matrix(lhc_experiments())
        assert matrix["Event Display(s)"]["CMS"] == "iSpy"
        assert matrix["Data Format(s)"]["CMS"] == "ig"
        assert matrix["self-documenting?"]["CMS"] == "yes"
        assert matrix["Master Class uses"]["LHCb"] == "D lifetime"
        assert "ATLANTIS" in matrix["Event Display(s)"]["ATLAS"]
        assert "Root too heavy" in matrix["Comments"]["ALICE"]

    def test_rendered_table(self):
        text = render_table1(lhc_experiments())
        assert "iSpy" in text
        assert "Panoramix" in text

    def test_non_lhc_has_no_outreach_row(self):
        with pytest.raises(ExperimentError):
            outreach_feature_matrix([get_experiment("CDF")])

    def test_paper_claim_no_common_formats(self):
        report = diversity_report(lhc_experiments())
        assert report["any_common_format"] is False
        assert report["Data Format(s)"]["n_distinct"] >= 3

    def test_library_covers_masterclass_uses(self):
        total_covered = 0
        total_core_uses = 0
        for profile in lhc_experiments():
            result = verify_outreach_capabilities(profile)
            total_covered += result["n_covered"]
            for use, exercise in result["masterclass_coverage"].items():
                if any(k in use for k in ("W", "Z", "Higgs",
                                          "D lifetime")):
                    total_core_uses += 1
                    assert exercise is not None, use
        assert total_covered >= total_core_uses
