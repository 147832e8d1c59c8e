"""Unit and property tests for provenance records, graphs, and audits."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ProvenanceError
from repro.provenance import (
    ArtifactRecord,
    ProducerRecord,
    ProvenanceCapture,
    ProvenanceGraph,
    audit_all,
    audit_artifact,
)


def _artifact(artifact_id, parents=(), producer=True):
    return ArtifactRecord(
        artifact_id=artifact_id,
        kind="dataset",
        tier="AOD",
        parents=tuple(parents),
        producer=(ProducerRecord("step", "1.0", {"cut": 5})
                  if producer else None),
    )


class TestRecords:
    def test_empty_id_rejected(self):
        with pytest.raises(ProvenanceError):
            _artifact("")

    def test_self_parent_rejected(self):
        with pytest.raises(ProvenanceError):
            _artifact("a", parents=("a",))

    def test_roundtrip(self):
        record = _artifact("a", parents=("b", "c"))
        restored = ArtifactRecord.from_dict(record.to_dict())
        assert restored == record

    def test_roundtrip_without_producer(self):
        record = _artifact("a", producer=False)
        restored = ArtifactRecord.from_dict(record.to_dict())
        assert not restored.has_producer


class TestGraph:
    def test_lineage_topological(self):
        graph = ProvenanceGraph()
        graph.add(_artifact("raw"))
        graph.add(_artifact("reco", parents=("raw",)))
        graph.add(_artifact("aod", parents=("reco",)))
        lineage = graph.lineage("aod")
        assert [record.artifact_id for record in lineage] == \
            ["raw", "reco"]

    def test_duplicate_rejected(self):
        graph = ProvenanceGraph()
        graph.add(_artifact("a"))
        with pytest.raises(ProvenanceError):
            graph.add(_artifact("a"))

    def test_cycle_rejected_and_rolled_back(self):
        graph = ProvenanceGraph()
        graph.add(_artifact("a", parents=("b",)))
        with pytest.raises(ProvenanceError):
            graph.add(_artifact("b", parents=("a",)))
        assert "b" not in graph
        assert len(graph) == 1

    def test_rejected_cycle_leaves_no_phantom_parents(self):
        graph = ProvenanceGraph()
        graph.add(_artifact("b", parents=("a",)))
        with pytest.raises(ProvenanceError):
            graph.add(_artifact("a", parents=("b", "ghost")))
        # "a" is still the dangling parent of "b"; "ghost" was only
        # named by the rejected record.
        assert graph.dangling_parents() == {"a"}
        assert graph.ancestors("b") == {"a"}
        assert graph.descendants("a") == {"b"}
        graph.add(_artifact("a", parents=("ghost",)))
        assert graph.dangling_parents() == {"ghost"}

    def test_dangling_parents_detected(self):
        graph = ProvenanceGraph()
        graph.add(_artifact("child", parents=("lost-parent",)))
        assert graph.dangling_parents() == {"lost-parent"}

    def test_descendants(self):
        graph = ProvenanceGraph()
        graph.add(_artifact("a"))
        graph.add(_artifact("b", parents=("a",)))
        graph.add(_artifact("c", parents=("a",)))
        assert graph.descendants("a") == {"b", "c"}

    def test_roots(self):
        graph = ProvenanceGraph()
        graph.add(_artifact("a"))
        graph.add(_artifact("b", parents=("a",)))
        assert graph.roots() == ["a"]

    def test_serialisation_roundtrip(self):
        graph = ProvenanceGraph()
        graph.add(_artifact("a"))
        graph.add(_artifact("b", parents=("a",)))
        restored = ProvenanceGraph.from_dict(graph.to_dict())
        assert restored.artifact_ids() == graph.artifact_ids()
        assert restored.get("b").parents == ("a",)

    @given(n_nodes=st.integers(min_value=1, max_value=20),
           seed=st.integers(min_value=0, max_value=1000))
    @settings(max_examples=50)
    def test_random_dags_always_acyclic(self, n_nodes, seed):
        import numpy as np

        rng = np.random.default_rng(seed)
        graph = ProvenanceGraph()
        for index in range(n_nodes):
            n_parents = int(rng.integers(0, min(index, 3) + 1))
            parents = tuple(
                f"n{int(p)}"
                for p in rng.choice(index, size=n_parents,
                                    replace=False)
            ) if index else ()
            graph.add(_artifact(f"n{index}", parents=parents))
        # Every audit terminates and completeness is 1 (all registered).
        for report in audit_all(graph):
            assert report.ancestry_completeness == 1.0


class TestAudit:
    def test_complete_chain_reproducible(self):
        graph = ProvenanceGraph()
        graph.add(_artifact("raw"))
        graph.add(_artifact("aod", parents=("raw",)))
        report = audit_artifact(graph, "aod")
        assert report.reproducible
        assert report.missing_parents == ()

    def test_missing_parent_breaks_reproducibility(self):
        graph = ProvenanceGraph()
        graph.add(_artifact("aod", parents=("lost",)))
        report = audit_artifact(graph, "aod")
        assert not report.reproducible
        assert report.ancestry_completeness == 0.0
        assert report.missing_parents == ("lost",)

    def test_missing_producer_breaks_reproducibility(self):
        graph = ProvenanceGraph()
        graph.add(_artifact("raw", producer=False))
        graph.add(_artifact("aod", parents=("raw",)))
        report = audit_artifact(graph, "aod")
        assert not report.reproducible
        assert report.producer_completeness == pytest.approx(0.5)

    def test_summary_readable(self):
        graph = ProvenanceGraph()
        graph.add(_artifact("a"))
        assert "REPRODUCIBLE" in audit_artifact(graph, "a").summary()


class TestAuditAll:
    def test_empty_graph_audits_to_nothing(self):
        assert audit_all(ProvenanceGraph()) == []

    def test_reports_come_back_sorted_by_id(self):
        graph = ProvenanceGraph()
        graph.add(_artifact("zeta"))
        graph.add(_artifact("alpha"))
        graph.add(_artifact("mid", parents=("alpha",)))
        reports = audit_all(graph)
        assert [r.artifact_id for r in reports] == \
            ["alpha", "mid", "zeta"]

    def test_dangling_parent_counts_against_whole_chain(self):
        graph = ProvenanceGraph()
        graph.add(_artifact("aod", parents=("raw-lost",)))
        graph.add(_artifact("ntuple", parents=("aod",)))
        by_id = {r.artifact_id: r for r in audit_all(graph)}
        # The dangling grandparent poisons the ntuple's ancestry too.
        assert by_id["ntuple"].missing_parents == ("raw-lost",)
        assert by_id["ntuple"].ancestry_completeness == pytest.approx(0.5)
        assert not by_id["ntuple"].reproducible
        assert not by_id["aod"].reproducible

    def test_cycle_rejected_and_graph_left_auditable(self):
        graph_cyclic = ProvenanceGraph()
        graph_cyclic.add(_artifact("x", parents=("y",)))
        with pytest.raises(ProvenanceError):
            # Registering y as derived from x would close the loop and
            # make every ancestry query non-terminating; the add must
            # be rolled back rather than half-applied.
            graph_cyclic.add(_artifact("y", parents=("x",)))
        # The rejected node left no trace: audits still terminate and
        # see exactly the registered artifact.
        reports = audit_all(graph_cyclic)
        assert [r.artifact_id for r in reports] == ["x"]
        assert reports[0].missing_parents == ("y",)


class TestCapture:
    def test_report_and_export(self, tmp_path):
        capture = ProvenanceCapture()
        first = capture.new_artifact_id("raw")
        capture.report(first, "dataset", "RAW")
        second = capture.new_artifact_id("aod")
        capture.report(second, "dataset", "AOD", parents=(first,),
                       producer=ProducerRecord("reco", "1.0"))
        path = tmp_path / "prov.json"
        capture.export(path)
        loaded = ProvenanceCapture.load(path)
        assert len(loaded.graph) == 2
        assert loaded.graph.get(second).parents == (first,)

    def test_disabled_capture_drops_reports(self):
        capture = ProvenanceCapture(enabled=False)
        assert capture.report("x", "dataset", "RAW") is None
        assert len(capture.graph) == 0

    def test_producer_suppression(self):
        capture = ProvenanceCapture(record_producer=False)
        capture.report("x", "dataset", "RAW",
                       producer=ProducerRecord("gen", "1.0"))
        assert not capture.graph.get("x").has_producer

    def test_ids_unique(self):
        capture = ProvenanceCapture()
        ids = {capture.new_artifact_id("x") for _ in range(100)}
        assert len(ids) == 100
