"""Lineage queries over a set of artifact records."""

from __future__ import annotations

from repro.core.dag import DAG
from repro.errors import ProvenanceError
from repro.provenance.records import ArtifactRecord


class ProvenanceGraph:
    """A directed acyclic graph of artifact derivations.

    Edges point parent -> child (derivation direction). Parents referenced
    by a record but never registered themselves appear as *dangling*
    ids — the lost-parentage situation the audit quantifies.
    """

    def __init__(self) -> None:
        self._graph = DAG()
        self._records: dict[str, ArtifactRecord] = {}

    def add(self, record: ArtifactRecord) -> None:
        """Register an artifact; rejects duplicates and cycles.

        A rejected record leaves the graph untouched.
        """
        artifact_id = record.artifact_id
        if artifact_id in self._records:
            raise ProvenanceError(
                f"artifact {artifact_id!r} already registered"
            )
        # The id may already be a dangling parent of registered records;
        # a cycle closes exactly when a parent is the id or descends
        # from it, so test that before mutating anything.
        blocked = {artifact_id}
        if artifact_id in self._graph:
            blocked |= self._graph.descendants(artifact_id)
        if any(parent in blocked for parent in record.parents):
            raise ProvenanceError(
                f"adding {artifact_id!r} would create a cycle"
            )
        self._records[artifact_id] = record
        self._graph.add_node(artifact_id)
        for parent in record.parents:
            self._graph.add_edge(parent, artifact_id)

    def __contains__(self, artifact_id: str) -> bool:
        return artifact_id in self._records

    def __len__(self) -> int:
        return len(self._records)

    def get(self, artifact_id: str) -> ArtifactRecord:
        """Look up a registered artifact record."""
        try:
            return self._records[artifact_id]
        except KeyError:
            raise ProvenanceError(
                f"unknown artifact {artifact_id!r}"
            ) from None

    def artifact_ids(self) -> list[str]:
        """All registered artifact ids, sorted."""
        return sorted(self._records)

    def ancestors(self, artifact_id: str) -> set[str]:
        """All ids upstream of an artifact (registered or dangling)."""
        if artifact_id not in self._graph:
            raise ProvenanceError(f"unknown artifact {artifact_id!r}")
        return self._graph.ancestors(artifact_id)

    def descendants(self, artifact_id: str) -> set[str]:
        """All ids derived (transitively) from an artifact."""
        if artifact_id not in self._graph:
            raise ProvenanceError(f"unknown artifact {artifact_id!r}")
        return self._graph.descendants(artifact_id)

    def lineage(self, artifact_id: str) -> list[ArtifactRecord]:
        """The registered ancestry of an artifact, topologically ordered."""
        ancestor_ids = self.ancestors(artifact_id)
        ordered = [node for node in self._graph.topological_order()
                   if node in ancestor_ids and node in self._records]
        return [self._records[node] for node in ordered]

    def dangling_parents(self) -> set[str]:
        """Parent ids that were referenced but never registered."""
        return {node for node in self._graph.nodes()
                if node not in self._records}

    def roots(self) -> list[str]:
        """Registered artifacts with no parents at all."""
        return sorted(
            artifact_id for artifact_id, record in self._records.items()
            if not record.parents
        )

    def to_dict(self) -> dict:
        """Serialise the whole graph for archiving."""
        return {
            "artifacts": [self._records[artifact_id].to_dict()
                          for artifact_id in sorted(self._records)],
        }

    @classmethod
    def from_dict(cls, record: dict) -> "ProvenanceGraph":
        """Inverse of :meth:`to_dict`."""
        graph = cls()
        for artifact in record.get("artifacts", []):
            graph.add(ArtifactRecord.from_dict(artifact))
        return graph
