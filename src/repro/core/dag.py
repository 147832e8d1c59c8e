"""A small dependency-free directed acyclic graph.

The one DAG type behind :class:`repro.provenance.ProvenanceGraph` and
:class:`repro.experiments.workflows.WorkflowGraph`. Nodes and edges are
kept in insertion-ordered dicts, so every traversal is deterministic:

- :meth:`DAG.nodes` yields nodes in first-insertion order;
- :meth:`DAG.edges` yields ``(source, target)`` grouped by source in
  node order, targets in edge-insertion order;
- :meth:`DAG.topological_order` peels Kahn generations: the
  zero-in-degree nodes in node order, then each released child in the
  order its last incoming edge is walked.

These are the orders ``networkx.DiGraph`` produces for the same
insertion sequence. Provenance lineage is ordered by them, and
``tests/test_core_dag.py`` holds the two libraries to the same orders.

Acyclicity is checked before any mutation: :meth:`DAG.add_edge` raises
:class:`CycleError` and leaves the graph untouched.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterator


class CycleError(ValueError):
    """An edge would close a directed cycle (self-loops included)."""


class DAG:
    """Directed acyclic graph over hashable nodes."""

    def __init__(self) -> None:
        # node -> {successor: None}; dicts double as ordered sets.
        self._succ: dict[Hashable, dict[Hashable, None]] = {}
        self._pred: dict[Hashable, dict[Hashable, None]] = {}

    def __contains__(self, node: Hashable) -> bool:
        return node in self._succ

    def add_node(self, node: Hashable) -> None:
        """Add a node; adding an existing node is a no-op."""
        if node not in self._succ:
            self._succ[node] = {}
            self._pred[node] = {}

    def add_edge(self, source: Hashable, target: Hashable) -> None:
        """Add ``source -> target``, adding missing nodes source first.

        Re-adding an existing edge is a no-op. Raises :class:`CycleError`
        without mutating the graph if the edge would close a cycle.
        """
        if source == target or (target in self._succ
                                and source in self.descendants(target)):
            raise CycleError(f"edge {source!r} -> {target!r} closes a cycle")
        self.add_node(source)
        self.add_node(target)
        self._succ[source][target] = None
        self._pred[target][source] = None

    def nodes(self) -> Iterator[Hashable]:
        """All nodes, in insertion order."""
        return iter(self._succ)

    def edges(self) -> Iterator[tuple[Hashable, Hashable]]:
        """All edges, grouped by source in node order."""
        for source, targets in self._succ.items():
            for target in targets:
                yield source, target

    def ancestors(self, node: Hashable) -> set[Hashable]:
        """Every node with a path to ``node``; KeyError if unknown."""
        return self._reach(node, self._pred)

    def descendants(self, node: Hashable) -> set[Hashable]:
        """Every node reachable from ``node``; KeyError if unknown."""
        return self._reach(node, self._succ)

    def topological_order(self) -> list[Hashable]:
        """All nodes, parents before children, in Kahn-generation order."""
        in_degree = {node: len(preds) for node, preds in self._pred.items()}
        order = [node for node, degree in in_degree.items() if degree == 0]
        # The list grows while it is walked: a FIFO queue, which visits
        # the nodes generation by generation.
        for node in order:
            for child in self._succ[node]:
                in_degree[child] -= 1
                if in_degree[child] == 0:
                    order.append(child)
        return order

    @staticmethod
    def _reach(node: Hashable,
               adjacency: dict[Hashable, dict[Hashable, None]]
               ) -> set[Hashable]:
        seen: set[Hashable] = set()
        stack = list(adjacency[node])
        while stack:
            current = stack.pop()
            if current not in seen:
                seen.add(current)
                stack.extend(adjacency[current])
        return seen
