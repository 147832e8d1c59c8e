"""Contract tests for the dependency-free DAG type.

``repro.core.dag.DAG`` replaced ``networkx.DiGraph`` in the provenance
and workflow graphs. Its traversal orders must match networkx's for the
same insertion sequence, because provenance lineage and workflow DOT
output are ordered by them. The networkx comparisons skip when networkx
is not installed; the pinned lineage fixture keeps the order checked
without it.
"""

import random

import pytest

from repro.core.dag import DAG, CycleError
from repro.provenance import ArtifactRecord, ProvenanceGraph


def _random_edges(seed, n_nodes, n_edges):
    """Random forward edges over a shuffled node order, plus stray nodes."""
    rng = random.Random(seed)
    rank = list(range(n_nodes))
    rng.shuffle(rank)
    edges = []
    for _ in range(n_edges):
        low, high = sorted(rng.sample(range(n_nodes), 2))
        edges.append((f"n{rank[low]}", f"n{rank[high]}"))
    isolated = [f"n{rank[i]}" for i in rng.sample(range(n_nodes), 3)]
    return isolated, edges


def _build_both(seed):
    nx = pytest.importorskip("networkx")
    rng = random.Random(seed)
    isolated, edges = _random_edges(seed, rng.randint(4, 40),
                                    rng.randint(0, 80))
    dag, reference = DAG(), nx.DiGraph()
    for node in isolated:
        dag.add_node(node)
        reference.add_node(node)
    for source, target in edges:
        dag.add_edge(source, target)
        reference.add_edge(source, target)
    return dag, reference, nx


SEEDS = range(60)


@pytest.mark.parametrize("seed", SEEDS)
def test_orders_match_networkx(seed):
    dag, reference, nx = _build_both(seed)
    assert list(dag.nodes()) == list(reference.nodes)
    assert list(dag.edges()) == list(reference.edges)
    assert dag.topological_order() == list(nx.topological_sort(reference))


@pytest.mark.parametrize("seed", SEEDS)
def test_reachability_matches_networkx(seed):
    dag, reference, nx = _build_both(seed)
    for node in reference.nodes:
        assert dag.ancestors(node) == nx.ancestors(reference, node)
        assert dag.descendants(node) == nx.descendants(reference, node)


@pytest.mark.parametrize("seed", SEEDS)
def test_cycle_rejection_matches_networkx(seed):
    dag, reference, nx = _build_both(seed)
    rng = random.Random(1000 + seed)
    nodes = list(reference.nodes)
    for _ in range(20):
        source, target = rng.choice(nodes), rng.choice(nodes)
        trial = reference.copy()
        trial.add_edge(source, target)
        expect_cycle = not nx.is_directed_acyclic_graph(trial)
        edges_before = list(dag.edges())
        if expect_cycle:
            with pytest.raises(CycleError):
                dag.add_edge(source, target)
            assert list(dag.edges()) == edges_before
        else:
            dag.add_edge(source, target)
            reference.add_edge(source, target)


class TestDAG:
    def test_self_loop_rejected(self):
        dag = DAG()
        dag.add_node("a")
        with pytest.raises(CycleError):
            dag.add_edge("a", "a")
        assert list(dag.edges()) == []

    def test_rejected_edge_adds_no_nodes(self):
        dag = DAG()
        dag.add_edge("a", "b")
        with pytest.raises(CycleError):
            dag.add_edge("b", "a")
        with pytest.raises(CycleError):
            dag.add_edge("c", "c")
        assert list(dag.nodes()) == ["a", "b"]

    def test_duplicate_edge_keeps_order(self):
        dag = DAG()
        dag.add_edge("a", "c")
        dag.add_edge("a", "b")
        dag.add_edge("a", "c")
        assert list(dag.edges()) == [("a", "c"), ("a", "b")]

    def test_unknown_node_raises(self):
        with pytest.raises(KeyError):
            DAG().ancestors("missing")

    def test_topological_generations(self):
        dag = DAG()
        dag.add_node("z")
        dag.add_edge("b", "d")
        dag.add_edge("a", "d")
        dag.add_edge("a", "c")
        # Generation one in node order; "d" is released before "c"
        # because edge a -> d was inserted before a -> c.
        assert dag.topological_order() == ["z", "b", "a", "d", "c"]


#: Insertion sequence with dangling parents, shared ancestors and
#: out-of-order registration.
LINEAGE_FIXTURE = [
    ("aod", ("reco_b", "reco_a")),
    ("raw_a", ()),
    ("reco_a", ("raw_a", "calib")),
    ("raw_b", ()),
    ("reco_b", ("raw_b", "calib")),
    ("ntuple", ("aod", "reco_a")),
    ("skim", ("raw_b",)),
    ("plot", ("ntuple", "aod", "skim")),
]


def test_lineage_order_pinned():
    """Lineage order recorded with the networkx-backed graph."""
    graph = ProvenanceGraph()
    for artifact_id, parents in LINEAGE_FIXTURE:
        graph.add(ArtifactRecord(artifact_id, "dataset", "AOD",
                                 parents=parents))
    lineage = {target: [record.artifact_id
                        for record in graph.lineage(target)]
               for target in ("plot", "ntuple", "aod")}
    assert lineage == {
        "plot": ["raw_a", "raw_b", "reco_a", "reco_b", "skim", "aod",
                 "ntuple"],
        "ntuple": ["raw_a", "raw_b", "reco_a", "reco_b", "aod"],
        "aod": ["raw_a", "raw_b", "reco_a", "reco_b"],
    }
    assert graph.dangling_parents() == {"calib"}
