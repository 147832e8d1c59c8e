"""Declarative experiment workflow graphs and their similarity.

Section 3.2's finding — "the data processing and analysis workflows of
the modern high energy physics experiments are remarkably similar",
differing mainly in constants handling and in the *post-AOD* variety —
becomes quantitative here: each experiment's workflow is a small labelled
DAG, and :func:`workflow_similarity` measures labelled-graph overlap, so
the claim can be checked (and is, in the C-WF benchmark).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.dag import DAG, CycleError
from repro.errors import ExperimentError
from repro.experiments.profiles import (
    ConstantsHandling,
    ExperimentProfile,
    PostAODCommonality,
)

#: Node kinds appearing in workflow graphs.
NODE_KINDS = ("source", "processing", "dataset", "external")

#: Tiers considered "pre-AOD" for the similarity split.
_PRE_AOD_STAGES = frozenset({
    "detector", "raw", "reconstruction", "reco", "aod_production", "aod",
    "conditions", "constants_files", "mc_generation", "gen", "simulation",
    "sim",
})


@dataclass(frozen=True)
class WorkflowNode:
    """One node of an experiment workflow graph."""

    name: str
    kind: str
    stage: str

    def __post_init__(self) -> None:
        if self.kind not in NODE_KINDS:
            raise ExperimentError(
                f"node {self.name!r} has unknown kind {self.kind!r}"
            )

    @property
    def label(self) -> tuple[str, str]:
        """The (kind, stage) label used for graph matching.

        Node *names* are experiment-specific ("Stripping", "D3PD maker");
        labels capture their semantic role, which is what "similar
        workflow" means.
        """
        return (self.kind, self.stage)


class WorkflowGraph:
    """A labelled DAG describing one experiment's processing workflow."""

    def __init__(self, experiment: str) -> None:
        self.experiment = experiment
        self._graph = DAG()
        self._nodes: dict[str, WorkflowNode] = {}

    def add_node(self, name: str, kind: str, stage: str) -> None:
        """Add one workflow node; names unique per graph."""
        if name in self._nodes:
            raise ExperimentError(
                f"{self.experiment}: duplicate workflow node {name!r}"
            )
        node = WorkflowNode(name=name, kind=kind, stage=stage)
        self._nodes[name] = node
        self._graph.add_node(name)

    def add_edge(self, source: str, target: str) -> None:
        """Add a produces/consumes edge; a rejected edge changes nothing."""
        for name in (source, target):
            if name not in self._nodes:
                raise ExperimentError(
                    f"{self.experiment}: unknown workflow node {name!r}"
                )
        try:
            self._graph.add_edge(source, target)
        except CycleError:
            raise ExperimentError(
                f"{self.experiment}: edge {source!r} -> {target!r} "
                f"creates a cycle"
            ) from None

    def node(self, name: str) -> WorkflowNode:
        """Look up one node."""
        try:
            return self._nodes[name]
        except KeyError:
            raise ExperimentError(
                f"{self.experiment}: unknown node {name!r}"
            ) from None

    def nodes(self) -> list[WorkflowNode]:
        """All nodes, name-sorted."""
        return [self._nodes[name] for name in sorted(self._nodes)]

    def label_multiset(self) -> dict[tuple[str, str], int]:
        """Count of nodes per semantic label."""
        counts: dict[tuple[str, str], int] = {}
        for node in self._nodes.values():
            counts[node.label] = counts.get(node.label, 0) + 1
        return counts

    def edge_labels(self) -> set[tuple[tuple[str, str], tuple[str, str]]]:
        """The set of (source label, target label) pairs."""
        return {
            (self._nodes[source].label, self._nodes[target].label)
            for source, target in self._graph.edges()
        }

    def __len__(self) -> int:
        return len(self._nodes)

    def to_dot(self) -> str:
        """Graphviz DOT rendering of the workflow (for documentation).

        Node shapes encode the kind: boxes for processing, ellipses for
        datasets, diamonds for externals, and a point for the source.
        """
        shapes = {"processing": "box", "dataset": "ellipse",
                  "external": "diamond", "source": "point"}
        lines = [f'digraph "{self.experiment}" {{',
                 "  rankdir=LR;"]
        for node in self.nodes():
            shape = shapes[node.kind]
            lines.append(
                f'  "{node.name}" [shape={shape}, '
                f'label="{node.name}\\n({node.stage})"];'
            )
        for source, target in sorted(self._graph.edges()):
            lines.append(f'  "{source}" -> "{target}";')
        lines.append("}")
        return "\n".join(lines)

    def subgraph(self, keep_stages: frozenset[str],
                 invert: bool = False) -> "WorkflowGraph":
        """A copy restricted to (or excluding) a set of stages."""
        result = WorkflowGraph(self.experiment)
        for node in self._nodes.values():
            selected = node.stage in keep_stages
            if invert:
                selected = not selected
            if selected:
                result.add_node(node.name, node.kind, node.stage)
        for source, target in self._graph.edges():
            if source in result._nodes and target in result._nodes:
                result.add_edge(source, target)
        return result


def build_workflow(profile: ExperimentProfile) -> WorkflowGraph:
    """Build the workflow graph for one experiment profile.

    The pre-AOD spine is identical for everyone (the paper's "remarkably
    similar" core); the differences enter exactly where the paper says:
    the constants-handling node and the post-AOD group formats.
    """
    graph = WorkflowGraph(profile.name)
    # The common spine.
    graph.add_node("detector", "source", "detector")
    graph.add_node("raw", "dataset", "raw")
    graph.add_node("mc_generation", "processing", "mc_generation")
    graph.add_node("simulation", "processing", "simulation")
    graph.add_node("reconstruction", "processing", "reconstruction")
    graph.add_node("reco_data", "dataset", "reco")
    graph.add_node("aod_production", "processing", "aod_production")
    graph.add_node("aod", "dataset", "aod")
    graph.add_edge("detector", "raw")
    graph.add_edge("mc_generation", "simulation")
    graph.add_edge("simulation", "raw")
    graph.add_edge("raw", "reconstruction")
    graph.add_edge("reconstruction", "reco_data")
    graph.add_edge("reco_data", "aod_production")
    graph.add_edge("aod_production", "aod")
    # Constants handling: database access vs shipped text files.
    if profile.constants_handling == ConstantsHandling.DATABASE:
        graph.add_node("conditions_db", "external", "conditions")
        graph.add_edge("conditions_db", "reconstruction")
    else:
        graph.add_node("constants_files", "dataset", "constants_files")
        graph.add_edge("constants_files", "reconstruction")
    # Post-AOD: this is where the paper locates "the most variety of
    # approaches", so the graph structure genuinely differs by the
    # experiment's commonality class.
    first_ntuple = None
    if profile.post_aod_commonality == PostAODCommonality.HIGH:
        # CMS-style: one centrally maintained common format; groups
        # derive ntuples from it.
        graph.add_node("common_skim", "processing", "common_skim")
        graph.add_node("common_format", "dataset", "common_format")
        graph.add_edge("aod", "common_skim")
        graph.add_edge("common_skim", "common_format")
        for group_format in profile.group_formats or ("default",):
            ntuple_name = f"ntuple_{group_format}"
            graph.add_node(ntuple_name, "dataset", "ntuple")
            graph.add_edge("common_format", ntuple_name)
            if first_ntuple is None:
                first_ntuple = ntuple_name
    elif profile.post_aod_commonality == PostAODCommonality.LOW:
        # ATLAS-style: every group maintains its own derivation chain
        # (skim -> group format -> slim -> ntuple).
        for group_format in profile.group_formats or ("default",):
            skim_name = f"skim_{group_format}"
            dataset_name = f"group_{group_format}"
            slim_name = f"slim_{group_format}"
            ntuple_name = f"ntuple_{group_format}"
            graph.add_node(skim_name, "processing", "group_skim")
            graph.add_node(dataset_name, "dataset", "group_format")
            graph.add_node(slim_name, "processing", "group_slim")
            graph.add_node(ntuple_name, "dataset", "ntuple")
            graph.add_edge("aod", skim_name)
            graph.add_edge(skim_name, dataset_name)
            graph.add_edge(dataset_name, slim_name)
            graph.add_edge(slim_name, ntuple_name)
            if first_ntuple is None:
                first_ntuple = ntuple_name
    else:
        # Medium commonality (LHCb stripping, ALICE trains, CDF):
        # shared skim pass, then per-group ntuples.
        for group_format in profile.group_formats or ("default",):
            skim_name = f"skim_{group_format}"
            dataset_name = f"group_{group_format}"
            ntuple_name = f"ntuple_{group_format}"
            graph.add_node(skim_name, "processing", "skimslim")
            graph.add_node(dataset_name, "dataset", "group_format")
            graph.add_node(ntuple_name, "dataset", "ntuple")
            graph.add_edge("aod", skim_name)
            graph.add_edge(skim_name, dataset_name)
            graph.add_edge(dataset_name, ntuple_name)
            if first_ntuple is None:
                first_ntuple = ntuple_name
    # The final analyst scripts — the stage the paper says only direct
    # code preservation can capture.
    graph.add_node("analyst_scripts", "processing", "final_analysis")
    graph.add_node("publication", "dataset", "publication")
    graph.add_edge(first_ntuple, "analyst_scripts")
    graph.add_edge("analyst_scripts", "publication")
    return graph


def workflow_similarity(graph1: WorkflowGraph,
                        graph2: WorkflowGraph) -> float:
    """Labelled-graph similarity in [0, 1].

    The mean of (a) the multiset-Jaccard overlap of node labels and
    (b) the Jaccard overlap of labelled edges. Identical semantic
    structure scores 1 regardless of experiment-specific node names.
    """
    labels1 = graph1.label_multiset()
    labels2 = graph2.label_multiset()
    all_labels = set(labels1) | set(labels2)
    if not all_labels:
        raise ExperimentError("cannot compare two empty workflows")
    intersection = sum(min(labels1.get(label, 0), labels2.get(label, 0))
                       for label in all_labels)
    union = sum(max(labels1.get(label, 0), labels2.get(label, 0))
                for label in all_labels)
    node_score = intersection / union if union else 1.0

    edges1 = graph1.edge_labels()
    edges2 = graph2.edge_labels()
    if edges1 or edges2:
        edge_score = len(edges1 & edges2) / len(edges1 | edges2)
    else:
        edge_score = 1.0
    return 0.5 * (node_score + edge_score)


def pre_aod_subgraph(graph: WorkflowGraph) -> WorkflowGraph:
    """The workflow restricted to the central-production stages."""
    return graph.subgraph(_PRE_AOD_STAGES)


def post_aod_subgraph(graph: WorkflowGraph) -> WorkflowGraph:
    """The workflow restricted to the analysis (post-AOD) stages."""
    return graph.subgraph(_PRE_AOD_STAGES, invert=True)


def similarity_matrix(profiles: list[ExperimentProfile],
                      region: str = "full") -> dict[tuple[str, str], float]:
    """Pairwise similarities for a set of experiments.

    ``region`` selects ``"full"``, ``"pre_aod"``, or ``"post_aod"``.
    """
    selector = {
        "full": lambda graph: graph,
        "pre_aod": pre_aod_subgraph,
        "post_aod": post_aod_subgraph,
    }
    if region not in selector:
        raise ExperimentError(
            f"unknown region {region!r}; use full/pre_aod/post_aod"
        )
    graphs = {profile.name: selector[region](build_workflow(profile))
              for profile in profiles}
    matrix = {}
    names = sorted(graphs)
    for i, name1 in enumerate(names):
        for name2 in names[i + 1:]:
            matrix[(name1, name2)] = workflow_similarity(
                graphs[name1], graphs[name2]
            )
    return matrix
