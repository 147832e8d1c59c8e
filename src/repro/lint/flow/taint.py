"""Taint propagation: impurity facts carried through the call graph.

The single-file pass (``pycheck``) flags an impure statement where it
stands. This pass asks the question preservation actually cares about:
*can an Analysis entry point reach that statement?* Direct facts are
classified from the call graph's external events using the same tables
the shallow pass uses, then propagated backwards along call and
import edges by the shared engine (:mod:`repro.lint.flow.reach`).
Findings fire on the entry point, carrying the full propagation chain
in the message.

A fact whose source line is waived with ``# lint: ignore[...]`` — by
the matching shallow code (``DAS001``…), the matching deep code
(``DAS201``…), or a bare marker — does not propagate: a reasoned
waiver at the source silences every chain through it.

Chains of length one (the impure statement sits in the entry method
itself) are left to the shallow rules, which already report them; the
deep rules only report what at least one call or import edge hides.
"""

from __future__ import annotations

import enum

from repro.lint.findings import Finding
from repro.lint.flow.callgraph import CallGraph, analyze_tree
from repro.lint.flow.reach import Fact, FactFamily, Reachability
from repro.lint.flow.rules import (
    RULE_CLOSURE_UNRESOLVED,
    RULE_DEEP_ENV,
    RULE_DEEP_FILESYSTEM,
    RULE_DEEP_GLOBAL_WRITE,
    RULE_DEEP_NETWORK,
    RULE_DEEP_RANDOM,
    RULE_DEEP_WALLCLOCK,
)
from repro.lint.pycheck import (
    _NETWORK_MODULES,
    _NUMPY_RANDOM_SAFE,
    _OS_FILE_CALLS,
    _PATH_METHODS,
    _WALLCLOCK_CALLS,
)


class TaintKind(enum.Enum):
    """The impurity families the deep pass propagates."""

    WALL_CLOCK = "wall-clock"
    UNSEEDED_RNG = "unseeded-rng"
    NETWORK = "network"
    FILESYSTEM = "filesystem"
    ENV_READ = "env-read"
    GLOBAL_WRITE = "global-write"


#: Deep rule and the shallow code whose waiver also silences it.
_KIND_RULES = {
    TaintKind.WALL_CLOCK: (RULE_DEEP_WALLCLOCK, "DAS001"),
    TaintKind.UNSEEDED_RNG: (RULE_DEEP_RANDOM, "DAS002"),
    TaintKind.NETWORK: (RULE_DEEP_NETWORK, "DAS003"),
    TaintKind.FILESYSTEM: (RULE_DEEP_FILESYSTEM, "DAS004"),
    TaintKind.ENV_READ: (RULE_DEEP_ENV, "DAS005"),
    TaintKind.GLOBAL_WRITE: (RULE_DEEP_GLOBAL_WRITE, "DAS006"),
}

#: Import-time impurity reaches an entry point too; a hazard in the
#: entry method itself is left to the shallow rules.
_FAMILY = FactFamily(
    rules={kind: rule for kind, (rule, _) in _KIND_RULES.items()},
    waiver_codes={kind: {rule.code, shallow}
                  for kind, (rule, shallow) in _KIND_RULES.items()},
    follow_imports=True,
    count_root=False,
)


def _classify_call(dotted: str, has_args: bool) -> tuple | None:
    """(kind, description) of one resolved external call, if impure."""
    if dotted in _WALLCLOCK_CALLS:
        return TaintKind.WALL_CLOCK, f"wall-clock call {dotted}()"
    if dotted == "random.Random" and not has_args:
        return (TaintKind.UNSEEDED_RNG,
                "random.Random() constructed without a seed")
    if dotted.startswith("random.") and dotted != "random.Random":
        return (TaintKind.UNSEEDED_RNG,
                f"call to module-global RNG {dotted}()")
    if dotted == "numpy.random.default_rng" and not has_args:
        return (TaintKind.UNSEEDED_RNG,
                "numpy.random.default_rng() without a seed")
    if dotted.startswith("numpy.random."):
        attr = dotted.split(".", 2)[2]
        if attr not in _NUMPY_RANDOM_SAFE and attr != "default_rng":
            return (TaintKind.UNSEEDED_RNG,
                    f"call to legacy global RNG {dotted}()")
    root = dotted.split(".")[0]
    if root in _NETWORK_MODULES:
        return TaintKind.NETWORK, f"network call {dotted}()"
    if dotted == "open":
        return (TaintKind.FILESYSTEM,
                "direct open() outside the archive API")
    if dotted in _OS_FILE_CALLS or dotted.startswith("shutil."):
        return TaintKind.FILESYSTEM, f"filesystem call {dotted}()"
    if dotted in ("os.getenv", "os.environ.get"):
        return TaintKind.ENV_READ, f"environment read via {dotted}()"
    return None


def _classify_event(event: tuple) -> tuple | None:
    """(kind, description) of one call-graph event, if impure."""
    tag = event[0]
    if tag == "call":
        return _classify_call(event[1], event[3])
    if tag == "import":
        root = event[1].split(".")[0]
        if root in _NETWORK_MODULES:
            return (TaintKind.NETWORK,
                    f"import of network module {event[1]!r}")
        return None
    if tag == "attr":
        return TaintKind.ENV_READ, f"environment read via {event[1]}"
    if tag == "pathchain":
        receiver, _, method = event[1].rpartition(".")
        if (receiver in ("pathlib.Path", "Path")
                and method in _PATH_METHODS):
            return (TaintKind.FILESYSTEM,
                    f"Path(...).{method}() outside the archive API")
        return None
    if tag == "global_write":
        return (TaintKind.GLOBAL_WRITE,
                f"write to module-level name {event[1]!r}")
    if tag == "global_mutate":
        return (TaintKind.GLOBAL_WRITE,
                f"mutation of module-level container {event[1]}")
    return None


def _classified(graph: CallGraph) -> dict[str, tuple[Fact, ...]]:
    """Per-function direct impurity facts, before waivers."""
    facts: dict[str, tuple[Fact, ...]] = {}
    for qualname, info in graph.functions.items():
        found: list[Fact] = []
        for event in info.events:
            classified = _classify_event(event)
            if classified is not None:
                kind, description = classified
                found.append(Fact(kind=kind, description=description,
                                  line=event[2]))
        if found:
            facts[qualname] = tuple(sorted(
                found, key=lambda f: (f.line, f.kind.value,
                                      f.description)))
    return facts


def _reachability(graph: CallGraph) -> Reachability:
    return Reachability(graph, _FAMILY, _classified(graph))


def direct_facts(graph: CallGraph) -> dict[str, tuple[Fact, ...]]:
    """Per-function direct impurity facts, with waivers applied."""
    return _reachability(graph).facts


def deep_findings(graph: CallGraph) -> list[Finding]:
    """All DAS201–DAS207 findings for one analysed tree.

    Each Analysis class reports each impurity kind once, at the first
    entry method (in ``ANALYSIS_ENTRY_METHODS`` order) that reaches it
    and is not waived at its definition line.
    """
    reach = _reachability(graph)
    findings: list[Finding] = []
    for entry in graph.analysis_entries():
        reported: set[str] = set()
        for qualname in graph.entry_methods(entry):
            method = qualname.rpartition(".")[2]
            for finding in reach.root_findings(
                    qualname, f"analysis {entry.name!r}: {method}()",
                    artifact=entry.name):
                if finding.code not in reported:
                    reported.add(finding.code)
                    findings.append(finding)
    for name in sorted(set(graph.modules.targets)):
        node = graph.modules.modules[name]
        for rendered, line in node.unresolved_imports:
            findings.append(RULE_CLOSURE_UNRESOLVED.finding(
                f"relative import {rendered!r} cannot be resolved "
                f"inside the tree; the dependency closure is "
                f"incomplete",
                file=node.path, line=line,
            ))
    return findings


def lint_tree_deep(root) -> list[Finding]:
    """Run the interprocedural pass over one file or directory."""
    return deep_findings(analyze_tree(root))
