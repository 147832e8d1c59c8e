"""Replay-root escape analysis (DAS401–DAS412).

The scan layer attaches direct instabilities to functions; this layer
asks the one question the replay contract cares about: *can a
declared serialization root reach that instability?* Roots come from
two places — the library registry (:mod:`repro.lint.det.roots`,
matched by dotted name against the call graph) and ``@replay_root``
decorators found statically in the analysed tree. Instabilities are
then propagated backwards along the call graph's resolved edges,
exactly like the DAS2xx/DAS3xx passes. Edges into ``module:<module>``
pseudo-nodes are deliberately *not* followed: import-time work runs
once per process, before any serialisation, and is policed by
DAS006/DAS206.

Chains and waivers follow the shared reachability contract
(:mod:`repro.lint.flow.reach`); as in DAS3xx, an instability in the
root itself is reported.
"""

from __future__ import annotations

from repro.lint.det.roots import replay_roots
from repro.lint.det.rules import (
    RULE_DET_DICT_FROM_UNORDERED,
    RULE_DET_DICT_ITERATION,
    RULE_DET_ENV_READ,
    RULE_DET_FLOAT_FORMAT,
    RULE_DET_HASH_IDENTITY,
    RULE_DET_INVALID_ROOT,
    RULE_DET_LOCALE_STRING,
    RULE_DET_NONCANONICAL_JSON,
    RULE_DET_SET_ITERATION,
    RULE_DET_UNDERIVED_RNG,
    RULE_DET_UNSORTED_FS,
    RULE_DET_WALL_CLOCK,
)
from repro.lint.det.scan import (
    DetFactKind,
    ModuleDetScan,
    RootDecl,
    scan_det_module,
)
from repro.lint.findings import Finding
from repro.lint.flow.callgraph import CallGraph, _GraphBuilder
from repro.lint.flow.modgraph import build_module_graph
from repro.lint.flow.reach import FactFamily, Reachability, readable

#: Instabilities that travel along call edges to a replay root.
_PROPAGATED = {
    DetFactKind.NONCANONICAL_JSON: RULE_DET_NONCANONICAL_JSON,
    DetFactKind.SET_ITERATION: RULE_DET_SET_ITERATION,
    DetFactKind.DICT_VIEW_ITERATION: RULE_DET_DICT_ITERATION,
    DetFactKind.UNSORTED_FS: RULE_DET_UNSORTED_FS,
    DetFactKind.WALL_CLOCK: RULE_DET_WALL_CLOCK,
    DetFactKind.HASH_IDENTITY: RULE_DET_HASH_IDENTITY,
    DetFactKind.ENV_READ: RULE_DET_ENV_READ,
    DetFactKind.FLOAT_FORMAT: RULE_DET_FLOAT_FORMAT,
    DetFactKind.UNDERIVED_RNG: RULE_DET_UNDERIVED_RNG,
    DetFactKind.LOCALE_STRING: RULE_DET_LOCALE_STRING,
    DetFactKind.DICT_FROM_UNORDERED: RULE_DET_DICT_FROM_UNORDERED,
}

#: Import-time work runs once per process, before any serialisation
#: (see module docstring); an instability in the root itself counts.
_FAMILY = FactFamily(
    rules=_PROPAGATED,
    waiver_codes={kind: {rule.code} for kind, rule in _PROPAGATED.items()},
    follow_imports=False,
    count_root=True,
)


class _DetAnalysis(Reachability):
    """One det pass over one built call graph."""

    def __init__(self, graph: CallGraph,
                 builder: _GraphBuilder) -> None:
        self.det_scans: dict[str, ModuleDetScan] = {
            name: scan_det_module(name, scan)
            for name, scan in sorted(builder.scans.items())}
        super().__init__(graph, _FAMILY, {
            qualname: found for det_scan in self.det_scans.values()
            for qualname, found in det_scan.facts.items()})
        self.findings: list[Finding] = []

    # -- roots ---------------------------------------------------------

    def _registry_roots(self) -> dict[str, str]:
        """Registered roots present in the graph: qualname -> label."""
        wanted = replay_roots()
        found: dict[str, str] = {}
        for qualname in self.graph.functions:
            label = wanted.get(qualname.replace(":", "."))
            if label is not None:
                found[qualname] = label
        return found

    def _declared_roots(self) -> dict[str, RootDecl]:
        """Decorator-declared roots in the target modules."""
        declared: dict[str, RootDecl] = {}
        for module in sorted(set(self.graph.modules.targets)):
            det_scan = self.det_scans.get(module)
            if det_scan is None:
                continue
            declared.update(det_scan.roots)
        return declared

    def _declaration_findings(self) -> dict[str, RootDecl]:
        """DAS412 for bad declarations; the valid roots survive."""
        declared = self._declared_roots()
        for module in sorted(set(self.graph.modules.targets)):
            det_scan = self.det_scans.get(module)
            if det_scan is None:
                continue
            file = self.module_file(module)
            for qualname, line, problem in det_scan.root_errors:
                if self.waived(module, line,
                               {RULE_DET_INVALID_ROOT.code}):
                    continue
                self.findings.append(RULE_DET_INVALID_ROOT.finding(
                    f"replay-root declaration on "
                    f"{readable(qualname)!r}: {problem}",
                    artifact=readable(qualname), file=file,
                    line=line,
                ))
        by_label: dict[str, list[str]] = {}
        for qualname, decl in declared.items():
            if decl.label:
                by_label.setdefault(decl.label, []).append(qualname)
        for label, holders in sorted(by_label.items()):
            if len(holders) < 2:
                continue
            holders.sort()
            for qualname in holders[1:]:
                decl = declared[qualname]
                module = qualname.partition(":")[0]
                if self.waived(module, decl.line,
                               {RULE_DET_INVALID_ROOT.code}):
                    continue
                self.findings.append(RULE_DET_INVALID_ROOT.finding(
                    f"replay-root declaration on "
                    f"{readable(qualname)!r}: label {label!r} is "
                    f"already declared by "
                    f"{readable(holders[0])!r}; every root needs a "
                    f"unique name",
                    artifact=readable(qualname),
                    file=self.module_file(module), line=decl.line,
                ))
        return declared

    def _replay_root_findings(self, roots: dict[str, str]) -> None:
        for root, label in sorted(roots.items()):
            suffix = f" ({label})" if label else ""
            self.findings.extend(self.root_findings(
                root, f"replay root {readable(root)!r}{suffix}",
                artifact=readable(root),
                tail="; re-serialisation is not byte-stable"))

    def run(self) -> list[Finding]:
        declared = self._declaration_findings()
        roots = self._registry_roots()
        for qualname, decl in declared.items():
            roots.setdefault(qualname, decl.label)
        self._replay_root_findings(roots)
        return sorted(self.findings, key=Finding.sort_key)


def lint_tree_det(root) -> list[Finding]:
    """Run the determinism/replay pass over one file or directory."""
    builder = _GraphBuilder(build_module_graph(root))
    graph = builder.build()
    return _DetAnalysis(graph, builder).run()
