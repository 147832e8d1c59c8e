"""Worker reachability and kernel-contract checks (DAS301–DAS312).

The scan layer attaches direct hazards to functions; this layer asks
the two questions the parallel contract cares about:

*Can a pool worker reach that hazard?* Worker roots are resolved from
every dispatch site (:mod:`repro.runtime.workers`) in the target
modules — through ``functools.partial`` wrappers and lambda bodies —
then hazards are propagated backwards along the call graph's resolved
edges. Edges into ``module:<module>`` pseudo-nodes are deliberately
*not* followed: import-time initialisation is serialised by the import
lock and already policed by DAS006/DAS206, so a module-level registry
build is not a parallel hazard.

*Does a kernel honour its declared tier?* Functions carrying an
``@equivalence_tier(...)`` declaration are checked directly: no
in-place mutation or aliasing of caller buffers at any tier, no random
draws or order-sensitive reductions at the ``exact`` tier.

Chains and waivers follow the shared reachability contract
(:mod:`repro.lint.flow.reach`). Unlike the deep pass, a hazard in the
worker itself is reported — there is no shallow DAS3xx equivalent to
defer to. Kernel findings have no chain: only a waiver at the hazard
line silences them.
"""

from __future__ import annotations

import ast

from repro.lint.findings import Finding
from repro.lint.flow.callgraph import CallGraph, _GraphBuilder
from repro.lint.flow.modgraph import build_module_graph
from repro.lint.flow.reach import FactFamily, Reachability, readable
from repro.lint.par.rules import (
    RULE_PAR_ARG_ATTR_WRITE,
    RULE_PAR_EXACT_RNG,
    RULE_PAR_GLOBAL_WRITE,
    RULE_PAR_INPLACE_PARAM,
    RULE_PAR_INVALID_TIER,
    RULE_PAR_ORDER_SENSITIVE,
    RULE_PAR_RETURNS_VIEW,
    RULE_PAR_SELF_WRITE,
    RULE_PAR_SHARED_RNG,
    RULE_PAR_STATE_MUTATION,
    RULE_PAR_UNDERIVED_SEED,
    RULE_PAR_UNPICKLABLE,
)
from repro.lint.par.scan import (
    DispatchSite,
    ModuleParScan,
    ParFactKind,
    scan_par_module,
)
from repro.lint.pycheck import _dotted_name

#: Hazards that travel along call edges to a worker root.
_PROPAGATED = {
    ParFactKind.GLOBAL_WRITE: RULE_PAR_GLOBAL_WRITE,
    ParFactKind.STATE_MUTATION: RULE_PAR_STATE_MUTATION,
    ParFactKind.SELF_WRITE: RULE_PAR_SELF_WRITE,
    ParFactKind.SHARED_RNG: RULE_PAR_SHARED_RNG,
    ParFactKind.UNDERIVED_SEED: RULE_PAR_UNDERIVED_SEED,
    ParFactKind.INPLACE_PARAM: RULE_PAR_INPLACE_PARAM,
    ParFactKind.ARG_ATTR_WRITE: RULE_PAR_ARG_ATTR_WRITE,
}

#: Hazards checked directly on tier-declared kernels, at any tier.
_KERNEL_ANY_TIER = {
    ParFactKind.INPLACE_PARAM: RULE_PAR_INPLACE_PARAM,
    ParFactKind.ARG_ATTR_WRITE: RULE_PAR_ARG_ATTR_WRITE,
    ParFactKind.RETURNS_VIEW: RULE_PAR_RETURNS_VIEW,
}

#: Hazards that additionally break the ``exact`` tier's bit-identity.
_KERNEL_EXACT_TIER = {
    ParFactKind.RNG_DRAW: RULE_PAR_EXACT_RNG,
    ParFactKind.SHARED_RNG: RULE_PAR_EXACT_RNG,
    ParFactKind.ORDER_SENSITIVE: RULE_PAR_ORDER_SENSITIVE,
}

#: Every code a fact kind can surface as — a waiver at the fact line
#: naming any of them (or a bare marker) kills all chains through it.
_KIND_CODES = {
    ParFactKind.GLOBAL_WRITE: {"DAS301"},
    ParFactKind.STATE_MUTATION: {"DAS302"},
    ParFactKind.SELF_WRITE: {"DAS303"},
    ParFactKind.SHARED_RNG: {"DAS305", "DAS310"},
    ParFactKind.UNDERIVED_SEED: {"DAS306"},
    ParFactKind.INPLACE_PARAM: {"DAS307"},
    ParFactKind.RETURNS_VIEW: {"DAS308"},
    ParFactKind.ARG_ATTR_WRITE: {"DAS309"},
    ParFactKind.RNG_DRAW: {"DAS310"},
    ParFactKind.ORDER_SENSITIVE: {"DAS311"},
}


#: Import-time work is serialised by the import lock (see module
#: docstring); a hazard in the worker itself runs in the pool.
_FAMILY = FactFamily(rules=_PROPAGATED, waiver_codes=_KIND_CODES,
                     follow_imports=False, count_root=True)


class _ParAnalysis(Reachability):
    """One par pass over one built call graph."""

    def __init__(self, graph: CallGraph,
                 builder: _GraphBuilder) -> None:
        self.builder = builder
        self.par_scans: dict[str, ModuleParScan] = {
            name: scan_par_module(name, scan)
            for name, scan in sorted(builder.scans.items())}
        super().__init__(graph, _FAMILY, {
            qualname: found for par_scan in self.par_scans.values()
            for qualname, found in par_scan.facts.items()})
        self.findings: list[Finding] = []

    # -- worker roots --------------------------------------------------

    def _resolve_worker(self, site: DispatchSite
                        ) -> tuple[list[str], list[str]]:
        """(root qualnames, unpicklable worker descriptions)."""
        scan = self.builder.scans.get(site.module)
        roots: list[str] = []
        unpicklable: list[str] = []
        chased: set[str] = set()

        def resolve(expr: ast.expr) -> None:
            if isinstance(expr, ast.Lambda):
                unpicklable.append("a lambda")
                for sub in ast.walk(expr.body):
                    if isinstance(sub, ast.Call):
                        dotted = _dotted_name(sub.func)
                        if dotted is not None and scan is not None:
                            target = self.builder._resolve_call(
                                site.module, scan, dotted,
                                site.class_name)
                            if target is not None:
                                roots.append(target)
                return
            if isinstance(expr, ast.Call):
                dotted = _dotted_name(expr.func)
                if (dotted is not None
                        and dotted.rpartition(".")[2] == "partial"
                        and expr.args):
                    resolve(expr.args[0])
                return
            dotted = _dotted_name(expr)
            if dotted is None or scan is None:
                return
            if "." not in dotted and dotted in site.nested_names:
                unpicklable.append(
                    f"locally defined function {dotted!r}")
                return
            if ("." not in dotted and dotted in site.bindings
                    and dotted not in chased):
                chased.add(dotted)
                resolve(site.bindings[dotted])
                return
            target = self.builder._resolve_call(
                site.module, scan, dotted, site.class_name)
            if target is not None:
                roots.append(target)

        resolve(site.worker)
        return roots, unpicklable

    def _worker_roots(self) -> dict[str, list[DispatchSite]]:
        """Every resolved worker root in the target modules."""
        roots: dict[str, list[DispatchSite]] = {}
        for module in sorted(set(self.graph.modules.targets)):
            par_scan = self.par_scans.get(module)
            if par_scan is None:
                continue
            for site in par_scan.sites:
                resolved, unpicklable = self._resolve_worker(site)
                for description in unpicklable:
                    self._unpicklable_finding(site, description)
                for root in resolved:
                    roots.setdefault(root, []).append(site)
        for sites in roots.values():
            sites.sort(key=lambda s: (s.module, s.line, s.dispatcher))
        return roots

    def _unpicklable_finding(self, site: DispatchSite,
                             description: str) -> None:
        if self.waived(site.module, site.line,
                       {RULE_PAR_UNPICKLABLE.code}):
            return
        self.findings.append(RULE_PAR_UNPICKLABLE.finding(
            f"{site.dispatcher}() dispatches {description} as a "
            f"parallel worker; process pools cannot pickle it, so "
            f"the call dies under mode='process' only",
            artifact=readable(site.caller),
            file=self.module_file(site.module), line=site.line,
        ))

    def _worker_findings(self) -> None:
        for root, sites in sorted(self._worker_roots().items()):
            site = sites[0]
            self.findings.extend(self.root_findings(
                root,
                f"parallel worker {readable(root)!r} (dispatched by "
                f"{site.dispatcher}() at "
                f"{self.module_file(site.module)}:{site.line})",
                artifact=readable(root)))

    # -- kernels -------------------------------------------------------

    def _kernel_findings(self) -> None:
        for module in sorted(set(self.graph.modules.targets)):
            par_scan = self.par_scans.get(module)
            if par_scan is None:
                continue
            file = self.module_file(module)
            for qualname, line, problem in par_scan.tier_errors:
                if self.waived(module, line,
                               {RULE_PAR_INVALID_TIER.code}):
                    continue
                self.findings.append(RULE_PAR_INVALID_TIER.finding(
                    f"equivalence-tier declaration on "
                    f"{readable(qualname)!r}: {problem}",
                    artifact=readable(qualname), file=file,
                    line=line,
                ))
            for qualname, decl in sorted(par_scan.tiers.items()):
                reported: set[str] = set()
                for fact in self.facts.get(qualname, ()):
                    rule = _KERNEL_ANY_TIER.get(fact.kind)
                    if rule is None and decl.tier == "exact":
                        rule = _KERNEL_EXACT_TIER.get(fact.kind)
                    if rule is None or rule.code in reported:
                        continue
                    reported.add(rule.code)
                    self.findings.append(rule.finding(
                        f"{decl.tier}-tier kernel "
                        f"{readable(qualname)!r} has "
                        f"{fact.description} ({file}:{fact.line})",
                        artifact=readable(qualname), file=file,
                        line=fact.line,
                    ))

    def run(self) -> list[Finding]:
        self._worker_findings()
        self._kernel_findings()
        return sorted(self.findings, key=Finding.sort_key)


def lint_tree_par(root) -> list[Finding]:
    """Run the parallel-safety pass over one file or directory."""
    builder = _GraphBuilder(build_module_graph(root))
    graph = builder.build()
    return _ParAnalysis(graph, builder).run()
