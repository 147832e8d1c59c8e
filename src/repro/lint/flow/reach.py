"""The one reachability engine behind the DAS2xx, DAS3xx and DAS4xx passes.

Each pass scans functions for direct *facts* (an impure call, a shared
write, an unordered iteration, ...) and names its *roots* (Analysis
entry methods, pool workers, replay roots). This module answers the
question they share — which facts can a root reach along the call
graph? — once, under one contract (see "Reachability" in
``docs/linting.md``):

- breadth-first search over sorted neighbours, so each root gets the
  shortest witness chain per fact kind, and equal-length chains always
  resolve the same way;
- a ``# lint: ignore[...]`` waiver at a fact's line, naming one of the
  kind's waiver codes (or a bare marker), drops the fact and so every
  chain through it;
- a waiver at the root's definition line, naming the finding's code,
  drops only that root's finding.

What differs between passes is a :class:`FactFamily`: which rule each
kind surfaces as, which codes waive it, whether ``module:<module>``
import edges are followed, and whether facts in the root itself count.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass

from repro.lint.findings import Finding
from repro.lint.flow.callgraph import CallGraph
from repro.lint.pycheck import _ignored_codes_by_line


@dataclass(frozen=True)
class Fact:
    """One direct hazard inside one function."""

    kind: enum.Enum
    description: str
    line: int


@dataclass(frozen=True)
class FactFamily:
    """The per-pass switches of the engine."""

    #: Fact kind -> the rule a reaching root is reported under. Kinds
    #: without a rule are carried as facts but never reported.
    rules: dict
    #: Fact kind -> the codes whose fact-line waiver drops the fact.
    waiver_codes: dict
    #: Descend into ``module:<module>`` (import-time) pseudo-nodes.
    follow_imports: bool
    #: Report facts in the root itself (chains of length one).
    count_root: bool


def readable(qualname: str) -> str:
    """A graph qualname as a dotted name, pseudo-nodes marked."""
    return qualname.replace(":<module>", " (import)").replace(":", ".")


class Reachability:
    """One fact family's facts over one call graph, waivers applied."""

    def __init__(self, graph: CallGraph, family: FactFamily,
                 facts: dict[str, tuple[Fact, ...]]) -> None:
        self.graph = graph
        self.family = family
        self.waivers = {
            name: _ignored_codes_by_line(node.source)
            for name, node in graph.modules.modules.items()
            if not node.parse_error}
        self.facts: dict[str, tuple[Fact, ...]] = {}
        for qualname, found in facts.items():
            module = qualname.partition(":")[0]
            kept = tuple(fact for fact in found if not self.waived(
                module, fact.line, family.waiver_codes[fact.kind]))
            if kept:
                self.facts[qualname] = kept

    def waived(self, module: str, line: int, codes: set[str]) -> bool:
        """True when ``module:line`` carries a waiver for ``codes``."""
        table = self.waivers.get(module, {})
        if line not in table:
            return False
        waived = table[line]
        return waived is None or bool(waived & codes)

    def module_file(self, module: str) -> str:
        node = self.graph.modules.modules.get(module)
        return node.path if node is not None else module

    def _trace(self, root: str) -> dict:
        """Kind -> (first fact, shortest chain) reachable from ``root``."""
        traces: dict = {}
        seen = {root}
        queue: deque[tuple[str, tuple[str, ...]]] = deque(
            [(root, (root,))])
        while queue:
            current, chain = queue.popleft()
            if self.family.count_root or len(chain) > 1:
                for fact in self.facts.get(current, ()):
                    traces.setdefault(fact.kind, (fact, chain))
            info = self.graph.functions.get(current)
            if info is None:
                continue
            for callee, _ in sorted(info.calls):
                if callee in seen or (
                        not self.family.follow_imports
                        and callee.endswith(":<module>")):
                    continue
                seen.add(callee)
                queue.append((callee, chain + (callee,)))
        return traces

    def root_findings(self, root: str, subject: str, artifact: str,
                      tail: str = "") -> list[Finding]:
        """One finding per reported kind ``root`` reaches, by kind.

        Each reads ``<subject> reaches <fact> via <chain>
        (<file>:<line>)<tail>`` and is anchored at the root's
        definition, where a waiver for its code drops it.
        """
        info = self.graph.functions.get(root)
        if info is None:
            return []
        traces = self._trace(root)
        findings: list[Finding] = []
        for kind in sorted(traces, key=lambda k: k.value):
            rule = self.family.rules.get(kind)
            if rule is None or self.waived(info.module, info.lineno,
                                           {rule.code}):
                continue
            fact, chain = traces[kind]
            fact_file = self.module_file(chain[-1].partition(":")[0])
            findings.append(rule.finding(
                f"{subject} reaches {fact.description} via "
                f"{' -> '.join(readable(part) for part in chain)} "
                f"({fact_file}:{fact.line}){tail}",
                artifact=artifact, file=self.module_file(info.module),
                line=info.lineno,
            ))
        return findings
