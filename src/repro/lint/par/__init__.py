"""Concurrency & vectorisation safety analysis (DAS3xx).

The third static-analysis layer: closure/shared-state escape analysis
for pool workers, RNG-stream discipline, numpy aliasing/in-place
checks over columnar kernels, and order-sensitivity against declared
equivalence tiers. Built on the flow layer's module/call graphs; run
via ``repro lint --par`` (and as part of ``--deep``).
"""

from repro.lint.par.analysis import lint_tree_par
from repro.lint.par.scan import (
    DispatchSite,
    ModuleParScan,
    ParFactKind,
    TierDecl,
    scan_par_module,
)

__all__ = [
    "DispatchSite",
    "ModuleParScan",
    "ParFactKind",
    "TierDecl",
    "lint_tree_par",
    "scan_par_module",
]
