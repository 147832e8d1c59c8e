"""The DASPOS preservation framework — the library's core contribution.

Ties the substrates together into the preservation architecture the
workshop set out to scope:

- :mod:`repro.core.levels` — the DPHEP Level 1-4 taxonomy and a
  classifier for every artifact kind in this library (workshop goal i/ii);
- :mod:`repro.core.metadata` — the preliminary preservation metadata set
  (workshop goal iii);
- :mod:`repro.core.archive` + :mod:`repro.core.package` — a
  content-addressed, fixity-checked archive with OAIS-style
  SIP -> AIP -> DIP packaging;
- :mod:`repro.core.describe` + :mod:`repro.core.analysisdb` — the Les
  Houches Recommendation 1a/1b analysis descriptions and the common
  analysis database;
- :mod:`repro.core.validate` — re-execution validation of preserved
  analyses against archived inputs and outputs;
- :mod:`repro.core.migrate` — platform-migration simulation and
  re-validation, quantifying the maintenance cost the paper attributes
  to full-stack (RECAST-style) preservation;
- :mod:`repro.core.dag` — the dependency-free DAG type behind the
  provenance and workflow graphs.

The public names below resolve lazily (PEP 562): substrate packages
(:mod:`repro.obs`, :mod:`repro.datamodel`) import the dependency-free
:mod:`repro.core.canonical` encoder, so this ``__init__`` must not
eagerly pull in :mod:`repro.core.describe` and friends, which import
those very substrates back.
"""

from __future__ import annotations

import importlib

#: Public name -> defining submodule, resolved on first attribute access.
_EXPORTS = {
    "DPHEPLevel": "repro.core.levels",
    "classify_artifact": "repro.core.levels",
    "classify_tier": "repro.core.levels",
    "level_description": "repro.core.levels",
    "required_level": "repro.core.levels",
    "supports_use_case": "repro.core.levels",
    "use_cases": "repro.core.levels",
    "MetadataBlock": "repro.core.metadata",
    "PreservationMetadata": "repro.core.metadata",
    "ArchiveEntry": "repro.core.archive",
    "PreservationArchive": "repro.core.archive",
    "SubmissionPackage": "repro.core.package",
    "ArchivalPackage": "repro.core.package",
    "DisseminationPackage": "repro.core.package",
    "ingest": "repro.core.package",
    "disseminate": "repro.core.package",
    "canonical_json": "repro.core.canonical",
    "canonical_text": "repro.core.canonical",
    "canonical_document": "repro.core.canonical",
    "DAG": "repro.core.dag",
    "CycleError": "repro.core.dag",
    "ObjectDefinition": "repro.core.describe",
    "EventSelection": "repro.core.describe",
    "KinematicVariable": "repro.core.describe",
    "EfficiencyFunction": "repro.core.describe",
    "AnalysisDescription": "repro.core.describe",
    "AnalysisDatabase": "repro.core.analysisdb",
    "PreservedAnalysisBundle": "repro.core.validate",
    "ValidationOutcome": "repro.core.validate",
    "revalidate": "repro.core.validate",
    "ScriptCapture": "repro.core.capture",
    "ReexecutionOutcome": "repro.core.capture",
    "environment_spec": "repro.core.capture",
    "ArchiveInventory": "repro.core.inventory",
    "LevelInventory": "repro.core.inventory",
    "take_inventory": "repro.core.inventory",
    "SuiteReport": "repro.core.suite",
    "run_validation_suite": "repro.core.suite",
    "Migration": "repro.core.migrate",
    "LosslessMigration": "repro.core.migrate",
    "FieldRenameMigration": "repro.core.migrate",
    "PrecisionLossMigration": "repro.core.migrate",
    "DropAuxiliaryMigration": "repro.core.migrate",
    "apply_migration": "repro.core.migrate",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    """Resolve a public name or submodule on first access."""
    target = _EXPORTS.get(name)
    if target is not None:
        value = getattr(importlib.import_module(target), name)
        globals()[name] = value
        return value
    try:
        return importlib.import_module(f"repro.core.{name}")
    except ModuleNotFoundError:
        raise AttributeError(
            f"module 'repro.core' has no attribute {name!r}"
        ) from None


def __dir__() -> list:
    return sorted(set(globals()) | set(_EXPORTS))
