"""Lint target discovery: directories, archives, JSON classification."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.archive import PreservationArchive
from repro.core.metadata import PreservationMetadata
from repro.lint import LintConfig, classify_document, lint_path

REPO_SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: The suppressions the CI self-lint job runs with, reasons verbatim.
SELF_LINT_SUPPRESSIONS = {
    "DAS004": "the CLI and dataset writers are the file-IO layer; "
              "direct file access is their purpose",
    "DAS006": "module-level registries and lookup tables are "
              "intentional, read-only library structure",
    "DAS007": "validation and capture harnesses catch broadly to "
              "convert failures into recorded outcomes",
}


def _metadata(title: str) -> PreservationMetadata:
    return PreservationMetadata.build(
        title=title,
        creator="tests",
        experiment="TOY",
        created="2013-01-01",
        artifact_format="json",
        size_bytes=0,
        checksum="",
        producer="tests",
        access_policy="public",
    )


def make_archive(directory, payloads: int = 2) -> None:
    archive = PreservationArchive("target-test")
    for index in range(payloads):
        archive.store({"value": index}, kind="record",
                      metadata=_metadata(f"record {index}"))
    archive.save(directory)


class TestDirectoryTargets:
    def test_empty_directory_is_clean(self, tmp_path):
        assert lint_path(tmp_path) == []

    def test_archive_root_routes_to_archive_rules(self, tmp_path):
        make_archive(tmp_path)
        (tmp_path / "blobs" / "deadbeef").write_text("{corrupt",
                                                     encoding="utf-8")
        findings = lint_path(tmp_path)
        assert findings  # orphan blob is archive-rule material
        assert all(f.code.startswith("DAS1") for f in findings)

    def test_nested_archive_is_discovered(self, tmp_path):
        make_archive(tmp_path / "deep" / "archive")
        (tmp_path / "deep" / "archive" / "blobs" / "feedface"
         ).write_text("{corrupt", encoding="utf-8")
        nested = lint_path(tmp_path)
        direct = lint_path(tmp_path / "deep" / "archive")
        assert [f.code for f in nested] == [f.code for f in direct]

    def test_nested_archive_blobs_not_linted_as_loose_json(self,
                                                           tmp_path):
        make_archive(tmp_path / "archive")
        # A clean archive inside a clean directory stays clean: its
        # catalogue and blobs must not resurface as unknown documents.
        (tmp_path / "readme.py").write_text("VALUE = (1, 2)\n",
                                            encoding="utf-8")
        assert lint_path(tmp_path) == []

    def test_sources_outside_the_archive_still_linted(self, tmp_path):
        make_archive(tmp_path / "archive")
        (tmp_path / "script.py").write_text(
            "import time\n\ndef stamp():\n    return time.time()\n",
            encoding="utf-8")
        findings = lint_path(tmp_path)
        assert any(f.code == "DAS001" for f in findings)

    def test_non_json_decoy_reported_unreadable(self, tmp_path):
        (tmp_path / "decoy.json").write_text("just text",
                                             encoding="utf-8")
        findings = lint_path(tmp_path)
        assert [f.code for f in findings] == ["DAS010"]

    def test_non_dict_json_is_ignored(self, tmp_path):
        (tmp_path / "list.json").write_text("[1, 2, 3]",
                                            encoding="utf-8")
        assert lint_path(tmp_path) == []

    def test_symlinked_blob_does_not_crash_the_sweep(self, tmp_path):
        make_archive(tmp_path / "archive")
        blob = next((tmp_path / "archive" / "blobs").iterdir())
        link = tmp_path / "loose.json"
        link.symlink_to(blob)
        # The linked payload is a plain record: classified unknown,
        # no findings, no exception.
        assert lint_path(tmp_path) == []

    def test_undecodable_source_reported_not_raised(self, tmp_path):
        (tmp_path / "binary.py").write_bytes(b"\xff\xfe\x00junk")
        findings = lint_path(tmp_path)
        assert [f.code for f in findings] == ["DAS010"]
        assert "unreadable" in findings[0].message


class TestClassification:
    def test_bundle(self):
        record = {"format": "repro-preserved-analysis"}
        assert classify_document(record) == "bundle"

    def test_snapshot(self):
        record = {"schema": {"format": "repro-conditions-snapshot"}}
        assert classify_document(record) == "snapshot"

    def test_provenance(self):
        assert classify_document({"artifacts": []}) == "provenance"

    def test_skim_needs_cut_and_name(self):
        assert classify_document({"cut": {}, "name": "x"}) == "skim"
        assert classify_document({"cut": {}}) == "unknown"

    def test_slim_needs_columns_and_name(self):
        assert classify_document({"columns": [], "name": "x"}) == "slim"
        assert classify_document({"columns": []}) == "unknown"

    def test_empty_document_is_unknown(self):
        assert classify_document({}) == "unknown"

    def test_closure_manifest_is_not_misclassified(self):
        record = {"format": "repro-closure-manifest", "analyses": []}
        assert classify_document(record) == "unknown"


class TestSelfLint:
    def test_src_repro_passes_its_own_shallow_lint(self):
        config = LintConfig(suppressions=SELF_LINT_SUPPRESSIONS)
        findings = config.apply(lint_path(REPO_SRC))
        assert [f"{f.location()}: {f.code}" for f in findings] == []


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
