"""Interprocedural taint propagation to Analysis entry points."""

from __future__ import annotations

import textwrap

import pytest

from repro.lint import lint_source_file, lint_tree_deep

BASE = """
    class Analysis:
        pass


    class AnalysisMetadata:
        def __init__(self, name, inspire_id=""):
            self.name = name
            self.inspire_id = inspire_id
"""

ANALYSIS = """
    from base import Analysis, AnalysisMetadata
    import helpers

    class ZPeakAnalysis(Analysis):
        def __init__(self):
            self.metadata = AnalysisMetadata(
                name="TOY_2013_I0042", inspire_id="I0042")

        def analyze(self, event):
            return helpers.smear(event)
"""

HELPERS = """
    import util

    def smear(value):
        return value + util.clock_offset()
"""

UTIL = """
    import time

    def clock_offset():
        return time.time() % 1.0
"""


def write_tree(root, files: dict) -> None:
    for relative, source in files.items():
        path = root / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")


@pytest.fixture
def two_hop_tree(tmp_path):
    write_tree(tmp_path, {
        "base.py": BASE,
        "analysis.py": ANALYSIS,
        "helpers.py": HELPERS,
        "util.py": UTIL,
    })
    return tmp_path


class TestAcceptanceScenario:
    """The ISSUE's fixture: a helper two hops away calls time.time()."""

    def test_shallow_pass_is_clean_on_the_entry_file(self, two_hop_tree):
        assert lint_source_file(two_hop_tree / "analysis.py") == []

    def test_deep_pass_flags_the_entry_point(self, two_hop_tree):
        findings = lint_tree_deep(two_hop_tree)
        codes = [f.code for f in findings]
        assert "DAS201" in codes
        finding = next(f for f in findings if f.code == "DAS201")
        assert finding.severity.name == "ERROR"
        assert finding.file.endswith("analysis.py")
        assert finding.artifact == "ZPeakAnalysis"

    def test_finding_carries_the_full_chain(self, two_hop_tree):
        finding = next(f for f in lint_tree_deep(two_hop_tree)
                       if f.code == "DAS201")
        assert "analysis.ZPeakAnalysis.analyze" in finding.message
        assert "helpers.smear" in finding.message
        assert "util.clock_offset" in finding.message
        assert "util.py:" in finding.message
        assert " -> " in finding.message

    def test_waiver_at_the_source_kills_propagation(self, two_hop_tree):
        waived = UTIL.replace(
            "return time.time() % 1.0",
            "return time.time() % 1.0  # lint: ignore[DAS001]")
        write_tree(two_hop_tree, {"util.py": waived})
        assert [f for f in lint_tree_deep(two_hop_tree)
                if f.code == "DAS201"] == []


class TestTaintKinds:
    def test_unseeded_rng_two_hops(self, tmp_path):
        write_tree(tmp_path, {
            "base.py": BASE,
            "analysis.py": """
                from base import Analysis
                import helpers

                class SmearAnalysis(Analysis):
                    def analyze(self, event):
                        return helpers.jitter(event)
            """,
            "helpers.py": """
                import random

                def jitter(value):
                    return value + random.random()
            """,
        })
        findings = lint_tree_deep(tmp_path)
        assert any(f.code == "DAS202" for f in findings)

    def test_env_read_is_a_warning(self, tmp_path):
        write_tree(tmp_path, {
            "base.py": BASE,
            "analysis.py": """
                from base import Analysis
                import helpers

                class TagAnalysis(Analysis):
                    def init(self):
                        self.tag = helpers.tag()
            """,
            "helpers.py": """
                import os

                def tag():
                    return os.getenv("GLOBAL_TAG")
            """,
        })
        findings = lint_tree_deep(tmp_path)
        finding = next(f for f in findings if f.code == "DAS205")
        assert finding.severity.name == "WARNING"

    def test_import_time_impurity_propagates(self, tmp_path):
        # The hazard sits in a module body executed at import time, not
        # in any function the entry calls directly.
        write_tree(tmp_path, {
            "base.py": BASE,
            "analysis.py": """
                from base import Analysis
                import helpers

                class StampAnalysis(Analysis):
                    def analyze(self, event):
                        return helpers.shift(event)
            """,
            "helpers.py": """
                import time

                STAMP = time.time()

                def shift(value):
                    return value + STAMP
            """,
        })
        findings = lint_tree_deep(tmp_path)
        finding = next((f for f in findings if f.code == "DAS201"), None)
        assert finding is not None
        assert "(import)" in finding.message

    def test_hazard_in_entry_itself_left_to_shallow_rules(self, tmp_path):
        write_tree(tmp_path, {
            "base.py": BASE,
            "analysis.py": """
                from base import Analysis
                import time

                class DirectAnalysis(Analysis):
                    def analyze(self, event):
                        return time.time()
            """,
        })
        deep = [f for f in lint_tree_deep(tmp_path)
                if f.code.startswith("DAS20")]
        assert deep == []
        shallow = lint_source_file(tmp_path / "analysis.py")
        assert any(f.code == "DAS001" for f in shallow)


class TestEntryWaiverScope:
    """A def-line waiver on one entry method silences that method only."""

    TREE = {
        "base.py": BASE,
        "analysis.py": """
            from base import Analysis
            import util

            class ClockAnalysis(Analysis):
                def analyze(self, event):  # lint: ignore[DAS201]
                    return util.clock_offset()

                def finalize(self):
                    return util.clock_offset()
        """,
        "util.py": UTIL,
    }

    def test_waiver_does_not_leak_to_sibling_entry_methods(self,
                                                           tmp_path):
        write_tree(tmp_path, self.TREE)
        findings = lint_tree_deep(tmp_path)
        assert [f.code for f in findings] == ["DAS201"]
        source = (tmp_path / "analysis.py").read_text(encoding="utf-8")
        finalize_line = next(
            i for i, text in enumerate(source.splitlines(), 1)
            if "def finalize" in text)
        assert findings[0].line == finalize_line
        assert "finalize() reaches" in findings[0].message

    def test_unwaived_class_reports_once_per_kind(self, tmp_path):
        write_tree(tmp_path, {
            **self.TREE,
            "analysis.py": self.TREE["analysis.py"].replace(
                "  # lint: ignore[DAS201]", ""),
        })
        findings = lint_tree_deep(tmp_path)
        assert [f.code for f in findings] == ["DAS201"]
        assert "analyze() reaches" in findings[0].message


class TestUnresolvedImports:
    def test_das207_on_unresolvable_relative_import(self, tmp_path):
        write_tree(tmp_path, {
            "base.py": BASE,
            "analysis.py": """
                from base import Analysis
                from ..outside import helper

                class LeakyAnalysis(Analysis):
                    def analyze(self, event):
                        return helper(event)
            """,
        })
        findings = lint_tree_deep(tmp_path)
        finding = next(f for f in findings if f.code == "DAS207")
        assert "..outside" in finding.message


class TestBundledCorpus:
    def test_standard_analyses_deep_pass_is_clean(self):
        import repro.rivet.standard_analyses as standard_analyses

        assert lint_tree_deep(standard_analyses.__file__) == []

    def test_examples_deep_pass_is_clean(self):
        from pathlib import Path

        examples = Path(__file__).resolve().parent.parent / "examples"
        assert lint_tree_deep(examples) == []


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
