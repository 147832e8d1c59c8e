"""Golden digests pinning the deep, par and det lint findings.

Every known-bad fixture tree of the taint, par and det suites (plus
their waiver variants) is written to a fresh directory and linted from
inside it, so finding paths are relative and a digest does not depend
on where the tree lives. A digest is the SHA-256 of ``render_json``
over the ``lint_tree_deep`` + ``lint_tree_par`` + ``lint_tree_det``
findings, concatenated in that order with each pass's own order kept.

The digests were recorded before the three passes were folded onto one
reachability engine; a refactor of that engine must leave them alone.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.lint import (
    LintReport,
    lint_tree_deep,
    lint_tree_det,
    lint_tree_par,
    render_json,
)
from tests import test_lint_det as det_suite
from tests import test_lint_flow_taint as taint_suite
from tests import test_lint_par as par_suite
from tests.test_lint_par import kernel, write_tree

_TAINT_BASE = {"base.py": taint_suite.BASE}


def _taint(files: dict) -> dict:
    return {**_TAINT_BASE, **files}


TAINT_TREES = {
    "taint_two_hop": _taint({
        "analysis.py": taint_suite.ANALYSIS,
        "helpers.py": taint_suite.HELPERS,
        "util.py": taint_suite.UTIL,
    }),
    "taint_two_hop_source_waiver": _taint({
        "analysis.py": taint_suite.ANALYSIS,
        "helpers.py": taint_suite.HELPERS,
        "util.py": taint_suite.UTIL.replace(
            "return time.time() % 1.0",
            "return time.time() % 1.0  # lint: ignore[DAS001]"),
    }),
    "taint_unseeded_rng": _taint({
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
    }),
    "taint_env_read": _taint({
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
    }),
    "taint_import_time": _taint({
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
    }),
    "taint_hazard_in_entry": _taint({
        "analysis.py": """
            from base import Analysis
            import time

            class DirectAnalysis(Analysis):
                def analyze(self, event):
                    return time.time()
        """,
    }),
    "taint_unresolved_import": _taint({
        "analysis.py": """
            from base import Analysis
            from ..outside import helper

            class LeakyAnalysis(Analysis):
                def analyze(self, event):
                    return helper(event)
        """,
    }),
}

_SHARED_RNG = par_suite.SHARED_RNG["rng.py"]
_CAMPAIGN = par_suite.TestPartialWrappedWorkers.CAMPAIGN["camp.py"]

PAR_TREES = {
    "par_global_write": par_suite.GLOBAL_WRITE,
    "par_state_mutation": par_suite.STATE_MUTATION,
    "par_self_write": par_suite.SELF_WRITE,
    "par_lambda_worker": par_suite.LAMBDA_WORKER,
    "par_nested_worker": {
        "nested.py": """
            from repro.runtime import parallel_map

            def run(items):
                def work(item):
                    return item + 1
                return parallel_map(work, items)
        """,
    },
    "par_shared_rng": par_suite.SHARED_RNG,
    "par_underived_seed": par_suite.UNDERIVED_SEED,
    "par_partial_bound": par_suite.TestPartialWrappedWorkers.CAMPAIGN,
    "par_partial_inline": {
        "camp.py": _CAMPAIGN.replace(
            "worker = functools.partial(_process_run, config)\n"
            "    return parallel_map(worker, runs)",
            "return parallel_map("
            "functools.partial(_process_run, config), runs)"),
    },
    "par_kernel_inplace_param": kernel("ulp", """
        def scale(values, factor):
            values *= factor
            return values
    """),
    "par_kernel_out_alias": kernel("exact", """
        def shift(values, offset, add):
            return add(values, offset, out=values)
    """),
    "par_kernel_returns_view": kernel("exact", """
        def flatten(values):
            return values.reshape(-1)
    """),
    "par_kernel_slice_view": kernel("exact", """
        def head(values, n):
            return values[:n]
    """),
    "par_kernel_arg_attr_write": kernel("statistical", """
        def digitize(events, state):
            state.cursor = len(events)
            return events
    """),
    "par_kernel_exact_rng": kernel("exact", """
        def smear(values, rng):
            return values + rng.normal(size=len(values))
    """),
    "par_kernel_order_sensitive": kernel("exact", """
        def total(values):
            acc = 0.0
            for value in values:
                acc += value
            return acc
    """),
    "par_kernel_builtin_sum": kernel("exact", """
        def total(values):
            return sum(values)
    """),
    "par_kernel_unknown_tier": kernel("bitwise", """
        def wrap(values):
            return values + 1
    """),
    "par_kernel_computed_tier": {
        "kern.py": """
            from repro.columnar import equivalence_tier

            TIER = "exact"

            @equivalence_tier(TIER)
            def wrap(values):
                return values + 1
        """,
    },
    "par_fact_line_waiver": {
        "rng.py": _SHARED_RNG.replace(
            "return item + random.gauss(0.0, 1.0)",
            "return item + random.gauss(0.0, 1.0)"
            "  # lint: ignore[DAS305] -- fixture"),
    },
    "par_worker_def_waiver": {
        "rng.py": _SHARED_RNG.replace(
            "def work(item):",
            "# lint: ignore[DAS305] -- fixture\ndef work(item):"),
    },
    "par_unrelated_waiver": {
        "rng.py": _SHARED_RNG.replace(
            "return item + random.gauss(0.0, 1.0)",
            "return item + random.gauss(0.0, 1.0)"
            "  # lint: ignore[DAS001] -- wrong code"),
    },
}

_WALL_CLOCK = det_suite.WALL_CLOCK["enc.py"]

DET_TREES = {
    "det_noncanonical_json": det_suite.NONCANONICAL,
    "det_set_iteration": det_suite.SET_ITERATION,
    "det_dict_iteration": det_suite.DICT_ITERATION,
    "det_unsorted_fs": det_suite.UNSORTED_FS,
    "det_wall_clock": det_suite.WALL_CLOCK,
    "det_hash_identity": det_suite.HASH_IDENTITY,
    "det_env_read": det_suite.ENV_READ,
    "det_float_format": det_suite.FLOAT_FORMAT,
    "det_underived_rng": det_suite.UNDERIVED_RNG,
    "det_locale_string": det_suite.LOCALE_STRING,
    "det_dict_from_unordered": det_suite.DICT_FROM_UNORDERED,
    "det_computed_label": det_suite.COMPUTED_LABEL,
    "det_duplicate_labels": det_suite.DUPLICATE_LABELS,
    "det_bare_decorator": {
        "enc.py": _WALL_CLOCK.replace(
            '@replay_root("stamped log")', "@replay_root"),
    },
    "det_fact_line_waiver": {
        "enc.py": _WALL_CLOCK.replace(
            "return time.time()",
            "return time.time()  # lint: ignore[DAS405] -- fixture"),
    },
    "det_root_def_waiver": {
        "enc.py": _WALL_CLOCK.replace(
            "def dump(lines):",
            "# lint: ignore[DAS405] -- fixture\ndef dump(lines):"),
    },
    "det_unrelated_waiver": {
        "enc.py": _WALL_CLOCK.replace(
            "return time.time()",
            "return time.time()  # lint: ignore[DAS001] -- wrong code"),
    },
}

MIXED_TREES = {
    # One tree that exercises every family-table switch at once: import
    # edges (followed by taint only), facts in the root itself (counted
    # by par and det only), several kinds per root, and several roots.
    "mixed_families": _taint({
        "analysis.py": """
            from base import Analysis
            import helpers

            class MixedAnalysis(Analysis):
                def analyze(self, event):
                    return helpers.shift(event) + helpers.jitter()

                def finalize(self):
                    return helpers.tag()
        """,
        "helpers.py": """
            import os
            import random
            import time

            from repro.lint.det import replay_root
            from repro.runtime import parallel_map

            STAMP = time.time()
            _SEEN = []

            def shift(value):
                return value + STAMP

            def jitter():
                return random.random()

            def tag():
                _SEEN.append(1)
                return os.getenv("TAG")

            def work(item):
                _SEEN.append(item)
                return item + jitter() + shift(item)

            def run(items):
                return parallel_map(work, items)

            @replay_root("stamped tags")
            def dump(tags):
                return [f"{time.time()}:{t}" for t in set(tags)] + [tag()]
        """,
    }),
}

TREES = {**TAINT_TREES, **PAR_TREES, **DET_TREES,
         **MIXED_TREES}

GOLDEN = {
    "det_bare_decorator":
        "d9322a22e443e9c2d6c63bbcc8ed0899af8e248cc9f3afb3ba120f599d2e658d",
    "det_computed_label":
        "39b061c0ffd453c97017b4b554de199f23feef39c0fa3ee262536daeb0fff661",
    "det_dict_from_unordered":
        "b4f267cef91584be168d8621a455fe2ec4ed86ae9f2fb3dd17c06bb9218bd8b0",
    "det_dict_iteration":
        "cadbb1f5a94810c55020755a144bf1a62c510d23f16c5fa4b0f7d20536e52fd9",
    "det_duplicate_labels":
        "b846cec2588da5d0cf24a4aae990145031541c963c8a564efcc5f559f768036a",
    "det_env_read":
        "ebf1410e357101b2dde8034eaefc01b5521eb827b39447f0673764ab13896afd",
    "det_fact_line_waiver":
        "32e321515aa991685e31b352e4bc8e18eede6e0403cfa9e5c8ffa4f18317ae36",
    "det_float_format":
        "f63dbc4376336aa8f4a9917675ff024c0601306dc17be6194f545399437d4502",
    "det_hash_identity":
        "9ebf092427e5b43949abbc444dd9aec0d07ed93735de5b49e7752c631716a830",
    "det_locale_string":
        "1c0707fc08cd9757051d357aaf8feb11da92afd618e0088c0bb2a7890db2d54c",
    "det_noncanonical_json":
        "46fd5241fb92eac94250b99fc241fb59b515c407ff56a87470a9b472d92779d5",
    "det_root_def_waiver":
        "32e321515aa991685e31b352e4bc8e18eede6e0403cfa9e5c8ffa4f18317ae36",
    "det_set_iteration":
        "77dddbe7a561771ddaa2ca6855fad015c626ba683d5f2477bedba1b6fbf2b3f7",
    "det_underived_rng":
        "81c04b6937c625d975a6504343c18468f36e860873c0217cd314189d4a7e343b",
    "det_unrelated_waiver":
        "2c60f6c5c011033ee67b58948afadeee2233ec289651732110140c4a76358173",
    "det_unsorted_fs":
        "4b152f11377098c88560d4e6d59a256177ad010e35ad4d0a17325d9c93cd896b",
    "det_wall_clock":
        "2c60f6c5c011033ee67b58948afadeee2233ec289651732110140c4a76358173",
    "mixed_families":
        "cfac024a5b328bd740c3f0ab18b47e29612d32bc61334e81e1c6ddab8b7bfedd",
    "par_fact_line_waiver":
        "32e321515aa991685e31b352e4bc8e18eede6e0403cfa9e5c8ffa4f18317ae36",
    "par_global_write":
        "b2e09a4c1ff022f830a2b0f68cec4d81ac7b9261c903c6c84802346aa3d8e117",
    "par_kernel_arg_attr_write":
        "d20e8ce16047b7e736fbe897d0866bf9532c9dee7d3d13e78f4d8fa6fe4f2e2e",
    "par_kernel_builtin_sum":
        "8cad68a2437ff3d82bd5606348f7042c4bae92d8e890e3ffdab5d4cc5e810b72",
    "par_kernel_computed_tier":
        "7f4134fd70cd535a2e3f6c0ec14ed37a4e20c59e7197ac9bc8d7ec2296ddaee1",
    "par_kernel_exact_rng":
        "cc5670113946961b9a1f611fb6f012a5547875bd6174f305d59aa8e55568297e",
    "par_kernel_inplace_param":
        "dcf7286fa5ee08fe0dfa53145abf493a236420d57bed259bf9698172d54dffbe",
    "par_kernel_order_sensitive":
        "1a98924c5a78164b79460eb87ba113dcd6b4bc582a16e782d039031145700208",
    "par_kernel_out_alias":
        "04a66dead825ff8a2315be8c57fcd73b9013ccc1bb8e89c90f042c462093afcc",
    "par_kernel_returns_view":
        "4533c1c07b042e1ebae4ca3d539ff78ad38c9c4f0356f98ac7922da7d7727111",
    "par_kernel_slice_view":
        "5c6836734cdfd92b701a8ac6a7439ece68b6e9218d551e6bcd2a41e302a671c0",
    "par_kernel_unknown_tier":
        "72833f1eb90492483cc3f3c0ff902bed2c3f6fcdbc3546a7a8eed2b47892311d",
    "par_lambda_worker":
        "75bac8dec7cdf810993d082137c7cc0ebf4009401907b1fd4fbfd01ba3f42da5",
    "par_nested_worker":
        "e9209eeb6746953715cd25e0e0dc4b2d69bd12de01890b809d4389fafd689311",
    "par_partial_bound":
        "d9b4d141305ddad6f518558c81703affcc9cfc8833efc9d0b045a2798f016c86",
    "par_partial_inline":
        "d9b4d141305ddad6f518558c81703affcc9cfc8833efc9d0b045a2798f016c86",
    "par_self_write":
        "a32b84c8746aafa0e2e542b66ec6c4cbbef459cc44262c09c84196c30c499ee7",
    "par_shared_rng":
        "b5ed7c695c0387e397b103eccb073b1a1e56ca5d1135291c27d0b4eb6ab8478e",
    "par_state_mutation":
        "5f4ceb9690b4acecb0fee200252cb24b31f66a4704dd2ffe3199b89a282507b3",
    "par_underived_seed":
        "e5f583e6e1b6ed55e6cca7fddbe6375a526c51a0fed974162c75302e761eec44",
    "par_unrelated_waiver":
        "b5ed7c695c0387e397b103eccb073b1a1e56ca5d1135291c27d0b4eb6ab8478e",
    "par_worker_def_waiver":
        "32e321515aa991685e31b352e4bc8e18eede6e0403cfa9e5c8ffa4f18317ae36",
    "taint_env_read":
        "654ced21d0c4886270e2eb65ca29bfc63c0abcde01df76e9b14e8288f69056ff",
    "taint_hazard_in_entry":
        "32e321515aa991685e31b352e4bc8e18eede6e0403cfa9e5c8ffa4f18317ae36",
    "taint_import_time":
        "cb0900e3d24739abbf19fb2df4cc44c7c065659b09cad3256514b0292917a7ec",
    "taint_two_hop":
        "b43d9c02a4b7fa797ebd5e0ea6514e7792c5ced02d4bada81574a9e82049e54e",
    "taint_two_hop_source_waiver":
        "32e321515aa991685e31b352e4bc8e18eede6e0403cfa9e5c8ffa4f18317ae36",
    "taint_unresolved_import":
        "d4914bcfd76e3aea7419eb937ca4114057c76b286f852632b3a2da57d727043e",
    "taint_unseeded_rng":
        "10a367cda5730e5d529e8d6b8b7c8c1396c2d490f529a3492a9388831bc7f3a4",
}


def findings_digest(root) -> str:
    """SHA-256 of the JSON report over the three reachability passes."""
    findings = (lint_tree_deep(root) + lint_tree_par(root)
                + lint_tree_det(root))
    report = LintReport(findings=tuple(findings))
    return hashlib.sha256(render_json(report).encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(TREES))
def test_golden_digest(name, tmp_path, monkeypatch):
    write_tree(tmp_path, TREES[name])
    monkeypatch.chdir(tmp_path)
    assert findings_digest(".") == GOLDEN[name]


def test_every_tree_is_pinned():
    assert sorted(GOLDEN) == sorted(TREES)
