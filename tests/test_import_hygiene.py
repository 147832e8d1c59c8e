"""Entry modules import without the heavy optional libraries.

Every CLI call and every spawned pool worker pays its import closure, so
the entry modules must not load ``networkx`` (replaced by
:mod:`repro.core.dag`), ``scipy.stats`` (the two survival functions come
from :mod:`scipy.special`) or ``scipy.optimize`` (imported inside the
functions that fit or minimise). Each module is imported in a fresh
interpreter so earlier imports in the test session cannot mask a
regression.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

ENTRY_MODULES = (
    "repro.cli",
    "repro.service",
    "repro.recast",
    "repro.workflow",
    "repro.stats",
    "repro.provenance",
    "repro.lint",
    "repro.core.archive",
    "repro.datamodel.io",
)

FORBIDDEN = ("networkx", "scipy.stats", "scipy.optimize")

_PROBE = """
import importlib, sys
importlib.import_module(sys.argv[1])
print(",".join(name for name in sys.argv[2:] if name in sys.modules))
"""


@pytest.mark.parametrize("module", ENTRY_MODULES)
def test_entry_module_import_is_lean(module):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    completed = subprocess.run(
        [sys.executable, "-c", _PROBE, module, *FORBIDDEN],
        capture_output=True, text=True, env=env, check=True,
    )
    loaded = [name for name in completed.stdout.strip().split(",") if name]
    assert loaded == [], f"importing {module} loaded {', '.join(loaded)}"
