"""Smoke test of the benchmark itself.

Runs every workload at the tiny size on two seeds, untraced and traced,
and checks that:

- each run exits 0 and reports ``correct: true`` with ``attempted >= 1``;
- every metric ``BENCHMARK.json`` names is emitted, with its unit;
- the traced run reports ``trace.overhead_pct``, and its
  ``trace.attributed_frac`` covers most of the wall time;
- a directory holding only the benchmark (no ``src/repro``) makes the
  runner exit non-zero without printing a result.

Usage, from the root of a checkout (takes a few minutes)::

    python3 perfbench/smoke_test.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

SEEDS = (1, 2)
#: Share of a traced unit's wall time the layer spans must cover.
MIN_ATTRIBUTED = 0.8


def _run(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=root,
        capture_output=True, text=True, timeout=600, check=False)


def check_run(root: Path, benchmark: dict, workload: str, seed: int,
              trace: int) -> list[str]:
    """Every problem with one tiny run, as readable lines."""
    label = f"{workload} seed {seed} trace {trace}"
    completed = _run(root, "--workload", workload, "--seed", str(seed),
                     "--seconds", "1", "--trace", str(trace),
                     "--size", "tiny")
    if completed.returncode != 0:
        return [f"{label}: exit {completed.returncode}\n"
                f"{completed.stderr.strip()}"]
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("attempted", 0) < 1:
        problems.append(f"{label}: correct={result.get('correct')} "
                        f"attempted={result.get('attempted')}")
    expected = benchmark["per_layer" if trace else "end_to_end"]
    metrics = result.get("metrics", {})
    for metric in expected:
        reported = metrics.get(metric["name"])
        if reported is None:
            problems.append(f"{label}: {metric['name']} missing")
        elif reported.get("unit") != metric["unit"] or not isinstance(
                reported.get("value"), (int, float)):
            problems.append(f"{label}: {metric['name']} reported as "
                            f"{reported}")
    if trace:
        if "trace.overhead_pct" not in metrics:
            problems.append(f"{label}: no trace.overhead_pct")
        attributed = metrics.get("trace.attributed_frac", {}).get("value")
        if attributed is None or attributed < MIN_ATTRIBUTED:
            problems.append(f"{label}: trace.attributed_frac {attributed} "
                            f"< {MIN_ATTRIBUTED}")
    return problems


def check_without_program(root: Path) -> list[str]:
    """Only BENCHMARK.json and perfbench/: non-zero exit, no result."""
    with tempfile.TemporaryDirectory(dir=root / ".perfbench") as bare:
        bare = Path(bare)
        shutil.copy(root / "BENCHMARK.json", bare)
        shutil.copytree(root / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        completed = _run(bare, "--workload", "reprocess", "--seed", "1",
                         "--seconds", "1", "--trace", "0")
    if completed.returncode == 0 or completed.stdout.strip():
        return [f"without src/repro: exit {completed.returncode}, "
                f"stdout {completed.stdout.strip()[:200]!r}"]
    return []


def main() -> int:
    root = Path.cwd()
    benchmark = json.loads((root / "BENCHMARK.json").read_text())
    (root / ".perfbench").mkdir(exist_ok=True)
    problems = check_without_program(root)
    for workload in (entry["name"] for entry in benchmark["workloads"]):
        for seed in SEEDS:
            for trace in (0, 1):
                found = check_run(root, benchmark, workload, seed, trace)
                print(f"{workload} seed {seed} trace {trace}: "
                      f"{'ok' if not found else 'FAILED'}", flush=True)
                problems.extend(found)
    for problem in problems:
        print(problem, file=sys.stderr)
    print("smoke test " + ("passed" if not problems else "FAILED"))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
