"""Environment capture and the shared ``BENCH_*.json`` envelope.

Run evidence is incomplete without *where* it ran: interpreter, machine,
host, and start time. :func:`capture_environment` collects exactly that,
and every benchmark baseline at the repo root (``BENCH_parallel.json``,
``BENCH_lint.json``, ``BENCH_obs.json``) wraps its workloads in the one
envelope :func:`bench_envelope` builds — so trajectory files share a
schema and :func:`validate_bench_report` can pin it.

Deterministic exports drop ``started_at`` (the only wall-clock field):
two runs on the same host then capture byte-identical environments.
"""

from __future__ import annotations

import os
import platform
import time

from repro.errors import ObservabilityError

#: Schema identity of the shared benchmark envelope.
BENCH_FORMAT = "repro-bench-report"
BENCH_SCHEMA_VERSION = 1

#: Fields every environment capture must carry.
ENVIRONMENT_FIELDS = ("python", "implementation", "machine", "system",
                      "host", "cpu_count", "started_at")


def capture_environment(*, deterministic: bool = False) -> dict:
    """The execution environment as a JSON-serialisable record.

    ``deterministic`` empties the one wall-clock field (``started_at``)
    so the capture is byte-stable across runs on the same host.
    """
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "system": platform.system(),
        "host": platform.node(),
        "cpu_count": os.cpu_count() or 1,
        "started_at": ("" if deterministic
                       # lint: ignore[DAS001] -- recording when the run
                       # started is this field's job; deterministic
                       # captures leave it empty
                       else time.strftime("%Y-%m-%dT%H:%M:%S%z")),
    }


def bench_envelope(benchmark: str, **extra) -> dict:
    """A fresh benchmark record in the shared ``BENCH_*.json`` schema.

    Callers fill ``record["workloads"]`` with their named measurements;
    ``extra`` lands at the top level (e.g. ``target="src/repro"``).
    """
    record = {
        "schema": {"format": BENCH_FORMAT,
                   "version": BENCH_SCHEMA_VERSION},
        "benchmark": benchmark,
        "environment": capture_environment(),
        "workloads": {},
    }
    record.update(extra)
    return record


def validate_bench_report(record: dict) -> None:
    """Validate one benchmark record against the shared envelope.

    Raises :class:`~repro.errors.ObservabilityError` naming the first
    violation; extra keys beyond the envelope are allowed.
    """
    if not isinstance(record, dict):
        raise ObservabilityError("bench report must be a JSON object")
    schema = record.get("schema")
    if not isinstance(schema, dict):
        raise ObservabilityError("bench report has no 'schema' block")
    if schema.get("format") != BENCH_FORMAT:
        raise ObservabilityError(
            f"bench report format {schema.get('format')!r} is not "
            f"{BENCH_FORMAT!r}"
        )
    if schema.get("version") != BENCH_SCHEMA_VERSION:
        raise ObservabilityError(
            f"bench report schema version {schema.get('version')!r} "
            f"is not {BENCH_SCHEMA_VERSION}"
        )
    if not isinstance(record.get("benchmark"), str) \
            or not record["benchmark"]:
        raise ObservabilityError(
            "bench report needs a non-empty 'benchmark' name"
        )
    environment = record.get("environment")
    if not isinstance(environment, dict):
        raise ObservabilityError(
            "bench report has no 'environment' capture"
        )
    for field in ENVIRONMENT_FIELDS:
        if field not in environment:
            raise ObservabilityError(
                f"bench environment is missing {field!r}"
            )
    workloads = record.get("workloads")
    if not isinstance(workloads, dict):
        raise ObservabilityError("bench report has no 'workloads' map")
    for name, workload in workloads.items():
        if not isinstance(workload, dict):
            raise ObservabilityError(
                f"bench workload {name!r} must be a JSON object"
            )
