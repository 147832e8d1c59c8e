"""Span probes for the traced run: per-layer numbers taken from outside.

:class:`Probes` wraps the public callables of each layer with
:class:`repro.obs.trace.Tracer` spans (name, start, end, parent) while it
is installed, and puts every original back when it is removed. Nothing
in the library is edited and nothing is wrapped during an untraced run.
Spans stay in memory; the runner writes them out when the run ends.

:func:`layer_metrics` turns the spans of one traced unit into the
per-layer metrics. A layer's self time is its spans' duration minus the
part covered by their direct child spans.
"""

from __future__ import annotations

import builtins
import functools
import io
import os
import time
from collections import defaultdict
from pathlib import Path

#: Per-event chain stages, in chain order, by span name.
STAGES = ("generation", "simulation", "digitization", "reconstruction",
          "aod")

#: Every per-layer metric: name -> unit. Layers a workload bypasses
#: report 0, which is the bypass prediction itself.
PER_LAYER = {
    **{f"{stage}.ms_per_event": "ms" for stage in STAGES},
    **{f"{stage}.events": "count" for stage in STAGES},
    "digitization.hits_per_event": "count",
    "conditions.reads": "count",
    "conditions.cache_hit_rate": "ratio",
    "io.write_s": "s",
    "io.bytes_written": "B",
    "archive.store_s": "s",
    "archive.save_s": "s",
    "archive.files_written": "count",
    "archive.blob_writes_per_new_blob": "ratio",
    "io.read_s": "s",
    "archive.load_s": "s",
    "archive.verify_s": "s",
    "skim.ms_per_event": "ms",
    "skim.pass_frac": "ratio",
    "slim.ms_per_event": "ms",
    "histogram.fill_s": "s",
    "fit.s": "s",
    "limits.cls_s": "s",
    "limits.calls": "count",
    "recast.backend_s": "s",
    "recast.backend_executions": "count",
    "service.submit_us": "us",
    "service.step_overhead_ms": "ms",
    "service.queue_wait_s": "s",
    "service.shared_answer_rate": "ratio",
    "service.retries": "count",
    "service.refused": "count",
    "lint.flow_s": "s",
    "lint.par_s": "s",
    "lint.det_s": "s",
    "lint.files": "count",
    "lint.findings": "count",
    "import.repro_stats_s": "s",
    "import.repro_provenance_s": "s",
    "import.repro_service_s": "s",
    "import.repro_recast_s": "s",
    "import.repro_workflow_s": "s",
    "import.repro_lint_s": "s",
    "trace.overhead_pct": "%",
    "trace.attributed_frac": "ratio",
}

#: Per-layer metrics that count work: they must repeat exactly across
#: units and runs of one seed, or the benchmark fails.
EXACT = (
    *(f"{stage}.events" for stage in STAGES),
    "digitization.hits_per_event", "conditions.reads",
    "conditions.cache_hit_rate", "io.bytes_written",
    "archive.files_written", "archive.blob_writes_per_new_blob",
    "skim.pass_frac", "limits.calls", "recast.backend_executions",
    "service.shared_answer_rate", "service.retries", "service.refused",
    "lint.files", "lint.findings",
)

#: Modules whose cold import time the traced run measures, by metric.
IMPORTS = {
    "import.repro_stats_s": "repro.stats",
    "import.repro_provenance_s": "repro.provenance",
    "import.repro_service_s": "repro.service",
    "import.repro_recast_s": "repro.recast",
    "import.repro_workflow_s": "repro.workflow",
    "import.repro_lint_s": "repro.lint",
}

_WRITE_FLAGS = os.O_WRONLY | os.O_RDWR | os.O_CREAT


class Probes:
    """Installs and removes span wrappers around the library's layers."""

    def __init__(self) -> None:
        from repro.obs.trace import Tracer

        self._tracer_type = Tracer
        self.tracer = Tracer("perfbench", clock=time.perf_counter)
        #: Conditions views created while installed, and reads through
        #: the uncached view.
        self.views: list = []
        self.uncached_reads = 0
        #: One record per archive save: files and blobs written.
        self.saves: list[dict] = []
        self._undo: list[tuple] = []

    def reset(self) -> None:
        """Forget every span and record; start a new unit."""
        self.tracer = self._tracer_type("perfbench", clock=time.perf_counter)
        self.views = []
        self.uncached_reads = 0
        self.saves = []

    # -- patching ------------------------------------------------------

    def _replace(self, owner, attr: str, make) -> None:
        raw = (owner.__dict__[attr] if isinstance(owner, type)
               else getattr(owner, attr))
        if isinstance(raw, classmethod):
            replacement = classmethod(make(raw.__func__))
        else:
            replacement = make(raw)
        setattr(owner, attr, replacement)
        self._undo.append((owner, attr, raw))

    def _span(self, owner, attr: str, name: str, annotate=None) -> None:
        def make(original):
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                with self.tracer.span(name) as span:
                    result = original(*args, **kwargs)
                    if annotate is not None:
                        annotate(span, args, result)
                return result
            return wrapper
        self._replace(owner, attr, make)

    def install(self, bench_module) -> None:
        """Wrap every layer; ``bench_module`` holds the benchmark helpers."""
        import repro.lint as lint
        import repro.recast.backend as backend
        import repro.stats.fitting as fitting
        import repro.stats.limits as limits
        import repro.workflow.campaign as campaign
        from repro.conditions.cache import CachedConditionsView
        from repro.core.archive import PreservationArchive
        from repro.datamodel.io import DatasetWriter
        from repro.datamodel.skimslim import SkimSpec, SlimSpec
        from repro.detector.digitization import Digitizer
        from repro.detector.simulation import DetectorSimulation
        from repro.generation.generator import ToyGenerator
        from repro.reconstruction.reconstructor import (
            GlobalTagView,
            Reconstructor,
        )
        from repro.service.scheduler import RecastService

        self._stream(ToyGenerator)
        self._span(DetectorSimulation, "simulate", "simulation")
        self._span(Digitizer, "digitize", "digitization", _hits)
        self._span(Reconstructor, "reconstruct", "reconstruction")
        # make_aod is bound by name where the chain calls it.
        self._span(campaign, "make_aod", "aod")
        self._span(backend, "make_aod", "aod")
        self._views(CachedConditionsView)
        self._uncached(GlobalTagView)
        self._span(DatasetWriter, "close", "io.write", _bytes_written)
        self._span(PreservationArchive, "store", "archive.store")
        self._save(PreservationArchive)
        self._span(PreservationArchive, "load", "archive.load")
        self._span(PreservationArchive, "verify_all", "archive.verify")
        self._span(bench_module, "read_aods", "io.read")
        self._span(SkimSpec, "apply", "skim", _selection)
        self._span(SlimSpec, "apply", "slim", _selection)
        self._span(bench_module, "fill_histograms", "histogram.fill")
        self._span(fitting, "fit_gaussian_peak", "fit")
        self._span(limits, "cls_upper_limit", "limits.cls")
        self._span(backend, "cls_upper_limit", "limits.cls")
        self._span(backend.FullChainBackend, "process", "recast.backend",
                   _model)
        self._span(RecastService, "submit", "service.submit", _ticket)
        self._span(RecastService, "step", "service.step")
        self._span(lint, "lint_path", "lint.shallow")
        self._span(lint, "lint_tree_deep", "lint.flow")
        self._span(lint, "lint_tree_par", "lint.par")
        self._span(lint, "lint_tree_det", "lint.det")
        self._span(lint, "render_json", "lint.report")

    def uninstall(self) -> None:
        """Put every original callable back, newest patch first."""
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    def _stream(self, generator_type) -> None:
        """One ``generation`` span per event the generator yields."""
        def make(original):
            @functools.wraps(original)
            def stream(generator, n_events):
                events = original(generator, n_events)
                while True:
                    with self.tracer.span("generation") as span:
                        try:
                            event = next(events)
                        except StopIteration:
                            span.set("exhausted", True)
                            return
                    yield event
            return stream
        self._replace(generator_type, "stream", make)

    def _views(self, view_type) -> None:
        """Remember each conditions view so its hit counts can be read."""
        def make(original):
            @functools.wraps(original)
            def init(view, *args, **kwargs):
                original(view, *args, **kwargs)
                self.views.append(view)
            return init
        self._replace(view_type, "__init__", make)

    def _uncached(self, view_type) -> None:
        """Count the reads that bypass the conditions cache."""
        def make(original):
            @functools.wraps(original)
            def payload(*args, **kwargs):
                self.uncached_reads += 1
                return original(*args, **kwargs)
            return payload
        self._replace(view_type, "payload", make)

    def _save(self, archive_type) -> None:
        """``archive.save`` span plus the files and blobs it wrote."""
        def make(original):
            @functools.wraps(original)
            def save(archive, directory):
                root = Path(directory).resolve()
                blobs = root / "blobs"
                before = set(os.listdir(blobs)) if blobs.is_dir() else set()
                with self.tracer.span("archive.save"), \
                        _WriteRecorder() as writes:
                    original(archive, directory)
                inside = [path for path in writes.paths
                          if root in path.parents]
                self.saves.append({
                    "files_written": len(inside),
                    "blob_writes": sum(1 for path in inside
                                       if blobs in path.parents),
                    "new_blobs": len(set(os.listdir(blobs)) - before),
                })
            return save
        self._replace(archive_type, "save", make)


class _WriteRecorder:
    """Records every path opened for writing while active."""

    def __init__(self) -> None:
        self.paths: list[Path] = []
        self._saved = ()

    def __enter__(self) -> "_WriteRecorder":
        paths = self.paths
        open_file, os_open = builtins.open, os.open

        def recording_open(file, mode="r", *args, **kwargs):
            if isinstance(file, (str, bytes, os.PathLike)) and any(
                    flag in mode for flag in "wax+"):
                paths.append(Path(os.fsdecode(file)).resolve())
            return open_file(file, mode, *args, **kwargs)

        def recording_os_open(path, flags, *args, **kwargs):
            if flags & _WRITE_FLAGS:
                paths.append(Path(os.fsdecode(path)).resolve())
            return os_open(path, flags, *args, **kwargs)

        self._saved = (builtins.open, io.open, os.open)
        builtins.open = io.open = recording_open
        os.open = recording_os_open
        return self

    def __exit__(self, *exc) -> bool:
        builtins.open, io.open, os.open = self._saved
        return False


def _hits(span, args, raw) -> None:
    span.set("hits", len(raw.tracker_hits) + len(raw.calo_hits)
             + len(raw.muon_hits))


def _bytes_written(span, args, result) -> None:
    span.set("bytes", args[0].path.stat().st_size)


def _selection(span, args, result) -> None:
    span.set("n_in", len(args[1]))
    span.set("n_out", len(result))


def _model(span, args, result) -> None:
    span.set("model", args[2].name)


def _ticket(span, args, ticket) -> None:
    span.set("model", args[3].name)
    span.set("ticket", ticket.status)


# ----------------------------------------------------------------------
# From spans to metrics
# ----------------------------------------------------------------------


def layer_metrics(spans, wall: float, probes: Probes, counts: dict) -> dict:
    """The per-layer metrics of one traced unit (no import or trace.*).

    ``counts`` are the unit's own counts from the workload.
    """
    children = defaultdict(float)
    for span in spans:
        if span.parent_id is not None:
            children[span.parent_id] += span.duration
    by_name = defaultdict(list)
    for span in spans:
        if not span.attributes.get("exhausted"):
            by_name[span.name].append(span)

    def total(name: str) -> float:
        return sum(span.duration for span in by_name[name])

    def self_time(name: str) -> float:
        return sum(span.duration - children[span.span_id]
                   for span in by_name[name])

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    metrics = {}
    for stage in STAGES:
        n_events = len(by_name[stage])
        metrics[f"{stage}.events"] = n_events
        metrics[f"{stage}.ms_per_event"] = ratio(1e3 * self_time(stage),
                                                 n_events)
    metrics["digitization.hits_per_event"] = ratio(
        sum(span.attributes["hits"] for span in by_name["digitization"]),
        len(by_name["digitization"]))

    reads = (sum(view.stats.reads for view in probes.views)
             + probes.uncached_reads)
    metrics["conditions.reads"] = reads
    metrics["conditions.cache_hit_rate"] = ratio(
        sum(view.stats.hits for view in probes.views), reads)

    metrics["io.write_s"] = total("io.write")
    metrics["io.bytes_written"] = sum(span.attributes["bytes"]
                                      for span in by_name["io.write"])
    metrics["archive.store_s"] = total("archive.store")
    metrics["archive.save_s"] = total("archive.save")
    metrics["archive.files_written"] = sum(
        save["files_written"] for save in probes.saves)
    metrics["archive.blob_writes_per_new_blob"] = ratio(
        sum(save["blob_writes"] for save in probes.saves),
        sum(save["new_blobs"] for save in probes.saves))
    metrics["io.read_s"] = total("io.read")
    metrics["archive.load_s"] = total("archive.load")
    metrics["archive.verify_s"] = total("archive.verify")

    for name in ("skim", "slim"):
        n_in = sum(span.attributes["n_in"] for span in by_name[name])
        metrics[f"{name}.ms_per_event"] = ratio(1e3 * self_time(name), n_in)
    metrics["skim.pass_frac"] = ratio(
        sum(span.attributes["n_out"] for span in by_name["skim"]),
        sum(span.attributes["n_in"] for span in by_name["skim"]))
    metrics["histogram.fill_s"] = total("histogram.fill")
    metrics["fit.s"] = total("fit")
    metrics["limits.calls"] = len(by_name["limits.cls"])
    metrics["limits.cls_s"] = ratio(total("limits.cls"),
                                    len(by_name["limits.cls"]))

    executions = by_name["recast.backend"]
    metrics["recast.backend_executions"] = len(executions)
    metrics["recast.backend_s"] = ratio(total("recast.backend"),
                                        len(executions))
    submits = by_name["service.submit"]
    metrics["service.submit_us"] = ratio(1e6 * self_time("service.submit"),
                                         len(submits))
    metrics["service.step_overhead_ms"] = ratio(
        1e3 * self_time("service.step"), len(by_name["service.step"]))
    queued = {span.attributes["model"]: span.start for span in submits
              if span.attributes["ticket"] == "queued"}
    metrics["service.queue_wait_s"] = ratio(
        sum(span.start - queued[span.attributes["model"]]
            for span in executions), len(executions))
    metrics["service.shared_answer_rate"] = ratio(
        counts.get("shared_answers", 0), counts.get("requests", 0))
    metrics["service.retries"] = counts.get("retries", 0)
    metrics["service.refused"] = counts.get("refused", 0)

    metrics["lint.flow_s"] = total("lint.flow")
    metrics["lint.par_s"] = total("lint.par")
    metrics["lint.det_s"] = total("lint.det")
    metrics["lint.files"] = counts.get("files", 0)
    metrics["lint.findings"] = sum(
        value for key, value in counts.items() if key.endswith("_findings"))

    roots = sum(span.duration for span in spans if span.parent_id is None)
    metrics["trace.attributed_frac"] = ratio(roots, wall)
    return metrics
