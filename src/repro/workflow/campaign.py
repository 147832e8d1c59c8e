"""Multi-run processing campaigns.

Central production does not process one run: it sweeps a run range,
fetching the conditions valid for *each* run and producing one dataset
per run. A :class:`ProcessingCampaign` models that sweep — the thing a
"processing version" names in the experiments' data catalogues — and its
:meth:`conditions_manifest` is the complete external-dependency record
the preservation layer must archive for the whole campaign.

Runs are independent work units: each owns a generator, simulation and
digitisation seed derived deterministically from the campaign seed and
the run number, and its own cached conditions view. That independence is
what lets :meth:`ProcessingCampaign.process` fan runs out across an
:class:`~repro.runtime.ExecutionPolicy`'s workers while producing output
bit-identical to the serial sweep.
"""

from __future__ import annotations

import copy
import functools
from dataclasses import dataclass, field, replace

from repro.conditions.cache import CachedConditionsView
from repro.conditions.store import ConditionsStore
from repro.datamodel.event import AODEvent, make_aod
from repro.datamodel.luminosity import GoodRunList, RunRegistry
from repro.detector.digitization import Digitizer
from repro.detector.geometry import DetectorGeometry
from repro.detector.simulation import DetectorSimulation
from repro.errors import WorkflowError
from repro.generation.generator import ToyGenerator
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer, active
from repro.reconstruction.reconstructor import Reconstructor
from repro.runtime import ExecutionPolicy, derive_seed, parallel_map


@dataclass
class RunResult:
    """The output of processing one run."""

    run_number: int
    aods: list[AODEvent] = field(default_factory=list)
    conditions_used: dict = field(default_factory=dict)
    #: Observability sidecar (worker spans, derived seed, read counts);
    #: populated only when the campaign is processed under a tracer.
    stats: dict = field(default_factory=dict)

    @property
    def n_events(self) -> int:
        """Events produced for this run."""
        return len(self.aods)


class ProcessingCampaign:
    """Processes a run range under one conditions global tag.

    ``events_per_section`` events are generated per certified lumi
    section (capped by ``max_events_per_run`` to keep toys fast). Runs
    not in the good-run list are skipped entirely — certified data is
    the only data a campaign processes.

    ``policy`` sets the default execution policy of :meth:`process`;
    the default is serial. Every policy produces identical results —
    each run derives its generator seed from the campaign's generator
    seed and its run number, so no run depends on how many events any
    other run drew.
    """

    def __init__(
        self,
        name: str,
        geometry: DetectorGeometry,
        conditions: ConditionsStore,
        global_tag: str,
        generator: ToyGenerator,
        events_per_section: float = 0.2,
        max_events_per_run: int = 50,
        seed: int = 6000,
        policy: ExecutionPolicy | None = None,
    ) -> None:
        # Written so that NaN fails the test instead of passing it.
        if not events_per_section > 0.0:
            raise WorkflowError("events_per_section must be positive")
        if max_events_per_run <= 0:
            raise WorkflowError("max_events_per_run must be positive")
        self.name = name
        self.geometry = geometry
        self.conditions = conditions
        self.global_tag = global_tag
        self.generator = generator
        self.events_per_section = events_per_section
        self.max_events_per_run = max_events_per_run
        self.seed = seed
        self.policy = policy
        self._results: dict[int, RunResult] = {}

    def process(self, registry: RunRegistry, good_runs: GoodRunList,
                policy: ExecutionPolicy | None = None,
                *,
                tracer: Tracer | None = None,
                metrics: MetricsRegistry | None = None,
                ) -> dict[int, RunResult]:
        """Process every certified run of the registry.

        ``policy`` overrides the campaign's default policy for this
        sweep. Results are merged back in run order regardless of which
        worker finished first.

        An enabled ``tracer`` records a ``campaign.process`` span with
        one ``campaign.run`` child per run — each carrying the run's
        derived generator seed, event count, and conditions-read count,
        timed on the worker that processed it and adopted back in run
        order; ``metrics`` receives run/event/read counters.
        """
        if policy is None:
            policy = self.policy
        obs = active(tracer)
        tasks = []
        for run_number in registry.run_numbers():
            n_sections = good_runs.certified_sections(run_number)
            if n_sections == 0:
                continue
            n_events = min(
                self.max_events_per_run,
                max(1, int(n_sections * self.events_per_section)),
            )
            tasks.append((len(tasks), run_number, n_events))
        template = self._worker_template()
        template._observe_runs = obs.enabled or metrics is not None
        worker = functools.partial(_process_run_worker, template)
        with obs.span("campaign.process", campaign=self.name,
                      global_tag=self.global_tag,
                      n_runs=len(tasks)) as sweep:
            for result in parallel_map(worker, tasks, policy):
                obs.adopt(result.stats.pop("spans", []), parent=sweep)
                if metrics is not None:
                    metrics.counter("campaign.runs").inc()
                    metrics.counter("campaign.events").inc(
                        result.n_events)
                    metrics.counter("campaign.conditions_reads").inc(
                        result.stats.get("conditions_reads", 0))
                self._results[result.run_number] = result
        return dict(self._results)

    def _worker_template(self) -> "ProcessingCampaign":
        """A results-free copy to ship to workers.

        Shallow-copying keeps the pickled task payload constant-size
        instead of shipping every previously processed run along.
        """
        template = copy.copy(self)
        template._results = {}
        return template

    def _process_run(self, run_number: int, n_events: int,
                     run_index: int = 0) -> RunResult:
        observe = getattr(self, "_observe_runs", False)
        worker_tracer = Tracer("worker", enabled=observe)
        try:
            with worker_tracer.span("campaign.run", run=run_number,
                                    n_events=n_events) as span:
                result = self._process_certified_run(
                    run_number, n_events, span)
        except Exception as exc:
            # Attribution: which run of the sweep died, under which
            # span, at which task index. WorkflowError subclasses keep
            # their type; anything else becomes a WorkflowError.
            error_type = (type(exc) if isinstance(exc, WorkflowError)
                          else WorkflowError)
            raise error_type(
                f"campaign {self.name!r}: run {run_number} "
                f"(span 'campaign.run', run index {run_index}) "
                f"failed: {exc}"
            ) from exc
        if observe:
            result.stats["spans"] = worker_tracer.spans
        return result

    def _process_certified_run(self, run_number: int, n_events: int,
                               span) -> RunResult:
        generator = self._run_generator(run_number)
        simulation = DetectorSimulation(self.geometry,
                                        seed=self.seed + run_number)
        digitizer = Digitizer(self.geometry, run_number=run_number,
                              seed=self.seed + run_number + 1)
        # One cached view per run: the per-event double store lookup
        # collapses to a dict hit after the first event of the run.
        view = CachedConditionsView(self.conditions, self.global_tag)
        reconstructor = Reconstructor(self.geometry, view)
        result = RunResult(run_number=run_number)
        for event in generator.stream(n_events):
            raw = digitizer.digitize(simulation.simulate(event))
            result.aods.append(make_aod(reconstructor.reconstruct(raw)))
        # Record exactly which payloads this run's reconstruction used —
        # read back through the *same* view the reconstructor used, so
        # the dependency record cannot drift from the payloads applied.
        result.conditions_used = {
            folder: view.payload(folder, run_number)
            for folder in sorted(
                {f for f, _ in reconstructor.conditions_reads}
            )
        }
        n_reads = len(reconstructor.conditions_reads)
        result.stats["conditions_reads"] = n_reads
        result.stats["generator_seed"] = generator.config.seed
        span.set("generator_seed", generator.config.seed)
        span.set("conditions_reads", n_reads)
        return result

    def _run_generator(self, run_number: int) -> ToyGenerator:
        """A private generator for one run.

        The seed derives from the campaign generator's seed and the run
        number alone, making every run's event sample independent of
        execution order — the property the parallel sweep relies on.
        """
        config = replace(
            self.generator.config,
            seed=derive_seed(self.generator.config.seed, "run", run_number),
        )
        return ToyGenerator(config, table=self.generator.table)

    def results(self) -> dict[int, RunResult]:
        """All per-run results processed so far."""
        return dict(self._results)

    def all_aods(self) -> list[AODEvent]:
        """The campaign's combined AOD sample, run-ordered."""
        combined = []
        for run_number in sorted(self._results):
            combined.extend(self._results[run_number].aods)
        return combined

    def conditions_manifest(self) -> dict:
        """The campaign-wide conditions record for preservation.

        Maps every processed run to the exact payloads used — the
        "enumerate and encapsulate external dependencies" artifact at
        campaign granularity.
        """
        return {
            "campaign": self.name,
            "global_tag": self.global_tag,
            "runs": {
                str(run_number): result.conditions_used
                for run_number, result in sorted(self._results.items())
            },
        }

    def describe(self) -> dict:
        """Preservable campaign configuration."""
        return {
            "campaign": self.name,
            "geometry": self.geometry.name,
            "global_tag": self.global_tag,
            "generator": self.generator.run_info.to_dict(),
            "events_per_section": self.events_per_section,
            "max_events_per_run": self.max_events_per_run,
        }


def _process_run_worker(campaign: ProcessingCampaign,
                        task: tuple[int, int, int]) -> RunResult:
    """Module-level worker driver so process pools can pickle it."""
    run_index, run_number, n_events = task
    return campaign._process_run(run_number, n_events, run_index)
