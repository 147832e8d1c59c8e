"""The four benchmark workloads: inputs from a seed, timed units, checks.

Every workload is split the same way:

- ``build(seed, sizes, inputs_dir)`` makes the inputs from the seed and
  returns a JSON-able *plan*. It runs in a fresh interpreter, after the
  workload's entry modules were imported there, and the two together are
  the workload's set-up time.
- ``reference(plan, inputs_dir)`` computes the expected outputs once,
  in the first set-up interpreter but outside its timed set-up, so every
  timed unit of the benchmark process is compared with a result another
  interpreter produced.
- ``run_unit(plan, inputs_dir, work_dir, tick)`` is one timed unit of
  work. It returns a :class:`Unit`: operations completed, when the unit
  and each job a caller waits for started and ended, the unit's outputs
  and its exact counts. A unit made of several jobs calls ``tick``
  between them, where the runner may sample the host's speed; that time
  is not the unit's.
- ``check(outputs, reference)`` lists every mismatch.

A workload's ``warm_up`` says whether the first unit of a run only fills
caches and finishes lazy set-up, and is left out of the measurement.

Nothing here touches a pool, a thread or a socket: load is generated
from one process under the default serial execution policy.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

#: The analysis a RECAST request and a reanalysis refer to.
ANALYSIS_ID = "GPD-EXO-01"


@dataclass(frozen=True)
class Sizes:
    """How much work one unit of each workload does."""

    #: reprocess: requests per unit, runs per request, events per run.
    requests: int
    runs: int
    events_per_run: int
    pileup_mu: float
    #: reanalyse: runs and events per run in the preserved archive.
    archive_runs: int
    archive_events_per_run: int
    limit_toys: int
    #: recast_service: tenants, requests per tenant per session, repeats
    #: among them, and the backend's chain length per request.
    tenants: int
    requests_per_tenant: int
    repeats_per_tenant: int
    backend_events: int
    backend_toys: int


SIZES = {
    "full": Sizes(
        requests=20, runs=2, events_per_run=12, pileup_mu=5.0,
        archive_runs=24, archive_events_per_run=25, limit_toys=500,
        tenants=3, requests_per_tenant=9, repeats_per_tenant=2,
        backend_events=20, backend_toys=200,
    ),
    "tiny": Sizes(
        requests=2, runs=2, events_per_run=3, pileup_mu=1.0,
        archive_runs=3, archive_events_per_run=30, limit_toys=100,
        tenants=2, requests_per_tenant=4, repeats_per_tenant=1,
        backend_events=4, backend_toys=50,
    ),
}


@dataclass
class Unit:
    """The result of one timed unit of a workload."""

    #: Operations completed (events, requests or files).
    ops: int
    #: Operations that failed or were refused.
    failed_ops: int
    #: ``time.perf_counter()`` at the unit's start and end.
    start: float
    end: float
    #: (start, end) of each job a caller waits for inside the unit; the
    #: end is ``None`` for a job that failed or was refused.
    latencies: list[tuple]
    #: What the checks compare with the reference.
    outputs: dict
    #: Counts that must repeat exactly for one seed.
    counts: dict = field(default_factory=dict)
    #: Every check this unit failed; filled in by the runner.
    problems: list[str] = field(default_factory=list)

    @property
    def wall(self) -> float:
        """Wall seconds of the whole unit."""
        return self.end - self.start


def no_tick() -> None:
    """The ``tick`` of a caller that does not sample the host."""


def digest(value) -> str:
    """SHA-256 of a value's canonical JSON text."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"),
                      allow_nan=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def file_digest(path: Path) -> str:
    """SHA-256 of a file's bytes."""
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _rng(seed: int, label: str):
    import numpy as np

    return np.random.default_rng(
        int.from_bytes(hashlib.sha256(f"{seed}:{label}".encode()).digest()[:8],
                       "little"))


def _fresh_dir(path: Path) -> Path:
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return path


# ----------------------------------------------------------------------
# Produce and preserve: shared by reprocess (timed) and reanalyse (set-up)
# ----------------------------------------------------------------------


def _metadata(title: str, artifact_format: str):
    from repro.core.metadata import PreservationMetadata

    return PreservationMetadata.build(
        title=title, creator="perfbench", experiment="GPD",
        created="1970-01-01T00:00:00Z", artifact_format=artifact_format,
        size_bytes=0, checksum="", producer="perfbench",
    )


def _runs(plan: dict, run_numbers: list[int]):
    """A run registry and good-run list certifying ``run_numbers``."""
    from repro.datamodel import GoodRunList, RunRecord, RunRegistry

    registry = RunRegistry("perfbench")
    good_runs = GoodRunList("perfbench")
    for run_number in run_numbers:
        registry.add(RunRecord(run_number, plan["events_per_run"], 0.5))
        good_runs.certify(run_number, 1, plan["events_per_run"])
    return registry, good_runs


def _campaign(plan: dict):
    """A fresh campaign with the plan's physics mix and seeds."""
    from repro.conditions import default_conditions
    from repro.detector import generic_lhc_detector
    from repro.generation import (
        DrellYanZ,
        GeneratorConfig,
        QCDDijets,
        ToyGenerator,
    )
    from repro.workflow import ProcessingCampaign

    # Cross sections set the mix: one dijet event per two Z->mumu.
    generator = ToyGenerator(GeneratorConfig(
        processes=[DrellYanZ(),
                   QCDDijets(cross_section_pb=DrellYanZ().cross_section_pb
                             / 2.0)],
        seed=plan["generator_seed"], pileup_mu=plan["pileup_mu"]))
    campaign = ProcessingCampaign(
        name="perfbench", geometry=generic_lhc_detector(),
        conditions=default_conditions(), global_tag="GT-FINAL",
        generator=generator, events_per_section=1.0,
        max_events_per_run=plan["events_per_run"],
        seed=plan["campaign_seed"],
    )
    return campaign


def _preserve(archive, campaign, results: dict, datasets_dir: Path) -> int:
    """Write one dataset per run and store its AODs; returns bytes written."""
    from repro.datamodel.io import DatasetWriter
    from repro.datamodel.tiers import DataTier

    written = 0
    for run_number in sorted(results):
        records = [aod.to_dict() for aod in results[run_number].aods]
        path = datasets_dir / f"run-{run_number:06d}.aod.jsonl"
        with DatasetWriter(path, f"perfbench/run{run_number}", DataTier.AOD,
                           provenance=campaign.describe()) as writer:
            writer.write_all(records)
        written += path.stat().st_size
        archive.store({"run": run_number, "events": records}, "aod_run",
                      _metadata(f"AOD run {run_number}", "aod-json"))
    archive.store(campaign.conditions_manifest(), "conditions_manifest",
                  _metadata("conditions manifest", "json"))
    return written


# ----------------------------------------------------------------------
# reprocess
# ----------------------------------------------------------------------


#: Distance between a request's run numbers: two runs ten apart from a
#: start in 1-9 always cross the conditions' first 10-run IOV block.
RUN_STEP = 10


def reprocess_request(request: dict, work_dir: Path) -> tuple:
    """Process, write and preserve one request's runs.

    Returns ``(start, end, outputs, counts)``; the work from ``start``
    to ``end`` is a new campaign's multi-run ``process``, one
    dataset per run, every run's AODs and the conditions manifest stored
    in a new archive, and one ``save`` of that archive.
    """
    from repro.core.archive import PreservationArchive

    work_dir = _fresh_dir(work_dir)
    datasets_dir = _fresh_dir(work_dir / "datasets")
    started = time.perf_counter()
    campaign = _campaign(request)
    registry, good_runs = _runs(request, request["run_numbers"])
    archive = PreservationArchive("perfbench-reprocess")
    results = campaign.process(registry, good_runs)
    bytes_written = _preserve(archive, campaign, results, datasets_dir)
    archive.save(work_dir / "archive")
    ended = time.perf_counter()
    events = sum(result.n_events for result in results.values())
    outputs = {
        "aod_digest": digest([[aod.to_dict() for aod in results[run].aods]
                              for run in sorted(results)]),
        "catalogue_digest": file_digest(work_dir / "archive"
                                        / "catalogue.json"),
        "events": events,
    }
    counts = {"events": events, "dataset_bytes": bytes_written,
              "archive_entries": len(archive)}
    return started, ended, outputs, counts


class Reprocess:
    """A batch of reprocessing requests, each a multi-run campaign
    preserved into its own archive with one save."""

    name = "reprocess"
    entry_modules = ("repro.workflow", "repro.core.archive",
                     "repro.datamodel.io")
    warm_up = True

    @staticmethod
    def build(seed: int, sizes: Sizes, inputs_dir: Path) -> dict:
        # Each request has its own run range and seeds. A unit holds
        # many, so the event content a seed draws for one request, which
        # moves that request's cost, averages out over the unit.
        rng = _rng(seed, "reprocess")
        requests = []
        for _ in range(sizes.requests):
            first = int(rng.integers(1, 10))
            requests.append({
                "run_numbers": [first + RUN_STEP * index
                                for index in range(sizes.runs)],
                "events_per_run": sizes.events_per_run,
                "pileup_mu": sizes.pileup_mu,
                "generator_seed": int(rng.integers(1, 2**31)),
                "campaign_seed": int(rng.integers(1, 2**31)),
            })
        return {"requests": requests}

    @staticmethod
    def reference(plan: dict, inputs_dir: Path) -> dict:
        unit = Reprocess.run_unit(plan, inputs_dir, inputs_dir / "ref",
                                  no_tick)
        shutil.rmtree(inputs_dir / "ref")
        return unit.outputs

    @staticmethod
    def run_unit(plan: dict, inputs_dir: Path, work_dir: Path,
                 tick) -> Unit:
        latencies, outputs = [], []
        counts = {"events": 0, "dataset_bytes": 0, "archive_entries": 0}
        for index, request in enumerate(plan["requests"]):
            if index:
                tick()
            start, end, request_outputs, request_counts = (
                reprocess_request(request, work_dir / f"request-{index}"))
            latencies.append((start, end))
            outputs.append(request_outputs)
            for name, value in request_counts.items():
                counts[name] += value
        return Unit(counts["events"], 0, latencies[0][0], latencies[-1][1],
                    latencies, {"requests": outputs}, counts)

    @staticmethod
    def check(outputs: dict, reference: dict) -> list[str]:
        return [f"request {index}: {key}"
                for index, (found, expected) in enumerate(zip(
                    outputs["requests"], reference["requests"]))
                for key in _diff(found, expected)]


# ----------------------------------------------------------------------
# reanalyse
# ----------------------------------------------------------------------


def _analysis_specs():
    from repro.datamodel import AndCut, CountCut, MassWindowCut, SkimSpec
    from repro.datamodel.skimslim import SlimSpec

    skim = SkimSpec("dimuon", AndCut((
        CountCut("muons", 2, min_pt=15.0),
        MassWindowCut("muons", 60.0, 120.0, opposite_charge=True),
    )))
    slim = SlimSpec("dimuon-ntuple", ("dimuon_mass", "lead_lepton_pt",
                                      "n_jets", "met"))
    return skim, slim


def read_aods(path: Path) -> list:
    """Every AOD event of one dataset file."""
    from repro.datamodel.event import AODEvent
    from repro.datamodel.io import DatasetReader

    return [AODEvent.from_dict(record)
            for record in DatasetReader(path).records()]


def fill_histograms(rows) -> tuple:
    """The reanalysis histograms filled from slimmed rows, one by one."""
    from repro.stats.histogram import Histogram1D

    mass = Histogram1D("dimuon_mass", 15, 60.0, 120.0)
    lead_pt = Histogram1D("lead_lepton_pt", 25, 0.0, 100.0)
    for row in rows:
        mass.fill(row.columns["dimuon_mass"])
        lead_pt.fill(row.columns["lead_lepton_pt"])
    return mass, lead_pt


def _analyse(events: list, limit_toys: int) -> dict:
    """Skim, slim, fill, fit the Z peak and set a limit on the skim."""
    from repro.stats import fitting, limits
    from repro.stats.likelihood import CountingExperiment

    skim, slim = _analysis_specs()
    selected = skim.apply(events)
    rows = slim.apply(selected)
    mass, lead_pt = fill_histograms(rows)
    fit = fitting.fit_gaussian_peak(mass, linear_background=False)
    efficiency = max(len(selected), 1) / max(len(events), 1)
    limit = limits.cls_upper_limit(
        CountingExperiment(n_observed=len(selected),
                           background=0.8 * len(selected) + 1.0,
                           background_uncertainty=0.1 * len(selected) + 0.5,
                           signal_efficiency=efficiency,
                           luminosity=20.0),
        n_toys=limit_toys, seed=17)
    return {
        "events": len(events),
        "selected": len(selected),
        "mass": mass.values().tolist(),
        "lead_pt": lead_pt.values().tolist(),
        "fit": {name: float(value)
                for name, value in sorted(fit.parameters.items())},
        "upper_limit": float(limit.upper_limit),
    }


class Reanalyse:
    """Load and verify a preserved archive, read its AODs and re-analyse."""

    name = "reanalyse"
    entry_modules = ("repro.core.archive", "repro.datamodel", "repro.stats")
    warm_up = True
    #: The AODs the last ``build`` of this interpreter preserved, kept
    #: in memory for ``reference``.
    built_aods: list = []

    @staticmethod
    def build(seed: int, sizes: Sizes, inputs_dir: Path) -> dict:
        from repro.core.archive import PreservationArchive

        rng = _rng(seed, "reanalyse")
        # Distinct run numbers keep content addressing from collapsing
        # the preserved AODs into fewer blobs.
        runs = sorted(int(run) for run in rng.choice(
            range(1, 100), size=sizes.archive_runs, replace=False))
        plan = {
            "run_numbers": runs,
            "events_per_run": sizes.archive_events_per_run,
            "pileup_mu": 0.0,
            "generator_seed": int(rng.integers(1, 2**31)),
            "campaign_seed": int(rng.integers(1, 2**31)),
            "limit_toys": sizes.limit_toys,
        }
        campaign = _campaign(plan)
        results = campaign.process(*_runs(plan, runs))
        datasets_dir = _fresh_dir(inputs_dir / "datasets")
        archive = PreservationArchive("perfbench-reanalyse")
        _preserve(archive, campaign, results, datasets_dir)
        archive.save(inputs_dir / "archive")
        plan["datasets"] = [f"run-{run:06d}.aod.jsonl" for run in runs]
        Reanalyse.built_aods = campaign.all_aods()
        return plan

    @staticmethod
    def reference(plan: dict, inputs_dir: Path) -> dict:
        # Outside the timed set-up, on the AODs build() kept in memory,
        # before any persistence round trip: the timed reanalysis must
        # reproduce it from disk.
        return _analyse(Reanalyse.built_aods, plan["limit_toys"])

    @staticmethod
    def run_unit(plan: dict, inputs_dir: Path, work_dir: Path,
                 tick) -> Unit:
        from repro.core.archive import PreservationArchive

        started = time.perf_counter()
        archive = PreservationArchive.load(inputs_dir / "archive")
        fixity = archive.verify_all()
        events = []
        for name in plan["datasets"]:
            events.extend(read_aods(inputs_dir / "datasets" / name))
        outputs = _analyse(events, plan["limit_toys"])
        ended = time.perf_counter()
        outputs = dict(outputs, fixity_ok=all(fixity.values()))
        counts = {"events": len(events), "archive_entries": len(archive),
                  "selected": outputs["selected"]}
        return Unit(len(events), 0, started, ended, [(started, ended)],
                    outputs, counts)

    @staticmethod
    def check(outputs: dict, reference: dict) -> list[str]:
        problems = [] if outputs.get("fixity_ok") else ["archive fixity"]
        return problems + _diff(
            {k: v for k, v in outputs.items() if k != "fixity_ok"},
            reference)


# ----------------------------------------------------------------------
# recast_service
# ----------------------------------------------------------------------


def _model(record: dict):
    from repro.recast import ModelSpec

    return ModelSpec(record["name"], record["process"],
                     dict(record["parameters"]))


class RecastServiceWorkload:
    """Closed loop: each tenant submits its next request once answered."""

    name = "recast_service"
    entry_modules = ("repro.service",)
    warm_up = True

    @staticmethod
    def build(seed: int, sizes: Sizes, inputs_dir: Path) -> dict:
        # The session's shape is the same for every seed: each tenant
        # asks one Drell-Yan point, one W point and Z' masses in a fixed
        # order (rotated per tenant), and repeats a neighbour's model at
        # fixed slots, answered by dedup or the result cache. The seed
        # picks the values only: a latency percentile then always lands
        # on the same scheduler round. Z' masses are drawn one per equal
        # slice of 800-3000 GeV, so every seed spans the same range.
        rng = _rng(seed, "recast_service")
        tenants = [f"tenant-{index}" for index in range(sizes.tenants)]
        n_fresh = sizes.requests_per_tenant - sizes.repeats_per_tenant
        n_masses = len(tenants) * (n_fresh - 2)
        width = 2200.0 / n_masses
        masses = [round(800.0 + width * (index + float(rng.uniform())))
                  for index in range(n_masses)]
        masses = [masses[int(i)] for i in rng.permutation(n_masses)]
        fresh = {}
        for index, tenant in enumerate(tenants):
            xsec = round(float(rng.uniform(500.0, 2000.0)), 3)
            charge = int(rng.choice([-1, 1]))
            models = [
                {"name": f"DY-{xsec:g}", "process": "drell_yan_z",
                 "parameters": {"cross_section_pb": xsec}},
                {"name": f"W{charge:+d}-{index}", "process": "w_production",
                 "parameters": {"charge": charge,
                                "cross_section_pb": 11000.0 + index}},
            ] + [{"name": f"Zp-{mass:g}", "process": "zprime",
                  "parameters": {"mass": float(mass),
                                 "cross_section_pb": 0.05}}
                 for mass in masses[index * (n_fresh - 2):
                                    (index + 1) * (n_fresh - 2)]]
            shift = index % len(models)
            fresh[tenant] = models[shift:] + models[:shift]
        plans = {tenant: list(models) for tenant, models in fresh.items()}
        for repeat in range(sizes.repeats_per_tenant):
            slot = 2 + 3 * repeat
            step = -1 if repeat % 2 == 0 else 1
            for index, tenant in enumerate(tenants):
                source = tenants[(index + step) % len(tenants)]
                plans[tenant].insert(slot, dict(fresh[source][slot - 1]))
        return {"tenants": plans,
                "backend_events": sizes.backend_events,
                "backend_toys": sizes.backend_toys}

    @staticmethod
    def _api(plan: dict):
        from repro.service import demo_api

        return demo_api(n_events=plan["backend_events"],
                        n_limit_toys=plan["backend_toys"])

    @staticmethod
    def reference(plan: dict, inputs_dir: Path) -> dict:
        # Answers straight from the backend, without the service: dedup
        # and cache answers must equal a fresh execution's.
        api = RecastServiceWorkload._api(plan)
        experiment, search = api.find_search(ANALYSIS_ID)
        backend = api.backend_for(experiment)
        answers = {}
        for tenant in sorted(plan["tenants"]):
            for record in plan["tenants"][tenant]:
                if record["name"] not in answers:
                    answers[record["name"]] = _answer(
                        backend.process(search, _model(record)))
        session = RecastServiceWorkload.run_unit(plan, inputs_dir, None,
                                                 no_tick)
        return {"answers": answers,
                "event_log": session.outputs["event_log"]}

    @staticmethod
    def run_unit(plan: dict, inputs_dir: Path, work_dir,
                 tick) -> Unit:
        from repro.recast.requests import RequestStatus
        from repro.service import RecastService, ServiceConfig, TenantQuota

        api = RecastServiceWorkload._api(plan)
        service = RecastService(api, ServiceConfig(max_inflight=4))
        tenants = sorted(plan["tenants"])
        for tenant in tenants:
            service.register_tenant(tenant, TenantQuota(
                weight=1.0, max_queued=2, max_inflight=1))
        cursor = {tenant: 0 for tenant in tenants}
        outstanding = {}
        latencies, answers, tickets = [], [], []
        failed = 0
        terminal = {RequestStatus.REJECTED, RequestStatus.FAILED}
        started = time.perf_counter()
        while True:
            for tenant in tenants:
                queue = plan["tenants"][tenant]
                if tenant in outstanding or cursor[tenant] >= len(queue):
                    continue
                record = queue[cursor[tenant]]
                cursor[tenant] += 1
                submitted = time.perf_counter()
                ticket = service.submit(tenant, ANALYSIS_ID, _model(record))
                tickets.append(ticket.status)
                outstanding[tenant] = (ticket, record["name"], submitted)
            if not outstanding:
                break
            answered = _answered(api, outstanding, terminal)
            if not answered:
                service.step()
                tick()
                answered = _answered(api, outstanding, terminal)
            now = time.perf_counter()
            for tenant in answered:
                ticket, name, submitted = outstanding.pop(tenant)
                request = api.get_request(ticket.request_id)
                if request.status in terminal:
                    failed += 1
                    latencies.append((submitted, None))
                    answers.append([tenant, name, None])
                    continue
                latencies.append((submitted, now))
                answers.append([tenant, name, _answer(request.result)])
        ended = time.perf_counter()
        log = service.event_log_bytes()
        shared = sum(1 for status in tickets
                     if status in ("cached", "subscribed"))
        outputs = {"answers": answers,
                   "event_log": hashlib.sha256(log).hexdigest()}
        kinds = [event["event"] for event in service.events]
        counts = {"requests": len(tickets), "shared_answers": shared,
                  "log_events": len(kinds),
                  "retries": kinds.count("retry_scheduled"),
                  "refused": kinds.count("quota_reject") + failed}
        return Unit(len(latencies) - failed, failed, started, ended,
                    latencies, outputs, counts)

    @staticmethod
    def check(outputs: dict, reference: dict) -> list[str]:
        problems = []
        if outputs["event_log"] != reference["event_log"]:
            problems.append("event log bytes")
        for tenant, name, answer in outputs["answers"]:
            if answer != reference["answers"].get(name):
                problems.append(f"answer for {name} ({tenant})")
        return problems


def _answered(api, outstanding: dict, terminal: set) -> list[str]:
    done = []
    for tenant, (ticket, _, _) in sorted(outstanding.items()):
        request = api.get_request(ticket.request_id)
        if request.result is not None or request.status in terminal:
            done.append(tenant)
    return done


def _answer(result) -> dict:
    return {"n_selected": result.n_selected,
            "upper_limit_pb": (None if math.isinf(result.upper_limit_pb)
                               else float(result.upper_limit_pb))}


# ----------------------------------------------------------------------
# lint_deep
# ----------------------------------------------------------------------


def lint_pass(target: str, tick) -> tuple[str, dict]:
    """The ``repro lint --deep`` pass set on ``target``; JSON + counts."""
    import repro.lint as lint

    session = lint.LintSession(lint.LintConfig())
    counts = {}
    for index, (label, lint_fn) in enumerate((
            ("shallow", lint.lint_path), ("flow", lint.lint_tree_deep),
            ("par", lint.lint_tree_par), ("det", lint.lint_tree_det))):
        if index:
            tick()
        findings = lint_fn(target)
        counts[f"{label}_findings"] = len(findings)
        session.extend(findings)
    return lint.render_json(session.report()), counts


#: The tree ``lint_deep`` lints, relative to the checkout root.
LINT_TARGET = "src/repro"


class LintDeep:
    """The full deep lint pass set over the library's own source tree."""

    name = "lint_deep"
    entry_modules = ("repro.lint",)
    # A pass set takes 6 s and more, and a run holds only two or three:
    # the first one is measured too.
    warm_up = False

    @staticmethod
    def build(seed: int, sizes: Sizes, inputs_dir: Path) -> dict:
        # The input is the library's own source at every size: the deep
        # passes analyse the whole package whatever the target, and the
        # seed has nothing to vary, so this workload's spread is host
        # noise alone.
        target = Path(LINT_TARGET)
        files = sorted(str(path) for path in target.rglob("*.py"))
        return {"target": str(target), "files": len(files),
                "source_digest": digest([file_digest(Path(f))
                                         for f in files])}

    @staticmethod
    def reference(plan: dict, inputs_dir: Path) -> dict:
        return {"source_digest": plan["source_digest"],
                "par_findings": 0, "det_findings": 0}

    @staticmethod
    def run_unit(plan: dict, inputs_dir: Path, work_dir,
                 tick) -> Unit:
        started = time.perf_counter()
        text, counts = lint_pass(plan["target"], tick)
        ended = time.perf_counter()
        outputs = {"json_digest": hashlib.sha256(
                       text.encode("utf-8")).hexdigest(),
                   "par_findings": counts["par_findings"],
                   "det_findings": counts["det_findings"]}
        counts = dict(counts, files=plan["files"])
        return Unit(plan["files"], 0, started, ended, [(started, ended)],
                    outputs, counts)

    @staticmethod
    def check(outputs: dict, reference: dict) -> list[str]:
        problems = []
        for key in ("par_findings", "det_findings"):
            if outputs[key] != 0:
                problems.append(f"{key} = {outputs[key]}")
        return problems


def _diff(outputs: dict, reference: dict) -> list[str]:
    return [key for key in sorted(set(outputs) | set(reference))
            if outputs.get(key) != reference.get(key)]


WORKLOADS = {workload.name: workload for workload in
             (Reprocess, Reanalyse, RecastServiceWorkload, LintDeep)}
