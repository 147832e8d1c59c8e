"""Run one workload of the repository benchmark and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload reprocess --seed 1 --seconds 20 --trace 0

Workloads: ``reprocess``, ``reanalyse``, ``recast_service``, ``lint_deep``
(see ``perfbench/README.md``). With ``--trace 0`` the last line of
standard output is a JSON object with the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of a separate traced run.
Lines before it name each metric with its unit, and one line records
the environment. The full record, spans included for a traced run, is
written under ``.perfbench/results/``.

The run exits 1 when an output check or the exact-count gate fails, and
2 without printing a result when the checkout holds no ``src/repro``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import probes  # noqa: E402
import workloads  # noqa: E402

#: Fresh interpreters that set the workload up; setup_s is their median.
SETUP_REPEATS = 3
#: Seconds any child interpreter may take before the run gives up.
CHILD_TIMEOUT = 150
#: Seconds of work between two samples of the host's speed.
SLOT_S = 0.2

#: The end-to-end metrics every workload reports: name -> unit.
END_TO_END = {
    "ops_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_p95_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: What one operation of ``ops_per_s`` is, per workload, under the
#: name the metric would carry if it were reported for that workload
#: alone.
OPERATION = {
    "reprocess": ("events_per_s", "AOD event produced and preserved",
                  "reprocessing request: 2 runs + datasets + archive save"),
    "reanalyse": ("events_per_s", "AOD event re-analysed",
                  "full reanalysis of the preserved archive"),
    "recast_service": ("requests_per_s", "RECAST request answered",
                       "request, submission to answer"),
    "lint_deep": ("files_per_s", "source file through repro lint --deep",
                  "repro lint --deep pass set over src/repro"),
}


def _checkout() -> Path:
    """The checkout root: the working directory, which must hold src/repro."""
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro under {root}; run from the root "
              f"of a checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(root / "src"))
    return root


# ----------------------------------------------------------------------
# Child interpreters
# ----------------------------------------------------------------------


def _child_setup(workload: str, seed: int, size: str, inputs_dir: Path,
                 with_reference: bool) -> None:
    """Import the entry modules and build the inputs; print the timings."""
    started = time.perf_counter()
    spec = workloads.WORKLOADS[workload]
    for module in spec.entry_modules:
        importlib.import_module(module)
    imported = time.perf_counter()
    inputs_dir.mkdir(parents=True, exist_ok=True)
    plan = spec.build(seed, workloads.SIZES[size], inputs_dir)
    built = time.perf_counter()
    (inputs_dir / "plan.json").write_text(json.dumps(plan, sort_keys=True))
    if with_reference:
        (inputs_dir / "reference.json").write_text(
            json.dumps(spec.reference(plan, inputs_dir), sort_keys=True))
    print(json.dumps({"import_s": imported - started,
                      "build_s": built - imported,
                      "plan": workloads.digest(plan)}))


def _child_import(module: str) -> None:
    started = time.perf_counter()
    importlib.import_module(module)
    print(json.dumps({"import_s": time.perf_counter() - started}))


def _run_child(*args: str) -> dict:
    """Run this file in a fresh interpreter; its last line is JSON."""
    completed = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--child", *args],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT, check=False)
    if completed.returncode != 0:
        raise RuntimeError(f"child {' '.join(args)} failed:\n"
                           f"{completed.stderr.strip()}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def _setup(workload: str, seed: int, size: str, work: Path):
    """Set up in fresh interpreters.

    Returns ``(setup_s, raw_setup_s, plan, reference, inputs_dir)``;
    every interpreter must have built the same plan from the seed.
    ``setup_s`` is scaled to the reference host, like every other time,
    by host-speed ticks taken here right before and after each
    interpreter, on the CPU the interpreter ran on.
    """
    host = hostspeed.HostSpeed(SLOT_S)
    scaled, raw, plans = [], [], set()
    for index in range(SETUP_REPEATS):
        inputs_dir = work / f"inputs-{index}"
        args = ["setup", workload, str(seed), size, str(inputs_dir)]
        started = time.perf_counter()
        record = _run_child(*args, *(["--reference"] if index == 0 else []))
        ended = time.perf_counter()
        host.tick()
        seconds = record["import_s"] + record["build_s"]
        raw.append(seconds)
        scaled.append(seconds * host.scaled(started, ended)
                      / host.work(started, ended))
        plans.add(record["plan"])
        if index:
            shutil.rmtree(inputs_dir)
    if len(plans) != 1:
        raise RuntimeError("the inputs differ between interpreters for "
                           "one seed")
    inputs_dir = work / "inputs-0"
    plan = json.loads((inputs_dir / "plan.json").read_text())
    reference = json.loads((inputs_dir / "reference.json").read_text())
    return (statistics.median(scaled), statistics.median(raw), plan,
            reference, inputs_dir)


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------


def _percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    if low == position or ordered[low] == ordered[low + 1]:
        return ordered[low]
    return ordered[low] + (ordered[low + 1] - ordered[low]) * (position - low)


class Run:
    """Drives the timed units of one workload and checks each of them.

    Every ``SLOT_S`` seconds of work it samples the host's speed
    (:mod:`hostspeed`), between units and between the jobs inside one.
    """

    def __init__(self, spec, plan: dict, reference: dict,
                 inputs_dir: Path, work: Path) -> None:
        self.spec = spec
        self.plan = plan
        self.reference = reference
        self.inputs_dir = inputs_dir
        self.work = work
        self.host = hostspeed.HostSpeed(SLOT_S)
        self.problems: list[str] = []
        #: The run's first unit: what later ones must repeat.
        self.first = None

    def unit(self):
        unit = self.spec.run_unit(self.plan, self.inputs_dir,
                                  self.work / "unit", self.host.maybe_tick)
        self.host.maybe_tick()
        problems = self.spec.check(unit.outputs, self.reference)
        if self.first is None:
            self.first = unit
        if unit.outputs != self.first.outputs:
            problems.append("outputs differ from the run's first unit")
        if unit.counts != self.first.counts:
            problems.append(f"counts {unit.counts} differ from "
                            f"{self.first.counts}")
        unit.problems = problems
        self.problems.extend(problems)
        return unit

    def start(self):
        """Run the warm-up unit, if the workload has one; returns
        ``(kept units, window start)``."""
        if self.spec.warm_up:
            self.unit()
            return [], time.perf_counter()
        started = time.perf_counter()
        return [self.unit()], started

    def finish(self) -> None:
        """Sample the host once more after the last unit."""
        self.host.tick()


def _ops_summary(units) -> dict:
    attempted = sum(unit.ops + unit.failed_ops for unit in units)
    failed = sum(unit.failed_ops if not unit.problems
                 else unit.ops + unit.failed_ops for unit in units)
    return {"attempted": attempted, "failed": failed}


def _window_open(started: float, seconds: float, units) -> bool:
    """True while another unit would end closer to the window's end.

    Runs at least one unit; stops once the next unit, as long as the
    mean so far, would overrun the window by more than half of itself.
    """
    if not units:
        return True
    mean = sum(unit.wall for unit in units) / len(units)
    return time.perf_counter() - started + mean / 2.0 < seconds


def measure(run: Run, seconds: float) -> list:
    """Untraced units until the window is spent."""
    units, started = run.start()
    while _window_open(started, seconds, units):
        units.append(run.unit())
    run.finish()
    return units


def end_to_end(run: Run, units, setup_s: float, scaled: bool = True) -> dict:
    """The end-to-end metrics; ``scaled=False`` gives raw wall times."""
    duration = run.host.scaled if scaled else run.host.work
    latencies = [duration(start, end)
                 for unit in units for start, end in unit.latencies]
    return {
        "ops_per_s": sum(unit.ops for unit in units)
        / sum(duration(unit.start, unit.end) for unit in units),
        "latency_p50_s": _percentile(latencies, 50.0),
        "latency_p95_s": _percentile(latencies, 95.0),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced(run: Run, seconds: float):
    """Alternate untraced and traced units; per-layer metrics + spans."""
    recorder = probes.Probes()
    plain, started = run.start()
    traced_units, per_unit, spans = [], [], []
    while _window_open(started, seconds, traced_units):
        # Each traced unit is paired with an untraced one.
        if len(plain) <= len(traced_units):
            plain.append(run.unit())
        recorder.reset()
        recorder.install(workloads)
        try:
            unit = run.unit()
        finally:
            recorder.uninstall()
        unit_spans = recorder.tracer.spans
        traced_units.append(unit)
        per_unit.append(probes.layer_metrics(
            unit_spans, run.host.work(unit.start, unit.end), recorder,
            unit.counts))
        spans.append([span.to_dict() for span in unit_spans])
    run.finish()
    metrics = {name: statistics.median(values[name] for values in per_unit)
               for name in per_unit[0]}
    exact = {name: per_unit[0][name] for name in probes.EXACT}
    for values in per_unit[1:]:
        run.problems.extend(
            f"exact count {name} varies across units: {exact[name]} "
            f"then {values[name]}"
            for name in probes.EXACT if values[name] != exact[name])
    metrics["trace.overhead_pct"] = 100.0 * (
        statistics.median(run.host.scaled(unit.start, unit.end)
                          for unit in traced_units)
        / statistics.median(run.host.scaled(unit.start, unit.end)
                            for unit in plain) - 1.0)
    for name, module in probes.IMPORTS.items():
        metrics[name] = _run_child("import", module)["import_s"]
    return plain + traced_units, metrics, exact, spans


# ----------------------------------------------------------------------
# Environment, the exact-count gate across runs, and output
# ----------------------------------------------------------------------


def pin_to_one_cpu() -> tuple[int, int]:
    """Keep this process and the interpreters it starts on one CPU.

    Host-speed ticks then time the CPU the measured work runs on; on
    the reference host the two vCPUs change speed independently, and
    ticks scaled a set-up interpreter that had run on the other one
    worse than no scaling at all. Returns ``(nproc, cpu)``: the CPUs
    the process could use, and the one it keeps.
    """
    allowed = os.sched_getaffinity(0)
    cpu = max(allowed)
    os.sched_setaffinity(0, {cpu})
    return len(allowed), cpu


def environment(directory: Path, nproc: int, cpu: int) -> dict:
    """Where the numbers were taken, for the result record."""
    from repro.obs import capture_environment

    record = capture_environment()
    record["cpu_model"] = _cpu_model()
    record["nproc"] = nproc
    record["pinned_cpu"] = cpu
    for module in ("numpy", "scipy", "networkx"):
        try:
            record[f"{module}_version"] = importlib.import_module(
                module).__version__
        except ImportError:
            record[f"{module}_version"] = None
    record["work_dir_fs"] = _filesystem(directory)
    record["platform"] = platform.platform()
    return record


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _filesystem(directory: Path) -> str:
    """File system type of the mount holding ``directory``."""
    best, fs_type = "", "unknown"
    target = str(directory.resolve())
    try:
        with open("/proc/mounts", encoding="utf-8") as handle:
            for line in handle:
                fields = line.split()
                if len(fields) < 3:
                    continue
                mount = fields[1]
                inside = (target == mount
                          or target.startswith(mount.rstrip("/") + "/"))
                if inside and len(mount) > len(best):
                    best, fs_type = mount, fields[2]
    except OSError:
        pass
    return fs_type


def program_digest(root: Path) -> str:
    """SHA-256 over the path and bytes of every file of the program
    under test (``src/repro``) and of the benchmark itself."""
    files = sorted(
        path for directory in (root / "src" / "repro", HERE)
        for path in directory.rglob("*")
        if path.is_file() and "__pycache__" not in path.parts)
    return workloads.digest([[str(path.relative_to(root)),
                              workloads.file_digest(path)]
                             for path in files])


def gate_across_runs(state: Path, key: str, counts: dict) -> list[str]:
    """Counts of one seed must equal those of every earlier run of it
    on the same code: ``key`` names the code's digest."""
    path = state / "counts" / f"{key}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    text = json.dumps(counts, sort_keys=True)
    if not path.exists():
        path.write_text(text)
        return []
    earlier = json.loads(path.read_text())
    return [f"{name}: {counts.get(name)} here, {earlier.get(name)} in an "
            f"earlier run of this seed"
            for name in sorted(set(counts) | set(earlier))
            if counts.get(name) != earlier.get(name)]


def _finite(value):
    return value if math.isfinite(value) else None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one workload of the repository benchmark.")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every input for the smoke test")
    parser.add_argument("--child", nargs="+", help=argparse.SUPPRESS)
    parser.add_argument("--reference", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    root = _checkout()
    if args.child:
        if args.child[0] == "setup":
            _, workload, seed, size, inputs_dir = args.child
            _child_setup(workload, int(seed), size, Path(inputs_dir),
                         args.reference)
        else:
            _child_import(args.child[1])
        return 0

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of "
                     f"{sorted(workloads.WORKLOADS)}")
    spec = workloads.WORKLOADS[args.workload]
    nproc, cpu = pin_to_one_cpu()
    state = root / ".perfbench"
    work = state / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setup_s, raw_setup_s, plan, reference, inputs_dir = _setup(
            args.workload, args.seed, args.size, work)
        for module in spec.entry_modules:
            importlib.import_module(module)
        run = Run(spec, plan, reference, inputs_dir, work)
        if args.trace:
            units, metrics, exact, spans = traced(run, args.seconds)
            units_for_gate, raw = {"per_layer": exact}, {}
        else:
            units = measure(run, args.seconds)
            metrics = end_to_end(run, units, setup_s)
            raw = end_to_end(run, units, raw_setup_s, scaled=False)
            units_for_gate, spans = {}, []
        units_for_gate["unit"] = run.first.counts
        run.problems.extend(gate_across_runs(
            state, f"{args.workload}-{args.size}-seed{args.seed}"
            f"-trace{args.trace}-{program_digest(root)[:16]}",
            units_for_gate))
        env = environment(work, nproc, cpu)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    table = probes.PER_LAYER if args.trace else END_TO_END
    correct = not run.problems
    for problem in run.problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    if not args.trace:
        name, what, job = OPERATION[args.workload]
        print(f"{args.workload}: ops_per_s is {name} (one op = {what}); "
              f"latency is per {job}; "
              f"{sum(len(u.latencies) for u in units)} latency samples "
              f"in {len(units)} units; times scaled to the reference "
              f"host (raw wall values in brackets)")
    for metric, unit in table.items():
        print(f"{args.workload} {metric} = {metrics[metric]:.6g} {unit}"
              + (f" [{raw[metric]:.6g}]" if metric in raw else ""))
    print("environment: " + json.dumps(env, sort_keys=True))
    record = {"correct": correct, **_ops_summary(units),
              "metrics": {metric: {"value": _finite(float(metrics[metric])),
                                   "unit": unit}
                          for metric, unit in table.items()}}
    results = state / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}-"
               f"{stamp}-{os.getpid()}.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "size": args.size,
        "environment": env, "problems": run.problems, "result": record,
        "raw_metrics": raw, "host_kernel_s": run.host.samples,
        "units": [{"start": unit.start, "end": unit.end, "ops": unit.ops,
                   "latencies": unit.latencies} for unit in units],
        "spans": spans,
    }, sort_keys=True, allow_nan=True))
    print(json.dumps(record, sort_keys=True))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
