"""The deterministic parallel scheduler.

:func:`parallel_map` is the single primitive every parallel layer of the
library is built on. Its contract is stronger than "run things
concurrently":

1. **Order-preserving merge** — the result list is in input order, always,
   regardless of which worker finished first.
2. **Determinism** — for a pure ``fn``, ``parallel_map(fn, items, policy)``
   is bit-identical to ``[fn(x) for x in items]`` for *every* policy.
   Reproducibility is the preservation claim; a scheduler that traded it
   for speed would defeat the point of the archive it accelerates.
3. **Deterministic chunking** — items are split into contiguous chunks of
   a size that depends only on ``(len(items), n_jobs, chunk_size)``, never
   on timing, so any per-chunk work (e.g. seeding) is reproducible too.

Worker functions destined for a process pool must be picklable: a
module-level function, or :func:`functools.partial` over one.

:func:`derive_seed` is the companion seeding rule: a stable hash mapping
``(base_seed, *components)`` to an independent child seed, so each work
unit owns its randomness no matter which worker runs it, or in which
order. (Python's builtin ``hash`` is salted per process and would not
survive a process pool.)
"""

from __future__ import annotations

import hashlib
import multiprocessing
from collections.abc import Callable, Iterable, Iterator, Sequence
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor

from repro.errors import ExecutionError
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer, active
from repro.runtime.clock import MonotonicClock
from repro.runtime.policy import ExecutionPolicy

#: Seeds are kept inside the range every stdlib / numpy RNG accepts.
_SEED_MODULUS = 2**31 - 1


def derive_seed(base_seed: int, *components: object) -> int:
    """A stable, collision-resistant child seed for one work unit.

    >>> derive_seed(6000, "run", 25) == derive_seed(6000, "run", 25)
    True
    >>> derive_seed(6000, "run", 25) != derive_seed(6000, "run", 26)
    True
    """
    key = repr((int(base_seed),) + components).encode("utf-8")
    digest = hashlib.sha256(key).digest()
    return int.from_bytes(digest[:8], "big") % _SEED_MODULUS


def chunked(items: Sequence, chunk_size: int) -> Iterator[list]:
    """Split ``items`` into contiguous chunks of ``chunk_size``."""
    if chunk_size < 1:
        raise ExecutionError(f"chunk_size must be >= 1, got {chunk_size}")
    for start in range(0, len(items), chunk_size):
        yield list(items[start:start + chunk_size])


def default_chunk_size(n_items: int, n_jobs: int) -> int:
    """Roughly four chunks per worker: enough to balance, few enough
    to keep per-chunk submission overhead negligible."""
    if n_items <= 0:
        return 1
    return max(1, -(-n_items // max(1, n_jobs * 4)))


def _apply_chunk(fn: Callable, chunk: list) -> list:
    """Worker-side driver: apply ``fn`` to one contiguous chunk."""
    return [fn(item) for item in chunk]


def _apply_chunk_observed(fn: Callable, index: int,
                          chunk: list) -> tuple[list, list]:
    """Traced worker-side driver: one span per chunk.

    The span is recorded into a worker-local tracer (drivers and
    workers never share one) and shipped back with the results; the
    driver adopts it in submission order, so the merged trace is
    independent of worker finish order.
    """
    tracer = Tracer("worker")
    with tracer.span("runtime.chunk", chunk=index, n_items=len(chunk)):
        results = [fn(item) for item in chunk]
    return results, tracer.spans


def _make_executor(policy: ExecutionPolicy) -> Executor:
    if policy.mode == "thread":
        return ThreadPoolExecutor(max_workers=policy.n_jobs)
    # Prefer fork where the platform offers it: inheriting the parent
    # keeps worker start-up cheap, and workers only ever *return* data.
    methods = multiprocessing.get_all_start_methods()
    context = multiprocessing.get_context(
        "fork" if "fork" in methods else None
    )
    return ProcessPoolExecutor(max_workers=policy.n_jobs,
                               mp_context=context)


def parallel_map(
    fn: Callable,
    items: Iterable,
    policy: ExecutionPolicy | None = None,
    *,
    chunk_size: int | None = None,
    tracer: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
) -> list:
    """Apply ``fn`` to every item, preserving input order in the output.

    Serial policies (including ``policy=None``) run in the calling
    thread with no executor at all, so the default cost of the API is
    one list comprehension. An exception raised by any ``fn(item)``
    propagates to the caller unchanged under every policy.

    An enabled ``tracer`` records one ``runtime.parallel_map`` span plus
    a worker-timed ``runtime.chunk`` span per chunk (adopted back in
    submission order); ``metrics`` additionally receives chunk/item
    counters, chunk-duration and queue-wait histograms, and a
    worker-utilization gauge. With both left at ``None`` the scheduler
    behaves — and costs — exactly as before.
    """
    work = items if isinstance(items, Sequence) else list(items)
    obs = active(tracer)
    observing = obs.enabled or metrics is not None
    if policy is None or policy.is_serial:
        if not observing:
            return [fn(item) for item in work]
        with obs.span("runtime.parallel_map", n_items=len(work),
                      mode="serial"):
            results = [fn(item) for item in work]
        if metrics is not None:
            metrics.counter("runtime.items").inc(len(work))
        return results
    if not work:
        return []
    size = (chunk_size if chunk_size is not None
            else policy.chunk_size if policy.chunk_size is not None
            else default_chunk_size(len(work), policy.n_jobs))
    chunks = list(chunked(work, size))
    if not observing:
        results = []
        with _make_executor(policy) as executor:
            futures = [executor.submit(_apply_chunk, fn, chunk)
                       for chunk in chunks]
            # Collect in *submission* order — the order-preserving merge.
            for future in futures:
                results.extend(future.result())
        return results
    return _parallel_map_observed(fn, work, chunks, policy, obs, metrics)


def _parallel_map_observed(
    fn: Callable,
    work: Sequence,
    chunks: list[list],
    policy: ExecutionPolicy,
    obs: Tracer,
    metrics: MetricsRegistry | None,
) -> list:
    """The instrumented pooled path of :func:`parallel_map`."""
    results: list = []
    busy = 0.0
    clock = MonotonicClock()
    with obs.span("runtime.parallel_map", n_items=len(work),
                  n_chunks=len(chunks), mode=policy.mode,
                  n_jobs=policy.n_jobs) as outer:
        started = clock.now()
        with _make_executor(policy) as executor:
            submissions = []
            for index, chunk in enumerate(chunks):
                submissions.append((
                    clock.now(),
                    executor.submit(_apply_chunk_observed, fn, index,
                                    chunk),
                ))
            # Collect in *submission* order — the order-preserving
            # merge, for results and worker spans alike.
            for submitted_at, future in submissions:
                chunk_results, spans = future.result()
                results.extend(chunk_results)
                adopted = obs.adopt(spans, parent=outer)
                if metrics is None or not adopted:
                    continue
                chunk_span = adopted[0]
                busy += chunk_span.duration
                metrics.histogram("runtime.chunk_seconds").observe(
                    chunk_span.duration)
                # Monotonic clocks share an epoch across local
                # workers, so worker start minus driver submit is the
                # time the chunk sat in the queue (clamped: clock
                # granularity can make tiny waits read negative).
                metrics.histogram("runtime.queue_wait_seconds").observe(
                    max(0.0, chunk_span.start - submitted_at))
        elapsed = clock.now() - started
        if metrics is not None:
            metrics.counter("runtime.items").inc(len(work))
            metrics.counter("runtime.chunks").inc(len(chunks))
            if elapsed > 0.0:
                metrics.gauge("runtime.worker_utilization").set(
                    min(1.0, busy / (elapsed * policy.n_jobs)))
    return results
