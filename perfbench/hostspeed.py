"""Host-speed calibration: keep the host's own slowdowns out of timings.

On a shared virtual machine the speed of the CPU this process gets
changes by up to a factor of two, over periods from under a second to
half a minute, as neighbours load the physical cores; the same unit of
work then takes longer too.
Longer runs average over a few such periods but not enough of them.

:class:`HostSpeed` times a fixed kernel between units of work and
between the jobs inside them, every ``every`` seconds of work. The
kernel belongs to the benchmark and calls no library code, so a change
to the library never changes it.
Each timed interval is scaled by ``REFERENCE_S / k``, where ``k`` is
the mean kernel time of the ticks around it: the result is the time the
work would have taken on the reference host, which runs the kernel in
``REFERENCE_S``. Scaling each interval by its own neighbourhood, not the
whole run by one factor, keeps latency percentiles sharp when the host
changes speed in the middle of a run.

The kernel runs with the garbage collector off. A collection costs time
in proportion to the library's live heap; it then falls inside the
library's own intervals, where it belongs, and never inside a tick, so
the scale measures the host alone.
"""

from __future__ import annotations

import bisect
import gc
import math
import time

#: Kernel wall seconds on the reference host: an "Intel Xeon Processor"
#: virtual machine with 2 vCPUs, CPython 3.11.7 and numpy 2.4.6.
REFERENCE_S = 0.032
#: Seconds either side of an interval whose ticks set its scale: short
#: against the 5-30 s swings of host speed, long enough to average
#: about ten ticks.
WINDOW_S = 1.0


def kernel() -> float:
    """Fixed work shaped like the chain's: small numpy draws, float
    arithmetic and dictionary updates in an interpreted loop."""
    import numpy as np

    rng = np.random.default_rng(12345)
    table: dict = {}
    total = 0.0
    for index in range(6000):
        values = [float(value) for value in rng.normal(0.0, 1.0, 4)]
        pt = math.hypot(values[0], values[1])
        eta = math.asinh(values[2] / (pt + 1e-9))
        key = (index % 97, int(eta * 10.0))
        table[key] = table.get(key, 0.0) + pt
        total += math.cos(values[3]) * pt
    return total + len(table)


class HostSpeed:
    """Samples the host's speed during a run and scales its times by it."""

    def __init__(self, every: float) -> None:
        kernel()  # the first call pays for imports and cold caches
        self.every = every
        self._starts: list[float] = []
        self._ends: list[float] = []
        self.tick()

    def tick(self) -> None:
        """Run and time the kernel once, without garbage collection.

        The kernel makes no reference cycles, so it leaves nothing for
        the collector.
        """
        enabled = gc.isenabled()
        gc.disable()
        try:
            self._starts.append(time.perf_counter())
            kernel()
            self._ends.append(time.perf_counter())
        finally:
            if enabled:
                gc.enable()

    def maybe_tick(self) -> None:
        """Tick if ``every`` seconds have passed since the last tick."""
        if time.perf_counter() - self._ends[-1] >= self.every:
            self.tick()

    @property
    def samples(self) -> list[float]:
        """Kernel seconds of every tick, in order."""
        return [end - start for start, end in zip(self._starts, self._ends)]

    def work(self, start: float, end: float | None) -> float:
        """Wall seconds in ``[start, end]`` outside kernel runs.

        An ``end`` of ``None`` (a failed job) is infinitely late.
        """
        if end is None:
            return math.inf
        first = bisect.bisect_left(self._starts, start)
        last = bisect.bisect_right(self._ends, end)
        return (end - start) - sum(self._ends[index] - self._starts[index]
                                   for index in range(first, last))

    def scaled(self, start: float, end: float | None) -> float:
        """Reference-host seconds of the work in ``[start, end]``.

        The scale is ``REFERENCE_S`` over the mean kernel time of the
        ticks within ``WINDOW_S`` of the interval, or of the nearest
        tick when none is that close.
        """
        work = self.work(start, end)
        if math.isinf(work):
            return work
        first = bisect.bisect_left(self._ends, start - WINDOW_S)
        last = bisect.bisect_right(self._starts, end + WINDOW_S)
        if first >= last:
            nearest = min(range(len(self._starts)), key=lambda index: min(
                abs(self._starts[index] - end),
                abs(self._ends[index] - start)))
            first, last = nearest, nearest + 1
        kernel_s = sum(self._ends[index] - self._starts[index]
                       for index in range(first, last)) / (last - first)
        return work * REFERENCE_S / kernel_s
