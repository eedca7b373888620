"""Op timing rescaled to a reference host speed.

The benchmark runs on small shared hosts whose cores slow down by up to
half for seconds to minutes while neighbours load them.  On a 2-core Xeon
box, a fixed pure-Python kernel took 0.50-1.04 ms on the same core minutes
apart, op times followed it, and the raw run-to-run spread of a 15 s run
reached 10-30%.  Every measured time is therefore rescaled:

    scaled = measured * REFERENCE_KERNEL_S / kernel time around the measurement

``_kernel`` is benchmark code that no library change can touch, so a slower
library still reads slower, while a slower host mostly does not.  The kernel
reacts to some host slowdowns more strongly than the library does, so the
correction is partial; raw times are kept next to the scaled ones in the run
records.
"""

from __future__ import annotations

import gc
from time import perf_counter

REFERENCE_KERNEL_S = 0.0006  # the kernel on an uncontended core of the box above
CALIBRATE_AFTER_S = 0.05  # op time between two kernel measurements


def _kernel() -> int:
    # dict, str, sort and frozenset work, like the library's inner loops
    counts: dict[str, int] = {}
    for i in range(2000):
        key = str((i * 7919) % 1009)
        counts[key] = counts.get(key, 0) + 1
    return len(frozenset(sorted(counts)))


def kernel_s(repeats: int = 3) -> float:
    """Fastest of a few kernel runs, with the cyclic collector paused."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(repeats):
            start = perf_counter()
            _kernel()
            best = min(best, perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return best


def scale(measured: float, kernel_before: float, kernel_after: float) -> float:
    return measured * REFERENCE_KERNEL_S / ((kernel_before + kernel_after) / 2)


class ScaledTimes:
    """Per-op times, each rescaled by the kernel measured before and after
    the stretch of ops (at least ``CALIBRATE_AFTER_S`` long) it belongs to."""

    def __init__(self) -> None:
        self.raw: list[float] = []
        self.scaled: list[float] = []
        self.kernels = [kernel_s()]
        self._since = 0.0

    def before_op(self) -> None:
        if self._since >= CALIBRATE_AFTER_S:
            self.finish()

    def add(self, elapsed: float) -> None:
        self.raw.append(elapsed)
        self._since += elapsed

    def finish(self) -> None:
        """Scale every op added since the last kernel measurement."""
        before = self.kernels[-1]
        self.kernels.append(kernel_s())
        self.scaled.extend(scale(t, before, self.kernels[-1]) for t in self.raw[len(self.scaled):])
        self._since = 0.0
