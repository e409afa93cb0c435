"""Wall times scaled to a reference host speed.

The machines this benchmark runs on are shared, and their speed drifts by
up to 1.8x for seconds to minutes at a time, as other tenants come and go.
A wall time alone then says as much about the host as about the code.  So
every timed stretch of work is bracketed by runs of a fixed reference
kernel (pure-Python arithmetic, dict iteration and small numpy calls, the
same mix of work as the package), and its wall time is multiplied by

    REFERENCE_S / kernel time next to it

The result is the time the work would take on a host where the kernel takes
REFERENCE_S: the reported `_ms`, `_s` and `_per_s` figures are in seconds
of that reference host.  The kernel calls nothing from phytolab, so a change
to the package moves only the numerator.  A kernel run takes about 1 ms and
runs with the garbage collector off, so the package's heap does not change
its time either.
"""

from __future__ import annotations

import gc
import time

import numpy as np

# The kernel's time on the reference host, so scaled times are seconds of a
# host on which kernel() takes exactly 1 ms.
REFERENCE_S = 1e-3
KERNEL_ROUNDS = 30

_VALUES = np.random.default_rng(0).normal(size=64)
_TABLE = {f"k{i}": float(i) for i in range(32)}


def kernel() -> float:
    """Run the reference kernel once and return its wall time in seconds."""
    enabled = gc.isenabled()
    gc.disable()
    started = time.perf_counter()
    acc = 0.0
    for r in range(KERNEL_ROUNDS):
        for v in _TABLE.values():
            acc += v * 1.0001 - r
        a = _VALUES * 1.5 + acc
        acc += float(np.mean(a)) + float(np.std(a))
        acc += float(np.random.default_rng(r).normal(size=16).sum())
    elapsed = time.perf_counter() - started
    if enabled:
        gc.enable()
    return elapsed


class HostSpeed:
    """Brackets timed work with kernel runs and scales its wall time.

    `mark()` runs the kernel just before a timed stretch; `factor()` runs it
    just after and returns the multiplier for the stretch since the previous
    kernel run.  Consecutive stretches share the kernel run between them.
    The faster of the two bracketing runs is used: a kernel run is only ever
    slowed by an interruption, never sped up.
    """

    def __init__(self) -> None:
        for _ in range(3):  # first calls pay numpy's lazy set-up
            kernel()
        self.last = kernel()
        self.runs = 0
        self.kernel_s = 0.0

    def mark(self) -> None:
        self.last = self._run()

    def factor(self) -> float:
        before, self.last = self.last, self._run()
        return REFERENCE_S / min(before, self.last)

    def time(self, fn, *args, **kwargs):
        """Run fn between two kernel runs: (its result, scaled seconds)."""
        self.mark()
        started = time.perf_counter()
        result = fn(*args, **kwargs)
        elapsed = time.perf_counter() - started
        return result, elapsed * self.factor()

    def _run(self) -> float:
        elapsed = kernel()
        self.runs += 1
        self.kernel_s += elapsed
        return elapsed


class Laps:
    """Scaled times of the consecutive stretches of one piece of work.

    Starts timing at construction; each `lap()` closes a stretch, runs the
    kernel, and starts the next stretch after it, so no kernel time is
    counted.
    """

    def __init__(self, speed: HostSpeed) -> None:
        self.speed = speed
        self.times: list[float] = []
        speed.mark()
        self._started = time.perf_counter()

    def lap(self) -> None:
        elapsed = time.perf_counter() - self._started
        self.times.append(elapsed * self.speed.factor())
        self._started = time.perf_counter()
