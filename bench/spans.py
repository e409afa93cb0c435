"""In-memory spans recorded around calls into the package's layers.

A span is (name, start_ns, end_ns, parent, cycle).  Spans come from wrapping
the layer objects of a real Runtime (or the module functions of the sweep)
from outside, so the package's own code runs unmodified and there is no
parallel copy of the loop.  A layer's self time is its span minus its direct
child spans; summed over one root span the self times give the root back.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import math
import statistics
import time
from collections import defaultdict
from pathlib import Path

from phytolab import DETECTOR_KINDS, fra

_KIND_OF = {cls: kind for kind, cls in DETECTOR_KINDS.items()}
_FRA_NAMES = ("analyze_pair", "synthesize_excitation", "plan_sweep")


class Tracer:
    """Collects spans; `cycle` tags every span opened while it is set.

    Spans are kept column-wise in lists of ints and shared name strings, so
    recording hundreds of thousands of them adds no objects for the garbage
    collector to scan.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.cycles: list[int] = []
        self._open: list[int] = []
        self.cycle = -1

    def wrap(self, name: str, fn):
        names, starts, ends = self.names, self.starts, self.ends
        parents, cycles, stack = self.parents, self.cycles, self._open
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            cycles.append(self.cycle)
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return traced

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span named name."""
        return self.wrap(name, fn)(*args, **kwargs)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="", encoding="utf-8") as fh:
            out = csv.writer(fh)
            out.writerow(("name", "start_ns", "end_ns", "parent", "cycle"))
            out.writerows(
                zip(self.names, self.starts, self.ends, self.parents, self.cycles)
            )


class NullTracer:
    """Records nothing: wrap returns the callable itself, so the untraced
    path runs the same code with no wrapper in between."""

    cycle = -1

    def wrap(self, name: str, fn):
        return fn

    def call(self, name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class SpanTable:
    """Durations (inclusive) and self times per span name, in microseconds."""

    def __init__(self, tracer: Tracer) -> None:
        names, parents = tracer.names, tracer.parents
        dur_ns = [e - s for s, e in zip(tracer.starts, tracer.ends)]
        child_ns = [0] * len(dur_ns)
        for parent, dur in zip(parents, dur_ns):
            if parent >= 0:
                child_ns[parent] += dur
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.self_us: dict[str, float] = defaultdict(float)
        for name, dur, child in zip(names, dur_ns, child_ns):
            self.durations[name].append(dur / 1e3)
            self.self_us[name] += (dur - child) / 1e3

    def count(self, name: str) -> int:
        return len(self.durations.get(name, ()))

    def total(self, name: str) -> float:
        return sum(self.durations.get(name, ()))

    def quantile(self, name: str, q: float) -> float:
        return quantile(self.durations.get(name, []), q)

    def self_total(self, *names: str) -> float:
        return sum(self.self_us.get(n, 0.0) for n in names)


def quantile(values, q: float) -> float:
    """Median for q = 0.5, else nearest rank; 0.0 when the layer did no work."""
    if not values:
        return 0.0
    if q == 0.5:
        return statistics.median(values)
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class _TracedDetector:
    """Stand-in for a frozen detector in the bank: same id, traced evaluate."""

    def __init__(self, detector, evaluate) -> None:
        self.id = detector.id
        self.evaluate = evaluate


def instrument_runtime(runtime, tracer: Tracer) -> None:
    """Wrap the layer objects of a Runtime so each call records a span."""
    sim = runtime.simulator
    sim.record_at = tracer.wrap("simulator.record_at", sim.record_at)
    sim.add_electrical = tracer.wrap("simulator.add_electrical", sim.add_electrical)
    tiers = runtime.tiers
    tiers.push = tracer.wrap("pipes.push", tiers.push)
    for pipe in (tiers.short, tiers.middle, tiers.long):
        pipe.values = tracer.wrap("pipes.window", pipe.values)
        pipe.timestamps_ms = tracer.wrap("pipes.window", pipe.timestamps_ms)
    bank = runtime.bank
    bank.detectors = tuple(
        _TracedDetector(d, tracer.wrap(f"detectors.{_KIND_OF[type(d)]}", d.evaluate))
        for d in bank.detectors
    )
    bank.evaluate = tracer.wrap("detectors.evaluate", bank.evaluate)
    runtime.engine.cycle = tracer.wrap("actuation.cycle", runtime.engine.cycle)
    for actuator in runtime.actuators.values():
        actuator.fire = tracer.wrap("actuation.fire", actuator.fire)
    store = runtime.record_store
    store.append = tracer.wrap("logstore.append", store.append)
    if runtime.vector_store is not None:
        vectors = runtime.vector_store
        vectors.append_row = tracer.wrap("logstore.append", vectors.append_row)


@contextlib.contextmanager
def patched_fra(tracer):
    """Wrap phytolab.fra's module functions in spans for the duration.

    The simulator and run_sweep look these names up in the module at call
    time, so the wrapping reaches calls made from inside the package.  With
    a NullTracer the attributes are set back to themselves.
    """
    saved = {name: getattr(fra, name) for name in _FRA_NAMES}
    for name, original in saved.items():
        setattr(fra, name, tracer.wrap(f"fra.{name}", original))
    try:
        yield
    finally:
        for name, original in saved.items():
            setattr(fra, name, original)
