"""The benchmark's units of work, driven only through phytolab's public API.

Three kinds of unit, each repeated by run.py as a closed loop (the next one
starts when the previous one returns):

- a loop episode: a fresh Runtime stepped through untimed warm-up cycles and
  then a fixed number of timed cycles, closed, and its outputs checked;
- a sweep: one noisy 40-point adaptive frequency sweep, checked against the
  analytic cell;
- a store episode: seeded 16-column rows appended past the store's capacity,
  read back with iter_store and again with replay(speed=0), and checked.

Every unit is a fixed amount of work, so its counters repeat exactly and its
outputs digest to the same bytes every time it runs with the same seed.
Every time a unit reports is scaled to the reference host (hostspeed.py).
"""

from __future__ import annotations

import hashlib
import io
import itertools
import math
import os
import shutil
import time
from dataclasses import dataclass, field
from datetime import datetime
from pathlib import Path

import numpy as np

from phytolab import (
    ElectricalStimulation,
    EventKind,
    LogStore,
    Runtime,
    SweepSpec,
    TissueModel,
    default_channels,
    iter_store,
    parse_config,
    plan_sweep,
    quantize_for,
    replay,
    run_sweep,
    sweep_responder,
    write_sweep_csv,
)

from hostspeed import HostSpeed, Laps
from spans import NullTracer, Tracer, instrument_runtime, patched_fra

# -- loop configurations -------------------------------------------------------

# Criterion 10's bench (16 default channels, the ten detector kinds, 0.1 s
# period, no bindings) with three changes.  A 5 s stimulation interval puts
# impedance measurement on 2% of cycles, so cycle_ms_p99 lands inside those
# cycles instead of on the boundary between slow and fast ones.  A middle
# stride of 10 fills the middle-tier windows (60 records) within warm-up.
# Ten scripted touch/wound events give the event scan a small static load.
BENCH_LOOP_INI = """
[system]
seed = {seed}
period_s = 0.1
stimulation_interval_s = 5.0

[pipe]
middle_stride = 10

[events]
touch = 30.6, 90.6, 150.6, 210.6, 270.6, 330.6
wound = 60.6:bio1, 120.6:bio2, 180.6:bio1, 240.6:bio2

[detector.spike]
kind = peak
channel = bio1

[detector.drift]
kind = gradient
channel = air_temperature
per_hour = 0.5

[detector.hiss]
kind = noise_level
channel = bio2

[detector.rhythm]
kind = cyclical
channel = light
lag = 4

[detector.window]
kind = time_interval
start_ms = 0
end_ms = 86400000

[detector.daylight]
kind = time_of_day
start_hour = 6
end_hour = 22

[detector.level]
kind = mean
channel = soil_temperature

[detector.spread]
kind = stddev
channel = air_humidity

[detector.outlier]
kind = zscore
channel = sap_flow

[detector.infection]
kind = pathogenicity_status
channel = bio1
"""

# Stimulation fed back into the plant.  `pulse` fires on about 16% of
# cycles (rising edges of a 0.2 Bernoulli gate) and each firing adds an
# electrical event that every later record_at scans, so the simulator's cost
# grows through the episode.  `steer` keeps its homeostat exactly as a user
# would configure it; it exposes the lock-out described in bench/README.md.
CLOSED_LOOP_INI = """
[system]
seed = {seed}
period_s = 0.1
stimulation_interval_s = 1.0

[channels]
bio1 = biopotential1
bio2 = biopotential2
imp1 = impedance1
imp2 = impedance2

[impedance]
noise_rms_v = 1e-4

[detector.spike]
kind = peak
channel = bio1

[detector.gate]
kind = time_interval
start_ms = 0
end_ms = 86400000

[detector.zimp]
kind = zscore
channel = imp1

[actuator.stim]
kind = electrical_stimulation
intensity = 0.5

[actuator.notes]
kind = message_to_file
path = notes.txt

[actuator.sink]
kind = generic_sink

[binding.pulse]
expression = BERNOULLI(0.2) and gate == 1
actuator = stim

[binding.note]
expression = zimp > 2
actuator = notes
payload = impedance jump z={{zimp}}

[binding.steer]
expression = BERNOULLI(0.5) and gate == 1
actuator = sink
cooldown_s = 1
homeostat_target_per_hour = 3600
"""


@dataclass(frozen=True)
class LoopSpec:
    ini: str
    warmup_cycles: int
    timed_cycles: int

    def config(self, seed: int):
        return parse_config(self.ini.format(seed=seed))


# 700 warm-up cycles fill every window, the middle tier's last (60 x 10).
BENCH_LOOP = LoopSpec(BENCH_LOOP_INI, warmup_cycles=700, timed_cycles=3000)
# 100 warm-up cycles fill the short-tier windows; 6,400 timed cycles end
# with about 1,000 electrical events in the simulator.
CLOSED_LOOP = LoopSpec(CLOSED_LOOP_INI, warmup_cycles=100, timed_cycles=6400)

# -- sweep and store inputs ----------------------------------------------------

SWEEP = SweepSpec(points=40)
SWEEP_TISSUE = TissueModel()
SWEEP_GAIN = 1000.0
# about 1% of the smallest response amplitude (gain * 0.1 V / |Z| >= 9 mV)
SWEEP_NOISE_RMS_V = 1e-4
# A sweep batch runs one sweep per noise seed, and a run repeats the batch,
# so each sweep's time can be taken as its median over repeats; with 200
# seeds, p95 over them has 10 beyond it.
SWEEP_NOISE_SEEDS = 200

STORE_COLUMNS = tuple(ch.name for ch in default_channels())


@dataclass(frozen=True)
class StoreSpec:
    rows: int
    segment_bytes: int
    capacity_bytes: int

    def open(self, root: Path) -> LogStore:
        return LogStore(root, STORE_COLUMNS, self.segment_bytes, self.capacity_bytes)


# 40,000 rows of about 340 bytes into 8 MiB: about 22,000 rows stay and the
# older segments are evicted.
STORE = StoreSpec(rows=40_000, segment_bytes=2**18, capacity_bytes=2**23)
# rows appended, read or replayed between two reference-kernel runs (about
# 20 to 40 ms)
STORE_CHUNK = 2000
# timed cycles between two reference-kernel runs (about 40 ms)
STEP_BLOCK = 50


def store_rows(seed: int, n: int) -> list[tuple[int, dict[str, float]]]:
    """Seeded rows of mixed-magnitude floats (1e-9 .. 1e9) on a 100 ms grid."""
    rng = np.random.default_rng([seed, 1])
    shape = (n, len(STORE_COLUMNS))
    values = rng.normal(size=shape) * 10.0 ** rng.integers(-9, 9, size=shape)
    return [
        (i * 100, dict(zip(STORE_COLUMNS, row))) for i, row in enumerate(values.tolist())
    ]


# -- results -------------------------------------------------------------------


@dataclass
class Unit:
    """What one unit of work measured and whether its outputs held."""

    ops: int = 0
    checks: dict[str, bool] = field(default_factory=dict)
    digest: str = ""
    counts: dict[str, float] = field(default_factory=dict)

    @property
    def failed_checks(self) -> int:
        return sum(not ok for ok in self.checks.values())


@dataclass
class LoopEpisode(Unit):
    step_s: list[float] = field(default_factory=list)
    close_s: float = 0.0
    wall_s: float = 0.0  # timed steps plus close()
    no_data: int = 0
    evaluations: int = 0


@dataclass
class SweepRun(Unit):
    wall_s: float = 0.0


@dataclass
class StoreEpisode(Unit):
    # times of consecutive chunks of STORE_CHUNK rows; close() ends the writes
    write_s: list[float] = field(default_factory=list)
    read_s: list[float] = field(default_factory=list)
    replay_s: list[float] = field(default_factory=list)
    written: int = 0
    read: int = 0
    replayed: int = 0


def _digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


# -- set-up ----------------------------------------------------------------------


def setup_loop(
    spec: LoopSpec, seed: int, out_dir: Path, speed: HostSpeed
) -> tuple[float, float]:
    """Seconds spent in parse_config and in Runtime construction."""
    config, parse_s = speed.time(spec.config, seed)
    runtime, build_s = speed.time(Runtime, config, out_dir=out_dir)
    runtime.close()
    return parse_s, build_s


def fill_store(spec: StoreSpec, rows, root: Path) -> None:
    """Write rows into a store at root, as a store episode does."""
    store = spec.open(root)
    for ts, values in rows[: spec.rows]:
        store.append_row(ts, values)
    store.close()


def setup_store(spec: StoreSpec, root: Path, speed: HostSpeed) -> float:
    """Seconds to reopen the filled store at root: its segments are scanned
    and the newest one reopened for appending.  Nothing is written, so every
    sample does the same work."""
    store, elapsed = speed.time(spec.open, root)
    store.close()
    return elapsed


def setup_sweep(speed: HostSpeed) -> float:
    return speed.time(plan_sweep, SWEEP)[1]


# -- loop episode ----------------------------------------------------------------


def run_loop(
    spec: LoopSpec,
    seed: int,
    workdir: Path,
    speed: HostSpeed,
    tracer: Tracer | None = None,
) -> LoopEpisode:
    out_dir = clear(workdir / "loop")
    runtime = Runtime(spec.config(seed), out_dir=out_dir)
    firings = []
    for _ in range(spec.warmup_cycles):
        firings += runtime.step()
    ep = LoopEpisode(ops=spec.warmup_cycles + spec.timed_cycles)
    if tracer is not None:
        instrument_runtime(runtime, tracer)
    tracer = tracer or NullTracer()
    step = tracer.wrap("runtime.step", runtime.step)
    clock = time.perf_counter
    block: list[float] = []
    with patched_fra(tracer):
        speed.mark()
        for i in range(spec.timed_cycles):
            tracer.cycle = i
            t0 = clock()
            firings += step()
            block.append(clock() - t0)
            if len(block) == STEP_BLOCK:
                f = speed.factor()
                ep.step_s += [t * f for t in block]
                block.clear()
        if block:
            f = speed.factor()
            ep.step_s += [t * f for t in block]
        ep.close_s = speed.time(runtime.close)[1]
    ep.wall_s = sum(ep.step_s) + ep.close_s
    tracer.cycle = -1
    _check_loop(runtime, spec, firings, ep)
    return ep


def _check_loop(runtime: Runtime, spec: LoopSpec, firings, ep: LoopEpisode) -> None:
    out = runtime.out_dir
    cycles = spec.warmup_cycles + spec.timed_cycles
    channels = {ch.name: ch for ch in runtime.config.channels}
    records = list(iter_store(out / "records"))
    ep.checks["one stored record per cycle"] = len(records) == cycles
    ep.checks["values on channel grids"] = all(
        quantize_for(channels[name], v) == v
        for r in records
        for name, v in r.values.items()
    )
    vectors = list(iter_store(out / "vectors"))
    ep.checks["one stored vector per cycle"] = len(vectors) == cycles
    ep.checks["vector entries finite"] = all(
        math.isfinite(v) for r in vectors for v in r.values.values()
    )
    # "no data" is 0.0 today; NaN is counted too so a NaN marker keeps the ratio
    first_timed = spec.warmup_cycles * round(runtime.config.period_s * 1000.0)
    for r in vectors:
        if r.timestamp_ms >= first_timed:
            ep.evaluations += len(r.values)
            ep.no_data += sum(1 for v in r.values.values() if v == 0.0 or v != v)

    logged = []
    with open(out / "firings.log", encoding="utf-8") as fh:
        for line in fh:
            stamp, binding, payload = line.rstrip("\n").split("\t", 2)
            at_ms = round(datetime.fromisoformat(stamp).timestamp() * 1000.0)
            logged.append((at_ms, binding, payload))
    ep.checks["every firing in firings.log"] = logged == [
        (f.at_ms, f.binding_id, f.payload) for f in firings
    ]
    stim_ids = {
        b.id for b in runtime.engine.bindings if isinstance(b.actuator, ElectricalStimulation)
    }
    added = sum(1 for e in runtime.simulator.events if e.kind is EventKind.ELECTRICAL)
    scripted = sum(1 for e in runtime.config.events if e.kind is EventKind.ELECTRICAL)
    ep.checks["electrical events equal stimulation firings"] = added - scripted == sum(
        1 for f in firings if f.binding_id in stim_ids
    )

    ep.counts["cycles"] = cycles
    ep.counts["dispatch_errors"] = runtime.engine.dispatch_errors
    ep.counts["events_end"] = len(runtime.simulator.events)
    ep.counts["bindings"] = len(runtime.engine.bindings)
    ep.counts["firings"] = sum(1 for f in firings if f.at_ms >= first_timed)
    for b in runtime.engine.bindings:
        ep.counts[f"binding.{b.id}.firings"] = sum(
            1 for f in firings if f.binding_id == b.id and f.at_ms >= first_timed
        )
    ep.digest = _digest(
        sorted((out / "records").glob("*.csv"))
        + sorted((out / "vectors").glob("*.csv"))
        + [out / "firings.log"]
    )


# -- sweep -------------------------------------------------------------------------


def sweep_noise_seed(seed: int, index: int) -> int:
    return seed * SWEEP_NOISE_SEEDS + index % SWEEP_NOISE_SEEDS


def run_one_sweep(
    seed: int, index: int, speed: HostSpeed, tracer: Tracer | None = None
) -> SweepRun:
    """One sweep, timed from the kernel run the caller made with speed.mark()
    or from the previous sweep's closing one."""
    respond = sweep_responder(
        SWEEP_TISSUE,
        gain=SWEEP_GAIN,
        noise_rms=SWEEP_NOISE_RMS_V,
        seed=sweep_noise_seed(seed, index),
    )
    run = SweepRun(ops=1)
    run.counts["noise_seed"] = sweep_noise_seed(seed, index)
    tracer = tracer or NullTracer()
    respond = tracer.wrap("simulator.respond", respond)
    with patched_fra(tracer):
        started = time.perf_counter()
        points = tracer.call("sweep", run_sweep, SWEEP, respond, gain=SWEEP_GAIN)
        run.wall_s = (time.perf_counter() - started) * speed.factor()
    # criterion 03's tolerances: 2% magnitude and 2 degrees on 95% of points
    good = sum(
        1
        for p in points
        if abs(p.magnitude - SWEEP_TISSUE.magnitude(p.frequency_hz))
        <= 0.02 * SWEEP_TISSUE.magnitude(p.frequency_hz)
        and abs(p.phase_deg - SWEEP_TISSUE.phase_deg(p.frequency_hz)) <= 2.0
    )
    run.checks["sweep points within 2% and 2 deg"] = (
        len(points) == SWEEP.points and good >= math.ceil(0.95 * len(points))
    )
    text = io.StringIO()
    write_sweep_csv(text, points)
    run.digest = hashlib.sha256(text.getvalue().encode()).hexdigest()[:16]
    return run


# -- store episode -----------------------------------------------------------------


def _bytes_written() -> int:
    """Bytes this process has passed to write(2) so far (Linux), else 0."""
    try:
        with open("/proc/self/io", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("wchar:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def run_store(
    spec: StoreSpec,
    rows,
    workdir: Path,
    speed: HostSpeed,
    tracer: Tracer | None = None,
) -> StoreEpisode:
    rows = rows[: spec.rows]
    root = clear(workdir / "store")
    store = spec.open(root)
    ep = StoreEpisode(written=len(rows))
    traced = tracer is not None
    tracer = tracer or NullTracer()
    append = tracer.wrap("logstore.write", store.append_row)
    wrote_before = _bytes_written()
    laps = Laps(speed)
    for i, (ts, values) in enumerate(rows, 1):
        append(ts, values)
        if i % STORE_CHUNK == 0:
            laps.lap()
    store.close()
    laps.lap()
    ep.write_s = laps.times
    ep.counts["bytes_written"] = _bytes_written() - wrote_before

    reader = iter_store(root)
    read: list = []
    laps = Laps(speed)
    while chunk := tracer.call("logstore.read", list, itertools.islice(reader, STORE_CHUNK)):
        read += chunk
        laps.lap()
    ep.read_s = laps.times
    ep.read = len(read)

    # A traced replay is one span, so the kernel must not run inside it.
    delivered = []
    laps = Laps(speed)

    def deliver(record) -> None:
        delivered.append(record)
        if not traced and len(delivered) % STORE_CHUNK == 0:
            laps.lap()

    ep.replayed = tracer.call("logstore.replay", replay, root, deliver, 0)
    laps.lap()
    ep.replay_s = laps.times
    ep.ops = ep.written + ep.read + ep.replayed

    segments = store.segments()
    last = int(segments[-1].stem.split("-")[1])  # segment-NNNNNNNN.csv from 1
    ep.counts["segments_rolled"] = last - 1
    ep.counts["segments_evicted"] = last - len(segments)
    kept = rows[len(rows) - len(read):] if read else []
    ep.checks["read back equals the retained suffix"] = (
        0 < len(read) < len(rows)
        and all(
            r.timestamp_ms == ts and dict(r.values) == values
            for r, (ts, values) in zip(read, kept)
        )
    )
    ep.checks["store within capacity"] = (
        sum(p.stat().st_size for p in segments) <= spec.capacity_bytes
    )
    ep.checks["replay count equals read count"] = ep.replayed == ep.read == len(delivered)
    ep.digest = _digest(segments)
    return ep


def clear(path: Path) -> Path:
    """Make path an empty directory."""
    if path.exists():
        shutil.rmtree(path)
    os.makedirs(path)
    return path
