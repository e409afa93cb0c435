"""One benchmark run: set-up, warm-up, the timed main phase with its
reference units, output checks, and the end-to-end or per-layer metrics.

Times are scaled to the reference host (hostspeed.py); counts are not."""

from __future__ import annotations

import functools
import gc
import hashlib
import math
import resource
import statistics
import time
from dataclasses import replace
from pathlib import Path

from hostspeed import HostSpeed
from spans import SpanTable, Tracer, quantile
from workloads import (
    BENCH_LOOP,
    CLOSED_LOOP,
    STORE,
    SWEEP_NOISE_SEEDS,
    LoopSpec,
    StoreSpec,
    clear,
    fill_store,
    run_loop,
    run_one_sweep,
    run_store,
    setup_loop,
    setup_store,
    setup_sweep,
    store_rows,
)

# Which kind of unit each workload's main phase repeats.
MAIN_KIND = {
    "bench_loop": "loop",
    "closed_loop": "loop",
    "store_io": "store",
    "fra_sweep": "sweep",
}
KINDS = ("loop", "sweep", "store")

SETUP_REPEATS = 51
# The fewest main units a run makes: three, so that a median over repeats
# of the same cycle or sweep can set a slow repeat aside.
MIN_MAIN_UNITS = {"loop": 3, "store": 3, "sweep": 3}
# Reference units give the end-to-end metrics a main phase does not
# produce.  Their number is fixed and they are spread evenly through the
# run: three short bench_loop episodes (1,500 cycles, 15 beyond p99), three
# sweep batches (200 sweeps, 10 beyond p95), and ten small store episodes.
PROBE_UNITS = {"loop": 3, "sweep": 3, "store": 10}
PROBE_LOOP = LoopSpec(BENCH_LOOP.ini, warmup_cycles=700, timed_cycles=1500)
PROBE_STORE = StoreSpec(rows=10_000, segment_bytes=2**16, capacity_bytes=2**21)

END_TO_END = {
    "setup_s": "s",
    "cycle_ms_p50": "ms",
    "cycle_ms_p99": "ms",
    "cycles_per_s": "1/s",
    "sweep_ms_p50": "ms",
    "sweep_ms_p95": "ms",
    "store_write_rows_per_s": "rows/s",
    "store_read_rows_per_s": "rows/s",
    "replay_rows_per_s": "rows/s",
    "peak_rss_mb": "MiB",
}

DETECTOR_KIND_NAMES = (
    "peak", "gradient", "noise_level", "cyclical", "time_interval",
    "time_of_day", "mean", "stddev", "zscore", "pathogenicity_status",
)
BINDING_IDS = ("pulse", "note", "steer")  # the bindings of closed_loop

# A metric of a layer the workload's main phase does not run reads 0.
PER_LAYER = {
    "simulator.record_at_us_p50": "us",
    "simulator.record_at_us_p99": "us",
    "simulator.record_at_us_first_decile": "us",
    "simulator.record_at_us_last_decile": "us",
    "simulator.events_end": "count",
    "simulator.impedance_measurements": "count",
    "simulator.add_electrical_calls": "count",
    "simulator.respond_us_p50": "us",
    "simulator.self_us_per_cycle": "us",
    "pipes.push_us_p50": "us",
    "pipes.window_calls": "count",
    "pipes.window_us_per_cycle": "us",
    "pipes.self_us_per_cycle": "us",
    "detectors.evaluate_us_p50": "us",
    "detectors.self_us_per_cycle": "us",
    **{f"detectors.{k}_us_per_cycle": "us" for k in DETECTOR_KIND_NAMES},
    "detectors.no_data_ratio": "1",
    "actuation.cycle_us_p50": "us",
    "actuation.cycle_us_p99": "us",
    "actuation.fire_calls": "count",
    "actuation.fire_us_per_call": "us",
    "actuation.firings": "count",
    "actuation.fire_ratio": "1",
    "actuation.dispatch_errors": "count",
    "actuation.self_us_per_cycle": "us",
    **{f"actuation.binding.{b}.firings": "count" for b in BINDING_IDS},
    "logstore.append_us_p50": "us",
    "logstore.self_us_per_cycle": "us",
    "logstore.write_us_per_row": "us",
    "logstore.read_us_per_row": "us",
    "logstore.replay_us_per_row": "us",
    "logstore.bytes_written": "count",
    "logstore.segments_rolled": "count",
    "logstore.segments_evicted": "count",
    "fra.plan_sweep_us": "us",
    "fra.synthesize_excitation_us_p50": "us",
    "fra.analyze_pair_us_p50": "us",
    "fra.analyze_pair_calls": "count",
    "fra.loop_us_per_cycle": "us",
    "config.parse_ms": "ms",
    "runtime.init_ms": "ms",
    "runtime.step_us_per_cycle": "us",
    "runtime.step_self_us_per_cycle": "us",
    "trace.accounted_ratio": "1",
    "trace.overhead_ratio": "1",
}


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _repeat_medians(repeats) -> list[float]:
    """Element i: the median of element i over the repeats of the same work."""
    return [statistics.median(times) for times in zip(*repeats)]


def _rate(work: int, repeats) -> float:
    """Work of one repeat over the sum of its per-stretch median times."""
    return work / sum(_repeat_medians(repeats))


class Session:
    def __init__(self, workload: str, seed: int, workdir: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.main = MAIN_KIND[workload]
        # the loop episodes this run makes, as main units or reference units
        self.loop_spec = {"bench_loop": BENCH_LOOP, "closed_loop": CLOSED_LOOP}.get(
            workload, PROBE_LOOP
        )
        self.store_spec = STORE if self.main == "store" else PROBE_STORE
        self.units: dict[str, list] = {kind: [] for kind in KINDS}
        self.traced: list = []
        self.setup: list[tuple[float, float]] = []
        self.tracer = Tracer()
        self.speed = HostSpeed()
        self.rows = store_rows(seed, self.store_spec.rows)
        # the input rows stay for the whole run; keep them out of the
        # collections the package's own garbage sets off
        gc.collect()
        gc.freeze()
        self._sweeps_run = 0
        clear(workdir)

    # -- phases

    def run(self, seconds: float) -> None:
        self._closed_loop(seconds, False, [k for k in KINDS if k != self.main])

    def run_traced(self, seconds: float) -> None:
        """Alternate untraced and traced units of the main phase."""
        self._closed_loop(seconds, True, [])

    def cleanup(self) -> None:
        clear(self.workdir)
        self.workdir.rmdir()

    def _closed_loop(self, seconds: float, traced: bool, probe_kinds) -> None:
        """Repeat main units until `seconds` pass (and at least MIN_MAIN_UNITS
        untraced ones ran); the last unit finishes.

        Set-up samples and reference units are spread over the same span:
        after each main unit, every one whose place in the plan has passed
        runs.
        """
        plan = self._plan(probe_kinds)
        for kind in ("setup", self.main, *probe_kinds):
            self._warm_up(kind)
        started = time.perf_counter()
        done = n = 0
        least = 2 if traced else MIN_MAIN_UNITS[self.main]
        while n < least or time.perf_counter() - started < seconds:
            tracer = self.tracer if traced and n % 2 else None
            (self.traced if tracer else self.units[self.main]).append(
                self._unit(self.main, tracer)
            )
            n += 1
            elapsed = (time.perf_counter() - started) / seconds
            while done < len(plan) and plan[done][0] < elapsed:
                plan[done][1]()
                done += 1
        for _, run in plan[done:]:
            run()

    def _plan(self, probe_kinds) -> list:
        """Evenly spaced (place in [0, 1), action) pairs, sorted by place."""
        plan = [((j + 0.5) / SETUP_REPEATS, self._setup_sample) for j in range(SETUP_REPEATS)]
        for kind in probe_kinds:
            probe, n = functools.partial(self._probe, kind), PROBE_UNITS[kind]
            plan += [((j + 0.5) / n, probe) for j in range(n)]
        plan.sort(key=lambda p: p[0])
        return plan

    def _probe(self, kind: str) -> None:
        self.units[kind].append(self._unit(kind, None))

    def _setup_sample(self, record: bool = True) -> None:
        if self.main == "loop":
            out = self.workdir / "setup"
            sample = setup_loop(self.loop_spec, self.seed, out, self.speed)
            clear(out)
        elif self.main == "store":
            sample = (0.0, setup_store(self.store_spec, self.workdir / "setup", self.speed))
        else:
            sample = (0.0, setup_sweep(self.speed))
        if record:
            self.setup.append(sample)

    def _warm_up(self, kind: str) -> None:
        """Pay first-call costs outside timing; loop episodes warm up inside."""
        if kind == "setup":
            if self.main == "store":
                fill_store(self.store_spec, self.rows, clear(self.workdir / "setup"))
            for _ in range(3):
                self._setup_sample(record=False)
        elif kind == "sweep":
            for i in range(2):
                run_one_sweep(self.seed, i, self.speed)
        elif kind == "store":
            run_store(replace(PROBE_STORE, rows=4000), self.rows, self.workdir, self.speed)

    def _unit(self, kind: str, tracer: Tracer | None) -> list:
        if kind == "loop":
            return [run_loop(self.loop_spec, self.seed, self.workdir, self.speed, tracer)]
        if kind == "store":
            return [run_store(self.store_spec, self.rows, self.workdir, self.speed, tracer)]
        first = self._sweeps_run
        self._sweeps_run += SWEEP_NOISE_SEEDS
        self.speed.mark()
        return [
            run_one_sweep(self.seed, i, self.speed, tracer)
            for i in range(first, first + SWEEP_NOISE_SEEDS)
        ]

    # -- checks

    def _all_units(self):
        for batches in (*self.units.values(), self.traced):
            for batch in batches:
                yield from batch

    @property
    def attempted(self) -> int:
        return sum(u.ops for u in self._all_units())

    @property
    def digest_mismatches(self) -> int:
        """Units of the same work whose outputs differ byte for byte."""
        first: dict[tuple, str] = {}
        mismatches = 0
        for u in self._all_units():
            key = (type(u).__name__, u.counts.get("noise_seed"), u.counts.get("cycles"))
            mismatches += first.setdefault(key, u.digest) != u.digest
        return mismatches

    @property
    def failed(self) -> int:
        return (
            sum(u.failed_checks + u.counts.get("dispatch_errors", 0) for u in self._all_units())
            + self.digest_mismatches
        )

    # -- metrics

    def _flat(self, kind: str) -> list:
        return [u for batch in self.units[kind] for u in batch]

    def end_to_end(self) -> dict[str, float]:
        """Every timed stretch of a unit (a cycle, a sweep, a chunk of rows,
        a close) is timed as its median over the run's repeats of that same
        stretch.  The repeats do the same work, so the median keeps a
        stretch that is slow every time, such as an impedance cycle, and
        sets aside one the host happened to interrupt once.  Percentiles and
        throughputs are then taken over one unit's stretches."""
        loops, stores = self._flat("loop"), self._flat("store")
        steps = _repeat_medians(ep.step_s for ep in loops)
        by_seed: dict[float, list[float]] = {}
        for s in self._flat("sweep"):
            by_seed.setdefault(s.counts["noise_seed"], []).append(s.wall_s)
        sweeps = [statistics.median(ts) for ts in by_seed.values()]
        store = stores[0]
        return {
            "setup_s": _median([a + b for a, b in self.setup]),
            "cycle_ms_p50": 1e3 * statistics.median(steps),
            "cycle_ms_p99": 1e3 * quantile(steps, 0.99),
            "cycles_per_s": len(steps)
            / (sum(steps) + statistics.median(ep.close_s for ep in loops)),
            "sweep_ms_p50": 1e3 * statistics.median(sweeps),
            "sweep_ms_p95": 1e3 * quantile(sweeps, 0.95),
            "store_write_rows_per_s": _rate(store.written, (e.write_s for e in stores)),
            "store_read_rows_per_s": _rate(store.read, (e.read_s for e in stores)),
            "replay_rows_per_s": _rate(store.replayed, (e.replay_s for e in stores)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    def _throughput(self, batches) -> float:
        units = [u for batch in batches for u in batch]
        if self.main == "loop":
            return sum(len(ep.step_s) for ep in units) / sum(ep.wall_s for ep in units)
        if self.main == "store":
            return sum(e.written for e in units) / sum(sum(e.write_s) for e in units)
        return len(units) / sum(s.wall_s for s in units)

    def per_layer(self) -> dict[str, float]:
        m = dict.fromkeys(PER_LAYER, 0)
        traced = [u for batch in self.traced for u in batch]
        n = len(traced)
        t = SpanTable(self.tracer)
        m["trace.overhead_ratio"] = self._throughput(
            self.units[self.main]
        ) / self._throughput(self.traced)
        m["fra.analyze_pair_us_p50"] = t.quantile("fra.analyze_pair", 0.5)
        m["fra.analyze_pair_calls"] = t.count("fra.analyze_pair") // n
        if self.main == "loop":
            self._loop_layers(m, t, traced)
        elif self.main == "store":
            for key in ("bytes_written", "segments_rolled", "segments_evicted"):
                m[f"logstore.{key}"] = traced[0].counts[key]
            m["logstore.write_us_per_row"] = t.total("logstore.write") / sum(
                e.written for e in traced
            )
            m["logstore.read_us_per_row"] = t.total("logstore.read") / sum(
                e.read for e in traced
            )
            m["logstore.replay_us_per_row"] = t.total("logstore.replay") / sum(
                e.replayed for e in traced
            )
        else:
            m["simulator.respond_us_p50"] = t.quantile("simulator.respond", 0.5)
            m["fra.plan_sweep_us"] = t.quantile("fra.plan_sweep", 0.5)
            m["fra.synthesize_excitation_us_p50"] = t.quantile(
                "fra.synthesize_excitation", 0.5
            )
        return m

    def _loop_layers(self, m: dict, t: SpanTable, traced: list) -> None:
        n = len(traced)
        cycles = sum(len(ep.step_s) for ep in traced)
        per_cycle = 1.0 / cycles
        m["config.parse_ms"] = 1e3 * _median([a for a, _ in self.setup])
        m["runtime.init_ms"] = 1e3 * _median([b for _, b in self.setup])

        record_at = t.durations["simulator.record_at"]
        size = len(traced[0].step_s)
        tenth = size // 10
        episodes = [record_at[i : i + size] for i in range(0, len(record_at), size)]
        m["simulator.record_at_us_p50"] = t.quantile("simulator.record_at", 0.5)
        m["simulator.record_at_us_p99"] = t.quantile("simulator.record_at", 0.99)
        m["simulator.record_at_us_first_decile"] = _median(
            [d for ep in episodes for d in ep[:tenth]]
        )
        m["simulator.record_at_us_last_decile"] = _median(
            [d for ep in episodes for d in ep[-tenth:]]
        )
        m["simulator.events_end"] = traced[0].counts["events_end"]
        m["simulator.impedance_measurements"] = t.count("fra.analyze_pair") // n
        m["simulator.add_electrical_calls"] = t.count("simulator.add_electrical") // n
        sim_self = t.self_total("simulator.record_at", "simulator.add_electrical")
        m["simulator.self_us_per_cycle"] = sim_self * per_cycle
        m["fra.loop_us_per_cycle"] = t.total("fra.analyze_pair") * per_cycle

        m["pipes.push_us_p50"] = t.quantile("pipes.push", 0.5)
        m["pipes.window_calls"] = t.count("pipes.window") // n
        m["pipes.window_us_per_cycle"] = t.total("pipes.window") * per_cycle
        pipes_self = t.self_total("pipes.push", "pipes.window")
        m["pipes.self_us_per_cycle"] = pipes_self * per_cycle

        kinds = [f"detectors.{k}" for k in DETECTOR_KIND_NAMES]
        m["detectors.evaluate_us_p50"] = t.quantile("detectors.evaluate", 0.5)
        # the bank's span minus the window reads its detectors make
        det_self = t.self_total("detectors.evaluate", *kinds)
        m["detectors.self_us_per_cycle"] = det_self * per_cycle
        for k in DETECTOR_KIND_NAMES:
            m[f"detectors.{k}_us_per_cycle"] = t.total(f"detectors.{k}") * per_cycle
        evaluations = sum(ep.evaluations for ep in traced)
        if evaluations:
            m["detectors.no_data_ratio"] = sum(ep.no_data for ep in traced) / evaluations

        m["actuation.cycle_us_p50"] = t.quantile("actuation.cycle", 0.5)
        m["actuation.cycle_us_p99"] = t.quantile("actuation.cycle", 0.99)
        fires = t.count("actuation.fire")
        m["actuation.fire_calls"] = fires // n
        if fires:
            m["actuation.fire_us_per_call"] = t.total("actuation.fire") / fires
        counts = traced[0].counts
        m["actuation.firings"] = counts["firings"]
        if counts["bindings"]:
            m["actuation.fire_ratio"] = counts["firings"] / (
                counts["bindings"] * len(traced[0].step_s)
            )
        m["actuation.dispatch_errors"] = counts["dispatch_errors"]
        act_self = t.self_total("actuation.cycle", "actuation.fire")
        m["actuation.self_us_per_cycle"] = act_self * per_cycle
        for b in BINDING_IDS:
            m[f"actuation.binding.{b}.firings"] = counts.get(f"binding.{b}.firings", 0)

        m["logstore.append_us_p50"] = t.quantile("logstore.append", 0.5)
        store_self = t.self_total("logstore.append")
        m["logstore.self_us_per_cycle"] = store_self * per_cycle

        step = t.total("runtime.step")
        step_self = t.self_total("runtime.step")
        m["runtime.step_us_per_cycle"] = step * per_cycle
        m["runtime.step_self_us_per_cycle"] = step_self * per_cycle
        layers = sim_self + t.total("fra.analyze_pair") + pipes_self + det_self
        m["trace.accounted_ratio"] = (layers + act_self + store_self + step_self) / step

    # -- report

    def report_lines(self, metrics: dict, units: dict) -> list[str]:
        loops, sweeps, stores = (self._flat(k) for k in KINDS)
        cycles = len(loops[0].step_s) if loops else 0
        batches = len(self.units["sweep"])
        notes = {
            "setup_s": f"median of {len(self.setup)} set-ups",
            "cycle_ms_p50": f"{cycles} cycles, each the median of {len(loops)} episodes",
            "cycle_ms_p99": f"{cycles - math.ceil(0.99 * cycles)} cycles beyond p99",
            "sweep_ms_p50": f"{SWEEP_NOISE_SEEDS} sweeps, each the median of {batches} batches",
            "sweep_ms_p95": f"{SWEEP_NOISE_SEEDS - math.ceil(0.95 * SWEEP_NOISE_SEEDS)} sweeps beyond p95",
            "store_write_rows_per_s": f"{len(stores)} store episodes",
        }
        lines = [
            f"workload {self.workload}  seed {self.seed}  main phase: {self.main}",
            f"  reference kernel: {self.speed.runs} runs, "
            f"mean {1e3 * self.speed.kernel_s / max(self.speed.runs, 1):.3f} ms "
            "(times below are scaled to 1 ms)",
        ]
        for name, value in metrics.items():
            lines.append(f"  {name:40s} {value:>14.6g} {units[name]:8s} {notes.get(name, '')}")
        if units is END_TO_END:
            lines.append(
                f"  {'failed_ratio':40s} {self.failed / self.attempted:>14.6g} {'1':8s} "
                f"{self.failed} of {self.attempted} operations"
            )
        for kind in KINDS:
            digests = sorted({u.digest for u in self._flat(kind)})
            if digests:
                joined = hashlib.sha256(" ".join(digests).encode()).hexdigest()[:16]
                lines.append(f"  digest {kind}: {joined} (over {len(digests)} distinct outputs)")
        failed = sorted(
            {name for u in self._all_units() for name, ok in u.checks.items() if not ok}
        )
        lines.append(f"  failed checks: {', '.join(failed) or 'none'}")
        return lines
