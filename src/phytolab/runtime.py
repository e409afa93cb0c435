"""The acquisition loop: simulator to tiers to detectors to actuators to disk.

One step() performs a full cycle at the virtual clock's current time: acquire
a record, push it through the retention tiers, evaluate the detector bank,
let the actuation engine fire bindings, and persist both the record and the
detector output vector.  The clock is virtual, so a day of bench time runs in
seconds and two runs from the same configuration are byte-identical on disk.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from pathlib import Path

from .actuation import ActuationEngine, Firing, firing_line
from .config import BenchConfig
from .detectors import DetectorBank
from .logstore import LogStore, count_rows, emit_report, iter_store
from .pipes import TieredPipes

REPORT_MAX_POINTS = 1200  # a report charts about this many points per channel


@dataclass(frozen=True)
class RunSummary:
    cycles: int
    firings: int
    errors: int
    wall_seconds: float
    mean_cycle_ms: float
    out_dir: Path


class Runtime:
    """Wires a BenchConfig into a runnable bench in a fresh output directory."""

    def __init__(
        self, config: BenchConfig, out_dir: str | Path | None = None
    ) -> None:
        self.config = config
        self.out_dir = Path(out_dir) if out_dir is not None else Path(config.log_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.now_ms = 0  # the virtual clock, advanced one period per step
        self._period_ms = config.period_ms

        self.simulator = config.build_simulator()

        self.tiers = TieredPipes(config.tier_layout)
        self.bank = DetectorBank(config.detectors)
        bindings, self.actuators = config.build_bindings(
            self.out_dir, simulator=self.simulator
        )
        self.engine = ActuationEngine(bindings, seed=config.seed)

        self.record_store = LogStore(
            self.out_dir / "records",
            columns=[c.name for c in config.channels],
            segment_bytes=config.store.segment_bytes,
            capacity_bytes=config.store.capacity_bytes,
        )
        self.vector_store = None
        if config.detectors:
            self.vector_store = LogStore(
                self.out_dir / "vectors",
                columns=[d.id for d in config.detectors],
                segment_bytes=config.store.segment_bytes,
                capacity_bytes=config.store.capacity_bytes,
            )
        self._firing_log = open(
            self.out_dir / "firings.log", "a", encoding="utf-8"
        )
        self.fired_total = 0
        self._wall_seconds = 0.0
        self._cycles = 0

    # -- single cycle

    def step(self) -> list[Firing]:
        started = time.perf_counter()
        now = self.now_ms
        record = self.simulator.record_at(now)
        self.tiers.push(record)
        vector = self.bank.evaluate(self.tiers, now)
        firings = self.engine.cycle(vector, now)
        self.record_store.append(record)
        if self.vector_store is not None:
            self.vector_store.append_row(now, vector)
        for firing in firings:
            self._firing_log.write(
                firing_line(firing.at_ms, firing.binding_id, firing.payload)
            )
        if firings:
            # a crash must not lose a firing whose actuator already acted
            self._firing_log.flush()
        self.fired_total += len(firings)
        self.now_ms += self._period_ms
        self._cycles += 1
        self._wall_seconds += time.perf_counter() - started
        return firings

    # -- full run

    def run(
        self, cycles: int | None = None, wall_clock: bool = False
    ) -> RunSummary:
        """Run the loop to completion.

        With wall_clock the loop sleeps out the remainder of each period so
        cycles land on real-time deadlines; the data on disk is the same
        either way because all values derive from the virtual clock.
        """
        if cycles is None:
            cycles = self.config.cycles_in(self.config.duration_s)
        deadline = time.monotonic()
        for _ in range(cycles):
            self.step()
            if wall_clock:
                deadline += self._period_ms / 1000.0
                pause = deadline - time.monotonic()
                if pause > 0.0:
                    time.sleep(pause)
        self.close()
        if self.config.report:
            self.emit_report(self.config.report)
        return self.summary()

    def summary(self) -> RunSummary:
        mean_ms = 1000.0 * self._wall_seconds / self._cycles if self._cycles else 0.0
        return RunSummary(
            cycles=self._cycles,
            firings=self.fired_total,
            errors=self.engine.dispatch_errors,
            wall_seconds=self._wall_seconds,
            mean_cycle_ms=mean_ms,
            out_dir=self.out_dir,
        )

    def close(self) -> None:
        self.record_store.close()
        if self.vector_store is not None:
            self.vector_store.close()
        if not self._firing_log.closed:
            self._firing_log.close()

    def __enter__(self) -> "Runtime":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- reporting

    def emit_report(self, filename: str) -> Path:
        """Chart every record channel from the store into one HTML file."""
        root = self.out_dir / "records"
        # count lines first, so only the charted records are ever held in
        # memory; the picking pass parses, and so checks, every row
        stride = max(1, count_rows(root) // REPORT_MAX_POINTS)
        picked = list(itertools.islice(iter_store(root), 0, None, stride))
        series = []
        if picked:
            ts = [r.timestamp_ms for r in picked]
            for chan in self.config.channels:
                series.append(
                    (chan.name, ts, [r.values[chan.name] for r in picked])
                )
        out = self.out_dir / filename
        title = (
            f"bench run: {self._cycles} cycles, {self.fired_total} actuations"
        )
        emit_report(out, title, series)
        return out
