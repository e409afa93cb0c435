"""Multi-rate record buffering: short, middle and long retention tiers.

Every acquisition cycle pushes one record into the short tier.  Each time a
tier completes a full span of pushes it hands the span's last record to the
tier above, so the middle tier sees one record per minute of base pushes and
the long tier one per hour, without any averaging or resampling.  Detectors
read fixed-length windows out of whichever tier matches their time scale.

Each tier stores its readings column-wise: one float64 row per channel and
one int64 timestamp row, every sample written twice, at its ring slot and
again one capacity further on.  The last n samples, for any n up to the
capacity, are then one contiguous slice of the doubled row, so a window is a
slice copy with no gathering or concatenation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import Record

SHORT, MIDDLE, LONG = "short", "middle", "long"


class Pipe:
    """Fixed-capacity ring of records at a single cadence, stored by column.

    Push order must have strictly increasing timestamps; once capacity is
    reached the oldest record is evicted.  total_pushed counts every record
    ever pushed, not just the retained ones.

    The first record pushed fixes the channel columns, names and order; a
    later record with other names, or the same names in another order, is
    refused.  Sample k lands in slot i = k mod capacity of a
    (channels, 2 * capacity) float64 array and of a 2 * capacity int64
    timestamp array, at i and again at i + capacity, so the retained samples
    always sit oldest first in [end - len, end), with end one past the
    newest.  values() and timestamps_ms() return copies of such slices, which
    later pushes cannot change.  latest is the pushed Record object itself;
    records() rebuilds Records from the columns.
    """

    def __init__(self, name: str, capacity: int, period_s: float) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if period_s <= 0:
            raise ValueError(f"period must be positive, got {period_s}")
        self.name = name
        self.capacity = capacity
        self.period_s = period_s
        self.total_pushed = 0
        self._names: tuple[str, ...] | None = None
        self._rows: dict[str, int] = {}
        self._data = np.empty((0, 2 * capacity), dtype=np.float64)
        self._ts = np.zeros(2 * capacity, dtype=np.int64)
        self._end = capacity
        self._latest: Record | None = None

    def push(self, record: Record) -> None:
        latest = self._latest
        if latest is not None and record.timestamp_ms <= latest.timestamp_ms:
            raise ValueError(
                f"pipe {self.name!r}: timestamp {record.timestamp_ms} not after "
                f"{latest.timestamp_ms}"
            )
        values = record.values
        names = tuple(values)
        if names != self._names:
            if self._names is not None:
                raise ValueError(
                    f"pipe {self.name!r}: record channels {list(names)} differ "
                    f"from {list(self._names)}"
                )
            self._names = names
            self._rows = {name: row for row, name in enumerate(names)}
            self._data = np.zeros((len(names), 2 * self.capacity), dtype=np.float64)
        column = np.fromiter(values.values(), np.float64, len(names))
        cap = self.capacity
        i = self._end % cap
        self._data[:, i] = self._data[:, i + cap] = column
        self._ts[i] = self._ts[i + cap] = record.timestamp_ms
        self._end = i + cap + 1
        self._latest = record
        self.total_pushed += 1

    def __len__(self) -> int:
        return min(self.total_pushed, self.capacity)

    @property
    def latest(self) -> Record | None:
        return self._latest

    def records(self) -> tuple[Record, ...]:
        """Retained records, oldest first, rebuilt from the columns."""
        window = slice(self._end - len(self), self._end)
        return tuple(
            Record(timestamp_ms=t, values=dict(zip(self._names, column)))
            for t, column in zip(
                self._ts[window].tolist(), self._data[:, window].T.tolist()
            )
        )

    def values(self, channel: str, n: int | None = None) -> np.ndarray:
        """Last n readings of one channel, oldest first (all retained if n is None)."""
        size = len(self)
        if not size:
            return np.empty(0, dtype=np.float64)
        k = size if n is None or n > size else n
        return self._data[self._rows[channel], self._end - k : self._end].copy()

    def timestamps_ms(self, n: int | None = None) -> np.ndarray:
        size = len(self)
        k = size if n is None or n > size else n
        return self._ts[self._end - k : self._end].copy()


@dataclass(frozen=True)
class TierLayout:
    """Capacities and hand-off spans of the three tiers.

    middle_stride counts base pushes per middle record, long_stride base
    pushes per long record; long_stride must be a multiple of middle_stride
    so hand-offs cascade cleanly.
    """

    short_capacity: int = 60
    middle_capacity: int = 60
    long_capacity: int = 24
    middle_stride: int = 60
    long_stride: int = 3600

    def __post_init__(self) -> None:
        if min(self.short_capacity, self.middle_capacity, self.long_capacity) < 1:
            raise ValueError("tier capacities must be >= 1")
        if self.middle_stride < 2 or self.long_stride <= self.middle_stride:
            raise ValueError(
                f"strides must grow: 1 < {self.middle_stride} < {self.long_stride}"
            )
        if self.long_stride % self.middle_stride != 0:
            raise ValueError(
                f"long stride {self.long_stride} not a multiple of "
                f"middle stride {self.middle_stride}"
            )


class TieredPipes:
    """The three retention tiers fed from one push stream.

    With the default layout and a one-second base period the short tier holds
    the last minute at full rate, the middle tier the last hour at one record
    per minute, and the long tier the last day at one record per hour.
    """

    def __init__(self, base_period_s: float = 1.0, layout: TierLayout | None = None):
        layout = layout if layout is not None else TierLayout()
        self.layout = layout
        self.short = Pipe(SHORT, layout.short_capacity, base_period_s)
        self.middle = Pipe(
            MIDDLE, layout.middle_capacity, base_period_s * layout.middle_stride
        )
        self.long = Pipe(LONG, layout.long_capacity, base_period_s * layout.long_stride)
        self._tiers = {SHORT: self.short, MIDDLE: self.middle, LONG: self.long}

    def tier(self, name: str) -> Pipe:
        try:
            return self._tiers[name]
        except KeyError:
            raise KeyError(f"unknown tier {name!r}, expected one of {list(self._tiers)}")

    def push(self, record: Record) -> None:
        """Feed one base-rate record.

        The record closing a middle-stride span is handed to the middle tier,
        and the one closing a long-stride span also to the long tier, so the
        slower tiers always carry real samples, not aggregates.
        """
        self.short.push(record)
        if self.short.total_pushed % self.layout.middle_stride == 0:
            self.middle.push(record)
        if self.short.total_pushed % self.layout.long_stride == 0:
            self.long.push(record)
