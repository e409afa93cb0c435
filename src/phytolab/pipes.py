"""Multi-rate record buffering: short, middle and long retention tiers.

Every acquisition cycle pushes one record into the short tier.  Each time a
tier completes a full span of pushes it hands the span's last record to the
tier above, so the middle tier sees one record per minute of base pushes and
the long tier one per hour, without any averaging or resampling.  Detectors
read the state of fixed-length windows kept by whichever tier matches their
time scale.

A record carries its readings as device codes, k with v = k * resolution,
and a tier stores those codes as they are, with no division or rounding;
k * resolution gives v back exactly while |k| < 2**51, as ChannelSpec checks
of every range.  A record on other channels, or with a code of 2**63 or more
in size, is refused at push, before any slot changes.  The codes are stored
column-wise: one int64 row per channel and one int64 timestamp row, every
sample written twice, at its ring slot and again one ring length further on.
The last n samples, for any n up to the ring length, are then one contiguous
slice of the doubled row, so a window is a slice copy with no gathering or
concatenation.

The window statistics read sliding state instead of windows: exact integer
sums, or sorted lists of codes for the peak.  Per (channel, samples held,
lag) a tier keeps one WindowSums: the push count it was last advanced at and
the sums of k, k**2 and the squared first differences over the window, plus
the time sums a gradient reads or the lag products a cyclical detector
reads.  The peak's order statistics read a WindowOrder, kept per (channel,
samples held): the window's codes and their absolute first differences, each
a sorted list.  Read after p more pushes, a state slides by adding each
sample that entered and removing each that left, both read back from the
tier's own ring, which keeps one slot beyond the capacity so that the sample
that just left a full window is still there.  A slide longer than the ring
allows, or than the window, rebuilds the state from the window.  Python ints
neither round nor overflow, so the sums are the same on every machine,
whatever order they were added in; a sorted list holds the same codes
whatever order they entered in.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channels import ChannelId, ChannelSpec, Record, not_after

SHORT, MIDDLE, LONG = "short", "middle", "long"
MAX_CAPACITY = 2**16  # 17 MiB for 16 channels; a longer window reads a slower tier


class WindowSums:
    """Exact sums over the last n = min(count, window) samples of a channel.

    With k_i the codes of samples lo <= i < count (lo = count - n) and t_i
    their timestamps in ms:

    - s1 = sum k_i, s2 = sum k_i**2, d2 = sum (k_i - k_(i-1))**2 over
      lo < i < count, and last = k_(count - 1), the newest code;
    - with lag L > 0: lagged = sum k_i * k_(i+L) over lo <= i < count - L,
      head and tail the sums of the first and of the last min(L, n) codes;
    - when timed: st = sum t_i, stt = sum t_i**2 and stk = sum t_i * k_i.

    A reading is resolution * k with resolution = num / den exactly (den a
    power of two; grid holds the channel spec's (num, den)), so every
    statistic of the window is a ratio of these integers.  Pipe.sums hands
    out the one instance it advances; read it before the next push.
    """

    __slots__ = (
        "window", "lag", "timed", "grid", "count", "n", "last",
        "s1", "s2", "d2", "lagged", "head", "tail", "st", "stt", "stk", "_at",
    )

    def __init__(
        self, window: int, lag: int, timed: bool, row: np.ndarray, spec: ChannelSpec
    ) -> None:
        if lag > window:
            raise ValueError(f"lag {lag} longer than the window of {window} samples")
        self.window, self.lag, self.timed = window, lag, timed
        self.grid, self._at = spec.grid, row.item
        self.count = self.n = self.last = 0
        self.s1 = self.s2 = self.d2 = self.lagged = self.head = self.tail = 0
        self.st = self.stt = self.stk = 0

    def advance(self, total: int, end: int, ring: int, stamps: np.ndarray) -> None:
        """Slide from self.count to total pushes; the newest sample sits at
        column end - 1 of the doubled rows, sample j at end - (total - j)."""
        count, window, lag, timed = self.count, self.window, self.lag, self.timed
        if total == count + 1 and self.n == window and not (lag or timed):
            # the bank's every-cycle case, the loop below unrolled: one
            # sample enters a full window, and the one before the window
            # leaves, read from the ring's extra slot
            at = self._at
            k, old, first = at(end - 1), at(end - 1 - window), at(end - window)
            self.s1 += k - old
            self.s2 += k * k - old * old
            self.d2 += (k - self.last) ** 2 - (first - old) ** 2
            self.last, self.count = k, total
            return
        if total - count > min(window, ring - window):
            count = max(0, total - window)
            n = last = s1 = s2 = d2 = lagged = head = tail = st = stt = stk = 0
        else:
            n, last, s1, s2, d2 = self.n, self.last, self.s1, self.s2, self.d2
            if lag:
                lagged, head, tail = self.lagged, self.head, self.tail
            if timed:
                st, stt, stk = self.st, self.stt, self.stk
        at = self._at
        base = end - total  # column of sample 0, an offset only

        for j in range(base + count, end):  # the columns of the entering samples
            k = at(j)
            s1 += k
            s2 += k * k
            if n:
                d2 += (k - last) ** 2
            if lag:
                if n >= lag:
                    back = at(j - lag)
                    lagged += back * k
                    tail += k - back
                else:
                    head += k
                    tail += k
            if timed:
                t = stamps.item(j)
                st += t
                stt += t * t
                stk += t * k
            last = k
            if n < window:
                n += 1
                continue
            # the window was full: its oldest sample leaves
            lo = j - window
            old = at(lo)
            s1 -= old
            s2 -= old * old
            d2 -= (at(lo + 1) - old) ** 2
            if lag:
                ahead = at(lo + lag)
                lagged -= old * ahead
                head += ahead - old
            if timed:
                t = stamps.item(lo)
                st -= t
                stt -= t * t
                stk -= t * old

        self.count, self.n, self.last, self.s1, self.s2, self.d2 = total, n, last, s1, s2, d2
        if lag:
            self.lagged, self.head, self.tail = lagged, head, tail
        if timed:
            self.st, self.stt, self.stk = st, stt, stk


class WindowOrder:
    """The last n = min(count, window) codes of a channel, in sorted order.

    values holds the codes sorted ascending, diffs the n - 1 absolute first
    differences |k_i - k_(i-1)| of the window sorted ascending, and last the
    newest code.  Pipe.order hands out the one instance it advances; read it
    before the next push.
    """

    __slots__ = ("window", "count", "n", "last", "values", "diffs", "_at")

    def __init__(self, window: int, row: np.ndarray) -> None:
        self.window, self._at = window, row.item
        self.count = self.n = self.last = 0
        self.values: list[int] = []
        self.diffs: list[int] = []

    def advance(self, total: int, end: int, ring: int) -> None:
        """Slide from self.count to total pushes, as WindowSums.advance does."""
        count, window, at = self.count, self.window, self._at
        values, diffs = self.values, self.diffs
        if total == count + 1 and self.n == window:
            # the bank's every-cycle case, the loop below unrolled
            k, old = at(end - 1), at(end - 1 - window)
            del values[bisect_left(values, old)]
            insort(values, k)
            del diffs[bisect_left(diffs, abs(at(end - window) - old))]
            insort(diffs, abs(k - self.last))
            self.count, self.last = total, k
            return
        if total - count > min(window, ring - window):
            entering = [at(j) for j in range(end - min(total, window), end)]
            values[:] = sorted(entering)
            diffs[:] = sorted([abs(b - a) for a, b in zip(entering, entering[1:])])
            self.count, self.n, self.last = total, len(entering), entering[-1]
            return
        n = self.n
        for j in range(end - (total - count), end):
            k = at(j)
            if n:
                insort(diffs, abs(k - at(j - 1)))
            insort(values, k)
            if n < window:
                n += 1
                continue
            # the window was full: its oldest sample leaves
            old = at(j - window)
            del values[bisect_left(values, old)]
            del diffs[bisect_left(diffs, abs(at(j - window + 1) - old))]
        self.count, self.n, self.last = total, n, k


class Pipe:
    """Fixed-capacity ring of records at a single cadence, stored by column.

    Once capacity is reached the oldest record is evicted.  total_pushed
    counts every record ever pushed, not just the retained ones.

    The channels, given at construction, fix the columns, their order and
    each one's grid (its spec).  A record must carry equal channels in the
    same order; one that does not, whose timestamp is not after the newest
    one's, or that holds a code past int64 is refused and changes nothing.
    Sample j's codes land in slot i = j mod (capacity + 1) of a
    (channels, 2 * (capacity + 1)) int64 array, and its timestamp in an
    array as long, at i and again at i + capacity + 1, so the retained
    samples, and the one evicted last, always sit oldest first before end,
    one past the newest.  values() returns such a slice times the resolution,
    the grid readings pushed, and timestamps_ms() a copy of one; later pushes
    change neither, and the pushed Record itself is not kept.  sums() returns
    the window's exact sums (WindowSums) and order() its sorted codes
    (WindowOrder), each advanced to the current push count.
    """

    def __init__(self, name: str, capacity: int, channels: Sequence[ChannelId]) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.name = name
        self.capacity = capacity
        self.total_pushed = 0
        self._channels = tuple(channels)
        self._rows = {ch.name: row for row, ch in enumerate(channels)}
        self._ring = capacity + 1
        self._data = np.zeros((len(channels), 2 * self._ring), dtype=np.int64)
        self._ts = np.zeros(2 * self._ring, dtype=np.int64)
        self._end = self._ring
        self._sums: dict[tuple[str, int, int, bool], WindowSums] = {}
        self._orders: dict[tuple[str, int], WindowOrder] = {}

    def push(self, record: Record) -> None:
        if self.total_pushed and record.timestamp_ms <= self._ts[self._end - 1]:
            raise not_after(
                f"pipe {self.name!r}", record.timestamp_ms, self._ts[self._end - 1]
            )
        channels = self._channels
        if record.channels is not channels and record.channels != channels:
            raise ValueError(
                f"pipe {self.name!r}: record channels {list(record.channels)} "
                f"differ from channels {list(channels)}"
            )
        try:
            column = np.array(record.codes, np.int64)
        except OverflowError:
            big = [c.name for c, k in zip(channels, record.codes) if not -2**63 <= k < 2**63]
            raise ValueError(f"pipe {self.name!r}: codes on {big} past int64") from None
        ring = self._ring
        i = self._end % ring
        self._data[:, i] = self._data[:, i + ring] = column
        self._ts[i] = self._ts[i + ring] = record.timestamp_ms
        self._end = i + ring + 1
        self.total_pushed += 1

    def __len__(self) -> int:
        return self.total_pushed if self.total_pushed < self.capacity else self.capacity

    def values(self, channel: str, n: int | None = None) -> np.ndarray:
        """Last n (all if None) of the len(self) readings of channel, oldest
        first: their codes times the resolution."""
        size = len(self)
        k = size if n is None or n > size else n
        row = self._rows[channel]
        return self._data[row, self._end - k : self._end] * self._channels[row].spec.resolution

    def timestamps_ms(self, n: int | None = None) -> np.ndarray:
        size = len(self)
        k = size if n is None or n > size else n
        return self._ts[self._end - k : self._end].copy()

    def sums(
        self, channel: str, window: int, lag: int = 0, timed: bool = False
    ) -> WindowSums:
        """Exact sums over the last min(window, capacity) samples of channel,
        one state per window held; lag products if lag, time sums if timed."""
        window = min(window, self.capacity)
        state = self._sums.get((channel, window, lag, timed))
        if state is None:
            row = self._rows[channel]
            state = WindowSums(window, lag, timed, self._data[row], self._channels[row].spec)
            self._sums[channel, window, lag, timed] = state
        if state.count != self.total_pushed:
            state.advance(self.total_pushed, self._end, self._ring, self._ts)
        return state

    def order(self, channel: str, window: int) -> WindowOrder:
        """The last min(window, capacity) codes of channel, sorted, one
        state per window held."""
        window = min(window, self.capacity)
        state = self._orders.get((channel, window))
        if state is None:
            state = WindowOrder(window, self._data[self._rows[channel]])
            self._orders[channel, window] = state
        if state.count != self.total_pushed:
            state.advance(self.total_pushed, self._end, self._ring)
        return state


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
        for name in ("short_capacity", "middle_capacity", "long_capacity"):
            if not 1 <= (capacity := getattr(self, name)) <= MAX_CAPACITY:
                raise ValueError(f"{name} must be 1 to {MAX_CAPACITY}, got {capacity}")
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
    """The three retention tiers fed from one push stream, on one set of
    channels.

    The tiers count pushes, not seconds; the cycle period is the bench
    config's.  With the default layout and a one-second period the short tier
    holds the last minute at full rate, the middle tier the last hour at one
    record per minute, and the long tier the last day at one record per hour.
    """

    def __init__(
        self, channels: Sequence[ChannelId], layout: TierLayout | None = None
    ) -> None:
        layout = layout if layout is not None else TierLayout()
        self.layout = layout
        self.short = Pipe(SHORT, layout.short_capacity, channels)
        self.middle = Pipe(MIDDLE, layout.middle_capacity, channels)
        self.long = Pipe(LONG, layout.long_capacity, channels)
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
