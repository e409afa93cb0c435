"""Multi-rate record buffering: short, middle and long retention tiers.

Every acquisition cycle pushes one record into the short tier.  Each time a
tier completes a full span of pushes it hands the span's last record to the
tier above, so the middle tier sees one record per minute of base pushes and
the long tier one per hour, without any averaging or resampling.  Detectors
read the state of fixed-length windows kept by whichever tier matches their
time scale.

A record carries its readings as a tuple of device codes, k with v = k *
resolution.  A tier is a ring of those tuples, each record's own, beside a
ring of their timestamps: two plain lists, each written once a push.

Detectors read sliding state instead of windows.  Per (channel, samples
held, lag) a tier keeps one WindowSums, exact integer sums over the window,
and per (channel, samples held) one WindowOrder, the window's codes and
absolute first differences as sorted lists, for the peak.  A state moves one
way only, by a slide: every push slides every state of its tier, adding the
sample that entered and, in a full window, removing the one that left, read
back from the ring's slot beyond the capacity; a new state is slid over the
samples its window holds, oldest first.  Python ints neither round nor
overflow, so the sums are the same on every machine, whatever order they
were added in; a sorted list holds the same codes whatever order they
entered in.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .channels import ChannelId, ChannelSpec, Record, not_after

SHORT, MIDDLE, LONG = "short", "middle", "long"
MAX_CAPACITY = 2**16  # up to 46 MiB for 16 channels; a longer window reads a slower tier


class WindowSums:
    """Exact sums over the last n (at most window) samples of a channel.

    With k_0 ... k_(n-1) the codes of those samples, oldest first, and t_i
    their timestamps in ms:

    - s1 = sum k_i, s2 = sum k_i**2, d2 = sum (k_i - k_(i-1))**2 over
      0 < i < n, and last = k_(n - 1), the newest code;
    - with lag L > 0: lagged = sum k_i * k_(i+L) over 0 <= i < n - L,
      head and tail the sums of the first and of the last min(L, n) codes;
    - when timed: st = sum t_i, stt = sum t_i**2 and stk = sum t_i * k_i.

    A reading is resolution * k with resolution = num / den exactly (den a
    power of two; grid holds the channel spec's (num, den)), so every
    statistic of the window is a ratio of these integers.  at(j) reads the
    code at ring index j and stamps[j] its timestamp.
    """

    __slots__ = (
        "window", "lag", "timed", "grid", "n", "last",
        "s1", "s2", "d2", "lagged", "head", "tail", "st", "stt", "stk", "_at", "_stamps",
    )

    def __init__(
        self, window: int, lag: int, timed: bool,
        at: Callable[[int], int], stamps: list[int], spec: ChannelSpec,
    ) -> None:
        if window < 1 or lag < 0:
            raise ValueError(f"need window >= 1 and lag >= 0, got {window} and {lag}")
        if lag > window:
            raise ValueError(f"lag {lag} longer than the window of {window} samples")
        self.window, self.lag, self.timed = window, lag, timed
        self.grid, self._at, self._stamps = spec.grid, at, stamps
        self.n = self.last = 0
        self.s1 = self.s2 = self.d2 = self.lagged = self.head = self.tail = 0
        self.st = self.stt = self.stk = 0

    def push(self, end: int) -> None:
        """Slide in the code at ring index end - 1 in a few ring reads,
        whatever the window, and, in a full window, drop the one before it."""
        at, stamps, n, lag, timed = self._at, self._stamps, self.n, self.lag, self.timed
        k = at(end - 1)
        self.s1 += k
        self.s2 += k * k
        if n:
            self.d2 += (k - self.last) ** 2
        if lag:  # k's partner lag samples back, once the window holds that many
            back = at(end - 1 - lag) if n >= lag else 0
            self.lagged += back * k
            self.tail += k - back
            if n < lag:
                self.head += k
        if timed:
            t = stamps[end - 1]
            self.st += t
            self.stt += t * t
            self.stk += t * k
        self.last = k
        if n < self.window:
            self.n = n + 1
            return
        # the window was full: the sample before it leaves, from the ring's extra slot
        lo = end - 1 - self.window
        old = at(lo)
        self.s1 -= old
        self.s2 -= old * old
        self.d2 -= (at(lo + 1) - old) ** 2
        if lag:
            ahead = at(lo + lag)
            self.lagged -= old * ahead
            self.head += ahead - old
        if timed:
            t = stamps[lo]
            self.st -= t
            self.stt -= t * t
            self.stk -= t * old


class WindowOrder:
    """The last n (at most window) codes of a channel, in sorted order.

    values holds the codes sorted ascending, diffs the n - 1 absolute first
    differences |k_i - k_(i-1)| of the window sorted ascending, and last the
    newest code.
    """

    __slots__ = ("window", "n", "last", "values", "diffs", "_at")

    def __init__(self, window: int, at: Callable[[int], int]) -> None:
        if window < 1:
            raise ValueError(f"need window >= 1, got {window}")
        self.window, self._at = window, at
        self.n = self.last = 0
        self.values: list[int] = []
        self.diffs: list[int] = []

    def push(self, end: int) -> None:
        """Slide as WindowSums.push does, inserting and deleting by binary
        search."""
        at, n = self._at, self.n
        k = at(end - 1)
        insort(self.values, k)
        if n:
            insort(self.diffs, abs(k - self.last))
        self.last = k
        if n < self.window:
            self.n = n + 1
            return
        old = at(end - 1 - self.window)  # the window was full: the sample before it leaves
        del self.values[bisect_left(self.values, old)]
        del self.diffs[bisect_left(self.diffs, abs(at(end - self.window) - old))]


class Pipe:
    """Fixed-capacity ring of records at a single cadence.

    Once capacity is reached the oldest record is evicted.  total_pushed
    counts every record ever pushed, not just the retained ones.

    The channels, given at construction, fix the columns, their order and
    each one's grid (its spec).  A record must carry equal channels in the
    same order; one that does not, or whose timestamp is not after the
    newest one's, is refused and changes nothing.
    A push writes the record's own codes tuple and its timestamp once, in
    slot end % ring of two lists of ring = capacity + 1 slots, and sets end
    to that slot plus one, so 0 < end <= ring.  The retained samples, and
    the one evicted last, sit at indices end - ring to end - 1, oldest
    first; a window state reads no other index, and Python's negative
    indexing wraps those below 0.  values() and timestamps_ms() build a
    fresh array of a window; sums() returns its exact sums (WindowSums) and
    order() its sorted codes (WindowOrder).  The pipe keeps each state it
    handed out and slides every one at each push, after the push's checks,
    so a state is current whenever it is read.
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
        self._codes: list[tuple[int, ...]] = [()] * self._ring
        self._stamps = [0] * self._ring
        self._end = self._ring
        # sums keyed (channel, window, lag, timed), orders (channel, window)
        self._states: dict[tuple, WindowSums | WindowOrder] = {}

    def push(self, record: Record) -> None:
        if self.total_pushed and record.timestamp_ms <= (newest := self._stamps[self._end - 1]):
            raise not_after(f"pipe {self.name!r}", record.timestamp_ms, newest)
        channels = self._channels
        if record.channels is not channels and record.channels != channels:
            raise ValueError(
                f"pipe {self.name!r}: record channels {list(record.channels)} "
                f"differ from channels {list(channels)}"
            )
        i = self._end % self._ring
        self._codes[i] = record.codes  # in range: Record checks every code
        self._stamps[i] = record.timestamp_ms
        self._end = end = i + 1
        self.total_pushed += 1
        for state in self._states.values():
            state.push(end)

    def __len__(self) -> int:
        return self.total_pushed if self.total_pushed < self.capacity else self.capacity

    def _window(self, n: int | None) -> range:
        """Ring indices of the last n (all if None) of the len(self) samples."""
        size = len(self)
        return range(self._end - (size if n is None or n > size else n), self._end)

    def values(self, channel: str, n: int | None = None) -> np.ndarray:
        """Last n (all if None) of the len(self) readings of channel, oldest
        first: their codes times the resolution."""
        row, codes = self._rows[channel], self._codes
        column = np.array([codes[j][row] for j in self._window(n)], np.float64)
        return column * self._channels[row].spec.resolution

    def timestamps_ms(self, n: int | None = None) -> np.ndarray:
        return np.array([self._stamps[j] for j in self._window(n)], np.int64)

    def _at(self, channel: str) -> Callable[[int], int]:
        """The reader of channel's code at a ring index, as window states take it."""
        codes, row = self._codes, self._rows[channel]
        return lambda j: codes[j][row]

    def _hold(self, key: tuple, state: WindowSums | WindowOrder) -> None:
        """Slide state over the samples its window holds, oldest first, and
        keep it under key, to slide at every push."""
        for j in self._window(state.window):
            state.push(j + 1)
        self._states[key] = state

    def sums(
        self, channel: str, window: int, lag: int = 0, timed: bool = False
    ) -> WindowSums:
        """Exact sums over the last min(window, capacity) samples of channel,
        one state per window held; lag products if lag, time sums if timed."""
        window = min(window, self.capacity)
        key = channel, window, lag, timed
        if (state := self._states.get(key)) is None:
            spec = self._channels[self._rows[channel]].spec
            state = WindowSums(window, lag, timed, self._at(channel), self._stamps, spec)
            self._hold(key, state)
        return state

    def order(self, channel: str, window: int) -> WindowOrder:
        """The last min(window, capacity) codes of channel, sorted, one
        state per window held."""
        window = min(window, self.capacity)
        if (state := self._states.get((channel, window))) is None:
            state = WindowOrder(window, self._at(channel))
            self._hold((channel, window), state)
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
