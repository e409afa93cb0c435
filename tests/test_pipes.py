"""Tier cadence and ring-buffer behaviour, checked by direct enumeration,
and the window sums and order, checked against a recompute from the window."""

import re
from collections import deque

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from phytolab.channels import CHANNEL_SPECS, ChannelId, ChannelKind, Record
from phytolab.logstore import LogStore, iter_store
from phytolab.pipes import Pipe, TierLayout, TieredPipes

X = (ChannelId("x", ChannelKind.LIGHT),)
AB = (ChannelId("a", ChannelKind.IMPEDANCE_1), ChannelId("b", ChannelKind.BIOPOTENTIAL_1))


def rec(t_s, v=0.0):
    """A record of X holding the code of v's nearest 0.1 lux grid point,
    round(v / resolution)."""
    return Record(t_s * 1000, (round(v / X[0].spec.resolution),), X)


def test_pipe_capacity_and_eviction_order():
    p = Pipe("short", 3, X)
    for t in range(5):
        p.push(rec(t, float(t)))
    assert len(p) == 3
    assert p.timestamps_ms().tolist() == [2000, 3000, 4000]
    assert p.total_pushed == 5
    assert p.values("x").tolist() == [2.0, 3.0, 4.0]


def test_pipe_rejects_non_increasing_timestamps():
    p = Pipe("short", 3, X)
    p.push(rec(5))
    with pytest.raises(ValueError):
        p.push(rec(5))
    with pytest.raises(ValueError):
        p.push(rec(4))


def test_pipe_values_window():
    p = Pipe("short", 10, X)
    for t in range(6):
        p.push(rec(t, float(t * t)))
    np.testing.assert_array_equal(p.values("x"), [0.0, 1.0, 4.0, 9.0, 16.0, 25.0])
    np.testing.assert_array_equal(p.values("x", 2), [16.0, 25.0])
    np.testing.assert_array_equal(p.values("x", 99), p.values("x"))
    np.testing.assert_array_equal(p.timestamps_ms(3), [3000, 4000, 5000])


def test_layout_validation():
    with pytest.raises(ValueError, match="capacity must be >= 1, got 0"):
        Pipe("short", 0, X)
    with pytest.raises(ValueError):
        TierLayout(short_capacity=0)
    with pytest.raises(ValueError):
        TierLayout(middle_stride=1)
    with pytest.raises(ValueError):
        TierLayout(long_stride=60, middle_stride=60)
    with pytest.raises(ValueError):
        TierLayout(middle_stride=60, long_stride=3601)


def test_one_day_of_pushes_fills_tiers_to_60_60_24():
    tiers = TieredPipes(X)
    for t in range(86_400):
        tiers.push(rec(t, float(t)))
    assert tiers.short.total_pushed == 86_400
    assert tiers.middle.total_pushed == 1_440
    assert tiers.long.total_pushed == 24
    assert len(tiers.short) == 60
    assert len(tiers.middle) == 60
    assert len(tiers.long) == 24


def assert_newest_equal(slower, short):
    """The slower tier's newest sample is the short tier's, stamp and value."""
    assert slower.timestamps_ms(1).tolist() == short.timestamps_ms(1).tolist()
    assert slower.values("x", 1).tolist() == short.values("x", 1).tolist()


def test_handoff_is_last_record_of_completed_span():
    tiers = TieredPipes(X)
    for t in range(120):
        tiers.push(rec(t, float(t)))
        assert tiers.middle.total_pushed == (t + 1) // 60
        if t == 59 or t == 119:
            assert_newest_equal(tiers.middle, tiers.short)
    # middle carries the closing sample of each minute, not an average
    assert tiers.middle.timestamps_ms().tolist() == [59_000, 119_000]
    assert tiers.middle.values("x").tolist() == [59.0, 119.0]


def test_long_tier_receives_hourly_closing_sample():
    tiers = TieredPipes(X)
    for t in range(7200):
        tiers.push(rec(t, float(t)))
        assert tiers.long.total_pushed == (t + 1) // 3600
        if t == 3599 or t == 7199:
            assert_newest_equal(tiers.middle, tiers.short)
            assert_newest_equal(tiers.long, tiers.short)
    assert tiers.long.timestamps_ms().tolist() == [3_599_000, 7_199_000]
    assert tiers.long.values("x").tolist() == [3599.0, 7199.0]


def test_tier_lookup():
    tiers = TieredPipes(X)
    assert tiers.tier("short") is tiers.short
    assert tiers.tier("long") is tiers.long
    with pytest.raises(KeyError):
        tiers.tier("weekly")


@given(n=st.integers(min_value=0, max_value=5000))
@settings(max_examples=30, deadline=None)
def test_counts_match_integer_division(n):
    layout = TierLayout(
        short_capacity=7, middle_capacity=5, long_capacity=3,
        middle_stride=10, long_stride=50,
    )
    tiers = TieredPipes(X, layout)
    for t in range(n):
        tiers.push(rec(t))
    assert tiers.short.total_pushed == n
    assert tiers.middle.total_pushed == n // 10
    assert tiers.long.total_pushed == n // 50
    assert len(tiers.short) == min(n, 7)
    assert len(tiers.middle) == min(n // 10, 5)
    assert len(tiers.long) == min(n // 50, 3)


C = ChannelId("c", ChannelKind.LIGHT)
OTHERS = (AB[:1], (AB[0], C), (*AB, C))


def test_pipe_refuses_records_with_other_channels():
    p = Pipe("short", 4, AB)
    # the channels are fixed at construction, so a first record is held to
    # them too, and a refused one leaves the ring empty
    for chans in OTHERS:
        with pytest.raises(ValueError, match="channels"):
            p.push(Record(0, [1] * len(chans), chans))
    assert len(p) == 0 and p.total_pushed == 0
    p.push(Record(0, (1000, 2), AB))
    for chans in OTHERS:
        with pytest.raises(ValueError, match="channels"):
            p.push(Record(1000, [1] * len(chans), chans))
    # a refused record leaves the ring as it was
    assert len(p) == 1 and p.total_pushed == 1
    np.testing.assert_array_equal(p.values("b"), [2 * 64e-9])
    np.testing.assert_array_equal(p.timestamps_ms(), [0])


def test_pipe_refuses_a_reordered_record():
    """A record's codes are in its channels' order, so a record whose
    channels are the pipe's reordered, or the same names of other kinds, is
    refused before any slot changes; one with equal channels is taken."""
    p = Pipe("short", 4, AB)
    p.push(Record(0, (1000, 2), AB))
    before = states(p)
    ring = [(p.values(ch).tobytes(), p.timestamps_ms().tobytes()) for ch in "ab"]
    swapped = (ChannelId("a", ChannelKind.BIOPOTENTIAL_1), ChannelId("b", ChannelKind.IMPEDANCE_1))
    for chans in (AB[::-1], swapped):
        with pytest.raises(ValueError, match="differ from channels"):
            p.push(Record(1000, (2, 1000), chans))
        assert p.total_pushed == 1 and states(p) == before
        assert [(p.values(ch).tobytes(), p.timestamps_ms().tobytes()) for ch in "ab"] == ring
    p.push(Record(1000, (3000, 4), [ChannelId(c.name, c.kind) for c in AB]))
    np.testing.assert_array_equal(p.values("a"), [1.0, 3.0])
    np.testing.assert_array_equal(p.values("b"), [2 * 64e-9, 4 * 64e-9])


def test_a_stale_record_leaves_every_state_as_it_was():
    """A record whose timestamp is not after the newest one's is refused
    before any state slides, also once the windows are full and the ring
    wraps."""
    p = Pipe("short", 3, AB)
    for t in range(1, 7):
        p.push(Record(t, (t, t % 3), AB))
        before = states(p)
        for stale in (t, t - 1):
            with pytest.raises(ValueError, match="not after"):
                p.push(Record(stale, (7, 1), AB))
            assert p.total_pushed == t and states(p) == before


def test_pipe_unknown_channel_and_empty_windows():
    p = Pipe("short", 4, X)
    # nothing pushed yet: every window of a known channel is empty, and an
    # unknown channel is refused whether or not the pipe holds samples
    assert p.values("x").shape == (0,)
    assert p.values("x").dtype == np.float64
    assert p.timestamps_ms().shape == (0,)
    assert p.timestamps_ms().dtype == np.int64
    with pytest.raises(KeyError):
        p.values("anything")
    p.push(rec(0, 1.0))
    with pytest.raises(KeyError):
        p.values("y")


def _window(model, n):
    """The reference window: the last n of the deque, all if n is None."""
    kept = list(model)
    k = len(kept) if n is None else min(n, len(kept))
    return kept[len(kept) - k:]


# codes across each channel's range: impedance codes reach 10**12, and the
# biopotential grid of 64 nV is not a power of ten
IMPEDANCE_CODES = st.one_of(
    st.integers(0, 10**12), st.integers(10**12 - 50, 10**12), st.integers(0, 3)
)
BIO_SPEC = AB[1].spec
BIO_CODES = st.integers(BIO_SPEC.code_lo, BIO_SPEC.code_hi)
# a gap <= 0 after the first push is a stale timestamp, which must be refused
gaps = st.one_of(st.integers(min_value=1, max_value=10**9), st.integers(-3, 0))


@given(
    capacity=st.integers(min_value=1, max_value=8),
    pushes=st.lists(
        st.tuples(gaps, IMPEDANCE_CODES, BIO_CODES),
        max_size=25,
    ),
)
# both ends of each range, and zero codes
@example(
    capacity=2,
    pushes=[(1, 10**12, BIO_SPEC.code_lo), (1, 0, BIO_SPEC.code_hi), (1, 0, 0), (0, 1, 1)],
)
@settings(max_examples=200, deadline=None)
def test_pipe_matches_a_deque_of_records(capacity, pushes):
    """The columnar ring reads back exactly what a deque(maxlen) of the same
    records holds, bit for bit, and arrays handed out earlier never change.
    A stale push raises and leaves the ring as it was, also once wrapped."""
    pipe = Pipe("p", capacity, AB)
    model: deque[Record] = deque(maxlen=capacity)
    handed_out: list[tuple[np.ndarray, bytes]] = []
    t = 0
    pushed = 0
    for gap, a, b in pushes:
        record = Record(t + gap, (a, b), AB)
        if gap <= 0 and model:
            with pytest.raises(ValueError, match="not after"):
                pipe.push(record)
        else:
            t += gap
            pipe.push(record)
            model.append(record)
            pushed += 1
        assert len(pipe) == len(model)
        assert pipe.total_pushed == pushed
        for n in (None, 0, 1, len(model), capacity, capacity + 3):
            want = _window(model, n)
            for ch in ("a", "b"):
                got = pipe.values(ch, n)
                expected = np.array([r.values[ch] for r in want], dtype=np.float64)
                assert got.dtype == np.float64
                assert got.tobytes() == expected.tobytes()
                handed_out.append((got, got.tobytes()))
            stamps = pipe.timestamps_ms(n)
            assert stamps.dtype == np.int64
            assert stamps.tolist() == [r.timestamp_ms for r in want]
            handed_out.append((stamps, stamps.tobytes()))
        for array, snapshot in handed_out:
            assert array.tobytes() == snapshot


# --- window sums: the sliding state against a recompute from the window


def window_codes(pipe, channel, window):
    """The codes of the pipe's last window readings of channel."""
    resolution = {c.name: c for c in X + AB}[channel].spec.resolution
    return [round(v / resolution) for v in pipe.values(channel, window).tolist()]


def recomputed(pipe, channel, window, lag, timed):
    """The sums WindowSums must hold, from the pipe's window and stamps."""
    k = window_codes(pipe, channel, window)
    t = pipe.timestamps_ms(window).tolist()
    n = len(k)
    want = {
        "n": n,
        "s1": sum(k),
        "s2": sum(c * c for c in k),
        "d2": sum((k[i] - k[i - 1]) ** 2 for i in range(1, n)),
    }
    if n:
        want["last"] = k[-1]
    if lag:
        want["lagged"] = sum(k[i] * k[i + lag] for i in range(n - lag))
        want["head"] = sum(k[:lag])
        want["tail"] = sum(k[max(0, n - lag):])
    if timed:
        want["st"] = sum(t)
        want["stt"] = sum(s * s for s in t)
        want["stk"] = sum(s * c for s, c in zip(t, k))
    return want


def held(state, want):
    return {name: getattr(state, name) for name in want}


def sorted_window(codes):
    """The codes and absolute first differences WindowOrder must hold."""
    return sorted(codes), sorted(abs(b - a) for a, b in zip(codes, codes[1:]))


def assert_order_is_recomputed(pipe, channel, window):
    codes = window_codes(pipe, channel, window)
    state = pipe.order(channel, window)
    assert (state.values, state.diffs) == sorted_window(codes)
    assert (state.n, state.last) == (len(codes), codes[-1] if codes else 0)


class SlidingSums(RuleBasedStateMachine):
    """Pushes, skipped reads and runs of pushes longer than the ring,
    interleaved: every read of the sums or of the order equals a recompute
    from the window, for states made early and read after every step
    (eager), so slid by every push, and for states first read late (lazy),
    so slid in over the window they hold at that moment, at their creation,
    and by every push after.  Two pipes take the same pushes: one of
    capacity 7, and one of capacity 1, whose ring has two slots, so every
    other push its full windows read the sample that leaves them, and its
    lag partner and timestamp, through a negative index."""

    def __init__(self) -> None:
        super().__init__()
        self.pipes = (Pipe("p", 7, AB), Pipe("one", 1, AB))
        self.t = 0
        self.eager = {
            self.pipes[0]: [("a", 7, 0, False), ("b", 3, 2, True), ("a", 60, 6, True)],
            self.pipes[1]: [("a", 1, 0, False), ("b", 3, 1, True), ("a", 60, 1, True)],
        }
        self.eager_orders = {self.pipes[0]: [("a", 7), ("b", 3)], self.pipes[1]: [("a", 7)]}

    def _push(self, gap, a, b):
        self.t += gap
        for pipe in self.pipes:
            pipe.push(Record(self.t, (a, b), AB))

    @rule(gap=st.integers(1, 10**9), a=IMPEDANCE_CODES, b=BIO_CODES)
    def push(self, gap, a, b):
        self._push(gap, a, b)

    @rule(
        count=st.integers(2, 20),
        a=st.lists(IMPEDANCE_CODES, min_size=1, max_size=3),
        b=st.lists(BIO_CODES, min_size=1, max_size=3),
    )
    def push_many(self, count, a, b):
        for i in range(count):
            self._push(1 + i % 3, a[i % len(a)], b[i % len(b)])

    @rule(
        channel=st.sampled_from("ab"),
        window=st.integers(1, 9),
        lag=st.integers(0, 8),
        timed=st.booleans(),
    )
    def read(self, channel, window, lag, timed):
        for pipe in self.pipes:
            if lag > min(window, pipe.capacity):
                # no lag product spans a window that short: refused, not summed
                with pytest.raises(ValueError, match="longer than the window"):
                    pipe.sums(channel, window, lag, timed)
                continue
            want = recomputed(pipe, channel, window, lag, timed)
            assert held(pipe.sums(channel, window, lag, timed), want) == want
            assert_order_is_recomputed(pipe, channel, window)

    @invariant()
    def eager_states_equal_a_recompute(self):
        for pipe in self.pipes:
            for key in self.eager[pipe]:
                want = recomputed(pipe, *key)
                assert held(pipe.sums(*key), want) == want
            for key in self.eager_orders[pipe]:
                assert_order_is_recomputed(pipe, *key)


TestSlidingSums = SlidingSums.TestCase
TestSlidingSums.settings = settings(max_examples=60, stateful_step_count=40, deadline=None)


def test_sums_refuse_a_lag_longer_than_the_window():
    pipe = Pipe("p", 4, X)
    with pytest.raises(ValueError, match="lag 4 longer than the window of 3"):
        pipe.sums("x", 3, 4)
    # the window held is min(window, capacity)
    with pytest.raises(ValueError, match="lag 5 longer than the window of 4"):
        pipe.sums("x", 60, 5)
    assert pipe.sums("x", 4, 4).lag == 4


def test_states_refuse_a_window_below_one_or_a_negative_lag():
    pipe = Pipe("p", 4, X)
    for t in range(4):
        pipe.push(rec(t, 0.1 * t))
    for window, lag in ((0, 0), (-3, 0), (3, -1), (0, -1)):
        refusal = re.escape(f"need window >= 1 and lag >= 0, got {window} and {lag}")
        for timed in (False, True):
            with pytest.raises(ValueError, match=refusal):
                pipe.sums("x", window, lag, timed)
    for window in (0, -3):
        with pytest.raises(ValueError, match=re.escape(f"need window >= 1, got {window}")):
            pipe.order("x", window)
    # the shortest window is taken: it holds the newest code
    assert (pipe.sums("x", 1).n, pipe.sums("x", 1).s1) == (1, 3)
    assert pipe.order("x", 1).values == [3]


def counting(at, reads):
    """at, a state's row reader, counting each call in reads[0]."""

    def read(j):
        reads[0] += 1
        return at(j)

    return read


@pytest.mark.parametrize("window", [1, 1000])
@pytest.mark.parametrize("kind", ["plain", "lagged", "timed", "order"])
def test_a_one_push_move_reads_the_ring_a_fixed_number_of_times(kind, window):
    """Each push slides a state in a number of ring reads fixed by its kind
    and by whether the window is full, whatever the window: the code that
    entered (and, lagged, its partner lag back) while the window fills, and
    the code that left and its neighbour (and, lagged, its partner) once it
    is full.  A read after the push reads the ring no more."""
    pipe = Pipe("p", 1000, X)
    lag = min(5, window) if kind == "lagged" else 0
    read = {
        "plain": lambda: pipe.sums("x", window),
        "lagged": lambda: pipe.sums("x", window, lag),
        "timed": lambda: pipe.sums("x", window, timed=True),
        "order": lambda: pipe.order("x", window),
    }[kind]
    state, reads = read(), [0]
    state._at = counting(state._at, reads)
    counts = []
    for t in range(2000):
        before = reads[0]
        pipe.push(rec(t, 0.1 * (t * 7919 % 1000)))
        pushed = reads[0]
        assert read() is state
        assert reads[0] == pushed
        counts.append(pushed - before)
    filling = [1] * lag + [1 + bool(lag)] * (window - lag)
    assert counts == filling + [3 + 2 * bool(lag)] * (2000 - window)
    if kind == "order":
        assert_order_is_recomputed(pipe, "x", window)
    else:
        want = recomputed(pipe, "x", window, lag, kind == "timed")
        assert held(state, want) == want


SUMS = ("n", "last", "s1", "s2", "d2", "lagged", "head", "tail", "st", "stt", "stk")


def states(pipe):
    """Every state a read makes, with what it holds: the order of a and b
    and sums of b, plain, lagged and timed."""
    held = {}
    for window in (2, 3):
        state = pipe.order("b", window)
        held["order", window] = (state.n, state.last, state.values[:], state.diffs[:])
    for key in (("b", 2, 0, False), ("b", 3, 1, True), ("a", 3, 2, False)):
        state = pipe.sums(*key)
        held[key] = {name: getattr(state, name) for name in SUMS}
    return held


IMPEDANCE_SPEC = AB[0].spec
OUTSIDE = {
    "code_hi+1": BIO_SPEC.code_hi + 1,
    "code_lo-1": BIO_SPEC.code_lo - 1,
    "2**63": 2**63,
    "-2**63-1": -(2**63) - 1,
    "10**300": 10**300,
}


@pytest.mark.parametrize("bad", OUTSIDE.values(), ids=OUTSIDE.keys())
def test_record_refuses_a_code_outside_its_range(bad, tmp_path):
    """A code outside its channel's [code_lo, code_hi] is refused when the
    Record is made, naming the channel and the range, so no tier or store
    meets it.  Both range ends are taken, the tier and the store agree on
    them (the stored cell encodes back to the code the tier holds), and the
    states read before stay exact as the ends are pushed."""
    refusal = re.escape(
        f"code {bad} on 'b' outside its range [{BIO_SPEC.code_lo}, {BIO_SPEC.code_hi}]"
    )
    with pytest.raises(ValueError, match=refusal):
        Record(9, (500, bad), AB)
    pipe = Pipe("p", 3, AB)
    for t in range(4):
        pipe.push(Record(t, (t, t % 3), AB))
    states(pipe)  # read every state once, so each end slides it by one push
    ends = [
        (IMPEDANCE_SPEC.code_hi, BIO_SPEC.code_lo),
        (IMPEDANCE_SPEC.code_lo, BIO_SPEC.code_hi),
        (IMPEDANCE_SPEC.code_hi, BIO_SPEC.code_hi),
    ]
    codes = [0, 1, 2, 0]
    with LogStore(tmp_path / "s", columns=["a", "b"]) as store:
        for t, pair in enumerate(ends, start=4):
            record = Record(t, pair, AB)
            pipe.push(record)
            store.append(record)
            codes.append(pair[1])
            for window in (2, 3):
                state = pipe.order("b", window)
                assert (state.values, state.diffs) == sorted_window(codes[-window:])
            for key in (("b", 2, 0, False), ("b", 3, 1, True), ("a", 3, 2, False)):
                want = recomputed(pipe, *key)
                assert held(pipe.sums(*key), want) == want
    stored = list(iter_store(tmp_path / "s"))
    for i, ch in enumerate(AB):
        assert [ch.spec.encode(row.values[ch.name]) for row in stored] == [e[i] for e in ends]
        assert pipe.values(ch.name).tolist() == [row.values[ch.name] for row in stored]


def test_order_window_is_capped_at_the_capacity():
    pipe = Pipe("p", 4, X)
    codes = [100 + (-1) ** t * 10 * t for t in range(9)]  # light's grid is 0.1
    for t, k in enumerate(codes):
        pipe.push(rec(t, k * 0.1))
    state = pipe.order("x", 60)
    assert state is pipe.order("x", 4) is pipe.order("x", 5)
    assert (state.values, state.diffs) == sorted_window(codes[-4:])
    assert (state.n, state.last) == (4, 180)


def test_sums_window_is_capped_at_the_capacity():
    pipe = Pipe("p", 4, X)
    for t in range(9):
        pipe.push(rec(t, 0.1 * t))
    want = recomputed(pipe, "x", 4, 0, False)
    assert want["n"] == 4
    assert held(pipe.sums("x", 60), want) == held(pipe.sums("x", 4), want) == want
    # one state per window held: every window past the capacity reads it
    assert pipe.sums("x", 60) is pipe.sums("x", 4) is pipe.sums("x", 5)


def test_every_channel_kind_resolution_is_an_exact_ratio():
    for spec in CHANNEL_SPECS.values():
        num, den = spec.resolution.as_integer_ratio()
        assert num / den == spec.resolution and den & (den - 1) == 0
