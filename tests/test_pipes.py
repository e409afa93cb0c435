"""Tier cadence and ring-buffer behaviour, checked by direct enumeration."""

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from phytolab.channels import Record
from phytolab.pipes import Pipe, TierLayout, TieredPipes


def rec(t_s, v=0.0):
    return Record(timestamp_ms=t_s * 1000, values={"x": v})


def test_pipe_capacity_and_eviction_order():
    p = Pipe("short", 3, 1.0)
    for t in range(5):
        p.push(rec(t, float(t)))
    assert len(p) == 3
    assert [r.timestamp_ms for r in p.records()] == [2000, 3000, 4000]
    assert p.total_pushed == 5
    assert p.latest.values["x"] == 4.0


def test_pipe_rejects_non_increasing_timestamps():
    p = Pipe("short", 3, 1.0)
    p.push(rec(5))
    with pytest.raises(ValueError):
        p.push(rec(5))
    with pytest.raises(ValueError):
        p.push(rec(4))


def test_pipe_values_window():
    p = Pipe("short", 10, 1.0)
    for t in range(6):
        p.push(rec(t, float(t * t)))
    np.testing.assert_array_equal(p.values("x"), [0.0, 1.0, 4.0, 9.0, 16.0, 25.0])
    np.testing.assert_array_equal(p.values("x", 2), [16.0, 25.0])
    np.testing.assert_array_equal(p.values("x", 99), p.values("x"))
    np.testing.assert_array_equal(p.timestamps_ms(3), [3000, 4000, 5000])


def test_layout_validation():
    with pytest.raises(ValueError):
        TierLayout(short_capacity=0)
    with pytest.raises(ValueError):
        TierLayout(middle_stride=1)
    with pytest.raises(ValueError):
        TierLayout(long_stride=60, middle_stride=60)
    with pytest.raises(ValueError):
        TierLayout(middle_stride=60, long_stride=3601)


def test_one_day_of_pushes_fills_tiers_to_60_60_24():
    tiers = TieredPipes(base_period_s=1.0)
    for t in range(86_400):
        tiers.push(rec(t, float(t)))
    assert tiers.short.total_pushed == 86_400
    assert tiers.middle.total_pushed == 1_440
    assert tiers.long.total_pushed == 24
    assert len(tiers.short) == 60
    assert len(tiers.middle) == 60
    assert len(tiers.long) == 24


def test_handoff_is_last_record_of_completed_span():
    tiers = TieredPipes(base_period_s=1.0)
    for t in range(120):
        tiers.push(rec(t, float(t)))
        assert tiers.middle.total_pushed == (t + 1) // 60
        if t == 59 or t == 119:
            assert tiers.middle.latest is tiers.short.latest
    # middle carries the closing sample of each minute, not an average
    assert [r.timestamp_ms for r in tiers.middle.records()] == [59_000, 119_000]


def test_long_tier_receives_hourly_closing_sample():
    tiers = TieredPipes(base_period_s=1.0)
    for t in range(7200):
        tiers.push(rec(t))
        assert tiers.long.total_pushed == (t + 1) // 3600
        if t == 3599 or t == 7199:
            assert tiers.long.latest is tiers.middle.latest is tiers.short.latest
    assert [r.timestamp_ms for r in tiers.long.records()] == [3_599_000, 7_199_000]


def test_tier_lookup():
    tiers = TieredPipes()
    assert tiers.tier("short") is tiers.short
    assert tiers.tier("long") is tiers.long
    with pytest.raises(KeyError):
        tiers.tier("weekly")


def test_tier_periods_scale_with_strides():
    tiers = TieredPipes(base_period_s=2.0)
    assert tiers.short.period_s == 2.0
    assert tiers.middle.period_s == 120.0
    assert tiers.long.period_s == 7200.0


@given(n=st.integers(min_value=0, max_value=5000))
@settings(max_examples=30, deadline=None)
def test_counts_match_integer_division(n):
    layout = TierLayout(
        short_capacity=7, middle_capacity=5, long_capacity=3,
        middle_stride=10, long_stride=50,
    )
    tiers = TieredPipes(base_period_s=1.0, layout=layout)
    for t in range(n):
        tiers.push(rec(t))
    assert tiers.short.total_pushed == n
    assert tiers.middle.total_pushed == n // 10
    assert tiers.long.total_pushed == n // 50
    assert len(tiers.short) == min(n, 7)
    assert len(tiers.middle) == min(n // 10, 5)
    assert len(tiers.long) == min(n // 50, 3)


def test_pipe_refuses_records_with_other_channels():
    p = Pipe("short", 4, 1.0)
    p.push(Record(timestamp_ms=0, values={"a": 1.0, "b": 2.0}))
    for values in ({"b": 2.0, "a": 1.0}, {"a": 1.0}, {"a": 1.0, "c": 2.0},
                   {"a": 1.0, "b": 2.0, "c": 3.0}):
        with pytest.raises(ValueError, match="channels"):
            p.push(Record(timestamp_ms=1000, values=values))
    # a refused record leaves the ring as it was
    assert len(p) == 1 and p.total_pushed == 1
    np.testing.assert_array_equal(p.values("b"), [2.0])
    np.testing.assert_array_equal(p.timestamps_ms(), [0])


def test_pipe_unknown_channel_and_empty_windows():
    p = Pipe("short", 4, 1.0)
    # nothing pushed yet: every window is empty, whatever the channel
    assert p.values("anything").shape == (0,)
    assert p.values("anything").dtype == np.float64
    assert p.timestamps_ms().shape == (0,)
    assert p.timestamps_ms().dtype == np.int64
    assert p.latest is None and p.records() == ()
    p.push(rec(0, 1.0))
    with pytest.raises(KeyError):
        p.values("y")


def _window(model, n):
    """The reference window: the last n of the deque, all if n is None."""
    kept = list(model)
    k = len(kept) if n is None else min(n, len(kept))
    return kept[len(kept) - k:]


readings = st.floats(allow_nan=False, width=64)


@given(
    capacity=st.integers(min_value=1, max_value=8),
    pushes=st.lists(
        st.tuples(st.integers(min_value=1, max_value=10**9), readings, readings),
        max_size=25,
    ),
)
@settings(max_examples=200, deadline=None)
def test_pipe_matches_a_deque_of_records(capacity, pushes):
    """The columnar ring reads back exactly what a deque(maxlen) of the same
    records holds, bit for bit, and arrays handed out earlier never change."""
    pipe = Pipe("p", capacity, 1.0)
    model: deque[Record] = deque(maxlen=capacity)
    handed_out: list[tuple[np.ndarray, bytes]] = []
    t = 0
    for pushed, (gap, a, b) in enumerate(pushes, start=1):
        t += gap
        record = Record(timestamp_ms=t, values={"a": a, "b": b})
        pipe.push(record)
        model.append(record)
        assert len(pipe) == len(model)
        assert pipe.total_pushed == pushed
        assert pipe.latest is record
        assert pipe.records() == tuple(model)
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
