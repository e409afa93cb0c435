"""Detector bank tests with enumeration and closed-form oracles."""

import math
from dataclasses import dataclass, field
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from phytolab.channels import Record
from phytolab.detectors import (
    DETECTOR_KINDS,
    FIRED,
    MAD_SIGMA,
    MS_PER_HOUR,
    NO_DATA,
    QUIET,
    CyclicalDetector,
    DetectorBank,
    GradientDetector,
    MeanDetector,
    NoiseLevelDetector,
    PathogenicityDetector,
    PeakDetector,
    StdDevDetector,
    TimeIntervalGate,
    TimeOfDayGate,
    WindowedDetector,
    ZScoreDetector,
    _latest_zscore,
    _mean,
    _mean_std,
    _median_of_sorted,
    _peak_bar,
    build_detector,
)
from phytolab.pipes import TierLayout, TieredPipes


def feed(values, period_ms=1000, timestamps_ms=None):
    """Short-tier fixture: one channel named x."""
    tiers = TieredPipes()
    if timestamps_ms is None:
        timestamps_ms = [i * period_ms for i in range(len(values))]
    for t, v in zip(timestamps_ms, values):
        tiers.push(Record(timestamp_ms=t, values={"x": float(v)}))
    return tiers


def now_of(tiers):
    return int(tiers.short.timestamps_ms(1)[0])


# peak: [0,1]*6 gives median 1 and MAD 1 (scale 1.4826); the 5-sigma bar on
# 13 samples is _peak_bar(5, 13) = 13.599 scales, so it sits at 1 + 20.162
PEAK_BASE = [0.0, 1.0] * 6


def test_peak_fires_above_mad_threshold():
    det = PeakDetector(id="p", channel="x", window=60, sigma=5.0)
    hot = feed(PEAK_BASE + [21.3])
    assert det.evaluate(hot, now_of(hot)) == 1.0
    cool = feed(PEAK_BASE + [21.0])
    assert det.evaluate(cool, now_of(cool)) == -1.0
    # above the unwidened 5 * scale bar (1 + 7.413), below the widened one
    short_of_it = feed(PEAK_BASE + [8.5])
    assert det.evaluate(short_of_it, now_of(short_of_it)) == -1.0


def quiet_crossing_rate(n, bar, windows, rng):
    """Per-sample rate at which Gaussian noise crosses a peak bar of `bar`
    scales on an n-sample window: the newest sample's tail beyond the bar,
    integrated over simulated histories of n - 1 samples.  A sample that far
    out is the window's largest deviation and difference, so the median and
    scale are those of the history plus one extreme value."""
    h = rng.standard_normal((windows, n - 1))
    total = 0.0
    for sign in (1.0, -1.0):
        x = np.concatenate([h, np.full((windows, 1), sign * 1e9)], axis=1)
        med = np.median(x, axis=1)
        mad = np.median(np.abs(x - med[:, None]), axis=1)
        diff_mad = np.median(np.abs(np.diff(x, axis=1)), axis=1) / math.sqrt(2.0)
        edge = sign * med + bar * MAD_SIGMA * np.maximum(mad, diff_mad)
        total += sum(0.5 * math.erfc(e / math.sqrt(2.0)) for e in edge)
    return total / windows


def test_peak_bar_keeps_quiet_noise_at_the_sigma_rate():
    # a 5-sigma Gaussian event has two-sided probability 5.7e-7; on the
    # default 60-sample window the plain 5 * scale bar is crossed ~15 times
    # as often, the widened one at 0.7-1.4 times (seeds 0-5 of this estimate)
    nominal = math.erfc(5.0 / math.sqrt(2.0))
    widened = quiet_crossing_rate(60, _peak_bar(5.0, 60), 20_000, np.random.default_rng(0))
    plain = quiet_crossing_rate(60, 5.0, 20_000, np.random.default_rng(0))
    assert widened < 2.0 * nominal
    assert plain > 8.0 * nominal


def test_peak_bar_narrows_to_sigma_as_the_window_grows():
    bars = [_peak_bar(5.0, n) for n in (2, 12, 13, 60, 120, 1000, 10**6)]
    assert bars == sorted(bars, reverse=True)
    assert bars[-1] == pytest.approx(5.0, rel=1e-4)
    assert all(math.isfinite(b) and b > 5.0 for b in bars)
    assert _peak_bar(3.0, 60) < _peak_bar(5.0, 60) < _peak_bar(7.0, 60)


def test_peak_constant_window_fires_on_any_deviation():
    det = PeakDetector(id="p", channel="x", window=60, min_samples=12)
    blip = feed([5.0] * 12 + [5.1])
    assert det.evaluate(blip, now_of(blip)) == 1.0
    flat = feed([5.0] * 13)
    assert det.evaluate(flat, now_of(flat)) == -1.0


def test_peak_needs_enough_samples():
    det = PeakDetector(id="p", channel="x", window=60, min_samples=12)
    tiers = feed([1.0, 2.0, 3.0])
    assert det.evaluate(tiers, now_of(tiers)) == 0.0


@given(
    a=st.floats(min_value=1e-3, max_value=1e3),
    b=st.floats(min_value=-100.0, max_value=100.0),
)
@settings(max_examples=40, deadline=None)
def test_peak_decision_is_affine_invariant(a, b):
    det = PeakDetector(id="p", channel="x", window=60, sigma=5.0)
    base = PEAK_BASE + [21.3]
    plain = feed(base)
    scaled = feed([a * v + b for v in base])
    assert det.evaluate(plain, now_of(plain)) == det.evaluate(scaled, now_of(scaled))


def test_gradient_threshold_and_direction():
    # one sample per second rising 1 unit per hour
    values = [i / 3600.0 for i in range(30)]
    tiers = feed(values)
    now = now_of(tiers)
    rising = GradientDetector(id="g", channel="x", per_hour=0.5, tier="short",
                              window=60, direction="rising")
    assert rising.evaluate(tiers, now) == 1.0
    falling = GradientDetector(id="g", channel="x", per_hour=0.5, tier="short",
                               window=60, direction="falling")
    assert falling.evaluate(tiers, now) == -1.0
    either = GradientDetector(id="g", channel="x", per_hour=1.5, tier="short",
                              window=60)
    assert either.evaluate(tiers, now) == -1.0


def test_gradient_matches_polyfit_on_irregular_timestamps():
    rng = np.random.default_rng(3)
    ts = np.cumsum(rng.integers(500, 5000, size=20)).tolist()
    xs = rng.normal(size=20).tolist()
    tiers = feed(xs, timestamps_ms=ts)
    slope = np.polyfit(np.array(ts) / 3.6e6, xs, 1)[0]
    margin = 1e-6 * max(1.0, abs(slope))
    below = GradientDetector(id="g", channel="x", per_hour=abs(slope) - margin,
                             tier="short", window=60)
    above = GradientDetector(id="g", channel="x", per_hour=abs(slope) + margin,
                             tier="short", window=60)
    assert below.evaluate(tiers, ts[-1]) == 1.0
    assert above.evaluate(tiers, ts[-1]) == -1.0


def test_noise_level_frozen_cases():
    det = NoiseLevelDetector(id="n", channel="x", window=60)
    flat = feed([7.5] * 20)
    assert det.evaluate(flat, now_of(flat)) == 0.0
    ramp = feed([0.25 * i for i in range(20)])
    assert det.evaluate(ramp, now_of(ramp)) == pytest.approx(0.25 / math.sqrt(2.0))
    alt = feed([2.0 if i % 2 else -2.0 for i in range(20)])
    assert det.evaluate(alt, now_of(alt)) == pytest.approx(4.0 / math.sqrt(2.0))


def test_noise_level_estimates_white_noise_sigma():
    rng = np.random.default_rng(11)
    tiers = feed(rng.normal(0.0, 0.5, size=60).tolist())
    det = NoiseLevelDetector(id="n", channel="x", window=60)
    assert det.evaluate(tiers, now_of(tiers)) == pytest.approx(0.5, rel=0.25)


@given(a=st.floats(min_value=-50.0, max_value=50.0))
@settings(max_examples=30, deadline=None)
def test_noise_level_scales_with_amplitude(a):
    base = [0.1, -0.3, 0.2, 0.5, -0.4, 0.0, 0.3, -0.2, 0.1, 0.4]
    det = NoiseLevelDetector(id="n", channel="x", window=60, min_samples=8)
    plain = feed(base)
    scaled = feed([a * v for v in base])
    want = abs(a) * det.evaluate(plain, now_of(plain))
    assert det.evaluate(scaled, now_of(scaled)) == pytest.approx(want, abs=1e-12)


def autocorr_oracle(x, lag):
    y = [v - sum(x) / len(x) for v in x]
    num = sum(y[k] * y[k - lag] for k in range(lag, len(y)))
    den = sum(v * v for v in y)
    return num / den


def test_cyclical_detects_matching_period():
    x = [math.sin(2.0 * math.pi * k / 12.0) for k in range(48)]
    tiers = feed(x)
    now = now_of(tiers)
    at_period = CyclicalDetector(id="c", channel="x", lag=12, tier="short", window=60)
    assert autocorr_oracle(x, 12) > 0.5
    assert at_period.evaluate(tiers, now) == 1.0
    anti_phase = CyclicalDetector(id="c", channel="x", lag=6, tier="short", window=60)
    assert autocorr_oracle(x, 6) < 0.5
    assert anti_phase.evaluate(tiers, now) == -1.0


def test_cyclical_constant_series_is_quiet():
    tiers = feed([3.0] * 30)
    det = CyclicalDetector(id="c", channel="x", lag=5, tier="short", window=60)
    assert det.evaluate(tiers, now_of(tiers)) == -1.0


def test_cyclical_needs_lag_plus_two():
    det = CyclicalDetector(id="c", channel="x", lag=10, tier="short", window=60)
    short = feed([float(i % 3) for i in range(11)])
    assert det.evaluate(short, now_of(short)) == 0.0
    enough = feed([float(i % 3) for i in range(12)])
    assert det.evaluate(enough, now_of(enough)) != 0.0


def test_time_interval_gate_boundaries():
    gate = TimeIntervalGate(id="t", start_ms=1000, end_ms=2000)
    tiers = TieredPipes()
    assert gate.evaluate(tiers, 999) == -1.0
    assert gate.evaluate(tiers, 1000) == 1.0  # closed start
    assert gate.evaluate(tiers, 1999) == 1.0
    assert gate.evaluate(tiers, 2000) == -1.0  # open end


def test_time_of_day_gate_wraps_midnight():
    gate = TimeOfDayGate(id="t", start_hour=22.0, end_hour=6.0)
    tiers = TieredPipes()

    def at_hour(h):
        return gate.evaluate(tiers, round(h * 3.6e6))

    assert at_hour(23.0) == 1.0
    assert at_hour(2.0) == 1.0
    assert at_hour(22.0) == 1.0  # closed start
    assert at_hour(6.0) == -1.0  # open end
    assert at_hour(12.0) == -1.0
    # and a plain daytime window
    day = TimeOfDayGate(id="d", start_hour=9.0, end_hour=17.0)
    assert day.evaluate(tiers, round(10.0 * 3.6e6)) == 1.0
    assert day.evaluate(tiers, round(17.0 * 3.6e6)) == -1.0


def test_mean_and_stddev_match_numpy():
    rng = np.random.default_rng(5)
    x = rng.normal(2.0, 3.0, size=40)
    tiers = feed(x.tolist())
    now = now_of(tiers)
    mean = MeanDetector(id="m", channel="x", window=60)
    sd = StdDevDetector(id="s", channel="x", window=60)
    assert mean.evaluate(tiers, now) == pytest.approx(float(x.mean()), rel=1e-12)
    assert sd.evaluate(tiers, now) == pytest.approx(float(x.std()), rel=1e-12)


def test_zscore_excludes_latest_sample():
    det = ZScoreDetector(id="z", channel="x", window=60)
    tiers = feed([0.0, 2.0, 0.0, 2.0, 4.0])
    # reference is [0,2,0,2]: mean 1, sigma 1; latest 4 gives z = 3
    assert det.evaluate(tiers, now_of(tiers)) == pytest.approx(3.0)


def test_zscore_flat_reference_yields_zero():
    det = ZScoreDetector(id="z", channel="x", window=60)
    tiers = feed([1.0, 1.0, 1.0, 1.0, 5.0])
    assert det.evaluate(tiers, now_of(tiers)) == 0.0


def test_zscore_flat_reference_whose_mean_rounds_off_yields_zero():
    # ten readings of 1059.085 average to 1059.0849999999998, which leaves a
    # sigma of 2.27e-13, and the next reading once scored z = 6.24e12
    x = np.array([1059.085] * 10 + [1060.504])
    assert _mean(x[:-1]) != 1059.085 and _mean_std(x[:-1])[1] > 0.0
    assert _latest_zscore(x) == 0.0
    tiers = feed(x.tolist())
    assert ZScoreDetector(id="z", channel="x", window=60).evaluate(tiers, now_of(tiers)) == 0.0
    light = PathogenicityDetector(id="h", channel="x", tier="short", window=60)
    assert light.evaluate(tiers, now_of(tiers)) == 0.0


@given(
    a=st.floats(min_value=1e-3, max_value=1e3),
    b=st.floats(min_value=-10.0, max_value=10.0),
)
@settings(max_examples=40, deadline=None)
def test_zscore_affine_invariant(a, b):
    det = ZScoreDetector(id="z", channel="x", window=60)
    base = [0.0, 2.0, 1.0, 2.0, 4.0]
    plain = feed(base)
    scaled = feed([a * v + b for v in base])
    z0 = det.evaluate(plain, now_of(plain))
    z1 = det.evaluate(scaled, now_of(scaled))
    assert z1 == pytest.approx(z0, rel=1e-9, abs=1e-9)


@pytest.mark.parametrize(
    "latest,status",
    [(2.0, 0.0), (2.9, 0.0), (3.0, 1.0), (4.9, 1.0), (5.0, 2.0), (-4.0, 2.0)],
)
def test_pathogenicity_traffic_light(latest, status):
    # reference [0,2,0,2]: mean 1 sigma 1, so z = latest - 1
    det = PathogenicityDetector(id="h", channel="x", tier="short", window=60)
    tiers = feed([0.0, 2.0, 0.0, 2.0, latest])
    assert det.evaluate(tiers, now_of(tiers)) == status


def test_pathogenicity_insufficient_data():
    det = PathogenicityDetector(id="h", channel="x", tier="short", window=60)
    tiers = feed([0.0, 1.0])
    assert det.evaluate(tiers, now_of(tiers)) == 0.0


def test_bank_rejects_duplicate_ids_and_keeps_order():
    d1 = MeanDetector(id="a", channel="x", window=60)
    d2 = ZScoreDetector(id="b", channel="x", window=60)
    with pytest.raises(ValueError):
        DetectorBank([d1, MeanDetector(id="a", channel="x", window=60)])
    bank = DetectorBank([d2, d1])
    tiers = feed([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    vec = bank.evaluate(tiers, now_of(tiers))
    assert list(vec) == ["b", "a"]


def test_bank_rejects_non_finite_detector_output():
    class Broken:
        id = "bad"

        def evaluate(self, tiers, now_ms):
            return math.inf

    bank = DetectorBank([Broken()])
    with pytest.raises(ValueError, match="non-finite"):
        bank.evaluate(TieredPipes(), 0)


@dataclass(frozen=True, kw_only=True)
class CountingMean(MeanDetector):
    """A mean detector that logs the clock of every evaluate call."""

    calls: list = field(default_factory=list, compare=False)

    def evaluate(self, tiers, now_ms):
        self.calls.append(now_ms)
        return super().evaluate(tiers, now_ms)


class CountingGate:
    id = "gate"

    def __init__(self):
        self.calls = []

    def evaluate(self, tiers, now_ms):
        self.calls.append(now_ms)
        return FIRED


def push_cycle(tiers, t, value):
    tiers.push(Record(timestamp_ms=t, values={"x": value}))


def test_bank_recomputes_a_windowed_detector_only_when_its_tier_moves():
    layout = TierLayout(middle_stride=5, long_stride=20)
    short = CountingMean(id="s", channel="x", tier="short", window=10)
    middle = CountingMean(id="m", channel="x", tier="middle", window=10)
    gate = CountingGate()
    bank = DetectorBank([short, middle, gate])
    tiers = TieredPipes(layout)
    stamps = [i * 1000 for i in range(50)]
    for i, t in enumerate(stamps):
        push_cycle(tiers, t, float(i))
        bank.evaluate(tiers, t)
    # a gate reads the clock, so it runs even on a call no push preceded
    bank.evaluate(tiers, 99_000)
    assert gate.calls == stamps + [99_000]
    assert short.calls == stamps
    # on the first call, then once per middle push, on the cycle that pushed it
    assert middle.calls == [0] + stamps[4::5]


def test_bank_calls_stand_ins_put_in_after_construction():
    """A tracer swaps the bank's detectors for stand-ins carrying only an id
    and an evaluate; the bank must still call each one when its tier moves."""

    class StandIn:
        def __init__(self, detector):
            self.id = detector.id
            self.calls = []

            def evaluate(tiers, now_ms):
                self.calls.append(now_ms)
                return detector.evaluate(tiers, now_ms)

            self.evaluate = evaluate

    layout = TierLayout(middle_stride=4, long_stride=8)
    detectors = [
        StdDevDetector(id="s", channel="x", tier="short", window=6),
        GradientDetector(id="g", channel="x", per_hour=1.0, window=6),
        MeanDetector(id="l", channel="x", tier="long", window=6),
        TimeIntervalGate(id="t", start_ms=0, end_ms=10_000),
    ]
    bank = DetectorBank(detectors)
    bank.detectors = tuple(StandIn(d) for d in bank.detectors)
    reference = DetectorBank(detectors)
    tiers = TieredPipes(layout)
    stamps = [i * 1000 for i in range(40)]
    for i, t in enumerate(stamps):
        push_cycle(tiers, t, float(i % 7))
        assert bank.evaluate(tiers, t) == reference.evaluate(tiers, t)
    calls = [d.calls for d in bank.detectors]
    assert calls == [stamps, [0] + stamps[3::4], [0] + stamps[7::8], stamps]


def test_bank_retries_a_non_finite_detector_on_every_call():
    @dataclass(frozen=True, kw_only=True)
    class Broken(WindowedDetector):
        def _measure(self, x, pipe):
            return math.nan

    bank = DetectorBank([Broken(id="b", channel="x", tier="middle")])
    tiers = TieredPipes(TierLayout(middle_stride=2, long_stride=4))
    for t in (0, 1000, 2000):
        push_cycle(tiers, t, 1.0)
        assert bank.evaluate(tiers, t) == {"b": NO_DATA}
    push_cycle(tiers, 3000, 1.0)  # the middle tier's second sample
    for _ in range(2):
        with pytest.raises(ValueError, match="non-finite"):
            bank.evaluate(tiers, 3000)
    push_cycle(tiers, 4000, 1.0)  # a cycle that leaves the middle tier be
    with pytest.raises(ValueError, match="non-finite"):
        bank.evaluate(tiers, 4000)


def bank_bits(vector):
    return [(k, float(v).hex()) for k, v in vector.items()]


def fresh_bits(detectors, tiers, now_ms):
    """The vector of a fresh bank, which must be every detector's own value."""
    want = bank_bits(DetectorBank(detectors).evaluate(tiers, now_ms))
    assert want == bank_bits({d.id: d.evaluate(tiers, now_ms) for d in detectors})
    return want


@st.composite
def tiered_banks(draw):
    """A random tier layout and a bank of windowed detectors on all three
    tiers, in random order, plus the two gates."""
    middle_stride = draw(st.integers(2, 5))
    layout = TierLayout(
        short_capacity=draw(st.integers(1, 12)),
        middle_capacity=draw(st.integers(1, 8)),
        long_capacity=draw(st.integers(1, 6)),
        middle_stride=middle_stride,
        long_stride=middle_stride * draw(st.integers(2, 4)),
    )
    detectors = [
        TimeIntervalGate(id="ti", start_ms=draw(st.integers(0, 20_000)), end_ms=40_000),
        TimeOfDayGate(id="td", start_hour=0.0, end_hour=0.005),
    ]
    kinds = [
        (PeakDetector, {}),
        (GradientDetector, {"per_hour": 100.0}),
        (NoiseLevelDetector, {}),
        (CyclicalDetector, {"lag": 1}),
        (MeanDetector, {}),
        (StdDevDetector, {}),
        (ZScoreDetector, {}),
        (PathogenicityDetector, {}),
    ]
    for tier in ("short", "middle", "long"):
        for k in draw(st.lists(st.integers(0, len(kinds) - 1), min_size=1, max_size=4)):
            cls, params = kinds[k]
            needed = cls(id="probe", channel="x", tier=tier, **params).required_samples()
            window = draw(st.integers(needed, needed + 6))
            ident = f"{tier}{len(detectors)}"
            detectors.append(cls(id=ident, channel="x", tier=tier, window=window, **params))
    return layout, draw(st.permutations(detectors))


cycle_values = st.lists(
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False), min_size=1, max_size=60
)


@given(bank=tiered_banks(), values=cycle_values)
@settings(max_examples=60, deadline=None)
def test_bank_vector_equals_a_fresh_bank_on_every_cycle(bank, values):
    layout, detectors = bank
    memo = DetectorBank(detectors)
    tiers = TieredPipes(layout)
    for i, v in enumerate(values):
        t = i * 1000
        push_cycle(tiers, t, v)
        assert bank_bits(memo.evaluate(tiers, t)) == fresh_bits(detectors, tiers, t)


@given(bank=tiered_banks(), values=cycle_values, offset=st.floats(1.0, 50.0))
@settings(max_examples=40, deadline=None)
def test_bank_never_returns_values_of_other_tiers(bank, values, offset):
    """One bank evaluated against two tier sets in turn, pushed in lockstep so
    their push counts agree, answers each call from the tiers it was given."""
    layout, detectors = bank
    memo = DetectorBank(detectors)
    a, b = TieredPipes(layout), TieredPipes(layout)
    for i, v in enumerate(values):
        t = i * 1000
        push_cycle(a, t, v)
        push_cycle(b, t, v * 0.5 + offset)
        for tiers in (a, b) if i % 2 else (b, a):
            assert bank_bits(memo.evaluate(tiers, t)) == fresh_bits(detectors, tiers, t)


def test_build_detector_factory():
    det = build_detector("peak", id="p", channel="x", sigma=4.0)
    assert isinstance(det, PeakDetector)
    with pytest.raises(ValueError, match="unknown detector kind"):
        build_detector("entropy", id="e", channel="x")
    with pytest.raises(ValueError, match="bad parameters"):
        build_detector("peak", id="p", channel="x", frequency=3.0)


def test_config_validation_errors():
    with pytest.raises(ValueError):
        PeakDetector(id="", channel="x")
    with pytest.raises(ValueError):
        PeakDetector(id="p", channel="x", sigma=0.0)
    with pytest.raises(ValueError):
        PeakDetector(id="p", channel="x", window=5, min_samples=12)
    with pytest.raises(ValueError, match="unknown tier"):
        PeakDetector(id="p", channel="x", tier="weekly")
    with pytest.raises(ValueError):
        GradientDetector(id="g", channel="x", per_hour=1.0, direction="sideways")
    with pytest.raises(ValueError):
        CyclicalDetector(id="c", channel="x", lag=0)
    with pytest.raises(ValueError):
        TimeIntervalGate(id="t", start_ms=5, end_ms=5)
    with pytest.raises(ValueError):
        TimeOfDayGate(id="t", start_hour=25.0, end_hour=3.0)
    with pytest.raises(ValueError):
        PathogenicityDetector(id="h", channel="x", z_yellow=4.0, z_red=2.0)


# --- bit-identity oracle: the scalar kernels and the detectors built on them
# reproduce numpy's own results, and the parent's detector formulas, exactly.

magnitudes = st.floats(min_value=1e-9, max_value=1e9)
window_values = st.one_of(
    st.builds(lambda m, neg: -m if neg else m, magnitudes, st.booleans()),
    st.sampled_from([0.0, -0.0]),
)


@st.composite
def float_windows(draw, min_size=2, max_size=120, values=window_values):
    """Windows of 2-120 samples drawn from a pool: a one-value pool gives a
    constant window, a small pool ties, a large one mostly distinct values."""
    n = draw(st.integers(min_value=min_size, max_value=max_size))
    pool = draw(st.lists(values, min_size=1, max_size=n))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=n, max_size=n))
    return np.array([pool[i] for i in picks], dtype=np.float64)


def same_bits(a, b):
    return float(a).hex() == float(b).hex()


@given(x=float_windows(values=st.one_of(window_values, st.just(math.nan))))
@example(x=np.array([-0.0, -0.0, -0.0]))
@example(x=np.array([-0.0, -0.0]))
@example(x=np.array([-0.0, math.nan, 0.0]))
@example(x=np.array([math.nan, -0.0]))
@settings(max_examples=400, deadline=None)
def test_kernels_match_numpy_bit_for_bit(x):
    assert same_bits(_median_of_sorted(np.sort(x)), np.median(x))
    assert same_bits(_mean(x), x.mean())
    assert same_bits(_mean_std(x)[1], x.std())


@given(x=float_windows(min_size=3), lead=st.lists(window_values, max_size=10))
@settings(max_examples=100, deadline=None)
def test_measure_writes_neither_its_window_nor_the_pipe(x, lead):
    """Kernels sort and square in place only in buffers they made: the window
    handed to _measure and the pipe it came from keep every bit."""
    n = len(x)
    tiers = TieredPipes(layout=TierLayout(short_capacity=n))
    for i, v in enumerate(lead + x.tolist()):
        tiers.push(Record(timestamp_ms=i * 1000, values={"x": v}))
    pipe = tiers.short
    required = {"gradient": {"per_hour": 1.0}, "cyclical": {"lag": 1}}
    for kind, cls in DETECTOR_KINDS.items():
        if not issubclass(cls, WindowedDetector):
            continue
        det = cls(id="d", channel="x", window=n, min_samples=2, **required.get(kind, {}))
        window = pipe.values("x", n)
        held = (window.tobytes(), pipe.values("x").tobytes(), pipe.timestamps_ms().tobytes())
        det._measure(window, pipe)
        assert (
            window.tobytes(), pipe.values("x").tobytes(), pipe.timestamps_ms().tobytes()
        ) == held, kind


def test_median_kernel_odd_even_and_nan():
    assert _median_of_sorted(np.array([1.0, 2.0, 3.0])) == 2.0
    assert _median_of_sorted(np.array([1.0, 2.0, 3.0, 4.0])) == 2.5
    assert same_bits(_median_of_sorted(np.array([-0.0, -0.0])), np.median([-0.0, -0.0]))
    assert math.isnan(_median_of_sorted(np.array([1.0, 2.0, math.nan])))


def parent_peak(x, sigma):
    dev = np.abs(x - np.median(x))
    peak = float(dev[-1])
    diff_mad = float(np.median(np.abs(np.diff(x)))) / math.sqrt(2.0)
    scale = MAD_SIGMA * max(float(np.median(dev)), diff_mad)
    if scale == 0.0:
        return FIRED if peak > 0.0 else QUIET
    return FIRED if peak > sigma * scale else QUIET


def parent_slope(x, t_ms):
    t = t_ms.astype(np.float64) / MS_PER_HOUR
    t -= t.mean()
    denom = float(np.dot(t, t))
    if denom == 0.0:
        return None
    return float(np.dot(t, x - x.mean())) / denom


def parent_gradient(x, t_ms, per_hour, direction):
    slope = parent_slope(x, t_ms)
    if slope is None:
        return NO_DATA
    if direction == "rising":
        return FIRED if slope > per_hour else QUIET
    if direction == "falling":
        return FIRED if slope < -per_hour else QUIET
    return FIRED if abs(slope) > per_hour else QUIET


def parent_noise_level(x):
    d = np.diff(x)
    return float(np.sqrt(np.mean(d * d) / 2.0))


def parent_autocorr(x, lag):
    y = x - x.mean()
    denom = float(np.dot(y, y))
    if denom == 0.0:
        return None
    return float(np.dot(y[lag:], y[:-lag])) / denom


def parent_zscore(x):
    rest = x[:-1]
    sigma = float(rest.std())
    # a flat reference scores 0, also where its mean rounds off and leaves a
    # sigma of a few ulps, which the parent divided by
    if sigma == 0.0 or rest.min() == rest.max():
        return 0.0
    return (float(x[-1]) - float(rest.mean())) / sigma


def parent_pathogenicity(x, z_yellow, z_red):
    z = abs(parent_zscore(x))
    if z < z_yellow:
        return 0.0
    if z < z_red:
        return 1.0
    return 2.0


def on_the_edge(value, fallback, lo=0.0, hi=math.inf):
    """A threshold equal to the parent's own statistic, so a result one ulp
    off on either side flips the decision; the fallback when it is unusable."""
    if value is not None and math.isfinite(value) and lo < value < hi:
        return value
    return fallback


@given(
    x=float_windows(min_size=3),
    lead=st.lists(window_values, max_size=10),
    gaps=st.lists(st.integers(min_value=1, max_value=10**6), min_size=130, max_size=130),
    data=st.data(),
)
@settings(max_examples=150, deadline=None)
def test_windowed_detectors_match_the_parent_formulas(x, lead, gaps, data):
    """Each windowed detector, reading its window back out of a ring that has
    wrapped, returns exactly what the formula it replaced returns."""
    n = len(x)
    tiers = TieredPipes(layout=TierLayout(short_capacity=n))
    stamps = np.cumsum(gaps[: len(lead) + n]).tolist()
    for t, v in zip(stamps, lead + x.tolist()):
        tiers.push(Record(timestamp_ms=t, values={"x": v}))
    now = stamps[-1]
    t_ms = np.array(stamps[-n:], dtype=np.int64)
    common = dict(channel="x", tier="short", window=n, min_samples=2)

    def check(det, want):
        assert same_bits(det.evaluate(tiers, now), want)

    dev = np.abs(x - np.median(x))
    scale = MAD_SIGMA * max(
        float(np.median(dev)), float(np.median(np.abs(np.diff(x)))) / math.sqrt(2.0)
    )
    edge_sigma = float(dev[-1]) / scale if scale > 0.0 else None
    sigma = data.draw(st.sampled_from([on_the_edge(edge_sigma, 5.0), 5.0]))
    # the parent's bar was sigma itself; with it restored, the statistic
    # is checked at its own edge, then the widened bar at sigma 5
    with mock.patch("phytolab.detectors._peak_bar", lambda sigma, n: sigma):
        check(PeakDetector(id="p", sigma=sigma, **common), parent_peak(x, sigma))
    check(PeakDetector(id="p", sigma=5.0, **common), parent_peak(x, _peak_bar(5.0, n)))

    slope = parent_slope(x, t_ms)
    per_hour = on_the_edge(None if slope is None else abs(slope), 1.0)
    for direction in ("rising", "falling", "either"):
        check(
            GradientDetector(id="g", per_hour=per_hour, direction=direction, **common),
            parent_gradient(x, t_ms, per_hour, direction),
        )

    check(NoiseLevelDetector(id="n", **common), parent_noise_level(x))

    lag = data.draw(st.integers(min_value=1, max_value=n - 2))
    r = parent_autocorr(x, lag)
    threshold = on_the_edge(r, 0.5, lo=-1.0, hi=1.0)
    want = QUIET if r is None else (FIRED if r > threshold else QUIET)
    check(CyclicalDetector(id="c", lag=lag, threshold=threshold, **common), want)

    check(MeanDetector(id="m", **common), float(x.mean()))
    check(StdDevDetector(id="s", **common), float(x.std()))
    check(ZScoreDetector(id="z", **common), parent_zscore(x))

    z = abs(parent_zscore(x))
    z_yellow = on_the_edge(z, 2.0, hi=1e300)
    for z_red in (2.0 * z_yellow, math.nextafter(z_yellow, math.inf)):
        check(
            PathogenicityDetector(id="h", z_yellow=z_yellow, z_red=z_red, **common),
            parent_pathogenicity(x, z_yellow, z_red),
        )
