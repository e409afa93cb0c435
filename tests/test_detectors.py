"""Detector bank tests with enumeration, closed-form and exact-rational oracles."""

import math
from dataclasses import dataclass, field
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from phytolab.channels import CHANNEL_SPECS, ChannelId, ChannelKind, ChannelSpec, Record
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
    _peak_bar,
    _twice_mad,
    build_detector,
)
from phytolab.pipes import Pipe, TierLayout, TieredPipes

# one channel named x on sap flow's 1 uV grid; readings pushed into it are
# quantized to that grid, as the simulator's are.  A Record takes only codes
# in its channel's range, so x's range is widened from +-1 V to +-10**9 V,
# codes below 2**51, which holds every series here, the drawn and scaled too
X = (ChannelId("x", ChannelKind.SAP_FLOW),)
object.__setattr__(X[0], "spec", ChannelSpec("V", -1e9, 1e9, X[0].spec.resolution))
RES = X[0].spec.resolution


def x_record(t, value, channel=X[0]):
    """A record of the one channel x holding the code of value's nearest
    grid point, round(value / resolution)."""
    return Record(t, (round(value / channel.spec.resolution),), (channel,))


def feed(values, period_ms=1000, timestamps_ms=None, kind=None):
    """Short-tier fixture: one channel named x, X's or one of the given
    kind, fed the values on its grid."""
    channel = X[0] if kind is None else ChannelId("x", kind)
    tiers = TieredPipes([channel])
    if timestamps_ms is None:
        timestamps_ms = [i * period_ms for i in range(len(values))]
    for t, v in zip(timestamps_ms, values):
        tiers.push(x_record(t, v, channel))
    return tiers


# A square-root statistic rounds twice, the ratio under the root and then
# math.sqrt: (1 + d1)**0.5 * (1 + d2) with |d1|, |d2| <= 2**-53 bounds its
# relative error by 1.5 * 2**-53 + 2**-106, which keeps it within an ulp of
# the nearest float.
SQRT_REL = Fraction(3, 2**54) + Fraction(1, 2**106)


def near_sqrt(y, q):
    """y is sqrt(q) within SQRT_REL, relative; exactly 0.0 when q is 0."""
    if q == 0:
        return same_bits(y, 0.0)
    return y > 0.0 and (1 - SQRT_REL) ** 2 * q <= Fraction(y) ** 2 <= (1 + SQRT_REL) ** 2 * q


def rounded_twice(y, q):
    """y is sqrt(q) by the stated roundings, to the bit: q rounded to the
    nearest float (float(Fraction) rounds correctly), then math.sqrt."""
    return same_bits(y, math.sqrt(float(q))) and near_sqrt(y, q)


def now_of(tiers):
    return int(tiers.short.timestamps_ms(1)[0])


def pipe_of(det, tiers):
    """The pipe a bank hands det: its tier's, or None for a gate."""
    return tiers.tier(det.tier) if isinstance(det, WindowedDetector) else None


# peak: [0,1]*6 gives median 1 and MAD 1 (scale 1.4826); the 5-sigma bar on
# 13 samples is _peak_bar(5, 13) = 13.599 scales, so it sits at 1 + 20.162
PEAK_BASE = [0.0, 1.0] * 6


def test_peak_fires_above_mad_threshold():
    det = PeakDetector(id="p", channel="x", window=60, sigma=5.0)
    hot = feed(PEAK_BASE + [21.3])
    assert det.evaluate(pipe_of(det, hot), now_of(hot)) == 1.0
    cool = feed(PEAK_BASE + [21.0])
    assert det.evaluate(pipe_of(det, cool), now_of(cool)) == -1.0
    # above the unwidened 5 * scale bar (1 + 7.413), below the widened one
    short_of_it = feed(PEAK_BASE + [8.5])
    assert det.evaluate(pipe_of(det, short_of_it), now_of(short_of_it)) == -1.0


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
    assert det.evaluate(pipe_of(det, blip), now_of(blip)) == 1.0
    flat = feed([5.0] * 13)
    assert det.evaluate(pipe_of(det, flat), now_of(flat)) == -1.0


def test_peak_needs_enough_samples():
    det = PeakDetector(id="p", channel="x", window=60, min_samples=12)
    tiers = feed([1.0, 2.0, 3.0])
    assert det.evaluate(pipe_of(det, tiers), now_of(tiers)) == 0.0


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
    want = det.evaluate(pipe_of(det, plain), now_of(plain))
    assert det.evaluate(pipe_of(det, scaled), now_of(scaled)) == want


def test_gradient_threshold_and_direction():
    # one sample per second rising 1 unit per hour
    values = [i / 3600.0 for i in range(30)]
    tiers = feed(values)
    now = now_of(tiers)
    rising = GradientDetector(id="g", channel="x", per_hour=0.5, tier="short",
                              window=60, direction="rising")
    assert rising.evaluate(pipe_of(rising, tiers), now) == 1.0
    falling = GradientDetector(id="g", channel="x", per_hour=0.5, tier="short",
                               window=60, direction="falling")
    assert falling.evaluate(pipe_of(falling, tiers), now) == -1.0
    either = GradientDetector(id="g", channel="x", per_hour=1.5, tier="short",
                              window=60)
    assert either.evaluate(pipe_of(either, tiers), now) == -1.0


def exact_slope(codes, stamps, resolution):
    """Least-squares slope in units per hour, as an exact rational."""
    n = len(codes)
    mt, mk = Fraction(sum(stamps), n), Fraction(sum(codes), n)
    cov = sum((t - mt) * (k - mk) for t, k in zip(stamps, codes))
    var = sum((t - mt) ** 2 for t in stamps)
    return cov / var * Fraction(resolution) * MS_PER_HOUR


def test_gradient_matches_polyfit_on_irregular_timestamps():
    rng = np.random.default_rng(3)
    ts = np.cumsum(rng.integers(500, 5000, size=20)).tolist()
    tiers = feed(rng.normal(size=20).tolist(), timestamps_ms=ts)
    xs = tiers.short.values("x")
    slope = np.polyfit(np.array(ts) / 3.6e6, xs, 1)[0]
    margin = 1e-6 * max(1.0, abs(slope))
    below = GradientDetector(id="g", channel="x", per_hour=abs(slope) - margin,
                             tier="short", window=60)
    above = GradientDetector(id="g", channel="x", per_hour=abs(slope) + margin,
                             tier="short", window=60)
    assert below.evaluate(pipe_of(below, tiers), ts[-1]) == 1.0
    assert above.evaluate(pipe_of(above, tiers), ts[-1]) == -1.0
    # the decision is exact: one ulp either side of the exact slope flips it
    exact = abs(exact_slope([round(v / RES) for v in xs.tolist()], ts, RES))
    edge = float(exact)
    for per_hour in (math.nextafter(edge, 0.0), edge, math.nextafter(edge, math.inf)):
        det = GradientDetector(id="g", channel="x", per_hour=per_hour, tier="short", window=60)
        want = FIRED if exact > Fraction(per_hour) else QUIET
        assert det.evaluate(pipe_of(det, tiers), ts[-1]) == want


def test_noise_level_frozen_cases():
    det = NoiseLevelDetector(id="n", channel="x", window=60)
    flat = feed([7.5] * 20)
    assert det.evaluate(pipe_of(det, flat), now_of(flat)) == 0.0
    ramp = feed([0.25 * i for i in range(20)])
    assert det.evaluate(pipe_of(det, ramp), now_of(ramp)) == pytest.approx(0.25 / math.sqrt(2.0))
    alt = feed([2.0 if i % 2 else -2.0 for i in range(20)])
    assert det.evaluate(pipe_of(det, alt), now_of(alt)) == pytest.approx(4.0 / math.sqrt(2.0))


def test_noise_level_estimates_white_noise_sigma():
    rng = np.random.default_rng(11)
    tiers = feed(rng.normal(0.0, 0.5, size=60).tolist())
    det = NoiseLevelDetector(id="n", channel="x", window=60)
    assert det.evaluate(pipe_of(det, tiers), now_of(tiers)) == pytest.approx(0.5, rel=0.25)


@given(a=st.integers(min_value=-50, max_value=50))
@settings(max_examples=30, deadline=None)
def test_noise_level_scales_with_amplitude(a):
    # an integer multiple of grid readings is on the grid, its noise exactly
    # |a| times the plain one's; each is within 1.5 * 2**-53 of its exact
    # value and the product rounds once more
    base = [0.1, -0.3, 0.2, 0.5, -0.4, 0.0, 0.3, -0.2, 0.1, 0.4]
    det = NoiseLevelDetector(id="n", channel="x", window=60, min_samples=8)
    plain = feed(base)
    scaled = feed([a * v for v in base])
    want = abs(a) * det.evaluate(pipe_of(det, plain), now_of(plain))
    got = det.evaluate(pipe_of(det, scaled), now_of(scaled))
    assert math.isclose(got, want, rel_tol=2**-51, abs_tol=0.0)


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
    assert at_period.evaluate(pipe_of(at_period, tiers), now) == 1.0
    anti_phase = CyclicalDetector(id="c", channel="x", lag=6, tier="short", window=60)
    assert autocorr_oracle(x, 6) < 0.5
    assert anti_phase.evaluate(pipe_of(anti_phase, tiers), now) == -1.0


def test_cyclical_constant_series_is_quiet():
    tiers = feed([3.0] * 30)
    det = CyclicalDetector(id="c", channel="x", lag=5, tier="short", window=60)
    assert det.evaluate(pipe_of(det, tiers), now_of(tiers)) == -1.0


def test_cyclical_needs_lag_plus_two():
    det = CyclicalDetector(id="c", channel="x", lag=10, tier="short", window=60)
    short = feed([float(i % 3) for i in range(11)])
    assert det.evaluate(pipe_of(det, short), now_of(short)) == 0.0
    enough = feed([float(i % 3) for i in range(12)])
    assert det.evaluate(pipe_of(det, enough), now_of(enough)) != 0.0


def test_time_interval_gate_boundaries():
    gate = TimeIntervalGate(id="t", start_ms=1000, end_ms=2000)
    assert gate.evaluate(None, 999) == -1.0
    assert gate.evaluate(None, 1000) == 1.0  # closed start
    assert gate.evaluate(None, 1999) == 1.0
    assert gate.evaluate(None, 2000) == -1.0  # open end


@pytest.mark.parametrize(
    "start_ms, end_ms", [(math.nan, 5), (0.5, 5), (0, 5.0), (0, math.inf), (1.0, 5.0)]
)
def test_time_interval_gate_refuses_bounds_that_are_not_integers(start_ms, end_ms):
    # a NaN start once built a gate that never opened, and 0.5 was taken
    with pytest.raises(TypeError):
        TimeIntervalGate(id="t", start_ms=start_ms, end_ms=end_ms)
    with pytest.raises(ValueError, match="bad parameters for 'time_interval'"):
        build_detector("time_interval", id="t", start_ms=start_ms, end_ms=end_ms)
    gate = TimeIntervalGate(id="t", start_ms=np.int64(0), end_ms=5)
    assert type(gate.start_ms) is int and gate.evaluate(None, 4) == FIRED


@pytest.mark.parametrize("field", ["start_ms", "end_ms"])
def test_a_time_interval_refusal_names_its_bound(field):
    bounds = dict(start_ms=0, end_ms=5) | {field: 0.5}
    with pytest.raises(TypeError, match=f"^{field} must be an integer, got 0.5$"):
        TimeIntervalGate(id="t", **bounds)
    with pytest.raises(ValueError, match=f"'time_interval': {field} must be an integer"):
        build_detector("time_interval", id="t", **bounds)


def test_time_of_day_gate_wraps_midnight():
    gate = TimeOfDayGate(id="t", start_hour=22.0, end_hour=6.0)

    def at_hour(h):
        return gate.evaluate(None, round(h * 3.6e6))

    assert at_hour(23.0) == 1.0
    assert at_hour(2.0) == 1.0
    assert at_hour(22.0) == 1.0  # closed start
    assert at_hour(6.0) == -1.0  # open end
    assert at_hour(12.0) == -1.0
    # and a plain daytime window
    day = TimeOfDayGate(id="d", start_hour=9.0, end_hour=17.0)
    assert day.evaluate(None, round(10.0 * 3.6e6)) == 1.0
    assert day.evaluate(None, round(17.0 * 3.6e6)) == -1.0


def test_mean_and_stddev_match_numpy():
    rng = np.random.default_rng(5)
    tiers = feed(rng.normal(2.0, 3.0, size=40).tolist())
    x = tiers.short.values("x")
    now = now_of(tiers)
    mean = MeanDetector(id="m", channel="x", window=60)
    sd = StdDevDetector(id="s", channel="x", window=60)
    assert mean.evaluate(pipe_of(mean, tiers), now) == pytest.approx(float(x.mean()), rel=1e-12)
    assert sd.evaluate(pipe_of(sd, tiers), now) == pytest.approx(float(x.std()), rel=1e-12)
    # and each is its exact value, rounded once (the mean) or twice
    exact = [Fraction(round(v / RES)) * Fraction(RES) for v in x.tolist()]
    m = sum(exact) / len(exact)
    assert mean.evaluate(pipe_of(mean, tiers), now) == float(m)
    spread = sum((v - m) ** 2 for v in exact) / len(exact)
    assert near_sqrt(sd.evaluate(pipe_of(sd, tiers), now), spread)


def test_zscore_excludes_latest_sample():
    det = ZScoreDetector(id="z", channel="x", window=60)
    tiers = feed([0.0, 2.0, 0.0, 2.0, 4.0])
    # reference is [0,2,0,2]: mean 1, sigma 1; latest 4 gives z = 3
    assert det.evaluate(pipe_of(det, tiers), now_of(tiers)) == 3.0


def test_zscore_flat_reference_yields_zero():
    det = ZScoreDetector(id="z", channel="x", window=60)
    tiers = feed([1.0, 1.0, 1.0, 1.0, 5.0])
    assert det.evaluate(pipe_of(det, tiers), now_of(tiers)) == 0.0


def test_zscore_flat_reference_whose_mean_rounds_off_yields_zero():
    # ten impedance readings of 1059.085 average to 1059.0849999999998 in
    # floats, which left a sigma of 2.27e-13, and the next reading once
    # scored z = 6.24e12; in codes the reference is flat, D = 0 exactly
    x = [1059.085] * 10 + [1060.504]
    tiers = feed(x, kind=ChannelKind.IMPEDANCE_1)
    now = now_of(tiers)
    z = ZScoreDetector(id="z", channel="x", window=60)
    assert z.evaluate(pipe_of(z, tiers), now) == 0.0
    light = PathogenicityDetector(id="h", channel="x", tier="short", window=60)
    assert light.evaluate(pipe_of(light, tiers), now) == 0.0
    reference = feed(x[:-1], kind=ChannelKind.IMPEDANCE_1)
    now = now_of(reference)
    sd = StdDevDetector(id="s", channel="x", window=60)
    assert sd.evaluate(pipe_of(sd, reference), now) == 0.0
    mean = MeanDetector(id="m", channel="x", window=60)
    assert mean.evaluate(pipe_of(mean, reference), now) == 1059.085


@given(
    a=st.integers(min_value=-10**6, max_value=10**6).filter(bool),
    b=st.integers(min_value=-10**7, max_value=10**7),
)
@settings(max_examples=40, deadline=None)
def test_zscore_affine_invariant(a, b):
    # codes k -> a k + b map the grid onto itself and z onto sign(a) z
    # exactly: z**2 is the same ratio, so it rounds the same, to the bit
    det = ZScoreDetector(id="z", channel="x", window=60)
    base = [0, 2, 1, 2, 4]
    plain = feed([k * RES for k in base])
    scaled = feed([(a * k + b) * RES for k in base])
    z0 = det.evaluate(pipe_of(det, plain), now_of(plain))
    z1 = det.evaluate(pipe_of(det, scaled), now_of(scaled))
    assert z1 == math.copysign(z0, a)


@pytest.mark.parametrize(
    "latest,status",
    [(2.0, 0.0), (2.9, 0.0), (3.0, 1.0), (4.9, 1.0), (5.0, 2.0), (-4.0, 2.0)],
)
def test_pathogenicity_traffic_light(latest, status):
    # reference [0,2,0,2]: mean 1 sigma 1, so z = latest - 1
    det = PathogenicityDetector(id="h", channel="x", tier="short", window=60)
    tiers = feed([0.0, 2.0, 0.0, 2.0, latest])
    assert det.evaluate(pipe_of(det, tiers), now_of(tiers)) == status


def test_pathogenicity_insufficient_data():
    det = PathogenicityDetector(id="h", channel="x", tier="short", window=60)
    tiers = feed([0.0, 1.0])
    assert det.evaluate(pipe_of(det, tiers), now_of(tiers)) == 0.0


def test_bank_rejects_duplicate_ids_and_keeps_order():
    d1 = MeanDetector(id="a", channel="x", window=60)
    d2 = ZScoreDetector(id="b", channel="x", window=60)
    tiers = feed([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    with pytest.raises(ValueError):
        DetectorBank([d1, MeanDetector(id="a", channel="x", window=60)], tiers)
    bank = DetectorBank([d2, d1], tiers)
    vec = bank.evaluate(now_of(tiers))
    assert list(vec) == ["b", "a"]


def test_bank_rejects_non_finite_detector_output():
    class Broken:
        id = "bad"

        def evaluate(self, pipe, now_ms):
            return math.inf

    bank = DetectorBank([Broken()], TieredPipes(X))
    with pytest.raises(ValueError, match="non-finite"):
        bank.evaluate(0)


@dataclass(frozen=True, kw_only=True)
class CountingMean(MeanDetector):
    """A mean detector that logs the clock of every evaluate call."""

    calls: list = field(default_factory=list, compare=False)

    def evaluate(self, pipe, now_ms):
        self.calls.append(now_ms)
        return super().evaluate(pipe, now_ms)


class CountingGate:
    id = "gate"

    def __init__(self):
        self.calls = []

    def evaluate(self, pipe, now_ms):
        self.calls.append(now_ms)
        return FIRED


def push_cycle(tiers, t, value):
    tiers.push(x_record(t, value))


def test_bank_recomputes_a_windowed_detector_only_when_its_tier_moves():
    layout = TierLayout(middle_stride=5, long_stride=20)
    short = CountingMean(id="s", channel="x", tier="short", window=10)
    middle = CountingMean(id="m", channel="x", tier="middle", window=10)
    gate = CountingGate()
    tiers = TieredPipes(X, layout)
    bank = DetectorBank([short, middle, gate], tiers)
    stamps = [i * 1000 for i in range(50)]
    for i, t in enumerate(stamps):
        push_cycle(tiers, t, float(i))
        bank.evaluate(t)
    # a gate reads the clock, so it runs even on a call no push preceded
    bank.evaluate(99_000)
    assert gate.calls == stamps + [99_000]
    assert short.calls == stamps
    # on the first call, then once per middle push, on the cycle that pushed it
    assert middle.calls == [0] + stamps[4::5]


def test_bank_calls_stand_ins_put_in_after_construction():
    """A tracer swaps the bank's detectors for stand-ins carrying only an id
    and an evaluate; the bank must still call each one when its tier moves,
    handing it the pipe it resolved for that position (None for a gate)."""

    class StandIn:
        def __init__(self, detector):
            self.id = detector.id
            self.calls = []
            self.pipes = set()

            def evaluate(pipe, now_ms):
                self.calls.append(now_ms)
                self.pipes.add(pipe)
                return detector.evaluate(pipe, now_ms)

            self.evaluate = evaluate

    layout = TierLayout(middle_stride=4, long_stride=8)
    detectors = [
        StdDevDetector(id="s", channel="x", tier="short", window=6),
        GradientDetector(id="g", channel="x", per_hour=1.0, window=6),
        MeanDetector(id="l", channel="x", tier="long", window=6),
        TimeIntervalGate(id="t", start_ms=0, end_ms=10_000),
    ]
    tiers = TieredPipes(X, layout)
    bank = DetectorBank(detectors, tiers)
    bank.detectors = tuple(StandIn(d) for d in bank.detectors)
    reference = DetectorBank(detectors, tiers)
    stamps = [i * 1000 for i in range(40)]
    for i, t in enumerate(stamps):
        push_cycle(tiers, t, float(i % 7))
        assert bank.evaluate(t) == reference.evaluate(t)
    calls = [d.calls for d in bank.detectors]
    assert calls == [stamps, [0] + stamps[3::4], [0] + stamps[7::8], stamps]
    pipes = [d.pipes for d in bank.detectors]
    assert pipes == [{tiers.short}, {tiers.middle}, {tiers.long}, {None}]


def test_windows_past_the_capacity_share_one_state_in_a_bank():
    # 60 and 100 on a 60-slot tier both hold the last 60 samples
    rng = np.random.default_rng(7)
    detectors = [
        StdDevDetector(id="a", channel="x", window=60),
        StdDevDetector(id="b", channel="x", window=100),
    ]
    tiers = TieredPipes(X)
    bank = DetectorBank(detectors, tiers)
    for i, v in enumerate(rng.normal(0.0, 2.0, size=150).tolist()):
        push_cycle(tiers, i * 1000, v)
        vector = bank.evaluate(i * 1000)
        assert same_bits(vector["a"], vector["b"])
    assert vector["a"] != NO_DATA
    assert tiers.short.sums("x", 60) is tiers.short.sums("x", 100)
    assert len(tiers.short._states) == 1


def test_a_detector_needing_more_than_its_tier_holds_reads_no_data():
    # a config refuses such a detector at load; one built in code reads
    # NO_DATA on every call, however many samples were pushed
    det = MeanDetector(id="m", channel="x", window=60, min_samples=20)
    tiers = TieredPipes(X, TierLayout(short_capacity=10))
    bank = DetectorBank([det], tiers)
    for i in range(50):
        push_cycle(tiers, i * 1000, float(i))
        assert bank.evaluate(i * 1000) == {"m": NO_DATA}
        assert det.evaluate(tiers.short, i * 1000) == NO_DATA


def test_bank_retries_a_non_finite_detector_on_every_call():
    @dataclass(frozen=True, kw_only=True)
    class Broken(WindowedDetector):
        def _measure(self, pipe):
            return math.nan

    tiers = TieredPipes(X, TierLayout(middle_stride=2, long_stride=4))
    bank = DetectorBank([Broken(id="b", channel="x", tier="middle")], tiers)
    for t in (0, 1000, 2000):
        push_cycle(tiers, t, 1.0)
        assert bank.evaluate(t) == {"b": NO_DATA}
    push_cycle(tiers, 3000, 1.0)  # the middle tier's second sample
    for _ in range(2):
        with pytest.raises(ValueError, match="non-finite"):
            bank.evaluate(3000)
    push_cycle(tiers, 4000, 1.0)  # a cycle that leaves the middle tier be
    with pytest.raises(ValueError, match="non-finite"):
        bank.evaluate(4000)


def bank_bits(vector):
    return [(k, float(v).hex()) for k, v in vector.items()]


def fresh_bits(detectors, tiers, now_ms):
    """The vector of a fresh bank, which must be every detector's own value."""
    want = bank_bits(DetectorBank(detectors, tiers).evaluate(now_ms))
    assert want == bank_bits({d.id: d.evaluate(pipe_of(d, tiers), now_ms) for d in detectors})
    return want


@dataclass(frozen=True, kw_only=True)
class RaisingMean(CountingMean):
    """A counting mean detector whose call numbered raise_on raises."""

    raise_on: int

    def evaluate(self, pipe, now_ms):
        value = super().evaluate(pipe, now_ms)
        if len(self.calls) == self.raise_on:
            raise RuntimeError("detector fault")
        return value


@pytest.mark.parametrize("raise_on", [1, 2, 5])
def test_after_a_raise_the_detectors_from_the_raising_one_on_recompute(raise_on):
    tiers = TieredPipes(X)
    first = CountingMean(id="a", channel="x", window=4)
    middle = RaisingMean(id="b", channel="x", window=6, raise_on=raise_on)
    third = CountingMean(id="c", channel="x", window=9)
    detectors = (first, middle, third)
    bank = DetectorBank(detectors, tiers)
    plain = [MeanDetector(id=d.id, channel="x", window=d.window) for d in detectors]
    raised = 0
    for i in range(8):
        t = i * 1000
        push_cycle(tiers, t, float(i * i))
        try:
            vector = bank.evaluate(t)
        except RuntimeError:
            raised += 1
            before = [len(d.calls) for d in detectors]
            vector = bank.evaluate(t)  # no push in between
            # the first keeps the value it returned before the raise
            assert [len(d.calls) for d in detectors] == [
                before[0], before[1] + 1, before[2] + 1
            ]
        assert bank_bits(vector) == fresh_bits(plain, tiers, t)
    assert raised == 1
    assert [len(d.calls) for d in detectors] == [8, 9, 8]


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
    tiers = TieredPipes(X, layout)
    memo = DetectorBank(detectors, tiers)
    for i, v in enumerate(values):
        t = i * 1000
        push_cycle(tiers, t, v)
        assert bank_bits(memo.evaluate(t)) == fresh_bits(detectors, tiers, t)


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
    # NaN passes a "<= 0" test, and either leaves the detector QUIET forever
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="sigma must be positive and finite"):
            PeakDetector(id="p", channel="x", sigma=bad)
        with pytest.raises(ValueError, match="per_hour threshold must be positive"):
            GradientDetector(id="g", channel="x", per_hour=bad)
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
    for gate in (
        lambda: TimeIntervalGate(id="", start_ms=0, end_ms=5),
        lambda: TimeOfDayGate(id="", start_hour=1.0, end_hour=3.0),
    ):
        with pytest.raises(ValueError, match="detector id must be non-empty"):
            gate()


# --- oracles: the peak decides exactly as its formula does in rationals;
# every other windowed detector is its exact value rounded once or twice, or
# decides exactly.

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


def grid_push(tiers, stamps, codes, channel=X[0]):
    for t, k in zip(stamps, codes):
        tiers.push(Record(t, (k,), (channel,)))


@given(x=float_windows(min_size=3), lead=st.lists(window_values, max_size=10))
@settings(max_examples=100, deadline=None)
def test_measure_writes_nothing_in_the_pipe(x, lead):
    """Every windowed detector only reads its tier: every reading and stamp
    keeps its bits."""
    n = len(x)
    tiers = TieredPipes(X, layout=TierLayout(short_capacity=n))
    codes = [round(v / RES) for v in lead + x.tolist()]
    grid_push(tiers, [i * 1000 for i in range(len(codes))], codes)
    pipe = tiers.short
    required = {"gradient": {"per_hour": 1.0}, "cyclical": {"lag": 1}}
    for kind, cls in DETECTOR_KINDS.items():
        if not issubclass(cls, WindowedDetector):
            continue
        det = cls(id="d", channel="x", window=n, min_samples=2, **required.get(kind, {}))
        held = (pipe.values("x").tobytes(), pipe.timestamps_ms().tobytes())
        det.evaluate(pipe_of(det, tiers), 0)
        assert (pipe.values("x").tobytes(), pipe.timestamps_ms().tobytes()) == held, kind


def on_the_edge(value, fallback, lo=0.0, hi=math.inf):
    """A threshold equal to the parent's own statistic, so a result one ulp
    off on either side flips the decision; the fallback when it is unusable."""
    if value is not None and math.isfinite(value) and lo < value < hi:
        return value
    return fallback


def edges(value, fallback, lo=0.0, hi=math.inf):
    """Thresholds one ulp either side of a rational statistic and at its
    nearest float, where a decision one ulp off would flip; the fallback
    alone when the statistic is not inside (lo, hi)."""
    edge = on_the_edge(None if value is None else float(value), None, lo, hi)
    if edge is None:
        return [fallback]
    near = [math.nextafter(edge, -math.inf), edge, math.nextafter(edge, math.inf)]
    return [t for t in near if lo < t < hi]


def exact_median(v):
    v = sorted(v)
    h = len(v) // 2
    return Fraction(v[h]) if len(v) % 2 else Fraction(v[h - 1] + v[h], 2)


def exact_peak(x):
    """The peak's statistic over the window x (ints or Fractions), exactly:
    (|x_last - m|**2, (scale / MAD_SIGMA)**2), m the median and the scale
    MAD_SIGMA * max(spread MAD, difference median / sqrt(2))."""
    m = exact_median(x)
    mad = exact_median([abs(v - m) for v in x])
    diff = exact_median([abs(b - a) for a, b in zip(x, x[1:])])
    return (x[-1] - m) ** 2, max(mad * mad, diff * diff / 2)


def exact_verdict(peak2, scale2, bar):
    """FIRED iff |x_last - m| > bar * scale, bar and MAD_SIGMA as the floats
    they are; a zero scale fires on any deviation."""
    return FIRED if peak2 > (Fraction(bar) * Fraction(MAD_SIGMA)) ** 2 * scale2 else QUIET


def edge_bars(peak2, scale2):
    """Bars at the statistic |x_last - m| / scale (see edges), and 5.0."""
    ratio = peak2 / (scale2 * Fraction(MAD_SIGMA) ** 2) if scale2 else None
    return edges(None if ratio is None else math.sqrt(ratio), 5.0) + [5.0]


@given(
    x=float_windows(min_size=3),
    lead=st.lists(window_values, max_size=10),
    gaps=st.lists(st.integers(min_value=1, max_value=10**6), min_size=130, max_size=130),
    data=st.data(),
)
@settings(max_examples=150, deadline=None)
def test_peak_matches_the_parent_formula(x, lead, gaps, data):
    """The peak, reading its window back out of a ring that has wrapped,
    returns the verdict of the formula it replaced taken in exact rationals,
    over the grid values k * resolution, so the resolution must cancel: at
    bars one ulp either side of the statistic, then at the widened bar at
    sigma 5."""
    n = len(x)
    tiers = TieredPipes(X, layout=TierLayout(short_capacity=n))
    codes = [round(v / RES) for v in lead + x.tolist()]
    grid_push(tiers, np.cumsum(gaps[: len(codes)]).tolist(), codes)
    peak2, scale2 = exact_peak([k * Fraction(RES) for k in codes[-n:]])
    now = int(tiers.short.timestamps_ms(1)[0])
    common = dict(channel="x", tier="short", window=n, min_samples=2)

    def check(det, bar):
        assert det.evaluate(pipe_of(det, tiers), now) == exact_verdict(peak2, scale2, bar)

    sigma = data.draw(st.sampled_from(edge_bars(peak2, scale2)))
    # the parent's bar was sigma itself; with it restored, the statistic
    # is checked at its own edge, then the widened bar at sigma 5
    with mock.patch("phytolab.detectors._peak_bar", lambda sigma, n: sigma):
        check(PeakDetector(id="p", sigma=sigma, **common), sigma)
    check(PeakDetector(id="p", sigma=5.0, **common), _peak_bar(5.0, n))


def test_peak_refuses_a_window_holding_a_reading_that_is_not_finite():
    """A NaN or infinite reading has no code, so it never reaches a window:
    encode refuses it, a Record refuses a code outside its channel's range,
    and the peak reads the window as it was."""
    det = PeakDetector(id="p", channel="x", window=60)
    want = det.evaluate(pipe_of(det, feed(PEAK_BASE)), 11_000)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="non-finite"):
            X[0].spec.encode(bad)
    for bad in (2**63, -(2**63) - 1, X[0].spec.code_hi + 1):
        tiers = feed(PEAK_BASE)
        with pytest.raises(ValueError, match=r"on 'x' outside its range"):
            tiers.push(Record(99_000, (bad,), X))
        assert det.evaluate(pipe_of(det, tiers), 99_000) == want == QUIET


# codes across the biopotential range: ties, both ends and small codes
BIO = (ChannelId("x", ChannelKind.BIOPOTENTIAL_1),)
BIO_SPEC = BIO[0].spec
PEAK_CODES = st.one_of(
    st.sampled_from([0, 1, -1, 2, BIO_SPEC.code_lo, BIO_SPEC.code_hi, BIO_SPEC.code_hi - 1]),
    st.integers(-4, 4),
    st.integers(BIO_SPEC.code_lo, BIO_SPEC.code_hi),
)


class PeakOracle(RuleBasedStateMachine):
    """Pushes and skipped reads, slides longer than the ring, ties, constant
    windows and windows past the capacity, interleaved, on biopotential grid
    codes: after every read the peak's verdict is the exact one, at the
    widened bar and with the bar set one ulp either side of the statistic
    itself, where any rounding would flip it; the order state holds the
    window's codes and their absolute differences sorted, and four times
    its spread MAD is _twice_mad's."""

    def __init__(self) -> None:
        super().__init__()
        self.pipe = Pipe("p", 7, BIO)
        self.codes: list[int] = []

    def _push(self, k):
        self.codes.append(k)
        self.pipe.push(Record(len(self.codes), (k,), BIO))

    @rule(k=PEAK_CODES)
    def push(self, k):
        self._push(k)

    @rule(count=st.integers(2, 20), pool=st.lists(PEAK_CODES, min_size=1, max_size=3))
    def push_many(self, count, pool):
        for i in range(count):  # a one-value pool makes a constant window
            self._push(pool[i % len(pool)])

    @rule(window=st.integers(2, 10), data=st.data())
    def read(self, window, data):
        self.check(window, data.draw)

    @invariant()
    def eager_reads_are_exact(self):
        for window in (7, 4):
            self.check(window, lambda strategy: 5.0)

    def check(self, window, draw):
        det = PeakDetector(id="p", channel="x", window=window, min_samples=2)
        got = det.evaluate(self.pipe, 0)
        n = min(window, self.pipe.capacity, len(self.codes))
        if n < 2:
            assert got == NO_DATA
            return
        k = self.codes[-n:]
        peak2, scale2 = exact_peak(k)
        assert got == exact_verdict(peak2, scale2, _peak_bar(5.0, n))
        state = self.pipe.order("x", window)
        assert (state.n, state.last) == (n, k[-1])
        assert state.values == sorted(k)
        assert state.diffs == sorted(abs(b - a) for a, b in zip(k, k[1:]))
        m = exact_median(k)
        assert _twice_mad(state.values, int(2 * m)) == 4 * exact_median([abs(v - m) for v in k])
        sigma = draw(st.sampled_from(edge_bars(peak2, scale2)))
        with mock.patch("phytolab.detectors._peak_bar", lambda sigma, n: sigma):
            edged = PeakDetector(id="p", channel="x", window=window, min_samples=2, sigma=sigma)
            assert edged.evaluate(self.pipe, 0) == exact_verdict(peak2, scale2, sigma)


TestPeakOracle = PeakOracle.TestCase
TestPeakOracle.settings = settings(max_examples=60, stateful_step_count=40, deadline=None)


@st.composite
def grid_windows(draw, max_size=40):
    """A channel kind and a window of its codes inside its range, drawn from
    a pool: one code makes a flat window, a few make ties.  Codes also come
    from each end of the range, so impedance codes reach 10**12."""
    kind = draw(st.sampled_from(list(ChannelKind)))
    spec = CHANNEL_SPECS[kind]
    lo = math.ceil(spec.lo / spec.resolution)
    hi = math.floor(spec.hi / spec.resolution)
    codes = st.one_of(
        st.integers(lo, hi), st.integers(hi - 100, hi), st.integers(lo, lo + 100)
    )
    n = draw(st.integers(min_value=3, max_value=max_size))
    pool = draw(st.lists(codes, min_size=1, max_size=n))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=n, max_size=n))
    lead = draw(st.lists(codes, max_size=10))
    return kind, lead, [pool[i] for i in picks]


@given(
    case=grid_windows(),
    t0=st.integers(min_value=0, max_value=10**11),
    gaps=st.lists(st.integers(min_value=1, max_value=10**6), min_size=50, max_size=50),
    data=st.data(),
)
@example(
    case=(ChannelKind.IMPEDANCE_1, [10**12], [10**12 - 1] * 9 + [10**12]),
    t0=10**11, gaps=[1] * 50, data=None,
)
# a slope of exactly 128 codes an hour (one code per 28,125 ms), a float, so
# the gradient's threshold can equal it and a strict comparison must not fire
@example(case=(ChannelKind.SAP_FLOW, [], [0, 1, 2, 3, 4, 5]), t0=0, gaps=[28_125] * 50, data=None)
@settings(max_examples=200, deadline=None)
def test_windowed_statistics_are_exact(case, t0, gaps, data):
    """On grid readings of every channel kind, after the ring has wrapped,
    the mean is its exact rational value rounded to the nearest float, each
    square-root statistic is its exact ratio rounded, then math.sqrt of that,
    and so within SQRT_REL of its exact value (a flat window's is exactly 0),
    and each decision is exact at thresholds one ulp either side of its
    statistic."""
    kind, lead, codes = case
    channel = ChannelId("x", kind)
    res = channel.spec.resolution
    n = len(codes)
    tiers = TieredPipes([channel], TierLayout(short_capacity=n))
    stamps = [t0 + t for t in np.cumsum(gaps[: len(lead) + n]).tolist()]
    grid_push(tiers, stamps, lead + codes, channel)
    now, t_ms = stamps[-1], stamps[-n:]
    x = [k * Fraction(res) for k in codes]
    common = dict(channel="x", tier="short", window=n, min_samples=2)
    pick = (lambda options: data.draw(st.sampled_from(options))) if data else (lambda o: o[len(o) // 2])

    def value(det):
        return det.evaluate(pipe_of(det, tiers), now)

    mean = sum(x) / n
    spread = sum((v - mean) ** 2 for v in x)
    assert same_bits(value(MeanDetector(id="m", **common)), float(mean))
    assert rounded_twice(value(StdDevDetector(id="s", **common)), spread / n)
    noise = sum((x[i] - x[i - 1]) ** 2 for i in range(1, n)) / (2 * (n - 1))
    assert rounded_twice(value(NoiseLevelDetector(id="n", **common)), noise)

    rest = x[:-1]
    rest_mean = sum(rest) / (n - 1)
    rest_var = sum((v - rest_mean) ** 2 for v in rest) / (n - 1)
    z = value(ZScoreDetector(id="z", **common))
    if rest_var == 0:  # a flat reference scores exactly 0
        assert same_bits(z, 0.0)
        z2 = Fraction(0)
    else:
        dev = x[-1] - rest_mean
        z2 = dev * dev / rest_var
        assert rounded_twice(abs(z), z2) and (z < 0) == (dev < 0)
    z_yellow = pick(edges(abs(z) if z2 else None, 2.0, hi=1e300))
    for z_red in (2.0 * z_yellow, math.nextafter(z_yellow, math.inf)):
        want = 0.0 if z2 < Fraction(z_yellow) ** 2 else 1.0 if z2 < Fraction(z_red) ** 2 else 2.0
        light = PathogenicityDetector(id="h", z_yellow=z_yellow, z_red=z_red, **common)
        assert same_bits(value(light), want)

    slope = exact_slope(codes, t_ms, res)
    per_hour = pick(edges(abs(slope), 1.0))
    bar = Fraction(per_hour)
    for direction, fires in (
        ("rising", slope > bar), ("falling", slope < -bar), ("either", abs(slope) > bar)
    ):
        det = GradientDetector(id="g", per_hour=per_hour, direction=direction, **common)
        assert value(det) == (FIRED if fires else QUIET)

    lag = pick(list(range(1, n - 1)))
    r = None
    if spread:
        r = sum((x[i] - mean) * (x[i + lag] - mean) for i in range(n - lag)) / spread
    threshold = pick(edges(r, 0.5, lo=-1.0, hi=1.0))
    want = FIRED if r is not None and r > Fraction(threshold) else QUIET
    assert value(CyclicalDetector(id="c", lag=lag, threshold=threshold, **common)) == want
