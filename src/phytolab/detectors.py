"""Detector bank: per-cycle feature extraction over the retention tiers.

Each windowed detector is handed its tier's pipe and reads a window of one
channel from it; every detector contributes one float to the output vector.
Boolean detectors emit 1.0 (condition holds), -1.0 (condition checked and
absent) or NO_DATA (0.0, not enough data yet); numeric detectors emit their
measurement, with NO_DATA doubling as the insufficient-data marker.  All
threshold comparisons are strict, so a value exactly at a threshold does not
fire.

The bank, built on one set of tiers, recomputes a windowed detector only
when its tier's push count has moved since the detector's last value, and
reuses that value otherwise: a middle-tier detector runs once per
middle_stride cycles, a long-tier one once per long_stride.  Gates read only
the clock, are handed None for a pipe and run on every cycle.

Every windowed detector reads sliding state its tier keeps (pipes), made at
its first read and slid by every push after, never the window itself, and
decides in the window's integer codes.  The peak
reads the codes and their absolute first differences in sorted order
(pipes.WindowOrder); every other windowed detector reads exact integer sums
(pipes.WindowSums).  Over the window's n codes k_i (reading = r * k_i, r the
channel's resolution, itself an exact ratio), with S = sum k_i,
Q = sum k_i**2 and D = n * Q - S**2:

- mean is r * S / n, and stddev, the population deviation, r * sqrt(D) / n;
- noise_level is r * sqrt(sum (k_i - k_(i-1))**2 / (2 * (n - 1)));
- zscore is (m * k - S') / sqrt(m * Q' - S'**2) for the newest code k
  against the m = n - 1 codes before it (S', Q' their sums), in which the
  resolution cancels.

Each is computed from Python ints.  The mean is their ratio rounded once,
to the nearest float.  Each of the others is the square root of a ratio: the
ratio is rounded once to the nearest float, then math.sqrt rounds once more
(IEEE 754 square root), so its relative error is below 1.5 * 2**-53 +
2**-106.  Both roundings are the same on every machine.
pathogenicity_status compares that z, gradient the least-squares slope over
(t in ms, k) and cyclical the lag autocorrelation with their thresholds in
integers, with no rounding at all.  A window is flat exactly when D == 0:
its stddev is 0.0, a flat reference scores z = 0.0 (green), and a flat
cyclical window is QUIET.  The peak's medians are index reads of the
sorted lists and its spread MAD a selection from them (_twice_mad), each
doubled to stay an integer; it compares squares, so sqrt(2) drops out, and
reads its bar times MAD_SIGMA as an exact ratio, so it rounds nothing either.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Protocol, Sequence

from .channels import check_unique_names, named_index
from .pipes import LONG, MIDDLE, SHORT, Pipe, TieredPipes, WindowSums

# Unbiased sigma estimate from the median absolute deviation for a normal
# population: sigma ~= 1.4826 * MAD.
MAD_SIGMA = 1.4826

NO_DATA = 0.0
FIRED = 1.0
QUIET = -1.0

MS_PER_HOUR = 3_600_000


def _twice_median(s: Sequence[int]) -> int:
    """Twice the median of the codes s, sorted ascending, an integer."""
    h = len(s) // 2
    return 2 * s[h] if len(s) % 2 else s[h - 1] + s[h]


def _twice_mad(s: Sequence[int], m2: int) -> int:
    """Twice the median of |2 k - m2| over the codes k of s, sorted ascending.

    With m2 twice the median, that is four times the MAD of s.  The
    deviations of the codes left of m2 / 2, read right to left, ascend, and
    so do those of the codes from m2 / 2 on.  The middle deviation, the k-th
    smallest of those two runs, is found by a binary search over how many
    come from the left run; the (k+1)-th, which an even window also needs,
    is the smaller of the two runs' next ones.
    """
    n = len(s)
    p = bisect_left(s, (m2 + 1) >> 1)  # 2 * s[:p] < m2 <= 2 * s[p:]
    k = (n - 1) // 2  # the (first) middle rank, from 0
    # the deviation is m2 - 2 x left of m2 / 2 and 2 x - m2 from it on; take
    # i from the left run, k + 1 - i from the right
    lo, hi = max(0, k + 1 - (n - p)), min(k + 1, p)
    q = p + k
    while lo < hi:
        i = (lo + hi) >> 1
        if m2 < s[p - 1 - i] + s[q - i]:
            lo = i + 1  # the left run's next deviation is among the k + 1
        else:
            hi = i
    i, j = lo, q + 1 - lo  # s[p - i:j] are the codes of the k + 1
    # the larger deviation of its ends; an end on the other side reads < 0
    kth = max(m2 - 2 * s[p - i], 2 * s[j - 1] - m2)
    if n % 2:
        return 2 * kth
    if i == p:
        after = 2 * s[j] - m2
    elif j == n:
        after = m2 - 2 * s[p - 1 - i]
    else:
        after = min(m2 - 2 * s[p - 1 - i], 2 * s[j] - m2)
    return kth + after


def _latest_z(w: WindowSums) -> tuple[int, int]:
    """(u, v) with z = u / sqrt(v): the newest code k against the m = n - 1
    codes before it, u = m * k - S and v = m * Q - S**2 for their sums S
    and Q.  v == 0 is a flat reference; the resolution cancels."""
    m, k = w.n - 1, w.last
    rest = w.s1 - k
    return m * k - rest, m * (w.s2 - k * k) - rest * rest


def _below(u2: int, v: int, bar: float) -> bool:
    """u2 / v < bar**2 for v > 0, that is |z| < bar, decided in integers."""
    a, b = bar.as_integer_ratio()
    return u2 * b * b < a * a * v


@functools.lru_cache(maxsize=256)
def _peak_bar(sigma: float, n: int) -> float:
    """The peak detector's bar, in scale units, for an n-sample window.

    Student's t quantile at the tail probability of a sigma-sigma Gaussian
    event (the approximation sqrt(nu * expm1(sigma^2 (nu - 1.5) / (nu - 1)^2)),
    within 2.5% above the exact quantile at sigma 5 for nu >= 7.8).  nu = 0.65 n
    was fitted by integrating the Gaussian tail over simulated windows of 12 to
    240 samples: at sigma 3 to 5 and n >= 16, quiet noise then crosses the bar
    at 0.5 to 1.3 times the two-sided Gaussian rate, where the plain
    sigma * scale bar is crossed 15 times too often at n = 60 (8.5e-6 per
    sample at sigma 5).  nu is held at 3 or more, where the approximation is
    defined; the bar tends to sigma as n grows.
    """
    nu = max(0.65 * n, 3.0)
    return math.sqrt(nu * math.expm1(sigma * sigma * (nu - 1.5) / (nu - 1.0) ** 2))


@functools.lru_cache(maxsize=256)
def _squared_scale_bar(bar: float) -> tuple[int, int]:
    """(bar * MAD_SIGMA)**2 as an exact ratio (num, den) of the two floats."""
    (a, b), (c, d) = bar.as_integer_ratio(), MAD_SIGMA.as_integer_ratio()
    return (a * c) ** 2, (b * d) ** 2


class Detector(Protocol):
    id: str

    def evaluate(self, pipe: Pipe | None, now_ms: int) -> float: ...


@dataclass(frozen=True, kw_only=True)
class WindowedDetector:
    """Shared shape of the detectors that read one channel's recent window.

    evaluate is handed the pipe of the detector's tier.  It returns NO_DATA
    while the pipe holds fewer than required_samples() readings (<= window,
    checked at construction); otherwise the subclass's _measure reads the
    last `window` readings of `channel`, or their exact sums, from the pipe.
    """

    id: str
    channel: str
    tier: str = SHORT
    window: int = 60
    min_samples: int = 2

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("detector id must be non-empty")
        if self.tier not in (SHORT, MIDDLE, LONG):
            raise ValueError(f"{self.id}: unknown tier {self.tier!r}")
        needed = self.required_samples()
        if needed < 2:
            raise ValueError(f"{self.id}: min_samples must be >= 2, got {needed}")
        if self.window < needed:
            raise ValueError(
                f"{self.id}: window {self.window} smaller than min_samples {needed}"
            )

    def required_samples(self) -> int:
        return self.min_samples

    def evaluate(self, pipe: Pipe, now_ms: int) -> float:
        if len(pipe) < self.required_samples():
            return NO_DATA
        return self._measure(pipe)

    def _measure(self, pipe: Pipe) -> float:
        raise NotImplementedError


@dataclass(frozen=True, kw_only=True)
class PeakDetector(WindowedDetector):
    """Robust outlier flag: newest |x - median| beyond _peak_bar * noise scale.

    Each sample is judged once, on arrival, so a spike already inside the
    window cannot retrigger.  The noise scale is the larger of two robust
    estimates, the spread MAD and the first-difference MAD over sqrt(2);
    taking the max keeps a fluke-low spread in one view from faking a peak.
    The scale comes from the window itself, so the bar is widened for its
    uncertainty (see _peak_bar): quiet Gaussian noise crosses it about as
    rarely as it strays sigma standard deviations from its known mean.
    A constant window (zero scale) fires on any deviation at all, since the
    noise estimate claims a perfectly quiet channel.
    """

    sigma: float = 5.0
    min_samples: int = 12

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0 < self.sigma < math.inf:
            raise ValueError(f"{self.id}: sigma must be positive and finite")

    def _measure(self, pipe: Pipe) -> float:
        # in codes, the resolution cancelling: with m the median and k the
        # newest code, peak is 2 (k - m), spread four times the spread MAD
        # and diff twice the difference median; the verdict is |k - m| >
        # bar * MAD_SIGMA * max(spread / 4, diff / (2 sqrt 2)), squared
        w = pipe.order(self.channel, self.window)
        m2 = _twice_median(w.values)
        peak, spread, diff = 2 * w.last - m2, _twice_mad(w.values, m2), _twice_median(w.diffs)
        num, den = _squared_scale_bar(_peak_bar(self.sigma, w.n))
        fired = 4 * peak * peak * den > num * max(spread * spread, 2 * diff * diff)
        return FIRED if fired else QUIET


@dataclass(frozen=True, kw_only=True)
class GradientDetector(WindowedDetector):
    """Least-squares drift of a window, thresholded in units per hour.

    With the window's n codes k_i at t_i ms, the slope is
    r * 3.6e6 * (n * sum t k - sum t * sum k) / (n * sum t**2 - (sum t)**2)
    units per hour; it is compared with per_hour in integers.  The
    denominator is > 0, since a tier's timestamps strictly increase.
    """

    per_hour: float
    tier: str = MIDDLE
    direction: str = "either"  # rising | falling | either
    min_samples: int = 6

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0 < self.per_hour < math.inf:
            raise ValueError(f"{self.id}: per_hour threshold must be positive and finite")
        if self.direction not in ("rising", "falling", "either"):
            raise ValueError(f"{self.id}: bad direction {self.direction!r}")

    def _measure(self, pipe: Pipe) -> float:
        w = pipe.sums(self.channel, self.window, timed=True)
        num, den = w.grid
        a, b = self.per_hour.as_integer_ratio()
        # slope > per_hour  <=>  rise > bar, both sides times the positive
        # (n sum t**2 - (sum t)**2) * den * b
        rise = (w.n * w.stk - w.st * w.s1) * num * MS_PER_HOUR * b
        bar = (w.n * w.stt - w.st * w.st) * den * a
        if self.direction == "rising":
            return FIRED if rise > bar else QUIET
        if self.direction == "falling":
            return FIRED if rise < -bar else QUIET
        return FIRED if abs(rise) > bar else QUIET


@dataclass(frozen=True, kw_only=True)
class NoiseLevelDetector(WindowedDetector):
    """Numeric: high-frequency noise RMS, from first differences over sqrt(2).

    Differencing cancels slow structure; for white noise of sigma the
    expectation is sigma itself, for a constant or slow ramp nearly zero.
    r * sqrt(sum (k_i - k_(i-1))**2 / (2 (n - 1))), rounded twice.
    """

    min_samples: int = 8

    def _measure(self, pipe: Pipe) -> float:
        w = pipe.sums(self.channel, self.window)
        num, den = w.grid
        return math.sqrt(w.d2 * num * num / (2 * (w.n - 1) * den * den))


@dataclass(frozen=True, kw_only=True)
class CyclicalDetector(WindowedDetector):
    """Fires when the lag autocorrelation of the window exceeds a threshold.

    The window must hold at least lag + 2 samples, whatever min_samples says.
    The autocorrelation, sum (k_i - m)(k_(i+lag) - m) / sum (k_i - m)**2
    with m the window's mean code, is compared with threshold in integers;
    a flat window (zero denominator) carries no cycle and is QUIET.
    """

    lag: int
    tier: str = MIDDLE
    threshold: float = 0.5

    def __post_init__(self) -> None:
        if self.lag < 1:
            raise ValueError(f"{self.id}: lag must be >= 1")
        super().__post_init__()
        if not (-1.0 < self.threshold < 1.0):
            raise ValueError(f"{self.id}: threshold must be inside (-1, 1)")

    def required_samples(self) -> int:
        return max(self.min_samples, self.lag + 2)

    def _measure(self, pipe: Pipe) -> float:
        w = pipe.sums(self.channel, self.window, lag=self.lag)
        n, s1 = w.n, w.s1
        spread = n * w.s2 - s1 * s1  # n * sum (k_i - m)**2
        if spread == 0:
            return QUIET
        # n**2 * sum (k_i - m)(k_(i+lag) - m); the pairs miss the last lag
        # codes on one side (tail) and the first lag on the other (head)
        cov = (
            n * n * w.lagged
            - n * s1 * (2 * s1 - w.head - w.tail)
            + (n - self.lag) * s1 * s1
        )
        a, b = self.threshold.as_integer_ratio()
        return FIRED if cov * b > a * n * spread else QUIET


@dataclass(frozen=True)
class TimeIntervalGate:
    """Fires inside [start_ms, end_ms): closed at the start, open at the end.

    Both bounds go through channels.named_index, as every timestamp does."""

    id: str
    start_ms: int
    end_ms: int

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("detector id must be non-empty")
        for name in ("start_ms", "end_ms"):
            object.__setattr__(self, name, named_index(name, getattr(self, name)))
        if self.end_ms <= self.start_ms:
            raise ValueError(f"{self.id}: empty interval")

    def evaluate(self, pipe: None, now_ms: int) -> float:
        return FIRED if self.start_ms <= now_ms < self.end_ms else QUIET


@dataclass(frozen=True)
class TimeOfDayGate:
    """Fires inside the daily window [start_hour, end_hour).

    start_hour > end_hour spans midnight, e.g. 22 to 6.
    """

    id: str
    start_hour: float
    end_hour: float

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("detector id must be non-empty")
        for h in (self.start_hour, self.end_hour):
            if not (0.0 <= h < 24.0):
                raise ValueError(f"{self.id}: hour {h} outside [0, 24)")
        if self.start_hour == self.end_hour:
            raise ValueError(f"{self.id}: empty daily window")

    def evaluate(self, pipe: None, now_ms: int) -> float:
        hour = (now_ms / MS_PER_HOUR) % 24.0
        if self.start_hour < self.end_hour:
            inside = self.start_hour <= hour < self.end_hour
        else:
            inside = hour >= self.start_hour or hour < self.end_hour
        return FIRED if inside else QUIET


@dataclass(frozen=True, kw_only=True)
class MeanDetector(WindowedDetector):
    """Numeric: arithmetic mean of the window, r * S / n rounded once."""

    min_samples: int = 4

    def _measure(self, pipe: Pipe) -> float:
        w = pipe.sums(self.channel, self.window)
        num, den = w.grid
        return w.s1 * num / (w.n * den)


@dataclass(frozen=True, kw_only=True)
class StdDevDetector(WindowedDetector):
    """Numeric: population standard deviation of the window,
    r * sqrt(n * Q - S**2) / n rounded twice; exactly 0.0 when flat."""

    min_samples: int = 4

    def _measure(self, pipe: Pipe) -> float:
        w = pipe.sums(self.channel, self.window)
        num, den = w.grid
        spread = w.n * w.s2 - w.s1 * w.s1
        return math.sqrt(spread * num * num / (w.n * den) ** 2)


@dataclass(frozen=True, kw_only=True)
class ZScoreDetector(WindowedDetector):
    """Numeric: z of the latest sample against the preceding window.

    The latest sample is excluded from the reference statistics so a real
    excursion cannot mask itself; a flat reference (zero sigma) yields 0.
    z = (m * k - S') / sqrt(m * Q' - S'**2), rounded twice.
    """

    min_samples: int = 5

    def _measure(self, pipe: Pipe) -> float:
        u, v = _latest_z(pipe.sums(self.channel, self.window))
        if v == 0:
            return 0.0
        z = math.sqrt(u * u / v)
        return -z if u < 0 else z


@dataclass(frozen=True, kw_only=True)
class PathogenicityDetector(WindowedDetector):
    """Numeric traffic light from the latest-sample z: 0 green, 1 yellow, 2 red.

    |z| below z_yellow is green, between z_yellow and z_red yellow, at or
    beyond z_red red; the exact z is compared with each bar in integers, and
    a flat reference is green.
    """

    tier: str = MIDDLE
    z_yellow: float = 2.0
    z_red: float = 4.0
    min_samples: int = 5

    def __post_init__(self) -> None:
        super().__post_init__()
        if not (0.0 < self.z_yellow < self.z_red):
            raise ValueError(
                f"{self.id}: need 0 < z_yellow < z_red, got "
                f"{self.z_yellow}, {self.z_red}"
            )

    def _measure(self, pipe: Pipe) -> float:
        u, v = _latest_z(pipe.sums(self.channel, self.window))
        if v == 0 or _below(u * u, v, self.z_yellow):
            return 0.0
        if _below(u * u, v, self.z_red):
            return 1.0
        return 2.0


DETECTOR_KINDS: dict[str, type] = {
    "peak": PeakDetector,
    "gradient": GradientDetector,
    "noise_level": NoiseLevelDetector,
    "cyclical": CyclicalDetector,
    "time_interval": TimeIntervalGate,
    "time_of_day": TimeOfDayGate,
    "mean": MeanDetector,
    "stddev": StdDevDetector,
    "zscore": ZScoreDetector,
    "pathogenicity_status": PathogenicityDetector,
}


def build_detector(kind: str, **params) -> Detector:
    """Instantiate a detector by kind name; unknown kinds and params raise."""
    try:
        cls = DETECTOR_KINDS[kind]
    except KeyError:
        raise ValueError(
            f"unknown detector kind {kind!r}, expected one of {sorted(DETECTOR_KINDS)}"
        )
    try:
        return cls(**params)
    except TypeError as exc:
        raise ValueError(f"bad parameters for {kind!r}: {exc}") from None


class DetectorBank:
    """Ordered detectors producing the per-cycle vector of one set of tiers.

    Each WindowedDetector is handed its tier's pipe, resolved once, here;
    it is recomputed only when that pipe's total_pushed differs from the
    count at its last finite value, which is reused otherwise.  It reads
    only the pipe's retained samples and timestamps, never now_ms, and only
    Pipe.push changes those, so the reused value is what a fresh evaluation
    would return; one whose call raised is recomputed on the next.  Gates
    and any other Detector are handed None and run on every call.  Pipes are
    kept by position and evaluate walks self.detectors, so a detector
    swapped in later at the same position is called, with that pipe.
    """

    def __init__(self, detectors: Sequence[Detector], tiers: TieredPipes) -> None:
        check_unique_names("detector ids", [d.id for d in detectors])
        self.detectors = tuple(detectors)
        # per detector: its pipe (None: runs on every call), total_pushed at its value
        self._pipes = tuple(
            tiers.tier(d.tier) if isinstance(d, WindowedDetector) else None
            for d in self.detectors
        )
        self._pushed: list[int | None] = [None] * len(self.detectors)
        self._last = [NO_DATA] * len(self.detectors)

    def evaluate(self, now_ms: int) -> dict[str, float]:
        """Output vector keyed by detector id, in configuration order."""
        pushed, last = self._pushed, self._last
        out: dict[str, float] = {}
        for i, (det, pipe) in enumerate(zip(self.detectors, self._pipes)):
            count = None if pipe is None else pipe.total_pushed
            if count is None or count != pushed[i]:
                value = det.evaluate(pipe, now_ms)
                if not math.isfinite(value):
                    raise ValueError(f"detector {det.id!r} produced non-finite {value}")
                last[i], pushed[i] = value, count
            out[det.id] = last[i]
        return out
