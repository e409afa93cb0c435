"""Detector bank: per-cycle feature extraction over the retention tiers.

Each detector reads a window of one channel from one tier and contributes a
single float to the output vector.  Boolean detectors emit 1.0 (condition
holds), -1.0 (condition checked and absent) or NO_DATA (0.0, not enough
data yet); numeric detectors emit their measurement, with NO_DATA doubling as
the insufficient-data marker.  All threshold comparisons are strict, so a
value exactly at a threshold does not fire.

The bank, built on one set of tiers, recomputes a windowed detector only
when its tier's push count has moved since the detector's last value, and
reuses that value otherwise: a middle-tier detector runs once per
middle_stride cycles, a long-tier one once per long_stride.  Gates read the
clock and run on every cycle.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np

from .channels import check_unique_names
from .pipes import LONG, MIDDLE, SHORT, Pipe, TieredPipes

# Unbiased sigma estimate from the median absolute deviation for a normal
# population: sigma ~= 1.4826 * MAD.
MAD_SIGMA = 1.4826

NO_DATA = 0.0
FIRED = 1.0
QUIET = -1.0

MS_PER_HOUR = 3_600_000.0


# Scalar kernels for the windowed detectors.  Each does what numpy's own
# median, mean or std does internally on a 1-D float64 array, in the same
# order, so the results are bit-identical, without the per-call overhead of
# the numpy functions.  Sums go through np.add.reduce (numpy's pairwise sum),
# never through a dot product, which sums in another order.  Windows are
# sorted, and residuals squared, in place, but only in a copy or a temporary
# the kernel made itself, never in the caller's window: ndarray.sort on a
# copy is what np.sort runs, without np.sort's dispatch and wrapper.


def _median_of_sorted(s: np.ndarray) -> float:
    """np.median of a window already sorted ascending (NaNs last, as sort
    puts them): NaN if any, else the middle element or the middle pair's mean.

    numpy sums the middle with np.add.reduce, which starts from +0.0, so a
    middle of -0.0 comes out +0.0.  0.0 + ... repeats that sign rule and
    changes no other value.  The peak detector, the one detector that takes
    a median, reads it only through |x - m| anyway, so a zero's sign cannot
    reach its output.
    """
    n = len(s)
    if math.isnan(s[-1]):
        return math.nan
    h = n // 2
    if n % 2:
        return 0.0 + s.item(h)
    return (0.0 + s.item(h - 1) + s.item(h)) / 2


def _mean(x: np.ndarray) -> float:
    """x.mean(): numpy's pairwise sum over the count."""
    return float(np.add.reduce(x)) / len(x)


def _mean_std(x: np.ndarray) -> tuple[float, float]:
    """(x.mean(), x.std()): the population deviation comes from the pairwise
    sum of the residuals, squared in their own temporary."""
    mean = _mean(x)
    d = x - mean
    d *= d
    return mean, math.sqrt(float(np.add.reduce(d)) / len(x))


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


class Detector(Protocol):
    id: str

    def evaluate(self, tiers: TieredPipes, now_ms: int) -> float: ...


@dataclass(frozen=True, kw_only=True)
class WindowedDetector:
    """Shared shape of the detectors that read one channel's recent window.

    evaluate fetches the last `window` readings of `channel` from `tier` and
    returns NO_DATA while fewer than required_samples() have arrived;
    otherwise the subclass's _measure turns the window into the output.
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

    def evaluate(self, tiers: TieredPipes, now_ms: int) -> float:
        pipe = tiers.tier(self.tier)
        x = pipe.values(self.channel, self.window)
        if len(x) < self.required_samples():
            return NO_DATA
        return self._measure(x, pipe)

    def _measure(self, x: np.ndarray, pipe: Pipe) -> float:
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

    def _measure(self, x: np.ndarray, pipe: Pipe) -> float:
        # one sorted copy gives the median; the same buffer then takes |x - m|
        s = x.copy()
        s.sort()
        dev = np.subtract(x, _median_of_sorted(s), out=s)
        np.abs(dev, out=dev)
        peak = dev.item(-1)
        dev.sort()
        diff = x[1:] - x[:-1]
        np.abs(diff, out=diff)
        diff.sort()
        diff_mad = _median_of_sorted(diff) / math.sqrt(2.0)
        scale = MAD_SIGMA * max(_median_of_sorted(dev), diff_mad)
        if scale == 0.0:
            return FIRED if peak > 0.0 else QUIET
        return FIRED if peak > _peak_bar(self.sigma, len(x)) * scale else QUIET


@dataclass(frozen=True, kw_only=True)
class GradientDetector(WindowedDetector):
    """Least-squares drift of a window, thresholded in units per hour."""

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

    def _measure(self, x: np.ndarray, pipe: Pipe) -> float:
        t = pipe.timestamps_ms(self.window).astype(np.float64) / MS_PER_HOUR
        t -= _mean(t)
        denom = float(np.dot(t, t))
        if denom == 0.0:
            return NO_DATA
        slope = float(np.dot(t, x - _mean(x))) / denom
        if self.direction == "rising":
            return FIRED if slope > self.per_hour else QUIET
        if self.direction == "falling":
            return FIRED if slope < -self.per_hour else QUIET
        return FIRED if abs(slope) > self.per_hour else QUIET


@dataclass(frozen=True, kw_only=True)
class NoiseLevelDetector(WindowedDetector):
    """Numeric: high-frequency noise RMS, from first differences over sqrt(2).

    Differencing cancels slow structure; for white noise of sigma the
    expectation is sigma itself, for a constant or slow ramp nearly zero.
    """

    min_samples: int = 8

    def _measure(self, x: np.ndarray, pipe: Pipe) -> float:
        d = x[1:] - x[:-1]
        d *= d
        return math.sqrt(_mean(d) / 2.0)


@dataclass(frozen=True, kw_only=True)
class CyclicalDetector(WindowedDetector):
    """Fires when the lag autocorrelation of the window exceeds a threshold.

    The window must hold at least lag + 2 samples, whatever min_samples says.
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

    def _measure(self, x: np.ndarray, pipe: Pipe) -> float:
        y = x - _mean(x)
        denom = float(np.dot(y, y))
        if denom == 0.0:
            return QUIET  # constant series carries no cycle
        r = float(np.dot(y[self.lag:], y[: -self.lag])) / denom
        return FIRED if r > self.threshold else QUIET


@dataclass(frozen=True)
class TimeIntervalGate:
    """Fires inside [start_ms, end_ms): closed at the start, open at the end."""

    id: str
    start_ms: int
    end_ms: int

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("detector id must be non-empty")
        if self.end_ms <= self.start_ms:
            raise ValueError(f"{self.id}: empty interval")

    def evaluate(self, tiers: TieredPipes, now_ms: int) -> float:
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

    def evaluate(self, tiers: TieredPipes, now_ms: int) -> float:
        hour = (now_ms / MS_PER_HOUR) % 24.0
        if self.start_hour < self.end_hour:
            inside = self.start_hour <= hour < self.end_hour
        else:
            inside = hour >= self.start_hour or hour < self.end_hour
        return FIRED if inside else QUIET


@dataclass(frozen=True, kw_only=True)
class MeanDetector(WindowedDetector):
    """Numeric: arithmetic mean of the window."""

    min_samples: int = 4

    def _measure(self, x: np.ndarray, pipe: Pipe) -> float:
        return _mean(x)


@dataclass(frozen=True, kw_only=True)
class StdDevDetector(WindowedDetector):
    """Numeric: population standard deviation of the window."""

    min_samples: int = 4

    def _measure(self, x: np.ndarray, pipe: Pipe) -> float:
        return _mean_std(x)[1]


def _latest_zscore(x: np.ndarray) -> float:
    """z of the newest sample against the rest of the window (excluded); a
    flat reference, all of its samples equal, scores 0.

    The mean of equal samples can round off by a few ulps and leave a sigma
    of that size, so a sigma within 4 n ulps of the mean (the pairwise sum's
    worst rounding) is checked against the samples themselves.
    """
    rest = x[:-1]
    mean, sigma = _mean_std(rest)
    if sigma == 0.0 or (
        sigma <= 4 * len(rest) * math.ulp(mean) and rest.min() == rest.max()
    ):
        return 0.0
    return (x.item(-1) - mean) / sigma


@dataclass(frozen=True, kw_only=True)
class ZScoreDetector(WindowedDetector):
    """Numeric: z of the latest sample against the preceding window.

    The latest sample is excluded from the reference statistics so a real
    excursion cannot mask itself; a flat reference (zero sigma) yields 0.
    """

    min_samples: int = 5

    def _measure(self, x: np.ndarray, pipe: Pipe) -> float:
        return _latest_zscore(x)


@dataclass(frozen=True, kw_only=True)
class PathogenicityDetector(WindowedDetector):
    """Numeric traffic light from the latest-sample z: 0 green, 1 yellow, 2 red.

    |z| below z_yellow is green, between z_yellow and z_red yellow, at or
    beyond z_red red.
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

    def _measure(self, x: np.ndarray, pipe: Pipe) -> float:
        z = abs(_latest_zscore(x))
        if z < self.z_yellow:
            return 0.0
        if z < self.z_red:
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

    A WindowedDetector is recomputed only when its tier's total_pushed differs
    from the count at the detector's last finite value, which is reused
    otherwise.  Such a detector reads only its tier's retained samples and
    timestamps, never now_ms, and only Pipe.push changes those, so the reused
    value is what a fresh evaluation would return; a detector whose call
    raised is recomputed on the next.  Gates and any other Detector run on
    every call.  Pipes are resolved by position at construction and evaluate
    walks self.detectors, so a detector swapped in later at the same position
    is called in its place.
    """

    def __init__(self, detectors: Sequence[Detector], tiers: TieredPipes) -> None:
        check_unique_names("detector ids", [d.id for d in detectors])
        self.detectors = tuple(detectors)
        self.tiers = tiers
        # per detector: its pipe (None: runs on every call), total_pushed at its value
        self._pipes = tuple(
            tiers.tier(d.tier) if isinstance(d, WindowedDetector) else None
            for d in self.detectors
        )
        self._pushed: list[int | None] = [None] * len(self.detectors)
        self._last = [NO_DATA] * len(self.detectors)

    def evaluate(self, now_ms: int) -> dict[str, float]:
        """Output vector keyed by detector id, in configuration order."""
        tiers, pushed, last = self.tiers, self._pushed, self._last
        out: dict[str, float] = {}
        for i, (det, pipe) in enumerate(zip(self.detectors, self._pipes)):
            count = None if pipe is None else pipe.total_pushed
            if count is None or count != pushed[i]:
                value = det.evaluate(tiers, now_ms)
                if not math.isfinite(value):
                    raise ValueError(f"detector {det.id!r} produced non-finite {value}")
                last[i], pushed[i] = value, count
            out[det.id] = last[i]
        return out
