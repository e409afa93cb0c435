"""Impedance estimators over period-stable sample buffers.

All estimators work on buffers holding an exact integer number of excitation
cycles, which removes spectral leakage and makes the single-bin projection an
exact amplitude/phase detector for harmonic signals.  The module provides:

* single-bin discrete Fourier projection, a Python complex, and its polar
  form (magnitude, phase),
* RMS estimators and the excitation/response RMS ratio,
* lock-in correlation and the correlation-derived phase,
* a combined per-frequency analysis bundling all of the above (the sweep's),
  and the transfer ratio alone (the loop's, which keeps only its magnitude),
* frequency sweeps with period-stable planning and CSV export, whose columns
  come from one column-to-field table,
* scope-mode harmonic decomposition for distortion analysis.

Every bin's cos/sin pair comes from `basis`, one read-only pair per
(N, cycles) in an LRU cache bounded at 64 pairs of 16 * N bytes (1 MiB at
N = 1024), so a sweep or a fixed excitation computes its trig only once.
An excitation's side (its read-only sine, the sine's RMS and its projection)
depends only on (amplitude, N, cycles), which an adaptive sweep keeps across
its points; `excitation_side` computes it once per triple, in a second LRU
cache bounded at 64 sides of 8 * N bytes (0.5 MiB at N = 1024), and every
waveform with that triple shares it.  A waveform has one builder,
`synthesize_excitation`, which fills every field of it.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import Callable, IO, Iterable, Sequence

import numpy as np

from .logstore import csv_cells

MIN_FREQUENCY_HZ = 8.0
MAX_FREQUENCY_HZ = 6.5e5
MIN_AMPLITUDE_V = 0.01
MAX_AMPLITUDE_V = 1.0
MAX_SAMPLES = 2**16  # the basis and excitation_side caches then hold 64 and 32 MiB
MAX_POINTS = 10_000  # a sweep keeps every point; this many are 0.11% apart

# Tolerance for "f * N / rate is an integer" under float arithmetic.
_CYCLE_TOL = 1e-9
# gamma*C may exceed 1 by float rounding; beyond this we warn before clamping.
_CLAMP_WARN_EXCESS = 1e-9


class PeriodStabilityError(ValueError):
    """Buffer parameters do not hold an integer number of cycles."""


class OpenCircuitError(ValueError):
    """Response carries no signal: division by a zero response estimate."""


def exact_cycles(frequency: float, n_samples: int, sample_rate: float) -> int:
    """Integer cycles per buffer, or raise if the triple is not period-stable;
    a frequency or rate that is not finite, or cycles past a float, is not."""
    if n_samples < 2:
        raise PeriodStabilityError(f"buffer too short: N={n_samples}")
    if sample_rate <= 0:
        raise PeriodStabilityError(f"sample rate must be positive, got {sample_rate}")
    cycles = frequency * n_samples / sample_rate
    rounded = round(cycles) if math.isfinite(cycles) else 0
    if rounded < 1 or abs(cycles - rounded) > _CYCLE_TOL * max(1.0, abs(cycles)):
        raise PeriodStabilityError(
            f"not period-stable: f={frequency} Hz, N={n_samples}, "
            f"rate={sample_rate} Hz gives {cycles} cycles per buffer"
        )
    if rounded >= n_samples / 2:
        raise PeriodStabilityError(
            f"frequency {frequency} Hz at or beyond Nyquist for rate {sample_rate} Hz"
        )
    return int(rounded)


def frozen(array: np.ndarray) -> np.ndarray:
    """A read-only view of `array`, which takes it over.  A view of a
    read-only base refuses setflags(write=True), so no holder of a shared
    buffer can make it writable again."""
    array.setflags(write=False)
    return array.view()


@functools.lru_cache(maxsize=64)
def basis(n_samples: int, cycles: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (cos theta, sin theta) of bin `cycles` over `n_samples`."""
    # reduce c*k modulo N in exact integer arithmetic before taking 2*pi*m/N;
    # keeps trig arguments small and the projection accurate to ~1 ulp
    m = (cycles * np.arange(n_samples, dtype=np.int64)) % n_samples
    theta = (2.0 * np.pi / n_samples) * m
    return frozen(np.cos(theta)), frozen(np.sin(theta))


@dataclass(frozen=True, eq=False)
class ExcitationWaveform:
    """One buffer of the synthesized AC excitation at a single frequency:
    read-only float64 samples, period-stable at its rate, with the cycles
    per buffer, the RMS and the projection that every analysis of it reads.
    synthesize_excitation is its one builder and fills every field.
    """

    frequency: float
    amplitude: float
    sample_rate: float
    cycles: int
    samples: np.ndarray
    rms: float
    projection: complex

    @property
    def n_samples(self) -> int:
        return int(self.samples.shape[0])


def check_excitation(
    frequency: float, amplitude: float, n_samples: int, sample_rate: float
) -> int:
    """Cycles per buffer of an excitation inside the device envelope, or raise."""
    if n_samples > MAX_SAMPLES:
        raise ValueError(f"buffer of {n_samples} samples, more than {MAX_SAMPLES}")
    if not (MIN_FREQUENCY_HZ <= frequency <= MAX_FREQUENCY_HZ):
        raise ValueError(
            f"frequency {frequency} Hz outside "
            f"[{MIN_FREQUENCY_HZ}, {MAX_FREQUENCY_HZ}] Hz"
        )
    if not (MIN_AMPLITUDE_V <= amplitude <= MAX_AMPLITUDE_V):
        raise ValueError(
            f"amplitude {amplitude} V outside [{MIN_AMPLITUDE_V}, {MAX_AMPLITUDE_V}] V"
        )
    return exact_cycles(frequency, n_samples, sample_rate)


def synthesize_excitation(
    frequency: float,
    amplitude: float,
    n_samples: int,
    sample_rate: float,
) -> ExcitationWaveform:
    """Build one period-stable sine buffer: amplitude * sin(2*pi*f*k/rate).

    The (frequency, n_samples, sample_rate) triple must give an integer
    number of cycles; otherwise the caller has to adjust the frequency first
    (see plan_sweep).  Frequency and amplitude must lie within the device
    envelope (see check_excitation).  It fills every field; waveforms with
    equal (amplitude, n_samples, cycles) share one read-only side (see
    excitation_side).
    """
    cycles = check_excitation(frequency, amplitude, n_samples, sample_rate)
    return ExcitationWaveform(
        frequency, amplitude, sample_rate, cycles,
        *excitation_side(amplitude, n_samples, cycles),
    )


@functools.lru_cache(maxsize=64)
def excitation_side(
    amplitude: float, n_samples: int, cycles: int
) -> tuple[np.ndarray, float, complex]:
    """Read-only amplitude * sin theta of bin `cycles` over `n_samples`, with
    its RMS and its projection: what an excitation contributes to every
    analysis, whatever its frequency and rate."""
    samples = frozen(amplitude * basis(n_samples, cycles)[1])
    return samples, rms(samples), fra_single_point(samples, cycles)


def fra_single_point(
    buffer: np.ndarray | Sequence[float], cycles_per_buffer: int
) -> complex:
    """Single-bin discrete Fourier projection of one buffer, as re + 1j * im.

    re = (1/N) sum x[k] cos(2*pi*c*k/N), im = -(1/N) sum x[k] sin(2*pi*c*k/N),
    with c the integer number of cycles per buffer.  Identical to bin c of the
    full DFT divided by N.  A buffer holding inf or NaN raises ValueError.
    """
    x = np.asarray(buffer, dtype=np.float64)
    n = x.shape[0]
    if n == 0:
        raise ValueError("empty buffer")
    if n < 2:
        raise ValueError(f"buffer too short for projection: N={n}")
    c = int(cycles_per_buffer)
    if not (1 <= c < n / 2):
        raise ValueError(f"cycles_per_buffer must satisfy 1 <= c < N/2, got {c}")
    cos, sin = basis(n, c)
    re = float(np.dot(x, cos)) / n
    im = -float(np.dot(x, sin)) / n
    if not (math.isfinite(re) and math.isfinite(im)):
        raise ValueError(f"non-finite components ({re}, {im})")
    return complex(re, im)


def transfer_ratio(x_v: complex, x_i: complex, gain: float) -> complex:
    """Excitation over response projection, times the transimpedance gain."""
    if x_i == 0:
        raise OpenCircuitError("response has no component at the excitation frequency")
    return x_v / x_i * gain


def magnitude_phase(z: complex) -> tuple[float, float]:
    """Magnitude and full-quadrant phase (degrees) of a projection or ratio.

    Phase lies in (-180, 180].  For zero the magnitude is 0 and the phase is
    undefined, flagged as NaN.
    """
    if z == 0:
        return 0.0, math.nan
    phase = math.remainder(math.degrees(math.atan2(z.imag, z.real)), 360.0)
    return abs(z), phase + 360.0 if phase <= -180.0 else phase


def rms(samples: np.ndarray | Sequence[float]) -> float:
    """Root mean square of a sample buffer.

    Bit for bit np.sqrt(np.mean(np.square(x))): the same squares, the same
    pairwise sum (np.mean's), the same division and a correctly rounded
    square root, without np.mean's dispatch.  np.dot would sum in another
    order.  Only where that form reads 0 although a sample is not 0 (the sum
    of squares, or its mean, underflows), or inf although every sample is
    finite, is the buffer first scaled by a power of two that brings its
    largest magnitude into [0.5, 1), and the RMS scaled back; every other
    buffer keeps the plain form's bits.
    """
    x = np.asarray(samples, dtype=np.float64)
    if x.shape[0] == 0:
        raise ValueError("rms of an empty buffer")
    plain = math.sqrt(float(np.add.reduce(x * x, axis=None)) / x.size)
    if plain == 0.0 or plain == math.inf:
        peak = float(np.max(np.abs(x)))
        if 0.0 < peak < math.inf:
            shift = math.frexp(peak)[1]
            y = np.ldexp(x, -shift)
            return math.ldexp(math.sqrt(float(np.add.reduce(y * y, axis=None)) / x.size), shift)
    return plain


def rms_resistivity(vv_rms: float, vi_rms: float) -> float:
    """Excitation/response RMS ratio, the magnitude-style impedance estimate."""
    if vi_rms == 0.0:
        raise OpenCircuitError("zero response RMS: open circuit")
    if vi_rms < 0.0 or vv_rms < 0.0:
        raise ValueError("RMS values must be non-negative")
    return vv_rms / vi_rms


def lockin_correlation(
    vi: np.ndarray | Sequence[float], vv: np.ndarray | Sequence[float]
) -> float:
    """Mean sample-wise product of response and excitation buffers."""
    xi = np.asarray(vi, dtype=np.float64)
    xv = np.asarray(vv, dtype=np.float64)
    if xi.shape[0] != xv.shape[0]:
        raise ValueError(f"length mismatch: {xi.shape[0]} vs {xv.shape[0]}")
    if xi.shape[0] == 0:
        raise ValueError("empty buffers")
    return float(np.dot(xi, xv)) / xi.shape[0]


def lockin_phase(correlation: float, vi_rms: float, vv_rms: float) -> float:
    """Phase offset (degrees, unsigned) recovered from the correlation.

    norm = 1/(vi_rms*vv_rms) scales the correlation into [-1, 1] for pure
    sinusoids, so acos gives the absolute phase offset in [0, 180] degrees.
    Sign information is not recoverable here; take it from the projection
    phase when needed.
    """
    if vi_rms <= 0.0 or vv_rms <= 0.0:
        raise ValueError("RMS values must be positive for phase recovery")
    norm = 1.0 / (vi_rms * vv_rms)
    arg = norm * correlation
    if abs(arg) > 1.0 + _CLAMP_WARN_EXCESS:
        warnings.warn(
            f"normalized correlation {arg} exceeds unit circle by more than "
            f"{_CLAMP_WARN_EXCESS}; clamping",
            RuntimeWarning,
            stacklevel=2,
        )
    arg = min(1.0, max(-1.0, arg))
    return math.degrees(math.acos(arg))


@dataclass(frozen=True)
class ImpedanceAnalysis:
    """Per-frequency result bundle from one excitation/response pair.

    re/im are the in-phase and quadrature components of the excitation to
    response transfer ratio scaled by the transimpedance gain, so
    magnitude = sqrt(re^2 + im^2) is the impedance magnitude estimate and
    phase_deg its full-quadrant phase.  rms_magnitude is the RMS-ratio
    estimate of the same quantity; correlation_phase_deg the lock-in phase,
    unsigned in [0, 180].
    """

    frequency_hz: float
    re: float
    im: float
    magnitude: float
    phase_deg: float
    vi_rms: float
    vv_rms: float
    rms_magnitude: float
    correlation: float
    correlation_phase_deg: float


def analyze_pair(
    vv: ExcitationWaveform, vi: np.ndarray | Sequence[float], gain: float = 1.0
) -> ImpedanceAnalysis:
    """Run every estimator over an excitation and its response samples.

    `gain` is the transimpedance conversion in ohms (response volts per
    ampere); magnitudes are reported as ratio * gain.  The default gain of 1
    reports the dimensionless voltage ratio.  The excitation's RMS and
    projection are read from the waveform, so only the response's are
    computed per call.
    """
    vi = np.asarray(vi, dtype=np.float64)
    if vi.shape != (vv.n_samples,):
        raise ValueError(
            f"response length mismatch: shape {vi.shape}, expected ({vv.n_samples},)"
        )

    vi_rms = rms(vi)
    vv_rms = vv.rms
    # a response with no component at the excitation frequency, an all-zero
    # buffer included, is an open circuit: transfer_ratio raises
    x_i = fra_single_point(vi, vv.cycles)
    ratio = transfer_ratio(vv.projection, x_i, gain)

    magnitude, phase = magnitude_phase(ratio)
    m_rms = rms_resistivity(vv_rms, vi_rms) * gain
    corr = lockin_correlation(vi, vv.samples)
    return ImpedanceAnalysis(
        frequency_hz=vv.frequency,
        re=ratio.real,
        im=ratio.imag,
        magnitude=magnitude,
        phase_deg=phase,
        vi_rms=vi_rms,
        vv_rms=vv_rms,
        rms_magnitude=m_rms,
        correlation=corr,
        correlation_phase_deg=lockin_phase(corr, vi_rms, vv_rms),
    )


@dataclass(frozen=True)
class SweepPoint:
    """One planned sweep point: a period-stable (f, N, rate, c) quadruple.

    requested_hz is the frequency asked for; frequency_hz the period-stable
    frequency actually synthesized (equal to the request in adaptive mode, the
    nearest bin in fixed-rate mode).
    """

    requested_hz: float
    frequency_hz: float
    n_samples: int
    sample_rate: float
    cycles: int

    @property
    def snap_error_hz(self) -> float:
        return self.frequency_hz - self.requested_hz


@dataclass(frozen=True)
class SweepSpec:
    """Frequency sweep plan: log-spaced points across [start_hz, stop_hz],
    each planned by point in mode 'adaptive' or 'fixed'.  A spec constructs
    only if its first and last points plan inside the device envelope.
    """

    start_hz: float = MIN_FREQUENCY_HZ
    stop_hz: float = 3.0e5
    points: int = 25
    amplitude: float = 0.1
    n_samples: int = 1024
    mode: str = "adaptive"
    cycles: int = 16
    max_rate: float = 1.0e8
    fixed_rate: float = 1.0e6

    def __post_init__(self) -> None:
        if not (MIN_FREQUENCY_HZ <= self.start_hz <= self.stop_hz <= MAX_FREQUENCY_HZ):
            raise ValueError(
                f"sweep range [{self.start_hz}, {self.stop_hz}] Hz outside "
                f"[{MIN_FREQUENCY_HZ}, {MAX_FREQUENCY_HZ}] Hz or inverted"
            )
        if not 1 <= (points := self.points) <= MAX_POINTS:
            raise ValueError(f"need at least one sweep point, at most {MAX_POINTS}: {points}")
        if self.mode not in ("adaptive", "fixed"):
            raise ValueError(f"unknown sweep mode {self.mode!r}")
        if self.mode == "adaptive" and not (1 <= self.cycles < self.n_samples / 2):
            raise ValueError(f"cycles must satisfy 1 <= c < N/2, got {self.cycles}")
        for name in ("max_rate", "fixed_rate"):
            if not 0 < (rate := getattr(self, name)) < math.inf:
                raise ValueError(f"{name} must be finite and > 0, got {rate}")
        # the bin and the rate rise with the frequency, so if the two ends
        # plan inside the envelope, every point does
        ends = (self.stop_hz, self.start_hz) if self.points > 1 else (self.start_hz,)
        for p in map(self.point, ends):
            check_excitation(p.frequency_hz, self.amplitude, p.n_samples, p.sample_rate)

    def point(self, frequency: float) -> SweepPoint:
        """The period-stable plan for one requested frequency, or raise.

        'adaptive' keeps the frequency and picks the rate frequency * N /
        cycles, doubling the cycles while that rate exceeds max_rate, up to
        the last bin below Nyquist; it raises if the rate is still above.
        'fixed' keeps fixed_rate and snaps to the nearest non-empty DFT bin,
        so requested and delivered frequencies can differ.
        """
        n = self.n_samples
        if self.mode == "fixed":
            rate, f = self.fixed_rate, frequency
            if n:  # with no samples there is no bin: exact_cycles refuses N
                f = max(1, round(frequency / (rate / n))) * (rate / n)
        else:
            f, c = frequency, self.cycles
            rate = f * n / c
            while rate > self.max_rate and 2 * c < n / 2:
                # more cycles per buffer lowers the required rate
                c *= 2
                rate = f * n / c
            if rate > self.max_rate:
                raise ValueError(
                    f"{f} Hz needs {rate} Hz at the last bin below Nyquist, "
                    f"above max_rate {self.max_rate} Hz"
                )
        return SweepPoint(frequency, f, n, rate, exact_cycles(f, n, rate))


def plan_sweep(spec: SweepSpec) -> list[SweepPoint]:
    """Expand a sweep spec into period-stable per-point plans."""
    # geomspace returns start_hz and stop_hz exactly at the ends, but an
    # inner point of a band an ulp or two wide can fall outside it
    lo, hi = float(spec.start_hz), float(spec.stop_hz)
    requested = np.geomspace(lo, hi, spec.points).tolist()
    return [spec.point(min(max(f, lo), hi)) for f in requested]


def run_sweep(
    spec: SweepSpec,
    respond: Callable[[ExcitationWaveform], np.ndarray],
    gain: float = 1.0,
) -> list[ImpedanceAnalysis]:
    """Drive a response callback across the sweep and analyze every point.

    `respond` models the device under test: it receives each synthesized
    excitation and returns the digitized response samples for it.
    """
    results: list[ImpedanceAnalysis] = []
    for point in plan_sweep(spec):
        vv = synthesize_excitation(
            point.frequency_hz, spec.amplitude, point.n_samples, point.sample_rate
        )
        results.append(analyze_pair(vv, respond(vv), gain=gain))
    return results


# sweep CSV column -> the ImpedanceAnalysis field it holds, in column order
_SWEEP_CSV = {
    "frequency_hz": "frequency_hz",
    "re": "re",
    "im": "im",
    "magnitude": "magnitude",
    "phase_deg": "phase_deg",
    "vi_rms": "vi_rms",
    "vv_rms": "vv_rms",
    "m_rms": "rms_magnitude",
    "c": "correlation",
    "p_c": "correlation_phase_deg",
}
SWEEP_CSV_FIELDS = tuple(_SWEEP_CSV)


def write_sweep_csv(out: IO[str], results: Iterable[ImpedanceAnalysis]) -> None:
    """Write sweep results as CSV with repr-exact (shortest round-trip) floats."""
    out.write(",".join(SWEEP_CSV_FIELDS) + "\n")
    for r in results:
        out.write(csv_cells(getattr(r, field) for field in _SWEEP_CSV.values()) + "\n")


@dataclass(frozen=True)
class HarmonicSpectrum:
    """Scope-mode decomposition of a buffer at a fundamental and its harmonics."""

    harmonics: tuple[complex, ...]  # index 0 is the fundamental

    def amplitude(self, order: int) -> float:
        """Peak amplitude of harmonic `order` (1 = fundamental)."""
        return 2.0 * abs(self.harmonics[order - 1])

    @property
    def thd(self) -> float:
        """Total harmonic distortion: sqrt(sum A_k^2, k>=2) / A_1."""
        a1 = self.amplitude(1)
        if a1 == 0.0:
            raise ValueError("zero fundamental: distortion undefined")
        rest = math.fsum(
            self.amplitude(k) ** 2 for k in range(2, len(self.harmonics) + 1)
        )
        return math.sqrt(rest) / a1


def scope_spectrum(
    buffer: np.ndarray | Sequence[float], fundamental_cycles: int, n_harmonics: int = 5
) -> HarmonicSpectrum:
    """Project a buffer onto a fundamental bin and its first harmonics.

    Harmonic orders whose bin would reach Nyquist are cut off; at least the
    fundamental must fit.
    """
    x = np.asarray(buffer, dtype=np.float64)
    n = x.shape[0]
    if n_harmonics < 1:
        raise ValueError("need at least the fundamental")
    harmonics = []
    for k in range(1, n_harmonics + 1):
        c = fundamental_cycles * k
        if c >= n / 2:
            break
        harmonics.append(fra_single_point(x, c))
    if not harmonics:
        raise ValueError(
            f"fundamental bin {fundamental_cycles} does not fit in N={n}"
        )
    return HarmonicSpectrum(harmonics=tuple(harmonics))
