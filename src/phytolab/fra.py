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

Every bin's cos/sin pair comes from `_basis`, one read-only pair per
(N, cycles) in an LRU cache bounded at 64 pairs of 16 * N bytes (1 MiB at
N = 1024), so a sweep or a fixed excitation computes its trig only once.
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

# Tolerance for "f * N / rate is an integer" under float arithmetic.
_CYCLE_TOL = 1e-9
# gamma*C may exceed 1 by float rounding; beyond this we warn before clamping.
_CLAMP_WARN_EXCESS = 1e-9


class PeriodStabilityError(ValueError):
    """Buffer parameters do not hold an integer number of cycles."""


class OpenCircuitError(ValueError):
    """Response carries no signal: division by a zero response estimate."""


def exact_cycles(frequency: float, n_samples: int, sample_rate: float) -> int:
    """Integer cycles per buffer, or raise if the triple is not period-stable."""
    if n_samples < 2:
        raise PeriodStabilityError(f"buffer too short: N={n_samples}")
    if sample_rate <= 0:
        raise PeriodStabilityError(f"sample rate must be positive, got {sample_rate}")
    cycles = frequency * n_samples / sample_rate
    rounded = round(cycles)
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


@functools.lru_cache(maxsize=64)
def _basis(n_samples: int, cycles: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (cos theta, sin theta) of bin `cycles` over `n_samples`."""
    # reduce c*k modulo N in exact integer arithmetic before taking 2*pi*m/N;
    # keeps trig arguments small and the projection accurate to ~1 ulp
    m = (cycles * np.arange(n_samples, dtype=np.int64)) % n_samples
    theta = (2.0 * np.pi / n_samples) * m
    cos, sin = np.cos(theta), np.sin(theta)
    cos.setflags(write=False)
    sin.setflags(write=False)
    return cos, sin


class _Fresh(np.ndarray):
    """A fresh float64 array made for one buffer alone: frozen, not copied."""


class _Buffer:
    """Read-only float64 samples, a copy unless _Fresh; cycles at (frequency, rate)."""

    def __post_init__(self) -> None:
        if type(self.samples) is _Fresh:
            samples = self.samples.view(np.ndarray)
        else:
            samples = np.array(self.samples, dtype=np.float64)
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)

    @property
    def n_samples(self) -> int:
        return int(self.samples.shape[0])

    @functools.cached_property
    def cycles(self) -> int:
        return exact_cycles(self.frequency, self.n_samples, self.sample_rate)


@dataclass(frozen=True, eq=False)
class ExcitationWaveform(_Buffer):
    """One buffer of the synthesized AC excitation at a single frequency."""

    frequency: float
    amplitude: float
    sample_rate: float
    samples: np.ndarray

    def __post_init__(self) -> None:
        super().__post_init__()
        self.cycles  # validates period stability


@dataclass(frozen=True, eq=False)
class ResponseBuffer(_Buffer):
    """Digitized current-proportional response paired with an excitation."""

    frequency: float
    sample_rate: float
    samples: np.ndarray


def check_excitation(
    frequency: float, amplitude: float, n_samples: int, sample_rate: float
) -> int:
    """Cycles per buffer of an excitation inside the device envelope, or raise."""
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
    envelope (see check_excitation).
    """
    cycles = check_excitation(frequency, amplitude, n_samples, sample_rate)
    samples = amplitude * _basis(n_samples, cycles)[1]
    return ExcitationWaveform(
        frequency=frequency,
        amplitude=amplitude,
        sample_rate=sample_rate,
        samples=samples.view(_Fresh),
    )


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
    cos, sin = _basis(n, c)
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
    """Root mean square of a sample buffer."""
    x = np.asarray(samples, dtype=np.float64)
    if x.shape[0] == 0:
        raise ValueError("rms of an empty buffer")
    return float(np.sqrt(np.mean(np.square(x))))


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
    vv: ExcitationWaveform,
    vi: ResponseBuffer,
    gain: float = 1.0,
) -> ImpedanceAnalysis:
    """Run every estimator over one excitation/response pair.

    `gain` is the transimpedance conversion in ohms (response volts per
    ampere); magnitudes are reported as ratio * gain.  The default gain of 1
    reports the dimensionless voltage ratio.
    """
    if vi.n_samples != vv.n_samples:
        raise ValueError(
            f"buffer length mismatch: {vi.n_samples} vs {vv.n_samples}"
        )
    if vi.sample_rate != vv.sample_rate or vi.frequency != vv.frequency:
        raise ValueError("response buffer is not paired with this excitation")
    cycles = vv.cycles

    vi_rms = rms(vi.samples)
    vv_rms = rms(vv.samples)
    if vi_rms == 0.0:
        raise OpenCircuitError("zero response buffer: open circuit")

    x_v = fra_single_point(vv.samples, cycles)
    x_i = fra_single_point(vi.samples, cycles)
    ratio = transfer_ratio(x_v, x_i, gain)

    magnitude, phase = magnitude_phase(ratio)
    m_rms = rms_resistivity(vv_rms, vi_rms) * gain
    corr = lockin_correlation(vi.samples, vv.samples)
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
    """Frequency sweep plan: log-spaced points across [start_hz, stop_hz].

    mode 'adaptive' keeps each requested frequency exactly and picks a sample
    rate of frequency * n_samples / cycles per point, capped by max_rate.
    mode 'fixed' keeps one sample rate and snaps each frequency to the nearest
    non-empty DFT bin, so requested and delivered frequencies can differ.
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
        if self.points < 1:
            raise ValueError(f"need at least one sweep point, got {self.points}")
        if self.mode not in ("adaptive", "fixed"):
            raise ValueError(f"unknown sweep mode {self.mode!r}")
        if self.mode == "adaptive" and not (1 <= self.cycles < self.n_samples / 2):
            raise ValueError(f"cycles must satisfy 1 <= c < N/2, got {self.cycles}")


def plan_sweep(spec: SweepSpec) -> list[SweepPoint]:
    """Expand a sweep spec into period-stable per-point plans."""
    if spec.points == 1:
        requested = [spec.start_hz]
    else:
        requested = list(
            np.geomspace(spec.start_hz, spec.stop_hz, spec.points, dtype=np.float64)
        )
    planned: list[SweepPoint] = []
    for f_req in requested:
        f_req = float(f_req)
        if spec.mode == "adaptive":
            c = spec.cycles
            rate = f_req * spec.n_samples / c
            while rate > spec.max_rate and c < spec.n_samples / 2 - 1:
                # more cycles per buffer lowers the required rate
                c *= 2
                rate = f_req * spec.n_samples / c
            planned.append(
                SweepPoint(
                    requested_hz=f_req,
                    frequency_hz=f_req,
                    n_samples=spec.n_samples,
                    sample_rate=rate,
                    cycles=exact_cycles(f_req, spec.n_samples, rate),
                )
            )
        else:
            bin_hz = spec.fixed_rate / spec.n_samples
            c = max(1, round(f_req / bin_hz))
            if c >= spec.n_samples / 2:
                raise PeriodStabilityError(
                    f"{f_req} Hz beyond Nyquist at fixed rate {spec.fixed_rate} Hz"
                )
            f_snap = c * bin_hz
            planned.append(
                SweepPoint(
                    requested_hz=f_req,
                    frequency_hz=f_snap,
                    n_samples=spec.n_samples,
                    sample_rate=spec.fixed_rate,
                    cycles=c,
                )
            )
    return planned


def run_sweep(
    spec: SweepSpec,
    respond: Callable[[ExcitationWaveform], ResponseBuffer],
    gain: float = 1.0,
) -> list[ImpedanceAnalysis]:
    """Drive a response callback across the sweep and analyze every point.

    `respond` models the device under test: it receives each synthesized
    excitation and returns the digitized response buffer for it.
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
