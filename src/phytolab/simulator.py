"""Synthetic plant bench: tissue impedance, biopotentials and environment.

The simulator stands in for the instrument front-end during development and
testing.  It is deliberately analytic: every generated value is a closed-form
function of the configuration, the seed and the timestamp, so tests can hold
outputs against independent oracles and repeated runs are bit-identical.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, fields, replace
from enum import Enum

import numpy as np

from . import fra, streams
from .channels import (
    ChannelCategory,
    ChannelId,
    ChannelKind,
    Record,
    check_unique_names,
    default_channels,
    named_index,
)


@dataclass(frozen=True)
class TissueModel:
    """Series resistance feeding a parallel RC: the standard two-electrode cell.

    rs models electrode and bulk resistance, rp the membrane leak and cp the
    membrane capacitance.  impedance() is the exact complex value used as the
    oracle for every estimator test.
    """

    rs: float = 1.0e3
    rp: float = 1.0e4
    cp: float = 1.0e-6

    def __post_init__(self) -> None:
        rs, rp, cp = self.rs, self.rp, self.cp
        if not (0 <= rs < math.inf and 0 < rp < math.inf and 0 < cp < math.inf):
            raise ValueError(f"cell parameters out of range: rs={rs} rp={rp} cp={cp}")

    def impedance(self, frequency: float) -> complex:
        if frequency < 0:
            raise ValueError(f"negative frequency {frequency}")
        return self.rs + self.rp / (1.0 + 2j * math.pi * frequency * self.rp * self.cp)

    def magnitude(self, frequency: float) -> float:
        return fra.magnitude_phase(self.impedance(frequency))[0]

    def phase_deg(self, frequency: float) -> float:
        return fra.magnitude_phase(self.impedance(frequency))[1]


def tissue_response(
    excitation: fra.ExcitationWaveform,
    tissue: TissueModel,
    gain: float = 1.0,
    noise_rms: float = 0.0,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Steady-state digitized response samples of a cell to one excitation.

    The clean response is gain * amplitude * |Y| * sin(theta + arg Y) with
    Y = 1/Z(f); optional white noise of the given RMS is added on top.
    Computed as sin*cos + cos*sin on the reduced bin angles so the clean part
    is accurate to about one ulp, in place in the one new float64 array
    returned.
    """
    z = tissue.impedance(excitation.frequency)
    y = 1.0 / z
    amp = gain * excitation.amplitude * abs(y)
    phi = math.atan2(y.imag, y.real)
    n = excitation.n_samples
    cos, sin = fra.basis(n, excitation.cycles)
    # amp * (sin * cos(phi) + cos * sin(phi)): the same operations in the
    # same order, so the same bits
    samples = sin * math.cos(phi)
    samples += cos * math.sin(phi)
    samples *= amp
    if noise_rms > 0.0:
        if rng is None:
            raise ValueError("noise_rms > 0 requires an rng")
        samples += rng.normal(0.0, noise_rms, n)
    return samples


def sweep_responder(
    tissue: TissueModel,
    gain: float = 1.0,
    noise_rms: float = 0.0,
    seed: int = 0,
):
    """Response callback for fra.run_sweep, deterministic per frequency.

    The noise of a frequency f is the sweep-noise source at position
    round(f * 1e6).
    """
    noise = streams.Source(seed, streams.SWEEP_NOISE)

    def respond(vv: fra.ExcitationWaveform) -> np.ndarray:
        rng = None
        if noise_rms > 0.0:
            rng = noise.at(round(vv.frequency * 1e6))
        return tissue_response(vv, tissue, gain=gain, noise_rms=noise_rms, rng=rng)

    return respond


def ap_kernel(u: float) -> float:
    """Biphasic spike shape on normalized time u in [0, 1].

    Raised-cosine depolarization over [0, 0.8] peaking at 1.0 (u = 0.4),
    followed by a raised-cosine undershoot over [0.8, 1.0] reaching -0.25
    (u = 0.9).  Zero outside [0, 1]; halfway through the event the kernel
    still carries 0.854 of the peak.
    """
    if u < 0.0 or u > 1.0:
        return 0.0
    if u <= 0.8:
        return 0.5 * (1.0 - math.cos(2.0 * math.pi * u / 0.8))
    return -0.25 * 0.5 * (1.0 - math.cos(2.0 * math.pi * (u - 0.8) / 0.2))


# Beyond this many time constants the alpha kernel is below 1e-9 of its peak.
VP_CUTOFF_TAUS = 25.0


def vp_kernel(u: float) -> float:
    """Alpha-function slow-wave shape: u * exp(1 - u), peak 1.0 at u = 1."""
    if u <= 0.0 or u > VP_CUTOFF_TAUS:
        return 0.0
    return u * math.exp(1.0 - u)


class EventKind(Enum):
    TOUCH = "touch"
    WOUND = "wound"
    ELECTRICAL = "electrical"


@dataclass(frozen=True)
class Event:
    """A stimulus applied to the plant at a fixed simulation time.

    channel restricts the effect to one biopotential channel; None hits all
    of them.  scale multiplies the configured event amplitude; for
    electrical events it is the normalized stimulation intensity.
    """

    kind: EventKind
    at_ms: int
    channel: str | None = None
    scale: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "at_ms", named_index("at_ms", self.at_ms))
        if self.at_ms < 0:
            raise ValueError(f"event time must be non-negative, got {self.at_ms}")
        if not 0 < self.scale < math.inf:
            raise ValueError(f"event scale must be positive and finite, got {self.scale}")
        if self.kind is EventKind.ELECTRICAL:
            if self.scale > 1.0:
                raise ValueError(
                    f"electrical intensity must be in (0, 1], got {self.scale}"
                )
            if self.channel is not None:
                raise ValueError("electrical events act on the tissue, not a channel")


def check_event_channel(channel: str, channels: tuple[ChannelId, ...]) -> None:
    """Refuse an event channel that is not configured or is not a biopotential
    channel, the only kind a touch or wound acts on."""
    kinds = {ch.name: ch.category for ch in channels}
    if channel not in kinds:
        raise ValueError(f"unknown channel {channel!r}")
    if kinds[channel] is not ChannelCategory.BIOPOTENTIAL:
        raise ValueError(f"channel {channel!r} is not a biopotential channel")


@dataclass(frozen=True)
class SimParams:
    """Tunable magnitudes of the synthetic plant."""

    bio_baseline_v: float = -0.05
    bio_noise_rms_v: float = 5e-6
    ap_amplitude_v: float = 2e-3
    ap_duration_s: float = 1.0
    vp_amplitude_v: float = 5e-3
    vp_duration_s: float = 20.0
    excitation_hz: float = 500.0
    excitation_amplitude_v: float = 0.1
    excitation_samples: int = 1024
    excitation_rate_hz: float = 64000.0
    transimpedance_gain: float = 1000.0
    impedance_noise_rms_v: float = 0.0
    stimulation_interval_s: float = 10.0
    day_length_s: float = 86400.0
    # 1 clamps biopotential readings to baseline while the excitation runs,
    # imitating an amplifier blanked against stimulation crosstalk
    blank_bio_during_stimulation: int = 0

    def __post_init__(self) -> None:
        # every float is finite first: a NaN would pass the range checks below
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type != "float":
                continue
            if f.name.endswith("noise_rms_v"):
                if not (math.isfinite(value) and value >= 0.0):
                    raise ValueError(f"{f.name} must be finite and >= 0, got {value}")
            elif not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        if self.ap_duration_s <= 0 or self.vp_duration_s <= 0:
            raise ValueError("event durations must be positive")
        if self.stimulation_interval_s <= 0:
            raise ValueError("stimulation interval must be positive")
        if self.day_length_s <= 0:
            raise ValueError("day length must be positive")
        if self.transimpedance_gain <= 0:
            raise ValueError(
                f"transimpedance gain must be positive, got {self.transimpedance_gain}"
            )
        if self.blank_bio_during_stimulation not in (0, 1):
            raise ValueError("blanking flag must be 0 or 1")
        fra.check_excitation(
            self.excitation_hz, self.excitation_amplitude_v,
            self.excitation_samples, self.excitation_rate_hz,
        )


# Environment model by channel kind: (noise RMS, offset, coefficient, basis).
# The clean reading is offset + coefficient * basis, one of the curves that
# _env_bases computes per timestamp; constant channels take coefficient 0.
# Biopotential noise comes from SimParams and impedance noise from the
# response samples instead.
_ENV_MODEL = {
    ChannelKind.TRANSPIRATION: (0.05, 30.0, 25.0, "daylight"),
    ChannelKind.SAP_FLOW: (2e-6, 0.002, 0.001, "daylight"),
    ChannelKind.SOIL_MOISTURE: (0.02, 50.0, 5.0, "moisture"),
    ChannelKind.SOIL_TEMPERATURE: (0.005, 20.0, 1.5, "soil"),
    ChannelKind.AIR_TEMPERATURE: (0.01, 22.0, 4.0, "s"),
    ChannelKind.AIR_HUMIDITY: (0.05, 55.0, -12.0, "s"),
    ChannelKind.AIR_PRESSURE: (0.02, 1013.0, 1.5, "pressure"),
    ChannelKind.LIGHT: (2.0, 0.0, 1.0, "light"),
    ChannelKind.MAGNETOMETER_XYZ: (5e-9, 4.8e-5, 0.0, "s"),
    ChannelKind.ACCELEROMETER_XYZ: (0.005, 9.81, 0.0, "s"),
    ChannelKind.RF_POWER: (0.1, -80.0, 0.0, "s"),
    ChannelKind.EXTERNAL_TEMPERATURE: (2e-4, 21.0, 3.0, "s"),
}


class PlantSimulator:
    """Deterministic record source over a configured channel set.

    record_at(t_ms) is a pure function of (channels, tissue, params, seed,
    scheduled events, t_ms): querying timestamps in any order, or twice,
    yields identical readings.  Impedance channels are sampled and held per
    stimulation slot, mirroring a front-end that excites the tissue every
    stimulation_interval_s and keeps the last magnitude in between.  A
    measurement reads the fixed excitation's projection from its waveform,
    projects only the response and keeps |fra.transfer_ratio|, the
    magnitude a sweep reports.

    Each timestamp t_ms draws one noise vector for all channels from the
    reading-noise source at position t_ms; a channel's position in the
    vector is its config position.  An impedance measurement draws its
    response noise from the impedance-noise source at position slot, stream
    the channel's config position.  Events are kept
    in two lists sorted by time (touch/wound, electrical), and a reading
    visits only the events whose kernel can still be non-zero at t_ms, so its
    cost does not grow with the number of expired events.  The hold is one
    slot state: entering a slot measures and encodes every impedance
    channel, unless impedance_noise_rms_v == 0 and the slot's cell is the
    one held, and every other cycle of the slot copies the held codes.

    Electrical stimulation events close the actuation loop: each one scales
    the cell's parallel resistance by (1 - 0.1 * intensity) for
    vp_duration_s, so a dispatched stimulation alters the impedance
    readings that follow it.
    """

    def __init__(
        self,
        channels: tuple[ChannelId, ...] | None = None,
        tissue: TissueModel | None = None,
        params: SimParams | None = None,
        seed: int = 0,
    ) -> None:
        self.channels = tuple(channels) if channels is not None else default_channels()
        self.tissue = tissue if tissue is not None else TissueModel()
        self.params = params if params is not None else SimParams()
        self.seed = int(seed)
        self._reading_noise = streams.Source(self.seed, streams.READING_NOISE)
        self._impedance_noise = streams.Source(self.seed, streams.IMPEDANCE_NOISE)
        check_unique_names("channel names", [ch.name for ch in self.channels])
        self._streams = {ch.name: i for i, ch in enumerate(self.channels)}
        p = self.params
        # the channel plan: one list per category, each entry carrying the
        # channel's position in the noise vector (its stream)
        self._bio: list[tuple[ChannelId, int]] = []
        self._imp: list[tuple[ChannelId, int]] = []
        self._env: list[tuple[ChannelId, int, float, float, str]] = []
        noise_rms = []
        for i, ch in enumerate(self.channels):
            if ch.category is ChannelCategory.BIOPOTENTIAL:
                self._bio.append((ch, i))
                noise_rms.append(p.bio_noise_rms_v)
            elif ch.category is ChannelCategory.IMPEDANCE:
                self._imp.append((ch, i))
                noise_rms.append(0.0)
            else:
                rms, offset, coefficient, basis = _ENV_MODEL[ch.kind]
                self._env.append((ch, i, offset, coefficient, basis))
                noise_rms.append(rms)
        self._noise_rms = np.array(noise_rms)
        # the clock is integer milliseconds, so sub-ms intervals clamp to 1
        self._interval_ms = max(1, round(p.stimulation_interval_s * 1000.0))
        # an electrical event changes the cell for this long
        self._electrical_reach_ms = round(p.vp_duration_s * 1000.0)
        # touch/wound events older than this add exactly 0 (kernel support + 1 ms)
        support_s = max(p.ap_duration_s, VP_CUTOFF_TAUS * p.vp_duration_s / 5.0)
        self._bio_support_ms = math.ceil(support_s * 1000.0) + 1
        # each an (at_ms list, event list) pair sorted by at_ms, for _window
        self._bio_events: tuple[list[int], list[Event]] = ([], [])
        self._electrical_events: tuple[list[int], list[Event]] = ([], [])
        # the held slot, its cell and its impedance (position, code) pairs
        self._held_slot: int | None = None
        self._held_cell: TissueModel | None = None
        self._held: tuple[tuple[int, int], ...] = ()
        self._excitation = fra.synthesize_excitation(
            p.excitation_hz, p.excitation_amplitude_v,
            p.excitation_samples, p.excitation_rate_hz,
        )

    # -- stimulus scheduling ------------------------------------------------

    def add_event(self, event: Event) -> None:
        if event.channel is not None:
            check_event_channel(event.channel, self.channels)
        if event.kind is EventKind.ELECTRICAL:
            times, events = self._electrical_events
        else:
            times, events = self._bio_events
        i = bisect.bisect_right(times, event.at_ms)
        times.insert(i, event.at_ms)
        events.insert(i, event)

    def add_touch(self, at_ms: int, channel: str | None = None) -> None:
        self.add_event(Event(EventKind.TOUCH, at_ms, channel))

    def add_wound(self, at_ms: int, channel: str | None = None) -> None:
        self.add_event(Event(EventKind.WOUND, at_ms, channel))

    def add_electrical(self, at_ms: int, intensity: float = 1.0) -> None:
        self.add_event(Event(EventKind.ELECTRICAL, at_ms, scale=intensity))

    @property
    def events(self) -> tuple[Event, ...]:
        """Every event added: touch/wound first, then electrical, each in time order."""
        return (*self._bio_events[1], *self._electrical_events[1])

    # -- reading generation ---------------------------------------------------

    def record_at(self, t_ms: int) -> Record:
        """One full acquisition cycle at absolute time t_ms, in config order.

        Channels are sampled biopotential -> impedance -> environment no
        matter how they were configured, so the voltage readings never sit
        downstream of the excitation within a cycle.
        """
        t_ms = named_index("t_ms", t_ms)
        z = self._reading_noise.at(t_ms).standard_normal(len(self.channels))
        noise = (z * self._noise_rms).tolist()
        codes = [0] * len(self.channels)
        blanked = self._blanked(t_ms)
        for ch, i in self._bio:
            if blanked:
                raw = self.params.bio_baseline_v
            else:
                raw = self._bio_clean(ch.name, t_ms) + noise[i]
            codes[i] = ch.spec.encode(raw)
        slot = self._slot(t_ms)
        if slot != self._held_slot:
            self._hold(slot)
        for i, k in self._held:
            codes[i] = k
        if self._env:
            bases = self._env_bases(t_ms)
            for ch, i, offset, coefficient, basis in self._env:
                raw = offset + coefficient * bases[basis] + noise[i]
                codes[i] = ch.spec.encode(raw)
        return Record(t_ms, codes, self.channels)

    def expected_value(self, name: str, t_ms: int) -> float:
        """Noiseless, unquantized reading: the oracle for record_at."""
        t_ms = named_index("t_ms", t_ms)
        ch = self.channels[self._streams[name]]
        if ch.category is ChannelCategory.BIOPOTENTIAL:
            if self._blanked(t_ms):
                return self.params.bio_baseline_v
            return self._bio_clean(name, t_ms)
        if ch.category is ChannelCategory.IMPEDANCE:
            return self._cell_at(self._slot(t_ms)).magnitude(self.params.excitation_hz)
        _, offset, coefficient, basis = _ENV_MODEL[ch.kind]
        return offset + coefficient * self._env_bases(t_ms)[basis]

    def _blanked(self, t_ms: int) -> bool:
        """Bio inputs held at baseline: impedance excitation fires at slot starts."""
        return bool(
            self.params.blank_bio_during_stimulation
            and self._imp
            and t_ms % self._interval_ms == 0
        )

    def _slot(self, t_ms: int) -> int:
        """Start of the stimulation slot holding t_ms."""
        return (t_ms // self._interval_ms) * self._interval_ms

    @staticmethod
    def _window(
        sorted_events: tuple[list[int], list[Event]], after_ms: int, upto_ms: int
    ) -> list[Event]:
        """Events with after_ms < at_ms <= upto_ms, in time order."""
        times, events = sorted_events
        lo = bisect.bisect_right(times, after_ms)
        return events[lo : bisect.bisect_right(times, upto_ms, lo)]

    # -- biopotential ---------------------------------------------------------

    def _bio_clean(self, name: str, t_ms: int) -> float:
        p = self.params
        total = p.bio_baseline_v
        since = t_ms - self._bio_support_ms
        for ev in self._window(self._bio_events, since, t_ms):
            if ev.channel is not None and ev.channel != name:
                continue
            dt = (t_ms - ev.at_ms) / 1000.0
            if ev.kind is EventKind.TOUCH:
                total += ev.scale * p.ap_amplitude_v * ap_kernel(dt / p.ap_duration_s)
            elif ev.kind is EventKind.WOUND:
                tau = p.vp_duration_s / 5.0
                total += ev.scale * p.vp_amplitude_v * vp_kernel(dt / tau)
        return total

    # -- impedance ------------------------------------------------------------

    def _hold(self, slot_ms: int) -> None:
        """Enter slot_ms: measure every impedance channel, or keep the held
        codes when they are noise-free and the cell has not changed."""
        cell = self._cell_at(slot_ms)
        if self.params.impedance_noise_rms_v != 0.0 or cell != self._held_cell:
            self._held = tuple(
                (i, ch.spec.encode(self._measure_impedance(ch.name, slot_ms, cell)))
                for ch, i in self._imp
            )
        self._held_slot, self._held_cell = slot_ms, cell

    def _cell_at(self, slot_ms: int) -> TissueModel:
        """Tissue as seen by the excitation, with stimulation feedback.

        Each electrical event scales the parallel resistance by
        (1 - 0.1 * intensity) while active (vp_duration_s), so actuation
        shows up in the impedance readings that follow it.
        """
        factor = 1.0
        since = slot_ms - self._electrical_reach_ms
        for ev in self._window(self._electrical_events, since, slot_ms):
            factor *= 1.0 - 0.1 * ev.scale
        if factor == 1.0:
            return self.tissue
        return replace(self.tissue, rp=self.tissue.rp * factor)

    def _measure_impedance(self, name: str, slot_ms: int, cell: TissueModel) -> float:
        p = self.params
        rng = None
        if p.impedance_noise_rms_v != 0.0:
            rng = self._impedance_noise.at(slot_ms, self._streams[name])
        vi = tissue_response(
            self._excitation,
            cell,
            gain=p.transimpedance_gain,
            noise_rms=p.impedance_noise_rms_v,
            rng=rng,
        )
        ex = self._excitation
        x_i = fra.fra_single_point(vi, ex.cycles)
        return abs(fra.transfer_ratio(ex.projection, x_i, p.transimpedance_gain))

    # -- environment ------------------------------------------------------------

    def _env_bases(self, t_ms: int) -> dict[str, float]:
        """The curves _ENV_MODEL scales, at t_ms.

        math.sin, not numpy's sin: its SIMD paths can differ from libm by an ulp.
        """
        t = t_ms / 1000.0
        day = self.params.day_length_s
        # solar phase: zero-crossing rising at 06:00, peak at noon
        s = math.sin(2.0 * math.pi * (t - day / 4.0) / day)
        daylight = max(0.0, s)
        return {
            "s": s,
            "daylight": daylight,
            "light": 2.0e4 * daylight * daylight,
            "soil": math.sin(2.0 * math.pi * (t - day / 3.0) / day),
            "pressure": math.sin(4.0 * math.pi * t / day),
            "moisture": math.sin(2.0 * math.pi * t / (3.0 * day)),
        }
