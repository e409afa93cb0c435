"""Channel registry, sample records, acquisition order and quantization.

Every value that enters the system passes through here: channels declare
their unit, range and device resolution, records carry one quantized
reading per configured channel, and each kind belongs to one category
(biopotential, impedance or environment), the order the simulator samples
them in.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from enum import Enum
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

# Biopotential front-end resolution, volts per LSB.
BIOPOTENTIAL_RESOLUTION_V = 64e-9

# External precision temperature probe: 10 mV/degC transducer behind a
# 22-bit converter spanning +-5 V.  The derived temperature step is
# ~0.00024 degC, comfortably below the 0.001 degC requirement.
LM35_VOLTS_PER_DEGC = 0.010
LM35_ADC_LSB_VOLTS = 10.0 / 2**22
EXTERNAL_TEMP_RESOLUTION_C = LM35_ADC_LSB_VOLTS / LM35_VOLTS_PER_DEGC

MIN_PERIOD_S = 0.1
MAX_PERIOD_S = 100.0


class ChannelKind(Enum):
    BIOPOTENTIAL_1 = "biopotential1"
    BIOPOTENTIAL_2 = "biopotential2"
    IMPEDANCE_1 = "impedance1"
    IMPEDANCE_2 = "impedance2"
    TRANSPIRATION = "transpiration"
    SAP_FLOW = "sap_flow"
    SOIL_MOISTURE = "soil_moisture"
    SOIL_TEMPERATURE = "soil_temperature"
    AIR_TEMPERATURE = "air_temperature"
    AIR_HUMIDITY = "air_humidity"
    AIR_PRESSURE = "air_pressure"
    LIGHT = "light"
    MAGNETOMETER_XYZ = "magnetometer_xyz"
    ACCELEROMETER_XYZ = "accelerometer_xyz"
    RF_POWER = "rf_power"
    EXTERNAL_TEMPERATURE = "external_temperature"


class ChannelCategory(Enum):
    BIOPOTENTIAL = "biopotential"
    IMPEDANCE = "impedance"
    ENVIRONMENT = "environment"


_CATEGORY = {
    ChannelKind.BIOPOTENTIAL_1: ChannelCategory.BIOPOTENTIAL,
    ChannelKind.BIOPOTENTIAL_2: ChannelCategory.BIOPOTENTIAL,
    ChannelKind.IMPEDANCE_1: ChannelCategory.IMPEDANCE,
    ChannelKind.IMPEDANCE_2: ChannelCategory.IMPEDANCE,
}


def channel_category(kind: ChannelKind) -> ChannelCategory:
    return _CATEGORY.get(kind, ChannelCategory.ENVIRONMENT)


def _check_resolution(resolution: float) -> None:
    if not (resolution > 0.0) or not math.isfinite(resolution):
        raise ValueError(f"resolution must be finite and > 0, got {resolution}")


@dataclass(frozen=True)
class ChannelSpec:
    """Unit, admissible range and device resolution for one channel kind."""

    unit: str
    lo: float
    hi: float
    resolution: float

    def __post_init__(self) -> None:
        _check_resolution(self.resolution)
        if not self.lo <= self.hi:
            raise ValueError(f"range [{self.lo}, {self.hi}] is inverted")


# Per-kind device behaviour.  Ranges are generous physical envelopes; the
# resolution is the quantization step applied to every stored reading.
CHANNEL_SPECS: dict[ChannelKind, ChannelSpec] = {
    ChannelKind.BIOPOTENTIAL_1: ChannelSpec("V", -1.0, 1.0, BIOPOTENTIAL_RESOLUTION_V),
    ChannelKind.BIOPOTENTIAL_2: ChannelSpec("V", -1.0, 1.0, BIOPOTENTIAL_RESOLUTION_V),
    ChannelKind.IMPEDANCE_1: ChannelSpec("ohm", 0.0, 1e9, 1e-3),
    ChannelKind.IMPEDANCE_2: ChannelSpec("ohm", 0.0, 1e9, 1e-3),
    ChannelKind.TRANSPIRATION: ChannelSpec("%", 0.0, 100.0, 0.01),
    ChannelKind.SAP_FLOW: ChannelSpec("V", -1.0, 1.0, 1e-6),
    ChannelKind.SOIL_MOISTURE: ChannelSpec("%", 0.0, 100.0, 0.01),
    ChannelKind.SOIL_TEMPERATURE: ChannelSpec("degC", -20.0, 60.0, 0.01),
    ChannelKind.AIR_TEMPERATURE: ChannelSpec("degC", -40.0, 85.0, 0.01),
    ChannelKind.AIR_HUMIDITY: ChannelSpec("%", 0.0, 100.0, 0.01),
    ChannelKind.AIR_PRESSURE: ChannelSpec("hPa", 300.0, 1100.0, 0.01),
    ChannelKind.LIGHT: ChannelSpec("lux", 0.0, 2e5, 0.1),
    ChannelKind.MAGNETOMETER_XYZ: ChannelSpec("T", -1e-3, 1e-3, 1e-9),
    ChannelKind.ACCELEROMETER_XYZ: ChannelSpec("m/s2", -40.0, 40.0, 1e-3),
    ChannelKind.RF_POWER: ChannelSpec("dBm", -120.0, 30.0, 0.1),
    ChannelKind.EXTERNAL_TEMPERATURE: ChannelSpec(
        "degC", -40.0, 110.0, EXTERNAL_TEMP_RESOLUTION_C
    ),
}


@dataclass(frozen=True)
class ChannelId:
    """Symbolic channel handle: unique name plus its fixed kind."""

    name: str
    kind: ChannelKind

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("channel name must be non-empty")

    @functools.cached_property
    def spec(self) -> ChannelSpec:
        return CHANNEL_SPECS[self.kind]

    @property
    def category(self) -> ChannelCategory:
        return channel_category(self.kind)


_DEFAULT_NAMES = {
    ChannelKind.BIOPOTENTIAL_1: "bio1",
    ChannelKind.BIOPOTENTIAL_2: "bio2",
    ChannelKind.IMPEDANCE_1: "imp1",
    ChannelKind.IMPEDANCE_2: "imp2",
    ChannelKind.MAGNETOMETER_XYZ: "magnetometer",
    ChannelKind.ACCELEROMETER_XYZ: "accelerometer",
}


def default_channels() -> tuple[ChannelId, ...]:
    """Full sensor inventory with conventional short names."""
    return tuple(
        ChannelId(_DEFAULT_NAMES.get(kind, kind.value), kind) for kind in ChannelKind
    )


def validate_unique_names(channels: Iterable[ChannelId]) -> None:
    seen: set[str] = set()
    for ch in channels:
        if ch.name in seen:
            raise ValueError(f"duplicate channel name: {ch.name!r}")
        seen.add(ch.name)


def quantize(raw: float, resolution: float) -> float:
    """Snap a reading to the device grid: resolution * round(raw/resolution).

    Rounding is half-away-from-zero so positive and negative readings are
    treated symmetrically.  The result is exactly representable as
    resolution times an integer, and |result - raw| <= resolution/2.  A
    reading whose grid index overflows a float raises ValueError.
    """
    _check_resolution(resolution)
    value = _snap(raw, resolution)
    if math.isinf(value):
        raise ValueError(f"{raw} overflows the grid of step {resolution}")
    return value


def _snap(raw: float, resolution: float) -> float:
    """quantize() for a resolution already checked, as in a ChannelSpec; a
    finite reading whose grid index overflows snaps to a signed infinity."""
    if not math.isfinite(raw):
        raise ValueError(f"cannot quantize non-finite value {raw}")
    try:
        steps = math.floor(abs(raw) / resolution + 0.5)
    except OverflowError:
        return math.copysign(math.inf, raw)
    return math.copysign(steps * resolution, raw) if raw != 0.0 else 0.0


def quantize_for(channel: ChannelId, raw: float) -> float:
    """Quantize to the channel's resolution and clamp into its range.

    Any finite reading outside the range, however large, saturates at the
    range end; a non-finite one raises ValueError.
    """
    spec = channel.spec
    value = _snap(raw, spec.resolution)
    if spec.lo <= value <= spec.hi:
        return value
    value = min(max(value, _snap(spec.lo, spec.resolution)), spec.hi)
    # re-snap after clamping against a non-grid range bound
    return _snap(value, spec.resolution)


@dataclass(frozen=True)
class Record:
    """One acquisition cycle: millisecond timestamp plus one reading per channel.

    `values` is keyed by channel name and preserves insertion order.  It is
    copied into a read-only view on construction.
    """

    timestamp_ms: int
    values: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.timestamp_ms, int):
            raise TypeError("timestamp_ms must be an integer millisecond count")
        object.__setattr__(self, "values", MappingProxyType(dict(self.values)))


def validate_record(record: Record, channels: Sequence[ChannelId]) -> None:
    """Check a record against the configured channel set and declared ranges."""
    names = {ch.name for ch in channels}
    got = set(record.values.keys())
    if got != names:
        missing = sorted(names - got)
        extra = sorted(got - names)
        raise ValueError(f"record schema mismatch: missing={missing} extra={extra}")
    by_name = {ch.name: ch for ch in channels}
    for name, value in record.values.items():
        spec = by_name[name].spec
        if not math.isfinite(value):
            raise ValueError(f"non-finite reading on {name!r}: {value}")
        if not (spec.lo - spec.resolution <= value <= spec.hi + spec.resolution):
            raise ValueError(
                f"reading on {name!r} out of range [{spec.lo}, {spec.hi}]: {value}"
            )
