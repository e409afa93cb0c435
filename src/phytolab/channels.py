"""Channel registry, sample records, acquisition order and quantization.

Every value that enters the system passes through here: channels declare
their unit, range and device resolution, records carry one quantized
reading per configured channel.  CHANNEL_SPECS holds one row per kind:
its device behaviour, its category (biopotential, impedance or environment,
the order the simulator samples them in) and its default channel name.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from enum import Enum
from operator import index, itemgetter
from types import MappingProxyType
from typing import Mapping, Sequence

# Biopotential front-end resolution, volts per LSB.
BIOPOTENTIAL_RESOLUTION_V = 64e-9

# External precision temperature probe: 10 mV/degC transducer behind a
# 22-bit converter spanning +-5 V.  The derived temperature step is
# ~0.00024 degC, comfortably below the 0.001 degC requirement.
LM35_VOLTS_PER_DEGC = 0.010
LM35_ADC_LSB_VOLTS = 10.0 / 2**22
EXTERNAL_TEMP_RESOLUTION_C = LM35_ADC_LSB_VOLTS / LM35_VOLTS_PER_DEGC


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


def _check_resolution(resolution: float) -> None:
    if not (resolution > 0.0) or not math.isfinite(resolution):
        raise ValueError(f"resolution must be finite and > 0, got {resolution}")


@dataclass(frozen=True)
class ChannelSpec:
    """One channel kind's row: unit, admissible range and device resolution,
    the category the simulator samples it in, and the name default_channels()
    gives it (empty: the kind's INI name, ChannelKind.value)."""

    unit: str
    lo: float
    hi: float
    resolution: float
    category: ChannelCategory = ChannelCategory.ENVIRONMENT
    default_name: str = ""

    def __post_init__(self) -> None:
        _check_resolution(self.resolution)
        if not self.lo <= self.hi:
            raise ValueError(f"range [{self.lo}, {self.hi}] is inverted")


# One row per kind.  Ranges are generous physical envelopes; the resolution
# is the quantization step applied to every stored reading.
CHANNEL_SPECS: dict[ChannelKind, ChannelSpec] = {
    ChannelKind.BIOPOTENTIAL_1: ChannelSpec(
        "V", -1.0, 1.0, BIOPOTENTIAL_RESOLUTION_V, ChannelCategory.BIOPOTENTIAL, "bio1"
    ),
    ChannelKind.BIOPOTENTIAL_2: ChannelSpec(
        "V", -1.0, 1.0, BIOPOTENTIAL_RESOLUTION_V, ChannelCategory.BIOPOTENTIAL, "bio2"
    ),
    ChannelKind.IMPEDANCE_1: ChannelSpec(
        "ohm", 0.0, 1e9, 1e-3, ChannelCategory.IMPEDANCE, "imp1"
    ),
    ChannelKind.IMPEDANCE_2: ChannelSpec(
        "ohm", 0.0, 1e9, 1e-3, ChannelCategory.IMPEDANCE, "imp2"
    ),
    ChannelKind.TRANSPIRATION: ChannelSpec("%", 0.0, 100.0, 0.01),
    ChannelKind.SAP_FLOW: ChannelSpec("V", -1.0, 1.0, 1e-6),
    ChannelKind.SOIL_MOISTURE: ChannelSpec("%", 0.0, 100.0, 0.01),
    ChannelKind.SOIL_TEMPERATURE: ChannelSpec("degC", -20.0, 60.0, 0.01),
    ChannelKind.AIR_TEMPERATURE: ChannelSpec("degC", -40.0, 85.0, 0.01),
    ChannelKind.AIR_HUMIDITY: ChannelSpec("%", 0.0, 100.0, 0.01),
    ChannelKind.AIR_PRESSURE: ChannelSpec("hPa", 300.0, 1100.0, 0.01),
    ChannelKind.LIGHT: ChannelSpec("lux", 0.0, 2e5, 0.1),
    ChannelKind.MAGNETOMETER_XYZ: ChannelSpec(
        "T", -1e-3, 1e-3, 1e-9, default_name="magnetometer"
    ),
    ChannelKind.ACCELEROMETER_XYZ: ChannelSpec(
        "m/s2", -40.0, 40.0, 1e-3, default_name="accelerometer"
    ),
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
        return self.spec.category


def default_channels() -> tuple[ChannelId, ...]:
    """Full sensor inventory, in ChannelKind order, under the default names."""
    return tuple(
        ChannelId(CHANNEL_SPECS[kind].default_name or kind.value, kind)
        for kind in ChannelKind
    )


def check_unique_names(what: str, names: Sequence[str]) -> None:
    """ValueError naming the names that repeat; what says what they are."""
    if len(set(names)) != len(names):
        repeated = sorted({name for name in names if names.count(name) > 1})
        raise ValueError(f"duplicate {what}: {repeated}")


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

    `values`, keyed by channel name in insertion order, is copied into a
    read-only view; timestamp_ms goes through operator.index, refusing a float.
    """

    timestamp_ms: int
    values: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if type(self.timestamp_ms) is not int:
            object.__setattr__(self, "timestamp_ms", index(self.timestamp_ms))
        object.__setattr__(self, "values", MappingProxyType(dict(self.values)))


def row_values(values: Mapping[str, float], names: Sequence[str]) -> tuple[float, ...]:
    """The readings of values in the order of names, taken by name.

    This is the row rule every reader of records applies: values must hold
    exactly the reader's names, in any order.  Otherwise ValueError names the
    missing and the extra ones.
    """
    if len(values) == len(names):
        try:
            if len(names) > 1:  # one C call, which returns a tuple from two names on
                return itemgetter(*names)(values)
            return tuple(values[name] for name in names)
        except KeyError:
            pass
    missing = sorted(set(names).difference(values))
    extra = sorted(set(values).difference(names))
    raise ValueError(
        f"record values {list(values)} differ from channels {list(names)}: "
        f"missing columns {missing}, extra {extra}"
    )


def not_after(where: str, timestamp_ms: int, last_ms: int) -> ValueError:
    """The error for a row whose timestamp is not after the reader's last
    one, the other half of the row rule; where names the reader."""
    return ValueError(f"{where}: timestamp {timestamp_ms} not after {last_ms}")


def validate_record(record: Record, channels: Sequence[ChannelId]) -> None:
    """Check a record against the configured channel set and declared ranges."""
    readings = row_values(record.values, [ch.name for ch in channels])
    for ch, value in zip(channels, readings):
        spec = ch.spec
        if not math.isfinite(value):
            raise ValueError(f"non-finite reading on {ch.name!r}: {value}")
        if not (spec.lo - spec.resolution <= value <= spec.hi + spec.resolution):
            raise ValueError(
                f"reading on {ch.name!r} out of range [{spec.lo}, {spec.hi}]: {value}"
            )
