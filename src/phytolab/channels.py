"""Channel registry, sample records, acquisition order and quantization.

Every value that enters the system passes through here: channels declare
their unit, range and device resolution, and records carry one device code
per configured channel, encoded once; a reading is its code times the
resolution.  CHANNEL_SPECS holds one row per kind: its device behaviour, its
category (biopotential, impedance or environment, the order the simulator
samples them in) and its default channel name.
"""

from __future__ import annotations

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


def _nearest_code(raw: float, grid: tuple[int, int]) -> int:
    """The integer nearest raw / (num / den), a half away from zero, exactly."""
    a, b = raw.as_integer_ratio()
    top, bottom = a * grid[1], b * grid[0]  # raw / resolution, bottom > 0
    k = (2 * abs(top) + bottom) // (2 * bottom)
    return k if top >= 0 else -k


@dataclass(frozen=True)
class ChannelSpec:
    """One channel kind's row: unit, admissible range and device resolution,
    the category the simulator samples it in, and the name default_channels()
    gives it (empty: the kind's INI name, ChannelKind.value).  It owns the
    device grid: a reading is encode(raw) * resolution, its code between
    code_lo and code_hi (those of lo and hi, below 2**51 in size, where codes
    and readings convert exactly); grid is resolution as a ratio (num, den)."""

    unit: str
    lo: float
    hi: float
    resolution: float
    category: ChannelCategory = ChannelCategory.ENVIRONMENT
    default_name: str = ""
    code_lo: int = field(init=False, repr=False, compare=False)
    code_hi: int = field(init=False, repr=False, compare=False)
    grid: tuple[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not (0.0 < self.resolution < math.inf and -math.inf < self.lo <= self.hi < math.inf):
            raise ValueError(f"need finite lo <= hi and resolution > 0, got {self}")
        grid = self.resolution.as_integer_ratio()
        code_lo, code_hi = _nearest_code(self.lo, grid), _nearest_code(self.hi, grid)
        if max(-code_lo, code_hi) >= 2**51:
            raise ValueError(f"range [{self.lo}, {self.hi}] needs codes of 2**51 or more")
        # object.__setattr__ keeps attributes inline; vars(self) slows encode
        for name, value in dict(code_lo=code_lo, code_hi=code_hi, grid=grid).items():
            object.__setattr__(self, name, value)

    def encode(self, raw: float) -> int:
        """The code of the grid point nearest raw, a half step away from zero,
        clamped to [code_lo, code_hi]; a non-finite raw raises ValueError.
        q = raw / resolution is off by at most |q| * 2**-53, so its nearest
        integer k is exact unless q lies about that close to a half step."""
        q = raw / self.resolution
        try:
            k = math.floor(q + 0.5)
        except (OverflowError, ValueError):  # q is infinite or NaN
            if math.isfinite(raw):
                return self.code_hi if q > 0 else self.code_lo
            raise ValueError(f"cannot quantize non-finite value {raw}") from None
        if not abs(q - k) < 0.5 - abs(q) * 2**-50:  # 8x that bound
            k = _nearest_code(raw, self.grid)
        if self.code_lo <= k <= self.code_hi:
            return k
        return self.code_lo if k < self.code_lo else self.code_hi


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
    spec: ChannelSpec = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("channel name must be non-empty")
        object.__setattr__(self, "spec", CHANNEL_SPECS[self.kind])

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


def quantize_for(channel: ChannelId, raw: float) -> float:
    """The nearest point of the channel's grid in its range, encode(raw) *
    resolution; a code has no sign, so a reading that rounds to 0 is 0.0."""
    spec = channel.spec
    return spec.encode(raw) * spec.resolution


def named_index(what: str, value: object) -> int:
    """operator.index(value), refusing a float; its TypeError names what."""
    try:
        return index(value)
    except TypeError:
        raise TypeError(f"{what} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class Record:
    """One acquisition cycle: a millisecond timestamp and one device code per
    channel, codes[i] that of channels[i], in the channels' (config) order.

    timestamp_ms and every code go through operator.index, refusing a float,
    so every reading is on its channel's grid, and a code outside its
    channel's [code_lo, code_hi] is refused.  values is the readings by
    name, code * resolution, in a read-only view built on each access.
    """

    timestamp_ms: int
    codes: tuple[int, ...]
    channels: tuple[ChannelId, ...]

    def __post_init__(self) -> None:
        if type(self.timestamp_ms) is not int:
            stamp = named_index("timestamp_ms", self.timestamp_ms)
            object.__setattr__(self, "timestamp_ms", stamp)
        try:
            object.__setattr__(self, "codes", tuple(map(index, self.codes)))
        except TypeError:
            for ch, k in zip(self.channels, self.codes):
                named_index(f"code on {ch.name!r}", k)
            raise
        object.__setattr__(self, "channels", tuple(self.channels))
        if len(self.codes) != len(self.channels):
            raise ValueError(f"{len(self.codes)} codes for {len(self.channels)} channels")
        for ch, k in zip(self.channels, self.codes):
            spec = ch.spec
            if not spec.code_lo <= k <= spec.code_hi:
                lo, hi = spec.code_lo, spec.code_hi
                raise ValueError(f"code {k} on {ch.name!r} outside its range [{lo}, {hi}]")

    @property
    def values(self) -> Mapping[str, float]:
        pairs = zip(self.channels, self.codes)
        return MappingProxyType({ch.name: k * ch.spec.resolution for ch, k in pairs})


def row_values(values: Mapping[str, float], names: Sequence[str]) -> tuple[float, ...]:
    """The readings of values in the order of names, taken by name.

    This is the rule a store applies to a row of values: they must hold
    exactly its column names, in any order.  Otherwise ValueError names the
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
