"""INI configuration: one file describes a whole bench run.

Sections and their keys:
  [system]        seed, period_s, stimulation_interval_s, duration_s, log_dir,
                  report
  [channels]      name = kind pairs; omit for the full default inventory
  [tissue]        rs, rp, cp
  [biopotential]  baseline_v, noise_rms_v, ap_amplitude_v, ap_duration_s,
                  vp_amplitude_v, vp_duration_s, day_length_s,
                  blank_during_stimulation
  [impedance]     frequency_hz, amplitude_v, samples, sample_rate_hz, gain,
                  noise_rms_v
  [pipe]          short/middle/long_capacity, middle_stride, long_stride
  [detector.ID]   kind = one of detectors.DETECTOR_KINDS, plus that class's
                  fields other than id
  [actuator.ID]   kind = one of actuation.ACTUATOR_KINDS, plus what that
                  class's constructor takes: path (message_to_file), host and
                  port (message_to_ip), intensity (electrical_stimulation)
  [binding.ID]    expression, actuator, payload, cooldown_s,
                  homeostat_target_per_hour, homeostat_alpha, homeostat_step,
                  homeostat_lo, homeostat_hi
  [events]        scripted stimuli: touch / wound = t_seconds[:channel], ...
  [sweep]         start_hz, stop_hz, points, amplitude_v, samples, mode,
                  cycles, max_rate, fixed_rate
  [store]         segment_bytes, capacity_bytes

Every key has one name and fills one field of the dataclass (or constructor)
it configures.  Its default lives there, as does its range check, and its
type is read from the field's annotation.  The tables below only say which
field each key sets.

Everything has a default; an empty file is a valid bench.  Unknown sections,
keys outside their section's table, detector or actuator kinds, channels,
detector references, payloads that cannot render or that their actuator
refuses, store sizes the store would refuse, non-finite or out-of-range cell,
front-end and binding values, and an excitation outside the device envelope or
not period-stable fail at load time, not at runtime.
"""

from __future__ import annotations

import configparser
import inspect
import io
import re
from dataclasses import dataclass, field
from pathlib import Path

from .actuation import ACTUATOR_KINDS, Actuator, Binding, Expression, HomeostatConfig
from .channels import ChannelId, ChannelKind, default_channels
from .detectors import DETECTOR_KINDS, Detector, build_detector
from .fra import SweepSpec
from .logstore import (
    CAPACITY_BYTES,
    SEGMENT_BYTES,
    check_column_name,
    check_store_sizes,
)
from .pipes import TierLayout
from .simulator import Event, EventKind, PlantSimulator, SimParams, TissueModel

MIN_PERIOD_S = 0.1
MAX_PERIOD_S = 100.0


class ConfigError(ValueError):
    """Rejected bench configuration."""


@dataclass(frozen=True)
class StoreParams:
    segment_bytes: int = SEGMENT_BYTES
    capacity_bytes: int = CAPACITY_BYTES

    def __post_init__(self) -> None:
        check_store_sizes(self.segment_bytes, self.capacity_bytes)


# every actuator kind's constructor parameters
_ACTUATOR_PARAMS = {
    kind: inspect.signature(cls).parameters for kind, cls in ACTUATOR_KINDS.items()
}


@dataclass(frozen=True)
class ActuatorSpec:
    """Deferred actuator construction: file paths resolve against the run
    dir and electrical stimulation binds to the run's simulator.

    kind names an ACTUATOR_KINDS entry; params are keyword arguments of that
    class's constructor, and the ones without a default must be given and not
    empty (a falsy port = 0 goes on to MessageToIp's own range check).
    """

    id: str
    kind: str
    params: dict = field(default_factory=dict, hash=False)

    def __post_init__(self) -> None:
        if self.kind not in ACTUATOR_KINDS:
            raise ValueError(f"unknown actuator kind {self.kind!r}")
        required = [
            name
            for name in _ACTUATOR_KEYS[self.kind]
            if _ACTUATOR_PARAMS[self.kind][name].default is inspect.Parameter.empty
        ]
        if any(self.params.get(name) in (None, "") for name in required):
            raise ValueError(f"{self.kind} needs {' and '.join(required)}")

    def build(self, out_dir: Path, simulator=None) -> Actuator:
        kwargs = dict(self.params)
        if "path" in kwargs:
            kwargs["path"] = str(out_dir / kwargs["path"])
        if "target" in _ACTUATOR_PARAMS[self.kind]:
            kwargs["target"] = simulator
        return ACTUATOR_KINDS[self.kind](self.id, **kwargs)


@dataclass(frozen=True)
class BindingSpec:
    """A Binding whose actuator is named by id until the run builds it."""

    id: str
    expression: Expression
    actuator: str
    payload: str = "fired"
    cooldown_s: float = 0.0
    homeostat: HomeostatConfig = field(default_factory=HomeostatConfig)


@dataclass(frozen=True)
class BenchConfig:
    """Validated, fully-typed bench description."""

    seed: int = 42
    period_s: float = 1.0
    duration_s: float = 600.0
    log_dir: str = "bench_run"
    report: str = ""
    channels: tuple[ChannelId, ...] = field(default_factory=default_channels)
    tissue: TissueModel = field(default_factory=TissueModel)
    sim_params: SimParams = field(default_factory=SimParams)
    tier_layout: TierLayout = field(default_factory=TierLayout)
    detectors: tuple[Detector, ...] = ()
    actuator_specs: tuple[ActuatorSpec, ...] = ()
    binding_specs: tuple[BindingSpec, ...] = ()
    events: tuple[Event, ...] = ()
    sweep: SweepSpec = field(default_factory=SweepSpec)
    store: StoreParams = field(default_factory=StoreParams)

    def __post_init__(self) -> None:
        if not (MIN_PERIOD_S <= self.period_s <= MAX_PERIOD_S):
            raise ValueError(
                f"period_s {self.period_s} outside [{MIN_PERIOD_S}, {MAX_PERIOD_S}]"
            )

    @property
    def period_ms(self) -> int:
        """The cycle period in whole milliseconds, at least 100."""
        return round(self.period_s * 1000.0)

    def cycles_in(self, seconds: float) -> int:
        """The number of cycles that spans seconds, at least one."""
        return max(1, round(seconds / self.period_s))

    def build_simulator(self) -> PlantSimulator:
        """The configured plant with the scripted events scheduled."""
        simulator = PlantSimulator(
            channels=self.channels,
            tissue=self.tissue,
            params=self.sim_params,
            seed=self.seed,
        )
        for event in self.events:
            simulator.add_event(event)
        return simulator

    def build_bindings(
        self, out_dir: Path, simulator=None
    ) -> tuple[list[Binding], dict[str, Actuator]]:
        """Materialize actuators in out_dir and wire the bindings to them.

        A binding's ValueError is reported against its [binding.ID] section.
        """
        actuators = {
            spec.id: spec.build(out_dir, simulator) for spec in self.actuator_specs
        }
        detector_ids = frozenset(d.id for d in self.detectors)
        bindings = []
        for spec in self.binding_specs:
            where = f"[binding.{spec.id}]"
            binding = _make(
                where,
                Binding,
                id=spec.id,
                expression=spec.expression,
                actuator=actuators[spec.actuator],
                payload=spec.payload,
                cooldown_s=spec.cooldown_s,
                homeostat=spec.homeostat,
            )
            _make(where, binding.validate_against, detector_ids)
            bindings.append(binding)
        return bindings, actuators


# -- key tables: INI key -> (class, field, type name) -----------------------------

_TYPES = {"int": int, "float": float, "str": str}


def _table(cls, names=None, **renamed) -> dict[str, tuple[type, str, str]]:
    """Keys for cls's int, float and str constructor parameters other than id.

    names (default: all of them) keep their field's name; renamed maps an INI
    key to the field it sets.
    """
    types = {}
    for p in inspect.signature(cls).parameters.values():
        base = str(p.annotation).split("|")[0].strip()
        if base in _TYPES and p.name != "id":
            types[p.name] = base
    fields = {name: name for name in (types if names is None else names)} | renamed
    return {key: (cls, name, types[name]) for key, name in fields.items()}


_SECTIONS = {
    "system": _table(BenchConfig) | _table(SimParams, ["stimulation_interval_s"]),
    "tissue": _table(TissueModel),
    "biopotential": _table(
        SimParams,
        [
            "ap_amplitude_v",
            "ap_duration_s",
            "vp_amplitude_v",
            "vp_duration_s",
            "day_length_s",
        ],
        baseline_v="bio_baseline_v",
        noise_rms_v="bio_noise_rms_v",
        blank_during_stimulation="blank_bio_during_stimulation",
    ),
    "impedance": _table(
        SimParams,
        [],
        frequency_hz="excitation_hz",
        amplitude_v="excitation_amplitude_v",
        samples="excitation_samples",
        sample_rate_hz="excitation_rate_hz",
        gain="transimpedance_gain",
        noise_rms_v="impedance_noise_rms_v",
    ),
    "pipe": _table(TierLayout),
    "sweep": _table(
        SweepSpec,
        ["start_hz", "stop_hz", "points", "mode", "cycles", "max_rate", "fixed_rate"],
        amplitude_v="amplitude",
        samples="n_samples",
    ),
    "store": _table(StoreParams),
}

# BenchConfig field -> the class the sections above fill
_PARTS = {
    "tissue": TissueModel,
    "sim_params": SimParams,
    "tier_layout": TierLayout,
    "sweep": SweepSpec,
    "store": StoreParams,
}

_DETECTOR_KEYS = {kind: _table(cls) for kind, cls in DETECTOR_KINDS.items()}
_ACTUATOR_KEYS = {kind: _table(cls) for kind, cls in ACTUATOR_KINDS.items()}
_BINDING_KEYS = (
    _table(BindingSpec)
    | {"expression": (BindingSpec, "expression", "str")}
    | _table(
        HomeostatConfig,
        [],
        # converted from per hour to per cycle once the period is known
        homeostat_target_per_hour="target_per_cycle",
        homeostat_alpha="alpha",
        homeostat_step="step",
        homeostat_lo="lo",
        homeostat_hi="hi",
    )
)


def _read(where: str, raw, table, into: dict | None = None) -> dict[type, dict]:
    """Type every key = text of raw by its table entry into into[class][field]."""
    into = {} if into is None else into
    for key, text in raw.items():
        if key not in table:
            raise ConfigError(f"{where}: unknown parameter {key!r}")
        cls, name, base = table[key]
        try:
            into.setdefault(cls, {})[name] = _TYPES[base](text)
        except ValueError:
            raise ConfigError(
                f"{where}: {key} = {text!r} is not a valid {base}"
            ) from None
    return into


def _make(where: str, build, *args, **kwargs):
    """build(*args, **kwargs), with its ValueError reported against where."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _make_part(cls, given: dict, origin: dict):
    """cls(**given), a ValueError reported against the INI section and key
    that set the field to blame, in the key's words.

    The defaults are valid, so the field to blame is the first one, in the
    order read, whose value makes cls refuse it together with the fields
    read before it.  origin maps (cls, field) to (section, key, text).
    """
    try:
        return cls(**given)
    except ValueError:
        pass
    tried = {}
    for name, value in given.items():
        tried[name] = value
        try:
            cls(**tried)
        except ValueError as exc:
            section, key, text = origin[cls, name]
            message = re.sub(rf"\b{name}\b", key, str(exc))
            raise ConfigError(f"[{section}]: {message} ({key} = {text})") from None
    raise AssertionError(f"{cls.__name__} refused {given}, then accepted it")


def _id_sections(parser, head: str):
    """(section name, id, keys) for every [head.ID] section, in file order."""
    for name in parser.sections():
        if not name.startswith(head + "."):
            continue
        raw = dict(parser[name])
        if "id" in raw:
            raise ConfigError(f"[{name}]: id comes from the section name")
        yield name, name.split(".", 1)[1], raw


def _parse_channels(section) -> tuple[ChannelId, ...]:
    """The channels in file order; the INI parser refuses a repeated name."""
    chans = []
    for name, kind_text in section.items():
        try:
            kind = ChannelKind(kind_text.strip())
        except ValueError:
            raise ConfigError(
                f"[channels]: unknown kind {kind_text!r} for {name!r}; "
                f"expected one of {sorted(k.value for k in ChannelKind)}"
            ) from None
        _make("[channels]", check_column_name, name)
        chans.append(ChannelId(name=name, kind=kind))
    return tuple(chans)


def _parse_events(section, channel_names: set[str]) -> tuple[Event, ...]:
    events = []
    for kind_text, listing in section.items():
        try:
            kind = EventKind(kind_text)
        except ValueError:
            raise ConfigError(f"[events]: unknown event kind {kind_text!r}")
        for item in listing.split(","):
            item = item.strip()
            if not item:
                continue
            channel = None
            if ":" in item:
                item, channel = item.split(":", 1)
                channel = channel.strip()
                if channel not in channel_names:
                    raise ConfigError(f"[events]: unknown channel {channel!r}")
            try:
                at_ms = round(float(item) * 1000.0)
            except (ValueError, OverflowError):  # not a number, NaN or infinite
                raise ConfigError(f"[events]: bad timestamp {item!r}")
            events.append(_make("[events]", Event, kind, at_ms, channel))
    return tuple(sorted(events, key=lambda e: e.at_ms))


def parse_config(text: str) -> BenchConfig:
    """Parse and validate a bench configuration from INI text."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # keep channel and parameter names case-exact
    try:
        parser.read_file(io.StringIO(text))
    except configparser.Error as exc:
        raise ConfigError(f"malformed INI: {exc}") from None

    for name in parser.sections():
        head = name.split(".", 1)[0]
        if head in ("detector", "actuator", "binding"):
            if "." not in name or not name.split(".", 1)[1]:
                raise ConfigError(f"section [{name}] needs an id: [{head}.some_id]")
            continue
        if name not in _SECTIONS and name not in ("channels", "events"):
            raise ConfigError(f"unknown section [{name}]")

    kwargs: dict[type, dict] = {}
    origin = {}
    for section, table in _SECTIONS.items():
        if parser.has_section(section):
            _read(f"[{section}]", parser[section], table, kwargs)
            for key, text in parser[section].items():
                origin[table[key][:2]] = (section, key, text)
    system = kwargs.get(BenchConfig, {})
    period_s = system.get("period_s", BenchConfig.period_s)
    parts = {
        name: _make_part(cls, kwargs.get(cls, {}), origin)
        for name, cls in _PARTS.items()
    }

    if parser.has_section("channels") and parser.options("channels"):
        channels = _parse_channels(parser["channels"])
    else:
        channels = default_channels()
    channel_names = {c.name for c in channels}

    detectors = []
    for name, det_id, raw in _id_sections(parser, "detector"):
        _make(f"[{name}]", check_column_name, det_id)
        kind = raw.pop("kind", None)
        if kind is None:
            raise ConfigError(f"[{name}] needs kind = <detector kind>")
        if kind not in DETECTOR_KINDS:
            raise ConfigError(
                f"[{name}]: unknown kind {kind!r}, expected one of "
                f"{sorted(DETECTOR_KINDS)}"
            )
        typed = _read(f"[{name}]", raw, _DETECTOR_KEYS[kind])
        params = typed.get(DETECTOR_KINDS[kind], {})
        chan = params.get("channel")
        if chan is not None and chan not in channel_names:
            raise ConfigError(f"[{name}]: unknown channel {chan!r}")
        detectors.append(_make(f"[{name}]", build_detector, kind, id=det_id, **params))

    actuator_specs = []
    for name, act_id, raw in _id_sections(parser, "actuator"):
        kind = raw.pop("kind", None)
        # an unknown kind has no table: ActuatorSpec rejects it by name
        if kind in ACTUATOR_KINDS:
            typed = _read(f"[{name}]", raw, _ACTUATOR_KEYS[kind])
            raw = typed.get(ACTUATOR_KINDS[kind], {})
        actuator_specs.append(_make(f"[{name}]", ActuatorSpec, act_id, kind, raw))
    actuator_ids = {a.id for a in actuator_specs}

    binding_specs = []
    for name, b_id, raw in _id_sections(parser, "binding"):
        where = f"[{name}]"
        if "expression" not in raw or "actuator" not in raw:
            raise ConfigError(f"{where} needs expression and actuator")
        typed = _read(where, raw, _BINDING_KEYS)
        spec, homeostat = typed[BindingSpec], typed.get(HomeostatConfig, {})
        if spec["actuator"] not in actuator_ids:
            raise ConfigError(f"{where}: unknown actuator {spec['actuator']!r}")
        if "target_per_cycle" in homeostat:
            per_hour = homeostat["target_per_cycle"]
            homeostat["target_per_cycle"] = per_hour * period_s / 3600.0
        spec["expression"] = _make(where, Expression, spec["expression"])
        spec["homeostat"] = _make(where, HomeostatConfig, **homeostat)
        binding_specs.append(BindingSpec(id=b_id, **spec))

    events = ()
    if parser.has_section("events"):
        events = _parse_events(parser["events"], channel_names)

    config = _make(
        "[system]",
        BenchConfig,
        **system,
        **parts,
        channels=channels,
        detectors=tuple(detectors),
        actuator_specs=tuple(actuator_specs),
        binding_specs=tuple(binding_specs),
        events=events,
    )
    # fail fast on detector references, payloads and actuator arguments, then
    # throw the build away
    try:
        config.build_bindings(Path("."))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return config


def load_config(path: str | Path) -> BenchConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    return parse_config(text)
