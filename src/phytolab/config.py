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
field each key sets, and a refusal starts with its [section] and names every
field in the words of the key that sets it.  One pass over the sections
checks their names and sorts the [head.ID] ones by head; an unknown detector
or actuator kind is refused by its registry's owner (build_detector or
ActuatorSpec).

Everything has a default; an empty file is a valid bench.  Unknown sections,
keys outside their section's table, detector or actuator kinds, channels,
detector references, payloads that cannot render or that their actuator
refuses, actuator arguments the actuator refuses (a file path outside the run
directory too), store sizes the store would refuse, non-finite or
out-of-range cell, front-end, sweep and binding values (a homeostat target as
written, per hour), a detector that needs more samples than its tier holds,
a sweep end that cannot be planned inside the device envelope, and an
excitation outside it or not period-stable fail at load time, not at runtime.
"""

from __future__ import annotations

import configparser
import inspect
import io
import math
import re
from dataclasses import dataclass, field, replace
from pathlib import Path

from .actuation import ACTUATOR_KINDS, Actuator, Binding, Expression, HomeostatConfig
from .channels import ChannelId, ChannelKind, default_channels
from .detectors import DETECTOR_KINDS, Detector, WindowedDetector, build_detector
from .fra import SweepSpec
from .logstore import (
    CAPACITY_BYTES,
    SEGMENT_BYTES,
    check_column_name,
    check_store_sizes,
)
from .pipes import TierLayout
from .simulator import Event, EventKind, PlantSimulator, SimParams, TissueModel
from .simulator import check_event_channel

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


def check_run_file(key: str, name: str) -> None:
    """Raise unless name is a file in the run directory: no directory part,
    not absolute, not '..'."""
    if name == ".." or Path(name).name != name:
        raise ValueError(f"{key} {name!r} must name a file in the run directory")


@dataclass(frozen=True)
class ActuatorSpec:
    """Deferred actuator construction: file paths resolve against the run
    dir and electrical stimulation binds to the run's simulator.

    kind names an ACTUATOR_KINDS entry; params are keyword arguments of that
    class's constructor, which checks them when the run, or the load's dry
    run, builds the actuator.
    """

    id: str
    kind: str
    params: dict = field(default_factory=dict, hash=False)

    def __post_init__(self) -> None:
        if self.kind not in ACTUATOR_KINDS:
            raise ValueError(f"unknown actuator kind {self.kind!r}")

    def build(self, out_dir: Path, simulator=None) -> Actuator:
        kwargs = dict(self.params)
        if path := kwargs.get("path"):  # an empty one is the constructor's to refuse
            check_run_file("path", path)
            kwargs["path"] = str(out_dir / path)
        if self.kind == "electrical_stimulation":
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
        if not 0 < self.duration_s < math.inf:
            raise ValueError(f"duration_s must be finite and > 0, got {self.duration_s}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.report:
            check_run_file("report", self.report)

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

        A ValueError is reported against its [actuator.ID] or [binding.ID].
        """
        actuators = {
            spec.id: _make(f"[actuator.{spec.id}]", spec.build, out_dir, simulator)
            for spec in self.actuator_specs
        }
        detector_ids = frozenset(d.id for d in self.detectors)
        bindings = []
        for spec in self.binding_specs:
            where = f"[binding.{spec.id}]"
            fields = vars(spec) | {"actuator": actuators[spec.actuator]}
            binding = _make(where, Binding, **fields)
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

_KIND_KEYS = {c: _table(c) for c in (*DETECTOR_KINDS.values(), *ACTUATOR_KINDS.values())}
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


def _read(
    section: str, raw, table, origin: dict, into: dict | None = None
) -> dict[type, dict]:
    """Type every key = text of [section] by its table entry into
    into[class][field], recording origin[class, field] = (section, key, text)."""
    into = {} if into is None else into
    for key, text in raw.items():
        if key not in table:
            raise ConfigError(f"[{section}]: unknown parameter {key!r}")
        cls, name, base = table[key]
        try:
            into.setdefault(cls, {})[name] = _TYPES[base](text)
        except ValueError:
            raise ConfigError(
                f"[{section}]: {key} = {text!r} is not a valid {base}"
            ) from None
        origin[cls, name] = (section, key, text)
    return into


def _read_kind(section: str, raw: dict, kinds: dict, origin: dict) -> tuple[str, dict]:
    """The kind [section] names and its other keys, typed by that kind's class.

    An unknown kind has no table; its registry's owner refuses it by name.
    """
    kind = raw.pop("kind", None)
    if kind is None:
        raise ConfigError(f"[{section}] needs kind = <{section.split('.')[0]} kind>")
    if kind not in kinds:
        return kind, {}
    cls = kinds[kind]
    return kind, _read(section, raw, _KIND_KEYS[cls], origin).get(cls, {})


def _make(where: str, build, *args, **kwargs):
    """build(*args, **kwargs), with its ValueError reported against where."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _make_part(cls, given: dict, origin: dict):
    """cls(**given), a ValueError reported against the INI section and key
    that set the field to blame, every field it names in its key's words.

    The defaults are valid, so the field to blame is the first one, in the
    order read, whose value makes cls refuse it together with the fields
    read before it.  origin maps (cls, field) to (section, key, text).
    """
    try:
        return cls(**given)
    except ValueError:
        pass
    tables = (*_SECTIONS.values(), _BINDING_KEYS)
    key_of = {n: k for t in tables for k, (c, n, _) in t.items() if c is cls}
    tried = {}
    for name, value in given.items():
        tried[name] = value
        try:
            cls(**tried)
        except ValueError as exc:
            section, key, text = origin[cls, name]
            message = re.sub(r"\w+", lambda m: key_of.get(m[0], m[0]), str(exc))
            raise ConfigError(f"[{section}]: {message} ({key} = {text})") from None
    raise AssertionError(f"{cls.__name__} refused {given}, then accepted it")


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


def _parse_events(section, channels: tuple[ChannelId, ...]) -> tuple[Event, ...]:
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
                _make("[events]", check_event_channel, channel, channels)
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

    ids = {"detector": [], "actuator": [], "binding": []}  # head -> (name, id, keys)
    for name in parser.sections():
        head, _, ident = name.partition(".")
        if head not in ids:
            if name not in _SECTIONS and name not in ("channels", "events"):
                raise ConfigError(f"unknown section [{name}]")
            continue
        if not ident:
            raise ConfigError(f"section [{name}] needs an id: [{head}.some_id]")
        raw = dict(parser[name])
        if "id" in raw:
            raise ConfigError(f"[{name}]: id comes from the section name")
        ids[head].append((name, ident, raw))

    kwargs: dict[type, dict] = {}
    origin = {}
    for section, table in _SECTIONS.items():
        if parser.has_section(section):
            _read(section, parser[section], table, origin, kwargs)
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
    for name, det_id, raw in ids["detector"]:
        _make(f"[{name}]", check_column_name, det_id)
        kind, params = _read_kind(name, raw, DETECTOR_KINDS, origin)
        chan = params.get("channel")
        if chan is not None and chan not in channel_names:
            raise ConfigError(f"[{name}]: unknown channel {chan!r}")
        detector = _make(f"[{name}]", build_detector, kind, id=det_id, **params)
        if isinstance(detector, WindowedDetector):
            key = f"{detector.tier}_capacity"
            held = getattr(parts["tier_layout"], key)
            if (needed := detector.required_samples()) > held:
                raise ConfigError(
                    f"[{name}]: needs {needed} samples, more than "
                    f"[pipe] {key} = {held} holds"
                )
        detectors.append(detector)

    actuator_specs = []
    for name, act_id, raw in ids["actuator"]:
        kind, params = _read_kind(name, raw, ACTUATOR_KINDS, origin)
        actuator_specs.append(_make(f"[{name}]", ActuatorSpec, act_id, kind, params))
    actuator_ids = {a.id for a in actuator_specs}

    binding_specs = []
    for name, b_id, raw in ids["binding"]:
        where = f"[{name}]"
        if "expression" not in raw or "actuator" not in raw:
            raise ConfigError(f"{where} needs expression and actuator")
        typed = _read(name, raw, _BINDING_KEYS, origin)
        spec = typed[BindingSpec]
        if spec["actuator"] not in actuator_ids:
            raise ConfigError(f"{where}: unknown actuator {spec['actuator']!r}")
        spec["expression"] = _make(where, Expression, spec["expression"])
        # checked as written, per hour, then run per cycle
        homeostat = _make_part(HomeostatConfig, typed.get(HomeostatConfig, {}), origin)
        per_cycle = homeostat.target_per_cycle * period_s / 3600.0
        spec["homeostat"] = replace(homeostat, target_per_cycle=per_cycle)
        binding_specs.append(BindingSpec(id=b_id, **spec))

    events = ()
    if parser.has_section("events"):
        events = _parse_events(parser["events"], channels)

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
    config.build_bindings(Path("."))
    return config


def load_config(path: str | Path) -> BenchConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    return parse_config(text)
