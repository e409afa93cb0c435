"""INI configuration: one file describes a whole bench run.

Sections:
  [system]        seed, period, stimulation interval, run length, output dir
  [channels]      name = kind pairs; omit for the full default inventory
  [tissue]        cell parameters rs / rp / cp
  [biopotential]  baseline, noise and event shapes for the simulator
  [impedance]     excitation frequency, amplitude, buffer, rate, gain, noise
  [pipe]          tier capacities and hand-off strides
  [detector.ID]   kind = ... plus that detector's parameters
  [actuator.ID]   kind = one of actuation.ACTUATOR_KINDS, plus the fields
                  its constructor takes (path, host and port, intensity)
  [binding.ID]    expression, actuator, payload, cooldown, homeostat knobs
  [events]        scripted stimuli: touch / wound = t_seconds[:channel], ...
  [sweep]         frequency sweep plan for the sweep command
  [store]         segment and capacity sizes for the record stores

Everything has a default; an empty file is a valid bench.  Unknown sections,
keys, detector or actuator kinds, channels, detector references, payloads
that cannot render and store sizes the store would refuse fail at load time,
not at runtime.
"""

from __future__ import annotations

import configparser
import dataclasses
import inspect
import io
from dataclasses import dataclass, field
from pathlib import Path

from .actuation import (
    ACTUATOR_KINDS,
    Actuator,
    Binding,
    HomeostatConfig,
    parse_expression,
)
from .channels import (
    MAX_PERIOD_S,
    MIN_PERIOD_S,
    ChannelId,
    ChannelKind,
    default_channels,
    validate_unique_names,
)
from .detectors import DETECTOR_KINDS, Detector, build_detector
from .fra import SweepSpec
from .logstore import CAPACITY_BYTES, SEGMENT_BYTES, check_store_sizes
from .pipes import LONG, MIDDLE, SHORT, TierLayout
from .simulator import Event, EventKind, SimParams, TissueModel

_KIND_BY_VALUE = {k.value: k for k in ChannelKind}


class ConfigError(ValueError):
    """Rejected bench configuration."""


@dataclass(frozen=True)
class StoreParams:
    segment_bytes: int = SEGMENT_BYTES
    capacity_bytes: int = CAPACITY_BYTES

    def __post_init__(self) -> None:
        check_store_sizes(self.segment_bytes, self.capacity_bytes)


# each actuator kind's constructor parameters after id
_ACTUATOR_PARAMS = {
    kind: tuple(inspect.signature(cls).parameters.values())[1:]
    for kind, cls in ACTUATOR_KINDS.items()
}


@dataclass(frozen=True)
class ActuatorSpec:
    """Deferred actuator construction: file paths resolve against the run
    dir and electrical stimulation binds to the run's simulator.

    kind names an ACTUATOR_KINDS entry.  The class's constructor parameters
    after id say which fields it takes; those without a default must be set.
    """

    id: str
    kind: str
    path: str = ""
    host: str = ""
    port: int = 0
    intensity: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in ACTUATOR_KINDS:
            raise ValueError(f"unknown actuator kind {self.kind!r}")
        params = _ACTUATOR_PARAMS[self.kind]
        required = [p.name for p in params if p.default is p.empty]
        if not all(getattr(self, name) for name in required):
            raise ValueError(f"{self.kind} needs {' and '.join(required)}")

    def build(self, out_dir: Path, simulator=None) -> Actuator:
        wiring = {
            "path": str(out_dir / self.path),
            "host": self.host,
            "port": self.port,
            "intensity": self.intensity,
            "target": simulator,
        }
        kwargs = {p.name: wiring[p.name] for p in _ACTUATOR_PARAMS[self.kind]}
        return ACTUATOR_KINDS[self.kind](self.id, **kwargs)


@dataclass(frozen=True)
class BindingSpec:
    id: str
    expression: str
    actuator: str
    payload: str = "fired"
    cooldown_s: float = 0.0
    homeostat_target_per_hour: float = 0.0
    homeostat_alpha: float = 0.05
    homeostat_step: float = 1.05
    homeostat_lo: float = 0.1
    homeostat_hi: float = 10.0


@dataclass(frozen=True)
class BenchConfig:
    """Validated, fully-typed bench description."""

    seed: int = 42
    period_s: float = 1.0
    stimulation_interval_s: float = 10.0
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

    def build_bindings(
        self, out_dir: Path, simulator=None
    ) -> tuple[list[Binding], dict[str, Actuator]]:
        """Materialize actuators in out_dir and wire the bindings to them."""
        actuators = {
            spec.id: spec.build(out_dir, simulator) for spec in self.actuator_specs
        }
        detector_ids = frozenset(d.id for d in self.detectors)
        bindings = []
        for spec in self.binding_specs:
            per_cycle = spec.homeostat_target_per_hour * self.period_s / 3600.0
            binding = Binding(
                id=spec.id,
                expression=parse_expression(spec.expression),
                actuator=actuators[spec.actuator],
                payload=spec.payload,
                cooldown_s=spec.cooldown_s,
                homeostat=HomeostatConfig(
                    target_per_cycle=per_cycle,
                    alpha=spec.homeostat_alpha,
                    step=spec.homeostat_step,
                    lo=spec.homeostat_lo,
                    hi=spec.homeostat_hi,
                ),
            )
            binding.validate_against(detector_ids)
            bindings.append(binding)
        return bindings, actuators


_KNOWN_SECTIONS = {
    "system",
    "channels",
    "tissue",
    "biopotential",
    "impedance",
    "pipe",
    "events",
    "sweep",
    "store",
}

_SYSTEM_KEYS = {
    "seed",
    "period_s",
    "stimulation_interval_s",
    "duration_s",
    "log_dir",
    "report",
}

_FIELD_TYPES = {"int": int, "float": float, "str": str}


def _coerce_params(cls: type, raw: dict[str, str], where: str) -> dict:
    by_name = {f.name: f for f in dataclasses.fields(cls)}
    out = {}
    for key, text in raw.items():
        f = by_name.get(key)
        if f is None:
            raise ConfigError(f"{where}: unknown parameter {key!r}")
        base = str(f.type).split("|")[0].strip()
        conv = _FIELD_TYPES.get(base, str)
        try:
            out[key] = conv(text)
        except ValueError:
            raise ConfigError(f"{where}: {key} = {text!r} is not a valid {base}")
    return out


def _get_typed(section, key: str, conv, default, where: str):
    if key not in section:
        return default
    try:
        return conv(section[key])
    except ValueError:
        raise ConfigError(f"{where}: {key} = {section[key]!r} is not a {conv.__name__}")


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
    chans = []
    for name, kind_text in section.items():
        kind = _KIND_BY_VALUE.get(kind_text.strip())
        if kind is None:
            raise ConfigError(
                f"[channels]: unknown kind {kind_text!r} for {name!r}; "
                f"expected one of {sorted(_KIND_BY_VALUE)}"
            )
        chans.append(ChannelId(name=name, kind=kind))
    try:
        validate_unique_names(chans)
    except ValueError as exc:
        raise ConfigError(f"[channels]: {exc}") from None
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
                at_s = float(item)
            except ValueError:
                raise ConfigError(f"[events]: bad timestamp {item!r}")
            try:
                events.append(
                    Event(kind=kind, at_ms=round(at_s * 1000.0), channel=channel)
                )
            except ValueError as exc:
                raise ConfigError(f"[events]: {exc}") from None
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
        if name not in _KNOWN_SECTIONS:
            raise ConfigError(f"unknown section [{name}]")

    system = dict(parser["system"]) if parser.has_section("system") else {}
    for key in system:
        if key not in _SYSTEM_KEYS:
            raise ConfigError(f"[system]: unknown parameter {key!r}")
    seed = _get_typed(system, "seed", int, 42, "[system]")
    period_s = _get_typed(system, "period_s", float, 1.0, "[system]")
    if not (MIN_PERIOD_S <= period_s <= MAX_PERIOD_S):
        raise ConfigError(
            f"[system]: period_s {period_s} outside [{MIN_PERIOD_S}, {MAX_PERIOD_S}]"
        )
    stim_s = _get_typed(system, "stimulation_interval_s", float, 10.0, "[system]")
    duration_s = _get_typed(system, "duration_s", float, 600.0, "[system]")
    log_dir = system.get("log_dir", "bench_run")
    report = system.get("report", "")

    if parser.has_section("channels") and parser.options("channels"):
        channels = _parse_channels(parser["channels"])
    else:
        channels = default_channels()
    channel_names = {c.name for c in channels}

    tissue_raw = dict(parser["tissue"]) if parser.has_section("tissue") else {}
    tissue_kwargs = _coerce_params(TissueModel, tissue_raw, "[tissue]")
    try:
        tissue = TissueModel(**tissue_kwargs)
    except ValueError as exc:
        raise ConfigError(f"[tissue]: {exc}") from None

    sim_kwargs: dict = {}
    if parser.has_section("biopotential"):
        alias = {
            "baseline_v": "bio_baseline_v",
            "noise_rms_v": "bio_noise_rms_v",
            "blank_during_stimulation": "blank_bio_during_stimulation",
        }
        for key, text_v in parser["biopotential"].items():
            sim_kwargs[alias.get(key, key)] = text_v
    if parser.has_section("impedance"):
        alias = {
            "frequency_hz": "excitation_hz",
            "amplitude_v": "excitation_amplitude_v",
            "samples": "excitation_samples",
            "sample_rate_hz": "excitation_rate_hz",
            "gain": "transimpedance_gain",
            "noise_rms_v": "impedance_noise_rms_v",
        }
        for key, text_v in parser["impedance"].items():
            mapped = alias.get(key)
            if mapped is None:
                raise ConfigError(f"[impedance]: unknown parameter {key!r}")
            sim_kwargs[mapped] = text_v
    sim_kwargs["stimulation_interval_s"] = repr(stim_s)
    typed = _coerce_params(SimParams, sim_kwargs, "[biopotential]/[impedance]")
    try:
        sim_params = SimParams(**typed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    pipe_raw = dict(parser["pipe"]) if parser.has_section("pipe") else {}
    pipe_kwargs = _coerce_params(TierLayout, pipe_raw, "[pipe]")
    try:
        tier_layout = TierLayout(**pipe_kwargs)
    except ValueError as exc:
        raise ConfigError(f"[pipe]: {exc}") from None

    detectors = []
    for name, det_id, raw in _id_sections(parser, "detector"):
        kind = raw.pop("kind", None)
        if kind is None:
            raise ConfigError(f"[{name}] needs kind = <detector kind>")
        if kind not in DETECTOR_KINDS:
            raise ConfigError(
                f"[{name}]: unknown kind {kind!r}, expected one of "
                f"{sorted(DETECTOR_KINDS)}"
            )
        params = _coerce_params(DETECTOR_KINDS[kind], raw, f"[{name}]")
        chan = params.get("channel")
        if chan is not None and chan not in channel_names:
            raise ConfigError(f"[{name}]: unknown channel {chan!r}")
        tier = params.get("tier")
        if tier is not None and tier not in (SHORT, MIDDLE, LONG):
            raise ConfigError(f"[{name}]: unknown tier {tier!r}")
        try:
            detectors.append(build_detector(kind, id=det_id, **params))
        except ValueError as exc:
            raise ConfigError(f"[{name}]: {exc}") from None

    actuator_specs = []
    for name, act_id, raw in _id_sections(parser, "actuator"):
        kind = raw.pop("kind", None)
        spec_kwargs = _coerce_params(ActuatorSpec, raw, f"[{name}]")
        try:
            actuator_specs.append(ActuatorSpec(id=act_id, kind=kind, **spec_kwargs))
        except ValueError as exc:
            raise ConfigError(f"[{name}]: {exc}") from None
    actuator_ids = {a.id for a in actuator_specs}

    binding_specs = []
    detector_ids = frozenset(d.id for d in detectors)
    for name, b_id, raw in _id_sections(parser, "binding"):
        if "expression" not in raw or "actuator" not in raw:
            raise ConfigError(f"[{name}] needs expression and actuator")
        spec = BindingSpec(id=b_id, **_coerce_params(BindingSpec, raw, f"[{name}]"))
        if spec.actuator not in actuator_ids:
            raise ConfigError(f"[{name}]: unknown actuator {spec.actuator!r}")
        binding_specs.append(spec)

    events = ()
    if parser.has_section("events"):
        events = _parse_events(parser["events"], channel_names)

    sweep_raw = dict(parser["sweep"]) if parser.has_section("sweep") else {}
    alias = {"amplitude_v": "amplitude", "samples": "n_samples"}
    sweep_raw = {alias.get(k, k): v for k, v in sweep_raw.items()}
    sweep_kwargs = _coerce_params(SweepSpec, sweep_raw, "[sweep]")
    try:
        sweep = SweepSpec(**sweep_kwargs)
    except ValueError as exc:
        raise ConfigError(f"[sweep]: {exc}") from None

    store_raw = dict(parser["store"]) if parser.has_section("store") else {}
    store_kwargs = _coerce_params(StoreParams, store_raw, "[store]")
    try:
        store = StoreParams(**store_kwargs)
    except ValueError as exc:
        raise ConfigError(f"[store]: {exc}") from None

    config = BenchConfig(
        seed=seed,
        period_s=period_s,
        stimulation_interval_s=stim_s,
        duration_s=duration_s,
        log_dir=log_dir,
        report=report,
        channels=channels,
        tissue=tissue,
        sim_params=sim_params,
        tier_layout=tier_layout,
        detectors=tuple(detectors),
        actuator_specs=tuple(actuator_specs),
        binding_specs=tuple(binding_specs),
        events=events,
        sweep=sweep,
        store=store,
    )
    # fail fast on expression or reference errors, then throw the build away
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
