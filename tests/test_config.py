"""INI parsing: defaults, aliases, typed coercion and every rejection path."""

import pytest

from phytolab.actuation import (
    ElectricalStimulation,
    GenericSink,
    MessageToFile,
    MessageToIp,
    Relay,
    RgbLed,
)
from phytolab.channels import ChannelKind, default_channels
from phytolab.config import ConfigError, load_config, parse_config
from phytolab.detectors import GradientDetector, PeakDetector
from phytolab.simulator import EventKind

FULL_INI = """
[system]
seed = 7
period_s = 0.5
stimulation_interval_s = 5.0
duration_s = 120
log_dir = my_run
report = run.html

[channels]
BioA = biopotential1
BioB = biopotential2
imp = impedance1
light = light

[tissue]
rs = 500.0
rp = 20000
cp = 2e-6

[biopotential]
baseline_v = -0.04
noise_rms_v = 1e-6
ap_amplitude_v = 3e-3
blank_during_stimulation = 1

[impedance]
frequency_hz = 1000
amplitude_v = 0.2
samples = 512
sample_rate_hz = 32000
gain = 2000
noise_rms_v = 1e-5

[pipe]
short_capacity = 30
middle_capacity = 30
long_capacity = 12
middle_stride = 10
long_stride = 100

[detector.spike]
kind = peak
channel = BioA
sigma = 6.0
window = 30

[detector.drift]
kind = gradient
channel = light
tier = middle
per_hour = 100.0
direction = rising

[actuator.log]
kind = message_to_file
path = firings.txt

[actuator.net]
kind = message_to_ip
host = 10.0.0.2
port = 9000

[actuator.pump]
kind = relay

[actuator.lamp]
kind = rgb_led

[actuator.zap]
kind = electrical_stimulation
intensity = 0.5

[actuator.horn]
kind = generic_sink

[binding.alarm]
expression = spike == 1 and drift == 1
actuator = log
payload = spike at {spike}
cooldown_s = 30
homeostat_target_per_hour = 7.2

[events]
touch = 100, 300.5
wound = 500:BioB
electrical = 550

[sweep]
start_hz = 10
stop_hz = 1e5
points = 9
amplitude_v = 0.05
samples = 2048

[store]
segment_bytes = 4096
capacity_bytes = 16384
"""


def test_empty_text_yields_all_defaults():
    config = parse_config("")
    assert config.seed == 42
    assert config.period_s == 1.0
    assert config.duration_s == 600.0
    assert config.channels == default_channels()
    assert config.tissue.rs == 1.0e3 and config.tissue.cp == 1.0e-6
    assert config.detectors == () and config.binding_specs == ()
    assert config.sweep.points == 25
    assert config.store.segment_bytes == 2**20


def test_full_config_round_trip():
    config = parse_config(FULL_INI)
    assert config.seed == 7
    assert config.period_s == 0.5
    assert config.stimulation_interval_s == 5.0
    assert config.duration_s == 120.0
    assert config.log_dir == "my_run"
    assert config.report == "run.html"

    names = [c.name for c in config.channels]
    assert names == ["BioA", "BioB", "imp", "light"]
    assert config.channels[0].kind is ChannelKind.BIOPOTENTIAL_1
    assert config.channels[3].kind is ChannelKind.LIGHT

    assert config.tissue.rs == 500.0
    assert config.tissue.rp == 20000.0
    assert config.tissue.cp == 2e-6

    p = config.sim_params
    assert p.bio_baseline_v == -0.04
    assert p.bio_noise_rms_v == 1e-6
    assert p.ap_amplitude_v == 3e-3
    assert p.blank_bio_during_stimulation == 1
    assert p.excitation_hz == 1000.0
    assert p.excitation_amplitude_v == 0.2
    assert p.excitation_samples == 512
    assert p.excitation_rate_hz == 32000.0
    assert p.transimpedance_gain == 2000.0
    assert p.impedance_noise_rms_v == 1e-5
    assert p.stimulation_interval_s == 5.0

    layout = config.tier_layout
    assert (layout.short_capacity, layout.middle_stride, layout.long_stride) == (
        30,
        10,
        100,
    )

    spike, drift = config.detectors
    assert isinstance(spike, PeakDetector)
    assert spike.id == "spike" and spike.channel == "BioA"
    assert spike.sigma == 6.0 and spike.window == 30
    assert isinstance(drift, GradientDetector)
    assert drift.per_hour == 100.0 and drift.direction == "rising"

    kinds = {a.id: a.kind for a in config.actuator_specs}
    assert kinds == {
        "log": "message_to_file",
        "net": "message_to_ip",
        "pump": "relay",
        "lamp": "rgb_led",
        "zap": "electrical_stimulation",
        "horn": "generic_sink",
    }

    (spec,) = config.binding_specs
    assert spec.id == "alarm"
    assert spec.actuator == "log"
    assert spec.payload == "spike at {spike}"
    assert spec.cooldown_s == 30.0
    assert spec.homeostat_target_per_hour == 7.2

    assert [(e.kind, e.at_ms, e.channel) for e in config.events] == [
        (EventKind.TOUCH, 100_000, None),
        (EventKind.TOUCH, 300_500, None),
        (EventKind.WOUND, 500_000, "BioB"),
        (EventKind.ELECTRICAL, 550_000, None),
    ]

    assert config.sweep.start_hz == 10.0
    assert config.sweep.stop_hz == 1e5
    assert config.sweep.points == 9
    assert config.sweep.amplitude == 0.05
    assert config.sweep.n_samples == 2048

    assert config.store.segment_bytes == 4096
    assert config.store.capacity_bytes == 16384


def test_build_bindings_materializes_actuators(tmp_path):
    config = parse_config(FULL_INI)
    marker = object()
    bindings, actuators = config.build_bindings(tmp_path, simulator=marker)
    assert isinstance(actuators["log"], MessageToFile)
    assert actuators["log"].path == str(tmp_path / "firings.txt")
    assert isinstance(actuators["net"], MessageToIp)
    assert (actuators["net"].host, actuators["net"].port) == ("10.0.0.2", 9000)
    assert isinstance(actuators["pump"], Relay)
    assert isinstance(actuators["lamp"], RgbLed)
    assert isinstance(actuators["horn"], GenericSink)
    assert isinstance(actuators["zap"], ElectricalStimulation)
    assert actuators["zap"].intensity == 0.5
    assert actuators["zap"].target is marker

    (binding,) = bindings
    assert binding.id == "alarm"
    assert binding.actuator is actuators["log"]
    # 7.2 firings per hour at period 0.5 s is 0.001 per cycle
    assert binding.homeostat.target_per_cycle == pytest.approx(0.001)
    assert binding.expression.identifiers() == {"spike", "drift"}


def test_case_of_names_is_preserved():
    config = parse_config(FULL_INI)
    assert {c.name for c in config.channels} == {"BioA", "BioB", "imp", "light"}
    assert config.detectors[0].channel == "BioA"


def test_load_config_reads_file(tmp_path):
    path = tmp_path / "bench.ini"
    path.write_text("[system]\nseed = 3\n", encoding="utf-8")
    assert load_config(path).seed == 3
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "missing.ini")


BAD_CASES = [
    ("[mystery]\nx = 1\n", "unknown section"),
    ("[detector]\nkind = peak\n", "needs an id"),
    ("[system]\nseed = lots\n", "not a int"),
    ("[system]\nperiod_s = 0.001\n", "outside"),
    ("[system]\nperiod_s = 500\n", "outside"),
    ("[system]\nperod_s = 0.5\nsed = 3\n", "unknown parameter"),
    ("[channels]\nb = biopotential9\n", "unknown kind"),
    ("[channels]\na = biopotential1\na = biopotential2\n", "malformed INI"),
    ("[tissue]\nrs = -5\n", "out of range"),
    ("[tissue]\nohms = 5\n", "unknown parameter"),
    ("[impedance]\nvolts = 0.1\n", "unknown parameter"),
    ("[impedance]\nfrequency_hz = fast\n", "not a valid float"),
    ("[biopotential]\nblank_during_stimulation = 2\n", "0 or 1"),
    ("[pipe]\nmiddle_stride = 1\n", "strides must grow"),
    ("[detector.x]\nchannel = bio1\n", "needs kind"),
    ("[detector.x]\nkind = psychic\n", "unknown kind"),
    ("[detector.x]\nkind = peak\nchannel = nope\n", "unknown channel"),
    ("[detector.x]\nkind = peak\nchannel = bio1\ntier = weekly\n", "unknown tier"),
    ("[detector.x]\nkind = peak\nchannel = bio1\nshape = round\n", "unknown parameter"),
    ("[detector.x]\nkind = peak\nchannel = bio1\nid = y\n", "section name"),
    ("[detector.x]\nkind = peak\nchannel = bio1\nsigma = -1\n", "must be positive"),
    ("[actuator.x]\nkind = laser\n", "unknown actuator kind"),
    ("[actuator.x]\nkind = message_to_file\n", "needs path"),
    ("[actuator.x]\nkind = electrical_stimulation\nintensity = 1.5\n", "outside"),
    ("[actuator.x]\nkind = message_to_ip\nhost = h\n", "needs host and port"),
    (
        "[actuator.x]\nkind = message_to_ip\nhost = h\nport = 99999\n",
        "port",
    ),
    ("[binding.x]\nexpression = a == 1\n", "needs expression and actuator"),
    (
        "[detector.d]\nkind = mean\nchannel = bio1\n"
        "[actuator.r]\nkind = relay\n"
        "[binding.x]\nexpression = d > 1\nactuator = r\npayload = d={d:q}\n",
        "payload",
    ),
    (
        "[binding.x]\nexpression = a == 1\nactuator = ghost\n",
        "unknown actuator",
    ),
    (
        "[actuator.r]\nkind = relay\n"
        "[binding.x]\nexpression = ghost == 1\nactuator = r\n",
        "unknown detector",
    ),
    (
        "[actuator.r]\nkind = relay\n"
        "[detector.d]\nkind = mean\nchannel = bio1\n"
        "[binding.x]\nexpression = not (d == 1)\nactuator = r\n",
        "spontaneous",
    ),
    (
        "[actuator.r]\nkind = relay\n"
        "[binding.x]\nexpression = 1 ==\nactuator = r\n",
        "expect",
    ),
    ("[events]\nquake = 100\n", "unknown event kind"),
    ("[events]\ntouch = 100:nochan\n", "unknown channel"),
    ("[events]\ntouch = soon\n", "bad timestamp"),
    ("[events]\ntouch = -5\n", "non-negative"),
    ("[events]\nelectrical = 5:bio1\n", "not a channel"),
    ("[sweep]\nstart_hz = 1\n", "sweep"),
    ("[store]\nsegment_bytes = 10\n", "too small"),
    ("[store]\nsegment_bytes = 4096\ncapacity_bytes = 4096\n", "two segments"),
    ("no section header", "malformed INI"),
]


@pytest.mark.parametrize("text,match", BAD_CASES)
def test_bad_configs_are_rejected(text, match):
    with pytest.raises(ConfigError, match=match):
        parse_config(text)
