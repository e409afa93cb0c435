"""INI parsing: defaults, key names, typed coercion and every rejection path."""

import configparser
import dataclasses
import importlib
import re
from pathlib import Path

import pytest

from phytolab.actuation import (
    ElectricalStimulation,
    GenericSink,
    HomeostatConfig,
    MessageToFile,
    MessageToIp,
    Relay,
    RgbLed,
)
from phytolab.channels import ChannelKind, default_channels
from phytolab import config as config_module
from phytolab.config import BenchConfig, ConfigError, load_config, parse_config
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
    # 7.2 firings per hour at period 0.5 s is 0.001 per cycle
    assert spec.homeostat.target_per_cycle == pytest.approx(0.001)

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


def test_same_text_parses_to_equal_configs():
    config = parse_config(FULL_INI)
    assert config == parse_config(FULL_INI)
    assert hash(config) == hash(parse_config(FULL_INI))


def test_case_of_names_is_preserved():
    config = parse_config(FULL_INI)
    assert {c.name for c in config.channels} == {"BioA", "BioB", "imp", "light"}
    assert config.detectors[0].channel == "BioA"


def test_an_empty_event_list_item_is_skipped():
    config = parse_config("[events]\ntouch = 2,, 1 ,\n")
    assert [(e.kind, e.at_ms, e.channel) for e in config.events] == [
        (EventKind.TOUCH, 1000, None),
        (EventKind.TOUCH, 2000, None),
    ]


def test_load_config_reads_file(tmp_path):
    path = tmp_path / "bench.ini"
    path.write_text("[system]\nseed = 3\n", encoding="utf-8")
    assert load_config(path).seed == 3
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "missing.ini")


BAD_CASES = [
    ("[mystery]\nx = 1\n", "unknown section"),
    ("[detector]\nkind = peak\n", "needs an id"),
    ("[system]\nseed = lots\n", "not a valid int"),
    # numpy's seeding would refuse it at run time, naming no section
    ("[system]\nseed = -1\n", r"^\[system\]: seed must be >= 0, got -1$"),
    ("[system]\nperiod_s = 0.001\n", "outside"),
    ("[system]\nperiod_s = 500\n", "outside"),
    ("[system]\nperod_s = 0.5\nsed = 3\n", "unknown parameter"),
    ("[channels]\nb = biopotential9\n", "unknown kind"),
    ("[channels]\na,b = biopotential1\n", "bad column name"),
    ("[channels]\na = biopotential1\na = biopotential2\n", "malformed INI"),
    ("[tissue]\nrs = -5\n", "out of range"),
    ("[tissue]\nohms = 5\n", "unknown parameter"),
    ("[impedance]\nvolts = 0.1\n", "unknown parameter"),
    ("[impedance]\nfrequency_hz = fast\n", "not a valid float"),
    ("[biopotential]\nblank_during_stimulation = 2\n", "0 or 1"),
    ("[pipe]\nmiddle_stride = 1\n", "strides must grow"),
    ("[detector.a,b]\nkind = mean\nchannel = bio1\n", "bad column name"),
    ("[detector.x]\nchannel = bio1\n", "needs kind"),
    ("[detector.x]\nkind = psychic\n", "unknown detector kind"),
    ("[detector.x]\nkind = peak\nchannel = nope\n", "unknown channel"),
    ("[detector.x]\nkind = peak\nchannel = bio1\ntier = weekly\n", "unknown tier"),
    ("[detector.x]\nkind = peak\nchannel = bio1\nshape = round\n", "unknown parameter"),
    ("[detector.x]\nkind = peak\nchannel = bio1\nid = y\n", "section name"),
    ("[detector.x]\nkind = peak\nchannel = bio1\nsigma = -1\n", "must be positive"),
    (
        "[detector.x]\nkind = mean\nchannel = bio1\nmin_samples = 1\n",
        r"^\[detector\.x\]: x: min_samples must be >= 2, got 1$",
    ),
    (
        "[detector.x]\nkind = cyclical\nchannel = bio1\nlag = 3\nthreshold = 1\n",
        r"^\[detector\.x\]: x: threshold must be inside \(-1, 1\)$",
    ),
    (
        "[detector.x]\nkind = time_of_day\nstart_hour = 6\nend_hour = 6\n",
        r"^\[detector\.x\]: x: empty daily window$",
    ),
    (
        "[biopotential]\nap_duration_s = 0\n",
        r"^\[biopotential\]: event durations must be positive \(ap_duration_s = 0\)$",
    ),
    (
        "[biopotential]\nday_length_s = 0\n",
        r"^\[biopotential\]: day length must be positive \(day_length_s = 0\)$",
    ),
    ("[actuator.x]\nkind = laser\n", "unknown actuator kind"),
    ("[actuator.x]\npath = a.txt\n", r"^\[actuator\.x\] needs kind = <actuator kind>$"),
    ("[actuator.x]\nkind = message_to_file\n", "needs path"),
    ("[actuator.x]\nkind = electrical_stimulation\nintensity = 1.5\n", "outside"),
    ("[actuator.x]\nkind = message_to_ip\nhost = h\n", "needs host and port"),
    (
        "[actuator.x]\nkind = message_to_ip\nhost = h\nport = 99999\n",
        "port",
    ),
    # a falsy but present value is checked by the constructor, not called missing
    ("[actuator.x]\nkind = message_to_ip\nhost = h\nport = 0\n", "port 0 out of range"),
    ("[actuator.x]\nkind = message_to_ip\nhost =\nport = 80\n", "needs host and port"),
    ("[actuator.x]\nkind = message_to_file\npath =\n", "needs path"),
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
    (
        "[channels]\nbio1 = biopotential1\nlight = light\nimp1 = impedance1\n"
        "[events]\ntouch = 10:light, 20:imp1\n",
        r"^\[events\]: channel 'light' is not a biopotential channel$",
    ),
    (
        "[channels]\nbio1 = biopotential1\nimp1 = impedance1\n[events]\nwound = 20:imp1\n",
        r"^\[events\]: channel 'imp1' is not a biopotential channel$",
    ),
    ("[events]\ntouch = soon\n", "bad timestamp"),
    ("[events]\ntouch = nan\n", "bad timestamp"),
    ("[events]\nwound = inf\n", "bad timestamp"),
    ("[events]\ntouch = -5\n", "non-negative"),
    ("[events]\nelectrical = 5:bio1\n", "not a channel"),
    ("[sweep]\nstart_hz = 1\n", "sweep"),
    ("[store]\nsegment_bytes = 10\n", "too small"),
    ("[store]\nsegment_bytes = 4096\ncapacity_bytes = 4096\n", "two segments"),
    ("no section header", "malformed INI"),
    # a key belongs to one section, under one name
    ("[biopotential]\nstimulation_interval_s = 3\n", "unknown parameter"),
    ("[biopotential]\nexcitation_hz = 700\n", "unknown parameter"),
    ("[sweep]\nn_samples = 512\n", "unknown parameter"),
    # an actuator takes only what its kind's constructor takes
    ("[actuator.x]\nkind = relay\npath = a.txt\n", "unknown parameter"),
    (
        "[actuator.r]\nkind = relay\n"
        "[binding.x]\nexpression = a == 1\nactuator = r\n"
        "homeostat_step = 0.5\n",
        r"^\[binding\.x\]: homeostat_step 0\.5 must exceed 1 \(homeostat_step = 0\.5\)$",
    ),
    # each of these loaded and then failed only at run time, or never
    ("[tissue]\nrs = nan\n", r"\[tissue\]: cell parameters out of range"),
    ("[impedance]\nfrequency_hz = 1e9\n", r"\[impedance\]: frequency .* outside"),
    ("[impedance]\nsamples = 1000\n", r"\[impedance\]: not period-stable"),
    ("[impedance]\ngain = 0\n", r"\[impedance\]: transimpedance gain must be"),
    ("[impedance]\ngain = -1000\n", r"\[impedance\]: transimpedance gain must be"),
    (
        "[biopotential]\nap_amplitude_v = nan\n",
        r"\[biopotential\].*: ap_amplitude_v must be finite",
    ),
    (
        "[actuator.r]\nkind = relay\n"
        "[binding.x]\nexpression = a == 1\nactuator = r\ncooldown_s = nan\n",
        r"\[binding\.x\]: binding 'x': cooldown must be >= 0",
    ),
    (
        "[actuator.r]\nkind = relay\n"
        "[binding.x]\nexpression = a == 1\nactuator = r\n"
        "homeostat_target_per_hour = nan\n",
        r"\[binding\.x\]: target rate must be >= 0",
    ),
    (
        "[actuator.r]\nkind = relay\n"
        "[binding.x]\nexpression = a == 1\nactuator = r\nhomeostat_step = nan\n",
        r"\[binding\.x\]: homeostat_step nan must exceed 1 \(homeostat_step = nan\)",
    ),
    # an infinite ceiling once left the adjustment factor without a bound
    (
        "[actuator.r]\nkind = relay\n"
        "[binding.x]\nexpression = a == 1\nactuator = r\nhomeostat_hi = inf\n",
        r"^\[binding\.x\]: target rate, homeostat_step and homeostat_hi must be "
        r"finite \(homeostat_hi = inf\)$",
    ),
    # a homeostat value is reported against its INI key, in the key's words,
    # and checked as written, before it converts to a per-cycle rate
    (
        "[actuator.r]\nkind = relay\n"
        "[binding.b]\nexpression = a == 1\nactuator = r\nhomeostat_alpha = 2\n",
        r"^\[binding\.b\]: homeostat_alpha 2\.0 outside \(0, 1\] \(homeostat_alpha = 2\)$",
    ),
    (
        "[actuator.r]\nkind = relay\n"
        "[binding.b]\nexpression = a == 1\nactuator = r\n"
        "homeostat_target_per_hour = -1\n",
        r"^\[binding\.b\]: target rate must be >= 0, got -1\.0 "
        r"\(homeostat_target_per_hour = -1\)$",
    ),
    # a cell, front-end or tier value is reported against the one section
    # and key that set it, in the key's words, not the dataclass field's
    (
        "[biopotential]\nnoise_rms_v = nan\n",
        r"^\[biopotential\]: noise_rms_v must be finite .* \(noise_rms_v = nan\)$",
    ),
    (
        "[impedance]\nnoise_rms_v = -1\n",
        r"^\[impedance\]: noise_rms_v must be finite .* \(noise_rms_v = -1\)$",
    ),
    (
        "[impedance]\nfrequency_hz = 1e9\n",
        r"^\[impedance\]: frequency .* outside .* \(frequency_hz = 1e9\)$",
    ),
    (
        "[system]\nstimulation_interval_s = 0\n",
        r"^\[system\]: stimulation interval .* \(stimulation_interval_s = 0\)$",
    ),
    ("[tissue]\nrp = -1\n", r"^\[tissue\]: cell parameters .* \(rp = -1\)$"),
    ("[pipe]\nlong_stride = 70\n", r"^\[pipe\]: long stride .* \(long_stride = 70\)$"),
    # of two keys valid alone, the one read second completes the fault
    (
        "[impedance]\nfrequency_hz = 250\nsamples = 1000\n",
        r"^\[impedance\]: not period-stable: .* \(samples = 1000\)$",
    ),
    # each of these loaded and then failed only at sweep time, or never
    (
        "[sweep]\nmode = fixed\nstop_hz = 6e5\n",
        r"^\[sweep\]: frequency 599609.375 Hz at or beyond Nyquist .* \(stop_hz = 6e5\)$",
    ),
    # the snapped bin of the last point, or of the first, leaves the envelope
    (
        "[sweep]\nmode = fixed\nfixed_rate = 1e8\nstop_hz = 650000\n",
        r"^\[sweep\]: frequency 683593.75 Hz outside \[8.0, 650000.0\] Hz "
        r"\(stop_hz = 650000\)$",
    ),
    (
        "[sweep]\nmode = fixed\nstop_hz = 1000\nfixed_rate = 6144\n",
        r"^\[sweep\]: frequency 6.0 Hz outside .* \(fixed_rate = 6144\)$",
    ),
    # each of these loaded and then asked for terabytes of memory
    (
        "[impedance]\nsamples = 10000000000\n",
        r"^\[impedance\]: buffer of 10000000000 samples, more than 65536 "
        r"\(samples = 10000000000\)$",
    ),
    (
        "[sweep]\nsamples = 1000000000000\n",
        r"^\[sweep\]: buffer of 1000000000000 samples, more than 65536 "
        r"\(samples = 1000000000000\)$",
    ),
    (
        "[sweep]\npoints = 1000000000000\n",
        r"^\[sweep\]: need at least one sweep point, at most 10000: 1000000000000 "
        r"\(points = 1000000000000\)$",
    ),
    (
        "[pipe]\nshort_capacity = 10000000000\n",
        r"^\[pipe\]: short_capacity must be 1 to 65536, got 10000000000 "
        r"\(short_capacity = 10000000000\)$",
    ),
    # a detector that needs more samples than its tier ever holds
    (
        "[pipe]\nshort_capacity = 10\n"
        "[detector.m]\nkind = mean\nchannel = bio1\nmin_samples = 20\n",
        r"^\[detector\.m\]: needs 20 samples, more than "
        r"\[pipe\] short_capacity = 10 holds$",
    ),
    (
        "[pipe]\nmiddle_capacity = 4\n"
        "[detector.c]\nkind = cyclical\nchannel = bio1\nlag = 3\n",
        r"^\[detector\.c\]: needs 5 samples, more than "
        r"\[pipe\] middle_capacity = 4 holds$",
    ),
    (
        "[sweep]\nmax_rate = 1000\n",
        r"^\[sweep\]: 300000.0 Hz needs 1200000.0 Hz at the last bin below Nyquist, "
        r"above max_rate 1000.0 Hz \(max_rate = 1000\)$",
    ),
    (
        "[sweep]\ncycles = 511\nmax_rate = 1e5\n",
        r"^\[sweep\]: 300000.0 Hz needs .* above max_rate .* \(max_rate = 1e5\)$",
    ),
    (
        "[sweep]\namplitude_v = 5\n",
        r"^\[sweep\]: amplitude_v 5.0 V outside .* \(amplitude_v = 5\)$",
    ),
    (
        "[sweep]\nmax_rate = nan\n",
        r"^\[sweep\]: max_rate must be finite and > 0, got nan \(max_rate = nan\)$",
    ),
    (
        "[sweep]\nfixed_rate = -1\n",
        r"^\[sweep\]: fixed_rate must be finite and > 0, got -1.0 \(fixed_rate = -1\)$",
    ),
    ("[system]\nduration_s = -5\n", r"^\[system\]: duration_s must be finite and > 0"),
    ("[system]\nduration_s = nan\n", r"^\[system\]: duration_s must be finite and > 0"),
    ("[system]\nduration_s = inf\n", r"^\[system\]: duration_s must be finite and > 0"),
    (
        "[detector.x]\nkind = peak\nchannel = bio1\nsigma = nan\n",
        r"^\[detector\.x\]: x: sigma must be positive and finite",
    ),
    (
        "[detector.x]\nkind = gradient\nchannel = bio1\nper_hour = inf\n",
        r"^\[detector\.x\]: x: per_hour threshold must be positive and finite",
    ),
    # each of these loaded and then failed on the first cycle
    ("[tissue]\nrs = inf\n", r"^\[tissue\]: cell parameters .* \(rs = inf\)$"),
    ("[tissue]\nrp = inf\n", r"^\[tissue\]: cell parameters .* \(rp = inf\)$"),
    ("[tissue]\ncp = inf\n", r"^\[tissue\]: cell parameters .* \(cp = inf\)$"),
    # an actuator's constructor error names its section
    (
        "[actuator.x]\nkind = message_to_ip\nhost = h\nport = 70000\n",
        r"^\[actuator\.x\]: port 70000 out of range$",
    ),
    # a file actuator writes one file in the run directory, nowhere else
    (
        "[actuator.x]\nkind = message_to_file\npath = /alerts.txt\n",
        r"^\[actuator\.x\]: path '/alerts.txt' must name a file in the run directory$",
    ),
    (
        "[actuator.x]\nkind = message_to_file\npath = ../x.txt\n",
        r"^\[actuator\.x\]: path '\.\./x.txt' must name a file in the run directory$",
    ),
    (
        "[actuator.x]\nkind = message_to_file\npath = missing/alerts.txt\n",
        r"^\[actuator\.x\]: path 'missing/alerts.txt' must name a file in the run",
    ),
    ("[actuator.x]\nkind = message_to_file\npath = ..\n", r"^\[actuator\.x\]: path '\.\.'"),
    ("[actuator.x]\nkind = message_to_file\npath = .\n", r"^\[actuator\.x\]: path '\.'"),
    (
        "[actuator.x]\nkind = electrical_stimulation\nintensity = 2\n",
        r"^\[actuator\.x\]: stimulation 'x': intensity 2.0 outside",
    ),
    # each of these loaded and then broke firings.log's one line per firing
    (
        "[actuator.r]\nkind = relay\n"
        "[binding.x]\nexpression = a == 1\nactuator = r\n"
        "payload = first line\n  second line\n",
        r"\[binding\.x\]: binding 'x': payload .* holds a line break",
    ),
    (
        "[actuator.r]\nkind = relay\n"
        "[binding.a\tb]\nexpression = a == 1\nactuator = r\n",
        r"\[binding\.a\tb\]: binding id 'a\\tb' holds a tab",
    ),
    # each of these loaded and then failed every firing: the default payload
    # "fired" and a rendered float are no relay word and no LED assignment
    (
        "[detector.d]\nkind = mean\nchannel = bio1\n[actuator.a]\nkind = relay\n"
        "[binding.b]\nexpression = d > 1\nactuator = a\n",
        r"^\[binding\.b\]: relay 'a': bad payload 'fired'",
    ),
    (
        "[detector.d]\nkind = mean\nchannel = bio1\n[actuator.a]\nkind = relay\n"
        "[binding.b]\nexpression = d > 1\nactuator = a\npayload = on at {d}\n",
        r"^\[binding\.b\]: relay 'a': bad payload 'on at 0.0'",
    ),
    (
        "[detector.d]\nkind = mean\nchannel = bio1\n[actuator.a]\nkind = rgb_led\n"
        "[binding.b]\nexpression = d > 1\nactuator = a\npayload = r=on w=on\n",
        r"^\[binding\.b\]: led 'a': bad assignment 'w=on'",
    ),
    (
        "[detector.d]\nkind = mean\nchannel = bio1\n[actuator.a]\nkind = rgb_led\n"
        "[binding.b]\nexpression = d > 1\nactuator = a\npayload = r={d}\n",
        r"^\[binding\.b\]: led 'a': bad assignment 'r=0.0'",
    ),
]


@pytest.mark.parametrize("text,match", BAD_CASES)
def test_bad_configs_are_rejected(text, match):
    with pytest.raises(ConfigError, match=match):
        parse_config(text)


@pytest.mark.parametrize(
    "section,key,bound",
    [
        ("impedance", "samples", 2**16),
        ("sweep", "samples", 2**16),
        ("sweep", "points", 10_000),
        ("pipe", "short_capacity", 2**16),
        ("pipe", "middle_capacity", 2**16),
        ("pipe", "long_capacity", 2**16),
    ],
)
def test_a_size_loads_at_its_bound_and_not_past_it(section, key, bound):
    parse_config(f"[{section}]\n{key} = {bound}\n")
    with pytest.raises(ConfigError, match=rf"^\[{section}\]: .* \({key} = {bound + 1}\)$"):
        parse_config(f"[{section}]\n{key} = {bound + 1}\n")


HOMEOSTAT_BINDING = (
    "[detector.d]\nkind = mean\nchannel = bio1\n[actuator.r]\nkind = relay\n"
    "[binding.b]\nexpression = d > 1\nactuator = r\npayload = on\n"
)
HOMEOSTAT_KEYS = ["target_per_hour", "alpha", "step", "lo", "hi"]
# (base text, section, key, the fields of the key's class named by another key)
ONE_KEY_CASES = [
    (
        f"[{section}]\n",
        section,
        key,
        {name for k, (c, name, _) in table.items() if c is cls and name != k},
    )
    for section, table in config_module._SECTIONS.items()
    for key, (cls, _, _) in table.items()
] + [
    (
        HOMEOSTAT_BINDING,
        "binding.b",
        f"homeostat_{key}",
        {f.name for f in dataclasses.fields(HomeostatConfig)},
    )
    for key in HOMEOSTAT_KEYS
]


@pytest.mark.parametrize("value", ["nan", "inf", "-1", "0", "1000000000000"])
@pytest.mark.parametrize(
    "base,section,key,renamed", ONE_KEY_CASES, ids=[c[2] for c in ONE_KEY_CASES]
)
def test_a_refused_key_is_named_in_the_ini_words(base, section, key, renamed, value):
    # a refusal starts with the section and names the key, and no field of
    # the refusing class that an INI key sets under another name
    try:
        parse_config(f"{base}{key} = {value}\n")
    except ConfigError as exc:
        message = str(exc)
    else:
        return
    assert message.startswith(f"[{section}]"), message
    assert key in message, message
    assert not [f for f in renamed if re.search(rf"\b{f}\b", message)], message


@pytest.mark.parametrize("period_s", [0.001, 0.0999, 100.5, 500.0])
def test_bench_config_owns_the_period_bounds(period_s):
    # the bounds hold for a config built in code, not only for a parsed one
    with pytest.raises(ValueError, match="period_s .* outside"):
        BenchConfig(period_s=period_s)
    for edge in (config_module.MIN_PERIOD_S, config_module.MAX_PERIOD_S):
        assert BenchConfig(period_s=edge).period_s == edge


@pytest.mark.parametrize("section", ["biopotential", "impedance"])
@pytest.mark.parametrize("value", ["-1", "-0.5", "nan", "inf"])
def test_noise_rms_must_be_finite_and_non_negative(section, value):
    # a negative or NaN RMS would otherwise load and mean "no noise"
    with pytest.raises(ConfigError, match="noise_rms_v must be finite and >= 0"):
        parse_config(f"[{section}]\nnoise_rms_v = {value}\n")


REPO = Path(__file__).resolve().parents[1]


def test_default_ini_is_all_defaults():
    assert load_config(REPO / "configs" / "default.ini") == parse_config("")


@pytest.mark.parametrize(
    "path", sorted((REPO / "configs").glob("*.ini")), ids=lambda p: p.name
)
def test_shipped_configs_load(path):
    load_config(path)


@pytest.mark.parametrize(
    "name,interval_s", [("BENCH_LOOP_INI", 5.0), ("CLOSED_LOOP_INI", 1.0)]
)
def test_benchmark_loop_configs_load(monkeypatch, name, interval_s):
    # the benchmark's loop workloads set up through parse_config
    monkeypatch.syspath_prepend(str(REPO / "bench"))
    workloads = importlib.import_module("workloads")
    config = parse_config(getattr(workloads, name).format(seed=1))
    assert config.period_s == 0.1
    assert config.sim_params.stimulation_interval_s == interval_s


def test_every_setting_has_one_key_and_default_ini_lists_it():
    sections = config_module._SECTIONS
    homes = [
        (cls, name) for table in sections.values() for cls, name, _ in table.values()
    ]
    assert len(homes) == len(set(homes))
    for cls in {cls for cls, _ in homes}:
        fields = dataclasses.fields(cls)
        scalar = {f.name for f in fields if f.type in ("int", "float", "str")}
        assert scalar == {name for c, name in homes if c is cls}, cls.__name__

    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    parser.read(REPO / "configs" / "default.ini", encoding="utf-8")
    listed = {(s, key) for s in sections if parser.has_section(s) for key in parser[s]}
    assert listed == {(s, key) for s, table in sections.items() for key in table}


@pytest.mark.parametrize("report", ["missing/r.html", "../outside.html", "/r.html", ".."])
def test_a_report_names_a_file_in_the_run_directory(report):
    # each of these loaded: the first ran every cycle and then failed to
    # write, the second wrote beside the run directory
    with pytest.raises(
        ConfigError,
        match=rf"^\[system\]: report {re.escape(repr(report))} must name a file "
        r"in the run directory$",
    ):
        parse_config(f"[system]\nreport = {report}\n")
    with pytest.raises(ValueError, match="must name a file in the run directory"):
        BenchConfig(report=report)
