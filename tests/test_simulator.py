"""Simulator tests against the closed-form cell and kernel oracles."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from phytolab import fra
from phytolab import simulator as sim
from phytolab.streams import READING_NOISE, Source
from phytolab.channels import (
    ChannelCategory,
    ChannelId,
    ChannelKind,
    ChannelSpec,
    Record,
    default_channels,
    quantize_for,
)


def cell_oracle(f, rs=1e3, rp=1e4, cp=1e-6):
    # written independently of TissueModel on purpose
    return rs + rp / (1.0 + 2j * math.pi * f * rp * cp)


def test_tissue_impedance_limits_and_midpoint():
    cell = sim.TissueModel()
    assert cell.impedance(0.0) == pytest.approx(11000.0)
    # high-frequency asymptote approaches the series resistance
    assert abs(cell.impedance(1e9)) == pytest.approx(1000.0, rel=1e-4)
    # at the corner frequency 1/(2 pi rp cp) the parallel arm halves
    f_c = 1.0 / (2.0 * math.pi * 1e4 * 1e-6)
    z = cell.impedance(f_c)
    assert z.real == pytest.approx(6000.0, rel=1e-12)
    assert z.imag == pytest.approx(-5000.0, rel=1e-12)


@given(f=st.floats(min_value=0.0, max_value=1e6))
@settings(max_examples=50, deadline=None)
def test_tissue_impedance_matches_oracle(f):
    cell = sim.TissueModel()
    assert cell.impedance(f) == pytest.approx(cell_oracle(f), rel=1e-12)


def test_tissue_rejects_bad_parameters():
    with pytest.raises(ValueError):
        sim.TissueModel(rs=-1.0)
    with pytest.raises(ValueError):
        sim.TissueModel(rp=0.0)
    with pytest.raises(ValueError):
        sim.TissueModel(cp=-1e-6)
    with pytest.raises(ValueError, match="negative frequency -1"):
        sim.TissueModel().impedance(-1)


def test_clean_response_reproduces_cell_impedance():
    cell = sim.TissueModel()
    vv = fra.synthesize_excitation(500.0, 0.1, 1024, 64000.0)
    vi = sim.tissue_response(vv, cell, gain=1000.0)
    out = fra.analyze_pair(vv, vi, gain=1000.0)
    z = cell_oracle(500.0)
    assert out.magnitude == pytest.approx(abs(z), rel=1e-10)
    assert out.phase_deg == pytest.approx(math.degrees(math.atan2(z.imag, z.real)), abs=1e-8)


def test_noisy_response_requires_rng():
    vv = fra.synthesize_excitation(500.0, 0.1, 1024, 64000.0)
    with pytest.raises(ValueError):
        sim.tissue_response(vv, sim.TissueModel(), noise_rms=1e-3)


def test_sweep_responder_noiseless_accuracy():
    cell = sim.TissueModel()
    spec = fra.SweepSpec(start_hz=8.0, stop_hz=3.0e5, points=9)
    for r in fra.run_sweep(spec, sim.sweep_responder(cell)):
        z = cell_oracle(r.frequency_hz)
        assert abs(r.magnitude - abs(z)) <= 1e-3 * abs(z)
        assert abs(r.phase_deg - math.degrees(math.atan2(z.imag, z.real))) <= 0.1


def test_sweep_responder_noise_is_deterministic():
    cell = sim.TissueModel()
    spec = fra.SweepSpec(start_hz=100.0, stop_hz=1000.0, points=3)
    a = fra.run_sweep(spec, sim.sweep_responder(cell, noise_rms=1e-3, seed=5))
    b = fra.run_sweep(spec, sim.sweep_responder(cell, noise_rms=1e-3, seed=5))
    c = fra.run_sweep(spec, sim.sweep_responder(cell, noise_rms=1e-3, seed=6))
    assert [r.magnitude for r in a] == [r.magnitude for r in b]
    assert [r.magnitude for r in a] != [r.magnitude for r in c]


# frozen kernel values, hand-computed
AP_CASES = [
    (0.0, 0.0),
    (0.4, 1.0),
    (0.5, 0.5 * (1.0 + math.sqrt(0.5))),  # 0.8535...
    (0.8, 0.0),
    (0.9, -0.25),
    (1.0, 0.0),
    (1.1, 0.0),
    (-0.1, 0.0),
]


@pytest.mark.parametrize("u,expected", AP_CASES)
def test_ap_kernel_frozen_points(u, expected):
    assert sim.ap_kernel(u) == pytest.approx(expected, abs=1e-12)


def test_ap_kernel_midway_carries_half_amplitude():
    assert sim.ap_kernel(0.5) >= 0.5


@given(u=st.floats(min_value=-2.0, max_value=3.0, allow_nan=False))
def test_ap_kernel_bounded(u):
    assert -0.25 - 1e-12 <= sim.ap_kernel(u) <= 1.0 + 1e-12


def test_vp_kernel_peak_and_decay():
    assert sim.vp_kernel(0.0) == 0.0
    assert sim.vp_kernel(1.0) == 1.0
    assert sim.vp_kernel(26.0) == 0.0  # past cutoff
    assert sim.vp_kernel(25.0) < 1e-8
    xs = np.linspace(1.0, 24.0, 100)
    ys = [sim.vp_kernel(float(x)) for x in xs]
    assert all(a > b for a, b in zip(ys, ys[1:]))


def quiet_sim(seed=0, **extra):
    params = sim.SimParams(bio_noise_rms_v=0.0, **extra)
    return sim.PlantSimulator(params=params, seed=seed)


def test_records_are_deterministic_and_order_independent():
    a = sim.PlantSimulator(seed=42)
    b = sim.PlantSimulator(seed=42)
    c = sim.PlantSimulator(seed=43)
    ts = [0, 1000, 5000, 2000, 1000]
    got_a = [a.record_at(t) for t in ts]
    # query b in a different order; per-timestamp seeding must not care
    for t in sorted(set(ts), reverse=True):
        b.record_at(t)
    got_b = [b.record_at(t) for t in ts]
    assert got_a == got_b
    assert a.record_at(1000) != c.record_at(1000)


def test_records_validate_against_channel_specs():
    # a record is on its channels' grids by construction; its codes are in
    # their ranges too, and its readings are those quantize_for leaves alone
    plant = sim.PlantSimulator(seed=1)
    chans = default_channels()
    for t in range(0, 86_400_000, 3_600_000):
        rec = plant.record_at(t)
        assert rec.channels == chans
        for ch, k in zip(chans, rec.codes):
            assert type(k) is int and ch.spec.code_lo <= k <= ch.spec.code_hi
            assert quantize_for(ch, rec.values[ch.name]) == rec.values[ch.name]


def test_touch_event_produces_spike_on_all_bio_channels():
    plant = quiet_sim()
    plant.add_touch(10_000)
    base = plant.record_at(9_000)
    mid = plant.record_at(10_500)  # half the spike duration later
    for name in ("bio1", "bio2"):
        assert base.values[name] == pytest.approx(-0.05, abs=1e-7)
        lift = mid.values[name] - base.values[name]
        assert lift >= 0.5 * 2e-3


def test_touch_event_targets_single_channel():
    plant = quiet_sim()
    plant.add_touch(10_000, channel="bio1")
    mid = plant.record_at(10_400)
    assert mid.values["bio1"] > -0.05 + 1e-3
    assert mid.values["bio2"] == pytest.approx(-0.05, abs=1e-7)


@pytest.mark.parametrize("channel", ["light", "imp1"])
def test_touch_and_wound_refuse_a_channel_that_is_not_a_biopotential_one(channel):
    plant = quiet_sim()
    for add in (plant.add_touch, plant.add_wound):
        with pytest.raises(ValueError, match="not a biopotential channel"):
            add(10_000, channel=channel)
    with pytest.raises(ValueError, match="unknown channel 'nochan'"):
        plant.add_touch(10_000, channel="nochan")
    assert plant.events == ()


@pytest.mark.parametrize("scale", [math.nan, math.inf, -math.inf, 0.0, -1.0])
@pytest.mark.parametrize("kind", list(sim.EventKind))
def test_an_event_scale_that_is_not_positive_and_finite_is_refused(kind, scale):
    # a NaN scale once loaded and failed only at the next record, as a cell
    # with rp=nan; an infinite touch failed there too, unable to quantize
    plant = sim.PlantSimulator(seed=1)
    with pytest.raises(ValueError, match="must be positive and finite"):
        plant.add_event(sim.Event(kind, 0, scale=scale))
    assert plant.events == ()
    plant.record_at(0)


@pytest.mark.parametrize("kind", list(sim.EventKind))
def test_an_event_time_refusal_names_at_ms(kind):
    for bad in (math.nan, 10.5):
        with pytest.raises(TypeError, match=f"^at_ms must be an integer, got {bad}$"):
            sim.Event(kind, bad)


def test_an_electrical_intensity_above_one_is_refused():
    with pytest.raises(ValueError, match=r"intensity must be in \(0, 1\]"):
        sim.Event(sim.EventKind.ELECTRICAL, 0, scale=1.5)
    assert sim.Event(sim.EventKind.ELECTRICAL, 0, scale=1.0).scale == 1.0
    assert sim.Event(sim.EventKind.TOUCH, 0, scale=1e6).scale == 1e6


def test_an_event_time_that_is_not_an_integer_is_refused():
    # a NaN time once loaded and sorted last in the event list, where
    # bisect_right then skipped every event: the touch at 10 s went unseen
    plant = sim.PlantSimulator(seed=1)
    plant.add_touch(10_000)
    want = plant.record_at(10_400).values["bio1"]
    for bad in (math.nan, math.inf, 10.5, 10_000.0):
        with pytest.raises(TypeError):
            plant.add_touch(bad)
    assert len(plant.events) == 1
    assert plant.record_at(10_400).values["bio1"] == want
    fresh = sim.PlantSimulator(seed=1)
    fresh.add_touch(10_000)
    assert want == fresh.record_at(10_400).values["bio1"] != -0.049989888
    # an integer of another type is a millisecond count, stored as int
    plant.add_wound(np.int64(20_000))
    assert [type(e.at_ms) for e in plant.events] == [int, int]


def test_events_do_not_act_before_their_time():
    plant = quiet_sim()
    plant.add_touch(10_000)
    plant.add_wound(20_000)
    rec = plant.record_at(9_999)
    assert rec.values["bio1"] == pytest.approx(-0.05, abs=1e-7)


def test_events_list_touch_and_wound_then_electrical_each_in_time_order():
    plant = quiet_sim()
    plant.add_electrical(9_000)
    plant.add_touch(10_000)
    plant.add_wound(2_000, channel="bio1")
    plant.add_electrical(3_000, intensity=0.5)
    plant.add_touch(10_000, channel="bio2")
    got = [(e.kind.value, e.at_ms, e.channel) for e in plant.events]
    assert got == [
        ("wound", 2_000, "bio1"),
        ("touch", 10_000, None),
        ("touch", 10_000, "bio2"),
        ("electrical", 3_000, None),
        ("electrical", 9_000, None),
    ]


def test_overlapping_events_superpose_linearly():
    plant = quiet_sim()
    plant.add_touch(10_000)
    plant.add_touch(10_200)
    single = quiet_sim()
    single.add_touch(10_000)
    other = quiet_sim()
    other.add_touch(10_200)
    t = 10_600
    combined = plant.record_at(t).values["bio1"]
    a = single.record_at(t).values["bio1"]
    b = other.record_at(t).values["bio1"]
    assert combined == pytest.approx(a + b - (-0.05), abs=2e-7)


def test_wound_event_rises_and_decays_slowly():
    plant = quiet_sim()
    plant.add_wound(0)
    tau_ms = round(20.0 / 5.0 * 1000)
    peak = plant.record_at(tau_ms).values["bio1"]
    assert peak == pytest.approx(-0.05 + 5e-3, abs=1e-6)
    late = plant.record_at(tau_ms * 30).values["bio1"]
    assert late == pytest.approx(-0.05, abs=1e-6)


def test_unknown_event_channel_rejected():
    plant = quiet_sim()
    with pytest.raises(ValueError):
        plant.add_touch(0, channel="nope")


def test_impedance_sample_and_hold():
    plant = sim.PlantSimulator(
        params=sim.SimParams(impedance_noise_rms_v=1e-4), seed=3
    )
    within = {plant.record_at(t).values["imp1"] for t in (0, 3000, 9999)}
    assert len(within) == 1
    across = {plant.record_at(t).values["imp1"] for t in (0, 10_000, 20_000)}
    assert len(across) == 3


def test_impedance_matches_cell_magnitude():
    plant = sim.PlantSimulator(seed=0)
    want = abs(cell_oracle(500.0))
    got = plant.record_at(0).values["imp1"]
    assert got == pytest.approx(want, abs=2e-3)  # 1 mohm quantization
    assert plant.expected_value("imp1", 0) == pytest.approx(want, rel=1e-12)


def test_electrical_event_scales_impedance_for_vp_duration():
    plant = sim.PlantSimulator(seed=0)
    base = abs(cell_oracle(500.0))
    dipped = abs(cell_oracle(500.0, rp=0.9e4))  # rp * (1 - 0.1 * intensity)
    plant.add_electrical(5_000, intensity=1.0)
    assert plant.record_at(0).values["imp1"] == pytest.approx(base, abs=2e-3)
    assert plant.record_at(10_000).values["imp1"] == pytest.approx(dipped, abs=2e-3)
    assert plant.record_at(20_000).values["imp1"] == pytest.approx(dipped, abs=2e-3)
    # the 20 s window closes at 25 s, so the 30 s slot has recovered
    assert plant.record_at(30_000).values["imp1"] == pytest.approx(base, abs=2e-3)
    assert plant.expected_value("imp1", 10_000) == pytest.approx(dipped, rel=1e-12)


def test_overlapping_electrical_events_compound():
    plant = sim.PlantSimulator(seed=0)
    plant.add_electrical(0, intensity=1.0)
    plant.add_electrical(1_000, intensity=0.5)
    want = abs(cell_oracle(500.0, rp=1e4 * 0.9 * 0.95))
    assert plant.record_at(10_000).values["imp1"] == pytest.approx(want, abs=2e-3)


def test_electrical_event_leaves_biopotentials_alone():
    plant = quiet_sim()
    plant.add_electrical(5_000)
    assert plant.record_at(6_000).values["bio1"] == pytest.approx(-0.05, abs=1e-7)


def test_electrical_event_validation():
    plant = sim.PlantSimulator(seed=0)
    with pytest.raises(ValueError):
        plant.add_electrical(0, intensity=1.5)
    with pytest.raises(ValueError):
        plant.add_electrical(0, intensity=0.0)
    with pytest.raises(ValueError):
        sim.Event(sim.EventKind.ELECTRICAL, 0, channel="bio1")


def test_environment_day_cycle():
    plant = sim.PlantSimulator(seed=0)
    noon = 12 * 3_600_000
    midnight = 0
    assert plant.expected_value("light", noon) == pytest.approx(2e4)
    assert plant.expected_value("light", midnight) == 0.0
    assert plant.expected_value("air_temperature", noon) == pytest.approx(26.0)
    assert plant.expected_value("air_humidity", noon) < plant.expected_value(
        "air_humidity", midnight
    )
    # records track the clean curves within a few noise sigmas
    rec = plant.record_at(noon)
    assert rec.values["air_temperature"] == pytest.approx(26.0, abs=0.1)


def test_record_samples_bio_then_impedance_then_environment(monkeypatch):
    # channels configured backwards on purpose
    chans = (
        ChannelId("light", ChannelKind.LIGHT),
        ChannelId("imp1", ChannelKind.IMPEDANCE_1),
        ChannelId("bio1", ChannelKind.BIOPOTENTIAL_1),
    )
    plant = sim.PlantSimulator(channels=chans, seed=0)
    seen = []
    bio_clean, env_bases, project = plant._bio_clean, plant._env_bases, fra.fra_single_point
    plant._bio_clean = lambda name, t: (seen.append(name), bio_clean(name, t))[1]
    plant._env_bases = lambda t: (seen.append("environment"), env_bases(t))[1]
    monkeypatch.setattr(
        fra, "fra_single_point", lambda *a, **k: (seen.append("excitation"), project(*a, **k))[1]
    )
    rec = plant.record_at(0)
    assert seen == ["bio1", "excitation", "environment"]
    # the record holds them in config order
    assert rec.channels == chans and list(rec.values) == ["light", "imp1", "bio1"]


def test_blanking_holds_bio_at_baseline_during_stimulation():
    def build(flag):
        plant = sim.PlantSimulator(
            params=sim.SimParams(blank_bio_during_stimulation=flag), seed=5
        )
        plant.add_touch(9_600)  # crest lands on the 10 s slot start
        return plant

    blanked = build(1)
    assert blanked.record_at(10_000).values["bio1"] == -0.05
    assert blanked.expected_value("bio1", 10_000) == -0.05
    # off the stimulation instant the touch and the noise come through
    assert blanked.record_at(10_200).values["bio1"] != -0.05
    live = build(0)
    assert live.record_at(10_000).values["bio1"] != -0.05


def test_blanking_is_inert_without_impedance_channels():
    chans = (ChannelId("bio1", ChannelKind.BIOPOTENTIAL_1),)
    plant = sim.PlantSimulator(
        channels=chans,
        params=sim.SimParams(bio_noise_rms_v=0.0, blank_bio_during_stimulation=1),
        seed=0,
    )
    plant.add_touch(9_600)
    assert plant.record_at(10_000).values["bio1"] > -0.05 + 1e-3


def test_blanking_flag_must_be_binary():
    with pytest.raises(ValueError):
        sim.SimParams(blank_bio_during_stimulation=2)


def test_expected_value_matches_quiet_bio_records():
    plant = quiet_sim()
    plant.add_touch(5_000)
    for t in (0, 5_200, 5_900, 7_000):
        want = plant.expected_value("bio1", t)
        assert plant.record_at(t).values["bio1"] == pytest.approx(want, abs=64e-9)


@given(t=st.integers(min_value=0, max_value=86_400_000))
@settings(max_examples=30, deadline=None)
def test_bio_values_always_on_quantization_grid(t):
    plant = sim.PlantSimulator(seed=9)
    v = plant.record_at(t).values["bio1"]
    assert v == 64e-9 * round(v / 64e-9)


# -- event windows, one-slot impedance cache and the noise stream -------------


def brute_bio_clean(plant, name, t):
    """Every touch/wound event ever added, summed in at_ms order."""
    p = plant.params
    total = p.bio_baseline_v
    for ev in sorted(plant.events, key=lambda e: e.at_ms):
        if ev.kind is sim.EventKind.ELECTRICAL:
            continue
        if ev.channel is not None and ev.channel != name:
            continue
        dt = (t - ev.at_ms) / 1000.0
        if dt < 0.0:
            continue
        if ev.kind is sim.EventKind.TOUCH:
            total += ev.scale * p.ap_amplitude_v * sim.ap_kernel(dt / p.ap_duration_s)
        else:
            tau = p.vp_duration_s / 5.0
            total += ev.scale * p.vp_amplitude_v * sim.vp_kernel(dt / tau)
    return total


def brute_rp(plant, slot):
    """Every electrical event ever added, multiplied in at_ms order."""
    factor = 1.0
    dur_ms = round(plant.params.vp_duration_s * 1000.0)
    for ev in sorted(plant.events, key=lambda e: e.at_ms):
        if ev.kind is sim.EventKind.ELECTRICAL and ev.at_ms <= slot < ev.at_ms + dur_ms:
            factor *= 1.0 - 0.1 * ev.scale
    return plant.tissue.rp * factor


@st.composite
def plants_with_events(draw):
    ap_s = draw(st.sampled_from([0.0015, 1.0]) | st.floats(0.001, 5.0))
    vp_s = draw(st.sampled_from([0.005, 20.0]) | st.floats(0.001, 40.0))
    params = sim.SimParams(ap_duration_s=ap_s, vp_duration_s=vp_s)
    plant = sim.PlantSimulator(params=params, seed=0)
    t = draw(st.integers(0, 300_000))
    slot = plant._slot(t)
    # events exactly on, and one ms either side of, each support edge
    edges = [
        t - round(ap_s * 1000.0),
        t - round(5.0 * vp_s * 1000.0),  # 25 tau, tau = vp / 5
        slot - round(vp_s * 1000.0),
    ]
    near = [e + d for e in edges for d in (-1, 0, 1) if e + d >= 0]
    at_ms = st.integers(0, 400_000)
    if near:
        at_ms = at_ms | st.sampled_from(near)
    bio_event = st.builds(
        sim.Event,
        st.sampled_from([sim.EventKind.TOUCH, sim.EventKind.WOUND]),
        at_ms,
        st.sampled_from([None, "bio1", "bio2"]),
        st.floats(0.1, 3.0),
    )
    electrical = st.builds(
        sim.Event,
        st.just(sim.EventKind.ELECTRICAL),
        at_ms,
        st.none(),
        st.floats(0.01, 1.0),
    )
    for ev in draw(st.lists(bio_event | electrical, max_size=40)):
        plant.add_event(ev)
    return plant, t


@given(case=plants_with_events())
@settings(max_examples=200, deadline=None)
def test_event_windows_match_a_scan_of_every_event(case):
    plant, t = case
    for name in ("bio1", "bio2"):
        assert plant._bio_clean(name, t) == brute_bio_clean(plant, name, t)
    slot = plant._slot(t)
    assert plant._cell_at(slot).rp == brute_rp(plant, slot)


def loaded_plant():
    plant = sim.PlantSimulator(
        params=sim.SimParams(impedance_noise_rms_v=1e-4), seed=7
    )
    plant.add_touch(3_000)
    plant.add_wound(12_000, channel="bio2")
    plant.add_touch(26_500, channel="bio1")
    # added out of time order on purpose
    for at_ms in (41_000, 5_000, 19_500, 18_000):
        plant.add_electrical(at_ms, intensity=0.5)
    return plant


def test_records_with_events_do_not_depend_on_query_order():
    # 20 s slot, then other slots, then back to the evicted 20 s slot
    first = [20_000, 50_000, 29_999, 5_000, 21_000, 20_000]
    rest = list(range(0, 60_000, 1_300))
    random.Random(4).shuffle(rest)
    fresh = loaded_plant()
    want = {t: fresh.record_at(t) for t in sorted(set(first + rest))}
    plant = loaded_plant()
    for t in first + rest:
        assert plant.record_at(t) == want[t]


def test_reading_noise_has_its_rms_and_is_uncorrelated():
    plant = sim.PlantSimulator(seed=1)
    times = range(4_000)
    records = [plant.record_at(t) for t in times]

    def noise(name):
        clean = [plant.expected_value(name, t) for t in times]
        return np.array([r.values[name] for r in records]) - clean

    bio1, bio2 = noise("bio1"), noise("bio2")
    air = noise("air_temperature")
    assert np.sqrt(np.mean(bio1**2)) == pytest.approx(5e-6, rel=0.1)
    assert np.sqrt(np.mean(air**2)) == pytest.approx(0.01, rel=0.1)
    assert abs(np.corrcoef(bio1[:-1], bio1[1:])[0, 1]) < 0.1
    assert abs(np.corrcoef(bio1, bio2)[0, 1]) < 0.1
    other = sim.PlantSimulator(seed=2)
    assert [other.record_at(t).values["bio1"] for t in range(20)] != [
        r.values["bio1"] for r in records[:20]
    ]


def test_expired_events_call_no_kernel(monkeypatch):
    calls = []
    for name in ("ap_kernel", "vp_kernel"):
        kernel = getattr(sim, name)
        monkeypatch.setattr(
            sim, name, lambda u, kernel=kernel: (calls.append(u), kernel(u))[1]
        )
    plant = sim.PlantSimulator(seed=0)
    for i in range(1_000):
        plant.add_touch(i * 100)
        plant.add_wound(i * 100 + 50)
    # the last wound is 900 s old; its kernel ends after 25 tau = 100 s
    plant.record_at(1_000_000)
    assert calls == []


# -- the channel plan against the per-channel path it replaced ----------------

REFERENCE_ENV_NOISE_RMS = {
    ChannelKind.TRANSPIRATION: 0.05,
    ChannelKind.SAP_FLOW: 2e-6,
    ChannelKind.SOIL_MOISTURE: 0.02,
    ChannelKind.SOIL_TEMPERATURE: 0.005,
    ChannelKind.AIR_TEMPERATURE: 0.01,
    ChannelKind.AIR_HUMIDITY: 0.05,
    ChannelKind.AIR_PRESSURE: 0.02,
    ChannelKind.LIGHT: 2.0,
    ChannelKind.MAGNETOMETER_XYZ: 5e-9,
    ChannelKind.ACCELEROMETER_XYZ: 0.005,
    ChannelKind.RF_POWER: 0.1,
    ChannelKind.EXTERNAL_TEMPERATURE: 2e-4,
}


def reference_env_clean(plant, kind, t_ms):
    """One if-branch per environment kind, as the simulator once computed it."""
    t = t_ms / 1000.0
    day = plant.params.day_length_s
    s = math.sin(2.0 * math.pi * (t - day / 4.0) / day)
    daylight = max(0.0, s)
    if kind is ChannelKind.LIGHT:
        return 2.0e4 * daylight * daylight
    if kind is ChannelKind.AIR_TEMPERATURE:
        return 22.0 + 4.0 * s
    if kind is ChannelKind.SOIL_TEMPERATURE:
        return 20.0 + 1.5 * math.sin(2.0 * math.pi * (t - day / 3.0) / day)
    if kind is ChannelKind.AIR_HUMIDITY:
        return 55.0 - 12.0 * s
    if kind is ChannelKind.AIR_PRESSURE:
        return 1013.0 + 1.5 * math.sin(4.0 * math.pi * t / day)
    if kind is ChannelKind.TRANSPIRATION:
        return 30.0 + 25.0 * daylight
    if kind is ChannelKind.SAP_FLOW:
        return 0.002 + 0.001 * daylight
    if kind is ChannelKind.SOIL_MOISTURE:
        return 50.0 + 5.0 * math.sin(2.0 * math.pi * t / (3.0 * day))
    if kind is ChannelKind.MAGNETOMETER_XYZ:
        return 4.8e-5
    if kind is ChannelKind.ACCELEROMETER_XYZ:
        return 9.81
    if kind is ChannelKind.RF_POWER:
        return -80.0
    if kind is ChannelKind.EXTERNAL_TEMPERATURE:
        return 21.0 + 3.0 * s
    raise ValueError(f"no environment model for {kind}")


def reference_record_at(plant, t_ms):
    """record_at with a category lookup per reading, sorted stably by category.

    Returns the record and the (name, raw.hex()) pairs it encoded.
    """
    rank = {
        ChannelCategory.BIOPOTENTIAL: 0,
        ChannelCategory.IMPEDANCE: 1,
        ChannelCategory.ENVIRONMENT: 2,
    }
    rms = [
        plant.params.bio_noise_rms_v
        if ch.category is ChannelCategory.BIOPOTENTIAL
        else 0.0
        if ch.category is ChannelCategory.IMPEDANCE
        else REFERENCE_ENV_NOISE_RMS[ch.kind]
        for ch in plant.channels
    ]
    z = Source(plant.seed, READING_NOISE).at(t_ms).standard_normal(len(plant.channels))
    noise = (z * np.array(rms)).tolist()
    stream = {ch.name: i for i, ch in enumerate(plant.channels)}
    codes, raws = [0] * len(plant.channels), []
    for ch in sorted(plant.channels, key=lambda ch: rank[ch.category]):
        if ch.category is ChannelCategory.BIOPOTENTIAL:
            if plant._blanked(t_ms):
                raw = plant.params.bio_baseline_v
            else:
                raw = plant._bio_clean(ch.name, t_ms) + noise[stream[ch.name]]
        elif ch.category is ChannelCategory.IMPEDANCE:
            slot = plant._slot(t_ms)
            raw = plant._measure_impedance(ch.name, slot, plant._cell_at(slot))
        else:
            raw = reference_env_clean(plant, ch.kind, t_ms) + noise[stream[ch.name]]
        raws.append((ch.name, raw.hex()))
        codes[stream[ch.name]] = ch.spec.encode(raw)
    return Record(t_ms, codes, plant.channels), raws


def hexed(rec):
    return rec.timestamp_ms, [(name, v.hex()) for name, v in rec.values.items()]


def planned_record_at(plant, t_ms):
    """record_at(t_ms) and the (name, raw.hex()) pairs it passed to encode,
    each channel's spec told apart by identity (every kind has its own).

    The raw values are compared too: quantization would hide a clean value
    or a sum that moved by an ulp.
    """
    raws, names = [], {id(ch.spec): ch.name for ch in plant.channels}
    encode = ChannelSpec.encode

    def spy(spec, raw):
        raws.append((names[id(spec)], raw.hex()))
        return encode(spec, raw)

    ChannelSpec.encode = spy
    try:
        return plant.record_at(t_ms), raws
    finally:
        ChannelSpec.encode = encode


def assert_matches_reference(plant, t_ms):
    held = plant._held
    got, got_raws = planned_record_at(plant, t_ms)
    want, want_raws = reference_record_at(plant, t_ms)
    if plant._held is held:
        # a cycle that keeps the held readings quantizes no impedance raw;
        # hexed() below still compares the readings bit for bit
        imp = {ch.name for ch, _ in plant._imp}
        want_raws = [(name, raw) for name, raw in want_raws if name not in imp]
    assert got_raws == want_raws
    assert hexed(got) == hexed(want)
    for ch in plant.channels:
        if ch.category is ChannelCategory.ENVIRONMENT:
            clean = reference_env_clean(plant, ch.kind, t_ms)
            assert plant.expected_value(ch.name, t_ms).hex() == clean.hex()
    return got


DAY_MS = 86_400_000


@st.composite
def planned_plants(draw):
    chans = draw(st.permutations(default_channels()))
    chans = chans[: draw(st.integers(1, len(chans)))]
    params = sim.SimParams(
        # 0 V with a tiny noise quantizes to 0.0 from either side; +-0.9999 V
        # with 10 mV noise clamps at the +-1 V range ends
        bio_baseline_v=draw(st.sampled_from([-0.05, 0.0, 0.9999, -0.9999])),
        bio_noise_rms_v=draw(st.sampled_from([0.0, 1e-12, 5e-6, 0.01])),
        impedance_noise_rms_v=draw(st.sampled_from([0.0, 1e-4])),
        blank_bio_during_stimulation=draw(st.sampled_from([0, 1])),
    )
    plant = sim.PlantSimulator(
        channels=chans, params=params, seed=draw(st.integers(0, 2**32 - 1))
    )
    # whole days, with slot starts (where blanking acts) drawn often
    t = draw(
        st.integers(0, 3 * DAY_MS)
        | st.integers(0, 3 * DAY_MS // 10_000).map(lambda k: k * 10_000)
    )
    bios = [c.name for c in chans if c.category is ChannelCategory.BIOPOTENTIAL]
    for back_ms in draw(st.lists(st.integers(0, 60_000), max_size=4)):
        kind = draw(st.sampled_from([sim.EventKind.TOUCH, sim.EventKind.WOUND]))
        channel = draw(st.sampled_from([None, *bios]))
        plant.add_event(sim.Event(kind, max(0, t - back_ms), channel))
    return plant, t


@given(case=planned_plants())
@settings(max_examples=300, deadline=None)
def test_record_at_matches_the_per_channel_path_bit_for_bit(case):
    plant, t = case
    assert_matches_reference(plant, t)


@pytest.mark.parametrize(
    "baseline,noise,t,want",
    [
        (0.0, 1e-12, 1, None),  # readings round to 0 from below, to 0.0
        (0.9999, 0.01, 1, 1.0),  # clamps high
        (-0.9999, 0.01, 1, -1.0),  # clamps low
    ],
)
def test_record_at_matches_the_per_channel_path_at_the_edges(baseline, noise, t, want):
    params = sim.SimParams(bio_baseline_v=baseline, bio_noise_rms_v=noise)
    reached = False
    for seed in range(20):
        plant = sim.PlantSimulator(params=params, seed=seed)
        got = assert_matches_reference(plant, t)
        bio = [got.values["bio1"], got.values["bio2"]]
        if want is None:
            # a code has no sign: no reading is -0.0
            assert [math.copysign(1.0, v) for v in bio] == [1.0, 1.0]
            reached |= 0.0 in bio
        else:
            reached |= want in bio
    assert reached


def test_record_at_matches_the_per_channel_path_while_blanked():
    params = sim.SimParams(blank_bio_during_stimulation=1, impedance_noise_rms_v=1e-4)
    plant = sim.PlantSimulator(params=params, seed=3)
    plant.add_touch(29_600)
    for t in (0, 30_000, 30_001, DAY_MS // 2, DAY_MS - 10_000):
        got = assert_matches_reference(plant, t)
    assert got.values["bio1"] == -0.05


@given(
    rs=st.floats(0.0, 1e4),
    rp=st.floats(1e2, 1e6),
    cp=st.floats(1e-9, 1e-4),
    gain=st.floats(1.0, 1e6),
    noise_rms=st.just(0.0) | st.floats(1e-7, 1e-2),
    cycles=st.integers(1, 511),  # 1,024 samples at 64 kHz: bins 62.5 Hz apart
    amplitude=st.floats(fra.MIN_AMPLITUDE_V, fra.MAX_AMPLITUDE_V),
    slot=st.integers(0, 100),
    before_ms=st.lists(
        st.tuples(st.integers(0, 30_000), st.floats(0.05, 1.0)), max_size=5
    ),
    channel=st.sampled_from(["imp1", "imp2"]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_loop_impedance_is_analyze_pairs_magnitude(
    rs, rp, cp, gain, noise_rms, cycles, amplitude, slot, before_ms, channel, seed
):
    params = sim.SimParams(
        excitation_hz=cycles * 62.5,
        excitation_amplitude_v=amplitude,
        transimpedance_gain=gain,
        impedance_noise_rms_v=noise_rms,
    )
    plant = sim.PlantSimulator(tissue=sim.TissueModel(rs, rp, cp), params=params, seed=seed)
    slot_ms = slot * 10_000
    for dt, intensity in before_ms:  # stimulation in the 30 s before the slot
        plant.add_electrical(max(0, slot_ms - dt), intensity)
    rng = None
    if noise_rms:
        rng = plant._impedance_noise.at(slot_ms, plant._streams[channel])
    vi = sim.tissue_response(
        plant._excitation, plant._cell_at(slot_ms), gain, noise_rms, rng
    )
    want = fra.analyze_pair(plant._excitation, vi, gain=gain).magnitude
    got = plant._measure_impedance(channel, slot_ms, plant._cell_at(slot_ms))
    assert got.hex() == want.hex()
    ch = plant.channels[plant._streams[channel]]
    held = plant.record_at(slot_ms).values[channel]
    assert held.hex() == quantize_for(ch, want).hex()


IMPEDANCE_PAIR = (
    ChannelId("imp1", ChannelKind.IMPEDANCE_1),
    ChannelId("imp2", ChannelKind.IMPEDANCE_2),
)


@given(
    rs=st.floats(0.0, 1e4),
    rp=st.floats(1e2, 1e6),
    cp=st.floats(1e-9, 1e-4),
    interval_s=st.sampled_from([0.5, 1.0, 3.0]),
    vp_duration_s=st.sampled_from([1.0, 2.5, 20.0]),
    noise_rms=st.sampled_from([0.0, 1e-4]),
    # repeated intensities give repeated cells, which the hold must keep
    events=st.lists(
        st.tuples(
            st.integers(0, 20_000),
            st.sampled_from([0.5, 1.0]) | st.floats(1e-3, 1.0),
        ),
        max_size=8,
    ),
    times=st.lists(st.integers(0, 30_000), min_size=1, max_size=40, unique=True),
)
@settings(max_examples=100, deadline=None)
def test_a_noise_free_impedance_reads_as_a_fresh_simulators(
    rs, rp, cp, interval_s, vp_duration_s, noise_rms, events, times
):
    """Every record of a long-lived simulator, noisy or noise-free, is that
    of a fresh one queried only at its timestamp.  The long-lived one runs
    tissue_response once per (slot, channel) when noisy and once per (cell
    change, channel) when noise-free, and holds the slot it last read."""
    params = sim.SimParams(
        stimulation_interval_s=interval_s,
        vp_duration_s=vp_duration_s,
        impedance_noise_rms_v=noise_rms,
    )

    def plant():
        out = sim.PlantSimulator(
            IMPEDANCE_PAIR, sim.TissueModel(rs, rp, cp), params, seed=11
        )
        for at_ms, intensity in events:
            out.add_electrical(at_ms, intensity)
        return out

    real_response, calls = sim.tissue_response, 0

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return real_response(*args, **kwargs)

    long_lived = plant()
    slots, rps = [], []
    for t in sorted(times):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sim, "tissue_response", counted)
            got = long_lived.record_at(t).values
        want = plant().record_at(t).values
        assert {k: v.hex() for k, v in got.items()} == {
            k: v.hex() for k, v in want.items()
        }
        slot = t // long_lived._interval_ms * long_lived._interval_ms
        if not slots or slots[-1] != slot:
            slots.append(slot)
            rps.append(brute_rp(long_lived, slot))
        assert long_lived._held_slot == slot
        assert long_lived._held_cell == sim.TissueModel(rs, rps[-1], cp)
    if noise_rms:
        measured = len(slots)
    else:
        measured = sum(now != before for now, before in zip(rps, [None, *rps]))
    assert calls == measured * len(IMPEDANCE_PAIR)


def test_zero_transimpedance_gain_is_an_open_circuit():
    # the smallest positive gain underflows the response to zero
    params = sim.SimParams(transimpedance_gain=5e-324)
    plant = sim.PlantSimulator(params=params, seed=0)
    with pytest.raises(fra.OpenCircuitError):
        plant.record_at(0)
