"""Acceptance gate: ten end-to-end properties, one verdict line each.

Run with `pytest -v -s tests/test_acceptance.py` to see the verdict lines;
each test prints exactly one `criterion NN PASS|FAIL: ...` line with the
measured figure next to its pinned tolerance, then asserts on it.
"""

import math
import time

import numpy as np

from phytolab.channels import (
    BIOPOTENTIAL_RESOLUTION_V,
    EXTERNAL_TEMP_RESOLUTION_C,
    LM35_ADC_LSB_VOLTS,
    LM35_VOLTS_PER_DEGC,
    ChannelId,
    ChannelKind,
    Record,
)
from phytolab.config import parse_config
from phytolab.fra import SweepSpec, fra_single_point, run_sweep, scope_spectrum
from phytolab.logstore import LogStore, iter_store
from phytolab.pipes import TieredPipes
from phytolab.runtime import Runtime
from phytolab.simulator import TissueModel, sweep_responder, tissue_response


def verdict(n: int, label: str, ok: bool) -> None:
    print(f"criterion {n:02d} {'PASS' if ok else 'FAIL'}: {label}")
    assert ok, f"criterion {n}: {label}"


def test_criterion_01_single_bin_projection_matches_full_dft():
    rng = np.random.default_rng(20260814)
    n = 1024
    k = np.arange(n)
    worst = 0.0
    started = time.perf_counter()
    for _ in range(1000):
        amplitude = rng.uniform(0.01, 1.0)
        phase = rng.uniform(-math.pi, math.pi)
        cycles = int(rng.integers(1, n // 2))
        theta = 2.0 * math.pi * ((cycles * k) % n) / n
        x = amplitude * np.sin(theta + phase)
        est = fra_single_point(x, cycles_per_buffer=cycles)
        ref = np.fft.fft(x)[cycles] / n
        err = abs(est - ref) / abs(ref)
        worst = max(worst, err)
    elapsed = time.perf_counter() - started
    verdict(
        1,
        f"single-bin projection vs FFT bin over 1000 random period-stable "
        f"sinusoids: max rel err {worst:.3e} (bar 1e-12), {elapsed:.2f}s (bar 5s)",
        worst <= 1e-12 and elapsed < 5.0,
    )


def test_criterion_02_rms_and_lockin_estimators_match_projection():
    tissue = TissueModel()
    spec = SweepSpec(start_hz=8.0, stop_hz=3.0e5, points=25)
    results = run_sweep(spec, sweep_responder(tissue), gain=1.0)
    mag_err = max(abs(r.rms_magnitude - r.magnitude) / r.magnitude for r in results)
    ph_err = max(
        abs(r.correlation_phase_deg - abs(r.phase_deg)) for r in results
    )
    verdict(
        2,
        f"RMS magnitude and lock-in phase vs projection at 25 log-spaced "
        f"points: mag rel err {mag_err:.3e} (bar 1e-6), "
        f"phase err {ph_err:.2e} deg (bar 0.01)",
        mag_err <= 1e-6 and ph_err <= 0.01,
    )


def test_criterion_03_sweep_recovers_the_cell():
    tissue = TissueModel()
    gain = 1000.0
    spec = SweepSpec()
    started = time.perf_counter()

    clean = run_sweep(spec, sweep_responder(tissue, gain=gain), gain=gain)
    mag_err = max(
        abs(r.magnitude - tissue.magnitude(r.frequency_hz))
        / tissue.magnitude(r.frequency_hz)
        for r in clean
    )
    ph_err = max(
        abs(r.phase_deg - tissue.phase_deg(r.frequency_hz)) for r in clean
    )

    def noisy_respond(vv):
        amp = vv.amplitude * gain / tissue.magnitude(vv.frequency)
        rng = np.random.default_rng([99, round(vv.frequency * 1e3)])
        base = tissue_response(vv, tissue, gain=gain)
        return base + rng.normal(0.0, 0.01 * amp, vv.n_samples)

    noisy = run_sweep(spec, noisy_respond, gain=gain)
    good = sum(
        1
        for r in noisy
        if abs(r.magnitude - tissue.magnitude(r.frequency_hz))
        / tissue.magnitude(r.frequency_hz)
        <= 0.02
        and abs(r.phase_deg - tissue.phase_deg(r.frequency_hz)) <= 2.0
    )
    need = math.ceil(0.95 * len(noisy))
    elapsed = time.perf_counter() - started
    verdict(
        3,
        f"sweep vs analytic cell: clean mag err {mag_err:.2e} (bar 1e-3), "
        f"phase err {ph_err:.2e} deg (bar 0.1); with 1% noise "
        f"{good}/{len(noisy)} points within 2%/2deg (need {need}); "
        f"{elapsed:.2f}s (bar 10s)",
        mag_err <= 1e-3 and ph_err <= 0.1 and good >= need and elapsed < 10.0,
    )


def test_criterion_04_scope_mode_resolves_ten_percent_third_harmonic():
    n, cycles = 1024, 16
    k = np.arange(n)
    theta = 2.0 * math.pi * ((cycles * k) % n) / n
    x = 0.8 * np.sin(theta) + 0.08 * np.sin(3.0 * theta + 0.7)
    spectrum = scope_spectrum(x, cycles)
    ratio = spectrum.amplitude(3) / spectrum.amplitude(1)
    verdict(
        4,
        f"third harmonic ratio {ratio:.9f} (bar 0.100 +- 1e-6)",
        abs(ratio - 0.100) <= 1e-6,
    )


def test_criterion_05_tier_cadence_over_one_day():
    x = (ChannelId("x", ChannelKind.LIGHT),)
    tiers = TieredPipes(x)
    for i in range(86400):
        tiers.push(Record(i * 1000, (10 * i,), x))  # i lux on the 0.1 lux grid

    def spacing(pipe):
        ts = pipe.timestamps_ms()
        return set(np.diff(ts).tolist())

    ok = (
        len(tiers.short) == 60
        and len(tiers.middle) == 60
        and len(tiers.long) == 24
        and spacing(tiers.short) == {1000}
        and spacing(tiers.middle) == {60_000}
        and spacing(tiers.long) == {3_600_000}
        and tiers.middle.total_pushed == 1440
        and tiers.long.total_pushed == 24
    )
    verdict(
        5,
        f"after 86400 1s pushes tiers hold {len(tiers.short)}/"
        f"{len(tiers.middle)}/{len(tiers.long)} records "
        f"spaced 1s/60s/3600s (middle saw {tiers.middle.total_pushed})",
        ok,
    )


CAUSALITY_INI = """
[system]
seed = 42
period_s = 1.0
duration_s = 1200

[channels]
bio1 = biopotential1

[detector.spike]
kind = peak
channel = bio1
sigma = 5.0

[actuator.led]
kind = relay

[binding.blink]
expression = spike == 1
actuator = led
payload = toggle

[events]
touch = 150.6, 350.6, 550.6, 750.6, 950.6
"""


def test_criterion_06_touches_actuate_and_quiet_spans_do_not(tmp_path):
    config = parse_config(CAUSALITY_INI)
    runtime = Runtime(config, out_dir=tmp_path / "scripted")
    runtime.run()
    led = runtime.actuators["led"]
    expected = [151_000, 351_000, 551_000, 751_000, 951_000]
    fired_at = [t for t, _ in led.transitions]
    on_time = len(fired_at) == 5 and all(
        abs(t - want) <= 1000 for t, want in zip(fired_at, expected)
    )
    vectors = {
        r.timestamp_ms: r.values["spike"]
        for r in iter_store(tmp_path / "scripted" / "vectors")
    }
    detected = all(vectors[t] == 1.0 for t in expected)

    quiet_cfg = parse_config(CAUSALITY_INI.split("[events]")[0])
    quiet = Runtime(quiet_cfg, out_dir=tmp_path / "quiet")
    summary = quiet.run(cycles=10_000)
    no_false = summary.firings == 0 and not quiet.actuators["led"].transitions
    verdict(
        6,
        f"5 touches -> {len(fired_at)} LED commands, detector 1 within one "
        f"cycle of each; {summary.firings} false commands over 10000 quiet "
        f"cycles at 5 sigma",
        on_time and detected and no_false,
    )


def test_criterion_07_same_config_same_seed_same_bytes(tmp_path):
    ini = CAUSALITY_INI.replace(
        "bio1 = biopotential1", "bio1 = biopotential1\nimp = impedance1"
    ) + "\n[impedance]\nnoise_rms_v = 1e-6\n"
    blobs, commands = [], []
    for run_dir in ("a", "b"):
        config = parse_config(ini)
        runtime = Runtime(config, out_dir=tmp_path / run_dir)
        runtime.run(cycles=400)
        root = tmp_path / run_dir
        parts = [p.read_bytes() for p in sorted((root / "records").glob("*.csv"))]
        parts += [p.read_bytes() for p in sorted((root / "vectors").glob("*.csv"))]
        parts.append((root / "firings.log").read_bytes())
        blobs.append(parts)
        commands.append(list(runtime.actuators["led"].transitions))
    ok = blobs[0] == blobs[1] and commands[0] == commands[1] and commands[0]
    verdict(
        7,
        f"two seeded runs: {len(blobs[0])} log files "
        f"({sum(len(b) for b in blobs[0])} bytes) byte-identical, "
        f"{len(commands[0])} actuator commands identical",
        bool(ok),
    )


def test_criterion_08_logged_values_sit_on_the_device_grids(tmp_path):
    ini = """
[system]
duration_s = 300

[channels]
bio1 = biopotential1
bio2 = biopotential2
leaf_temp = external_temperature

[events]
touch = 60.6
wound = 150.6
"""
    config = parse_config(ini)
    Runtime(config, out_dir=tmp_path / "run").run()
    records = list(iter_store(tmp_path / "run" / "records"))

    def on_grid(value, step):
        return value == step * round(value / step)

    bio_ok = all(
        on_grid(r.values[c], BIOPOTENTIAL_RESOLUTION_V)
        for r in records
        for c in ("bio1", "bio2")
    )
    temp_ok = all(
        on_grid(r.values["leaf_temp"], EXTERNAL_TEMP_RESOLUTION_C) for r in records
    )
    conversion_ok = (
        EXTERNAL_TEMP_RESOLUTION_C == LM35_ADC_LSB_VOLTS / LM35_VOLTS_PER_DEGC
        and EXTERNAL_TEMP_RESOLUTION_C < 0.001
    )
    verdict(
        8,
        f"{len(records)} records: biopotentials on the 64 nV grid, "
        f"temperatures on the {EXTERNAL_TEMP_RESOLUTION_C:.3e} degC ADC grid "
        f"(bar 0.001)",
        bio_ok and temp_ok and conversion_ok and len(records) == 300,
    )


def test_criterion_09_hundred_thousand_records_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    columns = ("a", "b")
    written = []
    with LogStore(
        tmp_path / "big",
        columns,
        segment_bytes=2**20,
        capacity_bytes=2**24,
    ) as store:
        for i in range(100_000):
            values = {
                "a": rng.normal() * 10.0 ** rng.integers(-9, 9),
                "b": rng.uniform(-1.0, 1.0),
            }
            store.append_row(i * 100, values)
            written.append((i * 100, values["a"], values["b"]))
    read = [
        (r.timestamp_ms, r.values["a"], r.values["b"])
        for r in iter_store(tmp_path / "big")
    ]
    round_trip_ok = read == written

    capacity = 65536
    with LogStore(
        tmp_path / "small", columns, segment_bytes=8192, capacity_bytes=capacity
    ) as store:
        bound_ok = True
        for i in range(20_000):
            store.append_row(i, {"a": float(i), "b": float(-i)})
            bound_ok = bound_ok and store.total_bytes() <= capacity
    disk = sum(p.stat().st_size for p in (tmp_path / "small").glob("*.csv"))
    verdict(
        9,
        f"100000 records round-trip value-identical: {round_trip_ok}; "
        f"rotation kept {disk} bytes on disk (cap {capacity})",
        round_trip_ok and bound_ok and disk <= capacity,
    )


ALL_DETECTORS_INI = """
[system]
period_s = 0.1
stimulation_interval_s = 10.0

[detector.spike]
kind = peak
channel = bio1

[detector.drift]
kind = gradient
channel = air_temperature
per_hour = 0.5

[detector.hiss]
kind = noise_level
channel = bio2

[detector.rhythm]
kind = cyclical
channel = light
lag = 4

[detector.window]
kind = time_interval
start_ms = 0
end_ms = 86400000

[detector.daylight]
kind = time_of_day
start_hour = 6
end_hour = 22

[detector.level]
kind = mean
channel = soil_temperature

[detector.spread]
kind = stddev
channel = air_humidity

[detector.outlier]
kind = zscore
channel = sap_flow

[detector.infection]
kind = pathogenicity_status
channel = bio1
"""


def test_criterion_10_tenth_second_cycles_fit_the_budget(tmp_path):
    config = parse_config(ALL_DETECTORS_INI)
    runtime = Runtime(config, out_dir=tmp_path / "run")
    summary = runtime.run(cycles=600)
    verdict(
        10,
        f"mean cycle {summary.mean_cycle_ms:.3f} ms over 600 cycles at 0.1s "
        f"period, 10 detectors, {len(config.channels)} channels (bar 100 ms)",
        summary.mean_cycle_ms < 100.0 and summary.cycles == 600,
    )
