"""Estimator tests against brute-force and closed-form oracles.

Oracles used here:
* exactly-rounded single-bin DFT via math.fsum over explicit cos/sin terms,
* numpy's full FFT, bin c divided by N,
* closed-form amplitude/phase recovery for synthetic sinusoids,
* the analytic impedance of a series resistor + parallel RC cell.
"""

import cmath
import dataclasses
import io
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from phytolab import fra
from phytolab.channels import ChannelId, ChannelKind, quantize_for
from phytolab.simulator import (
    PlantSimulator,
    SimParams,
    TissueModel,
    sweep_responder,
    tissue_response,
)


def dft_bin_oracle(x, c):
    """Naive exactly-summed projection, the independent reference."""
    n = len(x)
    w = 2.0 * math.pi * c / n
    re = math.fsum(x[k] * math.cos(w * k) for k in range(n)) / n
    im = -math.fsum(x[k] * math.sin(w * k) for k in range(n)) / n
    return re, im


def randles_z(f, rs=1e3, rp=1e4, cp=1e-6):
    """Series resistance plus parallel RC: the reference tissue impedance."""
    return rs + rp / (1.0 + 2j * math.pi * f * rp * cp)


def make_ideal_responder(gain=1.0, rs=1e3, rp=1e4, cp=1e-6):
    """Noiseless steady-state responder: V_I = gain * V / Z(f)."""

    def respond(vv):
        z = randles_z(vv.frequency, rs, rp, cp)
        n = vv.n_samples
        m = (vv.cycles * np.arange(n, dtype=np.int64)) % n
        theta = (2.0 * np.pi / n) * m
        phi = -cmath.phase(z)
        amp = gain * vv.amplitude / abs(z)
        return amp * np.sin(theta + phi)

    return respond


def test_projection_matches_fsum_oracle_on_noise():
    rng = np.random.default_rng(7)
    x = rng.normal(size=512)
    for c in (1, 3, 17, 100):
        got = fra.fra_single_point(x, c)
        re, im = dft_bin_oracle(x, c)
        assert got.real == pytest.approx(re, rel=1e-10, abs=1e-12)
        assert got.imag == pytest.approx(im, rel=1e-10, abs=1e-12)


def test_projection_matches_fft_bin_tightly():
    rng = np.random.default_rng(11)
    n = 4096
    x = rng.normal(size=n)
    spectrum = np.fft.fft(x) / n
    scale = float(np.sqrt(np.mean(x * x)))
    for c in (1, 2, 5, 64, 1000, 2047):
        got = fra.fra_single_point(x, c)
        want = spectrum[c]
        assert abs(got - want) <= 1e-12 * scale


def test_projection_recovers_amplitude_and_phase():
    n, c = 1024, 9
    m = (c * np.arange(n)) % n
    theta = 2.0 * np.pi / n * m
    for amp, phi_deg in [(1.0, 0.0), (0.25, 30.0), (3.0, -120.0), (0.5, 179.0)]:
        x = amp * np.sin(theta + math.radians(phi_deg))
        proj = fra.fra_single_point(x, c)
        mag, phase = fra.magnitude_phase(proj)
        assert mag == pytest.approx(amp / 2.0, rel=1e-12)
        # projecting sin(theta+phi) onto the cos/sin pair lands at phi - 90
        want = math.remainder(phi_deg - 90.0, 360.0)
        if want <= -180.0:
            want += 360.0
        assert phase == pytest.approx(want, abs=1e-9)


def test_magnitude_phase_zero_projection():
    mag, phase = fra.magnitude_phase(0j)
    assert mag == 0.0
    assert math.isnan(phase)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_projection_refuses_non_finite_buffers(bad):
    x = np.sin(2.0 * np.pi * 3 * np.arange(64) / 64)
    x[5] = bad
    with pytest.raises(ValueError, match="non-finite components"):
        fra.fra_single_point(x, 3)


def test_rms_of_pure_tone_is_amplitude_over_sqrt2():
    vv = fra.synthesize_excitation(500.0, 0.1, 1024, 64000.0)
    assert fra.rms(vv.samples) == pytest.approx(0.1 / math.sqrt(2.0), rel=1e-12)


def test_rms_resistivity_open_circuit():
    with pytest.raises(fra.OpenCircuitError):
        fra.rms_resistivity(1.0, 0.0)


def test_exact_cycles_accepts_and_rejects():
    assert fra.exact_cycles(500.0, 1024, 64000.0) == 8
    assert fra.exact_cycles(8.0, 1024, 512.0) == 16
    with pytest.raises(fra.PeriodStabilityError):
        fra.exact_cycles(500.1, 1024, 64000.0)
    with pytest.raises(fra.PeriodStabilityError):  # below one full cycle
        fra.exact_cycles(0.5, 1024, 64000.0)
    with pytest.raises(fra.PeriodStabilityError):  # at Nyquist
        fra.exact_cycles(32000.0, 1024, 64000.0)
    # a frequency or rate that is not finite, or cycles past a float
    inf, nan = math.inf, math.nan
    for f, rate in ((inf, 64000.0), (-inf, 64000.0), (nan, 64000.0), (500.0, nan),
                    (inf, inf), (500.0, inf), (1e308, 1.0)):
        with pytest.raises(fra.PeriodStabilityError, match="not period-stable"):
            fra.exact_cycles(f, 1024, rate)


def test_synthesize_rejects_out_of_envelope():
    with pytest.raises(ValueError):
        fra.synthesize_excitation(7.0, 0.1, 1024, 448.0)
    with pytest.raises(ValueError):
        fra.synthesize_excitation(7.0e5, 0.1, 1024, 7.0e5 * 64)
    with pytest.raises(ValueError):
        fra.synthesize_excitation(500.0, 0.001, 1024, 64000.0)
    with pytest.raises(ValueError):
        fra.synthesize_excitation(500.0, 1.5, 1024, 64000.0)


def test_excitation_samples_are_read_only():
    vv = fra.synthesize_excitation(500.0, 0.1, 1024, 64000.0)
    with pytest.raises(ValueError):
        vv.samples[0] = 1.0


def test_every_field_of_a_synthesized_waveform_is_frozen():
    vv = fra.synthesize_excitation(500.0, 0.1, 1024, 64000.0)
    for field in dataclasses.fields(vv):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(vv, field.name, getattr(vv, field.name))


def test_analyze_pair_recovers_cell_impedance():
    respond = make_ideal_responder(gain=1.0)
    for f in (8.0, 500.0, 12500.0, 3.0e5):
        vv = fra.synthesize_excitation(f, 0.1, 1024, f * 64.0)
        out = fra.analyze_pair(vv, respond(vv), gain=1.0)
        z = randles_z(f)
        assert out.magnitude == pytest.approx(abs(z), rel=1e-9)
        assert out.phase_deg == pytest.approx(math.degrees(cmath.phase(z)), abs=1e-7)
        assert out.rms_magnitude == pytest.approx(abs(z), rel=1e-9)
        assert out.correlation_phase_deg == pytest.approx(
            abs(math.degrees(cmath.phase(z))), abs=1e-6
        )


def test_analyze_pair_transimpedance_gain_scales_out():
    # a 1 kohm transimpedance stage must not change the reported impedance
    respond = make_ideal_responder(gain=1000.0)
    vv = fra.synthesize_excitation(500.0, 0.1, 1024, 32000.0)
    out = fra.analyze_pair(vv, respond(vv), gain=1000.0)
    z = randles_z(500.0)
    assert out.magnitude == pytest.approx(abs(z), rel=1e-9)
    assert out.rms_magnitude == pytest.approx(abs(z), rel=1e-9)


def test_estimator_equivalence_on_pure_tones():
    # RMS-ratio magnitude and projection magnitude agree for clean sinusoids,
    # as do the lock-in phase and the unsigned projection phase
    respond = make_ideal_responder()
    for f in np.geomspace(8.0, 3.0e5, 25):
        f = float(f)
        rate = f * 1024.0 / 16.0
        vv = fra.synthesize_excitation(f, 0.1, 1024, rate)
        out = fra.analyze_pair(vv, respond(vv))
        assert abs(out.rms_magnitude - out.magnitude) <= 1e-6 * out.magnitude
        assert abs(out.correlation_phase_deg - abs(out.phase_deg)) <= 0.01


def test_lockin_phase_clamps_and_warns():
    with pytest.warns(RuntimeWarning):
        phase = fra.lockin_phase(0.5 * (1.0 + 1e-6), math.sqrt(0.5), math.sqrt(0.5))
    assert phase == 0.0
    # sub-threshold excess clamps silently
    phase = fra.lockin_phase(0.5 * (1.0 + 1e-12), math.sqrt(0.5), math.sqrt(0.5))
    assert phase == 0.0


def test_open_circuit_response_raises():
    vv = fra.synthesize_excitation(500.0, 0.1, 1024, 64000.0)
    with pytest.raises(fra.OpenCircuitError):
        fra.analyze_pair(vv, np.zeros(1024))


def test_plan_sweep_adaptive_is_period_stable():
    spec = fra.SweepSpec(start_hz=8.0, stop_hz=3.0e5, points=25)
    plan = fra.plan_sweep(spec)
    assert len(plan) == 25
    assert plan[0].frequency_hz == 8.0 and plan[-1].frequency_hz == 3.0e5
    for p in plan:
        assert p.snap_error_hz == 0.0
        assert fra.exact_cycles(p.frequency_hz, p.n_samples, p.sample_rate) == p.cycles


def test_plan_sweep_fixed_rate_snaps_to_bins():
    spec = fra.SweepSpec(
        start_hz=8.0, stop_hz=1000.0, points=10, mode="fixed", fixed_rate=16384.0
    )
    bin_hz = 16384.0 / 1024
    for p in fra.plan_sweep(spec):
        assert p.sample_rate == 16384.0
        assert abs(p.snap_error_hz) <= bin_hz / 2.0
        assert fra.exact_cycles(p.frequency_hz, p.n_samples, p.sample_rate) == p.cycles


def test_plan_sweep_single_point_is_the_start():
    plan = fra.plan_sweep(fra.SweepSpec(start_hz=500.0, stop_hz=1000.0, points=1))
    assert [(p.requested_hz, p.frequency_hz, p.cycles) for p in plan] == [
        (500.0, 500.0, 16)
    ]


def test_plan_sweep_doubles_cycles_until_the_rate_fits():
    spec = fra.SweepSpec(start_hz=1e5, stop_hz=6.5e5, points=3, max_rate=1e7)
    plan = fra.plan_sweep(spec)
    assert [p.cycles for p in plan] == [16, 32, 128]
    for p in plan:
        assert p.sample_rate <= spec.max_rate
        assert fra.exact_cycles(p.frequency_hz, p.n_samples, p.sample_rate) == p.cycles


def test_sweep_spec_fixed_mode_refuses_beyond_nyquist():
    with pytest.raises(fra.PeriodStabilityError, match="beyond Nyquist"):
        fra.SweepSpec(start_hz=1e3, stop_hz=6e5, points=3, mode="fixed")


@pytest.mark.parametrize("n_samples", [1024, 1000, 63])
def test_sweep_spec_fixed_mode_plans_up_to_the_last_bin_below_nyquist(n_samples):
    # the spec refuses exactly the stop frequencies plan_sweep cannot plan
    rate = 1.0e6
    last = (n_samples - 1) // 2  # the highest bin c with c < N/2
    bin_hz = rate / n_samples
    fits = (last + 0.49) * bin_hz
    spec = fra.SweepSpec(
        start_hz=8.0, stop_hz=fits, points=7, n_samples=n_samples,
        mode="fixed", fixed_rate=rate,
    )
    plan = fra.plan_sweep(spec)
    assert plan[-1].cycles == last
    for p in plan:
        assert fra.exact_cycles(p.frequency_hz, p.n_samples, p.sample_rate) == p.cycles
    with pytest.raises(fra.PeriodStabilityError, match="beyond Nyquist"):
        dataclasses.replace(spec, stop_hz=(last + 0.51) * bin_hz)


def test_one_point_fixed_sweep_plans_only_its_start():
    # stop_hz is beyond Nyquist at 1 MHz, but a one-point sweep never plans it
    spec = fra.SweepSpec(start_hz=1e3, stop_hz=6e5, points=1, mode="fixed")
    assert [p.cycles for p in fra.plan_sweep(spec)] == [1]


_SWEEP_HZ = st.floats(fra.MIN_FREQUENCY_HZ, fra.MAX_FREQUENCY_HZ)


@given(
    mode=st.sampled_from(["adaptive", "fixed"]),
    n_samples=st.sampled_from([0, 2, 3, 63, 64, 1000, 1024, 2048]),
    cycles=st.integers(1, 1100),
    max_rate=st.floats(1.0, 1e9),
    fixed_rate=st.floats(1.0, 1e8),
    band=st.tuples(_SWEEP_HZ, _SWEEP_HZ).map(sorted),
    points=st.integers(1, 40),
)
@example(
    mode="adaptive", n_samples=1024, cycles=511, max_rate=1e5, fixed_rate=1e6,
    band=[8.0, 3e5], points=25,
)
@example(  # the last bin snaps to 683593.75 Hz, above the envelope
    mode="fixed", n_samples=1024, cycles=16, max_rate=1e8, fixed_rate=1e8,
    band=[8.0, 6.5e5], points=25,
)
@settings(max_examples=300, deadline=None)
def test_a_sweep_spec_that_constructs_also_plans(
    mode, n_samples, cycles, max_rate, fixed_rate, band, points
):
    try:
        spec = fra.SweepSpec(
            start_hz=band[0], stop_hz=band[1], points=points, n_samples=n_samples,
            mode=mode, cycles=cycles, max_rate=max_rate, fixed_rate=fixed_rate,
        )
    except ValueError:
        return
    for p in fra.plan_sweep(spec):
        assert fra.exact_cycles(p.frequency_hz, p.n_samples, p.sample_rate) == p.cycles
        assert p.cycles < p.n_samples / 2
        if mode == "adaptive":
            assert p.sample_rate <= max_rate
        vv = fra.synthesize_excitation(
            p.frequency_hz, spec.amplitude, p.n_samples, p.sample_rate
        )
        assert vv.cycles == p.cycles


def _paired(shape=(1024,)):
    vv = fra.synthesize_excitation(500.0, 0.1, 1024, 64000.0)
    return vv, np.ones(shape)


@pytest.mark.parametrize(
    "call,match",
    [
        (lambda: fra.exact_cycles(8.0, 1, 512.0), "too short"),
        (lambda: fra.exact_cycles(8.0, 1024, 0.0), "sample rate must be positive"),
        (lambda: fra.fra_single_point(np.zeros(0), 1), "empty buffer"),
        (lambda: fra.fra_single_point(np.zeros(1), 1), "too short"),
        (lambda: fra.fra_single_point(np.zeros(8), 0), "1 <= c < N/2"),
        (lambda: fra.fra_single_point(np.zeros(8), 4), "1 <= c < N/2"),
        (lambda: fra.rms(np.zeros(0)), "empty buffer"),
        (lambda: fra.rms_resistivity(1.0, -1.0), "non-negative"),
        (lambda: fra.lockin_correlation(np.zeros(3), np.zeros(4)), "length mismatch"),
        (lambda: fra.lockin_correlation(np.zeros(0), np.zeros(0)), "empty buffers"),
        (lambda: fra.lockin_phase(0.1, 0.0, 1.0), "must be positive"),
        (lambda: fra.analyze_pair(*_paired((512,))), "length mismatch"),
        (lambda: fra.analyze_pair(*_paired((1024, 1))), "length mismatch"),
        (lambda: fra.analyze_pair(*_paired(())), "length mismatch"),
        (lambda: fra.SweepSpec(points=0), "at least one sweep point"),
        (lambda: fra.SweepSpec(mode="log"), "unknown sweep mode"),
        (lambda: fra.SweepSpec(cycles=0), "cycles must satisfy"),
        (lambda: fra.SweepSpec(cycles=512), "cycles must satisfy"),
        (lambda: fra.SweepSpec(amplitude=5.0), "amplitude 5.0 V outside"),
        (lambda: fra.SweepSpec(amplitude=math.nan), "amplitude nan V outside"),
        (lambda: fra.SweepSpec(max_rate=math.nan), "max_rate must be finite"),
        (lambda: fra.SweepSpec(max_rate=0.0), "max_rate must be finite"),
        (lambda: fra.SweepSpec(fixed_rate=math.inf), "fixed_rate must be finite"),
        (lambda: fra.SweepSpec(fixed_rate=-1.0), "fixed_rate must be finite"),
        (lambda: fra.SweepSpec(n_samples=0, mode="fixed"), "too short: N=0"),
        (lambda: fra.scope_spectrum(np.zeros(64), 1, n_harmonics=0), "fundamental"),
        (lambda: fra.scope_spectrum(np.zeros(64), 32), "does not fit"),
        (lambda: fra.HarmonicSpectrum((0j, 0.5 + 0j)).thd, "zero fundamental"),
    ],
)
def test_estimators_refuse_bad_input(call, match):
    with pytest.raises(ValueError, match=match):
        call()


def test_run_sweep_matches_analytic_cell():
    spec = fra.SweepSpec(start_hz=8.0, stop_hz=3.0e5, points=15)
    results = fra.run_sweep(spec, make_ideal_responder())
    for r in results:
        z = randles_z(r.frequency_hz)
        assert r.magnitude == pytest.approx(abs(z), rel=1e-3)
        assert r.phase_deg == pytest.approx(math.degrees(cmath.phase(z)), abs=0.1)


def test_run_sweep_resistor_phase_is_flat_zero():
    # cp shrunk to femtofarads turns the cell into an 11 kohm resistor
    spec = fra.SweepSpec(start_hz=8.0, stop_hz=3.0e5, points=15)
    results = fra.run_sweep(spec, make_ideal_responder(cp=1e-15))
    for r in results:
        assert abs(r.phase_deg) <= 0.01
        assert r.magnitude == pytest.approx(11_000.0, rel=1e-6)


def test_sweep_csv_round_trip():
    spec = fra.SweepSpec(start_hz=8.0, stop_hz=1000.0, points=4)
    results = fra.run_sweep(spec, make_ideal_responder())
    buf = io.StringIO()
    fra.write_sweep_csv(buf, results)
    lines = buf.getvalue().splitlines()
    assert lines[0] == ",".join(fra.SWEEP_CSV_FIELDS)
    assert len(lines) == 1 + len(results)
    for line, r in zip(lines[1:], results):
        cells = [float(v) for v in line.split(",")]
        assert cells[0] == r.frequency_hz
        assert cells[3] == r.magnitude  # repr round-trip is exact
        assert cells[9] == r.correlation_phase_deg


def test_scope_spectrum_third_harmonic_ratio():
    n, c = 4096, 8
    m = (c * np.arange(n)) % n
    theta = 2.0 * np.pi / n * m
    x = 1.0 * np.sin(theta) + 0.1 * np.sin(3.0 * theta + 0.7)
    spec = fra.scope_spectrum(x, c, n_harmonics=5)
    assert spec.amplitude(1) == pytest.approx(1.0, rel=1e-12)
    assert spec.amplitude(3) / spec.amplitude(1) == pytest.approx(0.1, abs=1e-9)
    assert spec.thd == pytest.approx(0.1, abs=1e-9)


def test_scope_spectrum_truncates_at_nyquist():
    n, c = 64, 10
    x = np.sin(2.0 * np.pi * c / n * np.arange(n))
    spec = fra.scope_spectrum(x, c, n_harmonics=8)
    # orders 10,20,30 fit below bin 32; 40 does not
    assert len(spec.harmonics) == 3


@given(
    c=st.integers(min_value=1, max_value=100),
    amp=st.floats(min_value=1e-3, max_value=1e3),
    phi=st.floats(min_value=-math.pi, max_value=math.pi),
)
@settings(max_examples=60, deadline=None)
def test_projection_amplitude_property(c, amp, phi):
    n = 256
    if c >= n / 2:
        c = c % (n // 2 - 1) + 1
    theta = 2.0 * np.pi / n * ((c * np.arange(n)) % n)
    x = amp * np.sin(theta + phi)
    mag, _ = fra.magnitude_phase(fra.fra_single_point(x, c))
    assert mag == pytest.approx(amp / 2.0, rel=1e-9)


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_projection_is_linear(data):
    n = 128
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(size=n)
    y = rng.normal(size=n)
    a = data.draw(st.floats(min_value=-10, max_value=10, allow_nan=False))
    b = data.draw(st.floats(min_value=-10, max_value=10, allow_nan=False))
    c = data.draw(st.integers(min_value=1, max_value=63))
    lhs = fra.fra_single_point(a * x + b * y, c)
    rhs = a * fra.fra_single_point(x, c) + b * fra.fra_single_point(y, c)
    assert abs(lhs - rhs) <= 1e-9 * (1.0 + abs(lhs))


@given(seed=st.integers(0, 2**32 - 1), c=st.integers(1, 63))
@settings(max_examples=40, deadline=None)
def test_projection_magnitude_bounded_by_rms(seed, c):
    # Cauchy-Schwarz: each quadrature component is at most rms(x)/sqrt(2)
    x = np.random.default_rng(seed).normal(size=128)
    mag, _ = fra.magnitude_phase(fra.fra_single_point(x, c))
    assert mag <= fra.rms(x) + 1e-12


@given(scale=st.floats(min_value=1e-3, max_value=1e3))
@settings(max_examples=30, deadline=None)
def test_lockin_phase_invariant_under_rescale(scale):
    # scaling either buffer leaves the normalized phase unchanged
    respond = make_ideal_responder()
    vv = fra.synthesize_excitation(500.0, 0.1, 1024, 32000.0)
    vi = respond(vv)
    corr = fra.lockin_correlation(vi * scale, vv.samples)
    p = fra.lockin_phase(corr, fra.rms(vi * scale), fra.rms(vv.samples))
    p0 = fra.lockin_phase(
        fra.lockin_correlation(vi, vv.samples),
        fra.rms(vi),
        fra.rms(vv.samples),
    )
    assert p == pytest.approx(p0, abs=1e-9)


def parent_theta(n, c):
    """The bin angles as every caller computed them before the basis cache."""
    return (2.0 * np.pi / n) * ((c * np.arange(n, dtype=np.int64)) % n)


def hexes(a):
    return [float.hex(v) for v in np.asarray(a).tolist()]


@st.composite
def bins(draw):
    n = draw(st.integers(8, 4096))
    return n, draw(st.integers(1, (n - 1) // 2))


@given(
    key=bins(),
    amplitude=st.floats(min_value=fra.MIN_AMPLITUDE_V, max_value=fra.MAX_AMPLITUDE_V),
    frequency=st.floats(min_value=fra.MIN_FREQUENCY_HZ, max_value=fra.MAX_FREQUENCY_HZ),
    rp=st.floats(min_value=1e2, max_value=1e6),
    cp=st.floats(min_value=1e-9, max_value=1e-4),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_cached_basis_matches_the_parent_formulas(key, amplitude, frequency, rp, cp, seed):
    # 150 examples over about 4 million (N, c) keys overrun the 64-entry
    # cache, so keys are evicted and recomputed along the way
    n, c = key
    rate = frequency * n / c
    theta = parent_theta(n, c)
    vv = fra.synthesize_excitation(frequency, amplitude, n, rate)
    assert vv.cycles == c
    assert hexes(vv.samples) == hexes(amplitude * np.sin(theta))

    x = np.random.default_rng(seed).normal(size=n)
    got = fra.fra_single_point(x, c)
    assert got.real.hex() == (float(np.dot(x, np.cos(theta))) / n).hex()
    assert got.imag.hex() == (-float(np.dot(x, np.sin(theta))) / n).hex()

    tissue = TissueModel(rs=1e3, rp=rp, cp=cp)
    y = 1.0 / tissue.impedance(frequency)
    amp = 1e3 * amplitude * abs(y)
    phi = math.atan2(y.imag, y.real)
    want = amp * (np.sin(theta) * math.cos(phi) + np.cos(theta) * math.sin(phi))
    assert hexes(tissue_response(vv, tissue, gain=1e3)) == hexes(want)


def test_basis_cache_evicts_and_refills_bit_identically():
    first = [a.copy() for a in fra.basis(1000, 7)]
    for c in range(1, 100):  # 99 newer keys push (1000, 7) out
        fra.basis(2048, c)
    assert fra.basis.cache_info().currsize == fra.basis.cache_info().maxsize
    misses = fra.basis.cache_info().misses
    again = fra.basis(1000, 7)
    assert fra.basis.cache_info().misses == misses + 1
    assert [hexes(a) for a in again] == [hexes(a) for a in first]
    assert fra.basis(1000, 7)[0] is again[0]


def test_basis_arrays_are_read_only():
    for a in fra.basis(1024, 16):
        with pytest.raises(ValueError):
            a[0] = 1.0
        with pytest.raises(ValueError):
            a *= 2.0
        with pytest.raises(ValueError):
            a.setflags(write=True)


def test_excitation_samples_are_not_the_cached_basis():
    _, sin = fra.basis(1024, 16)
    vv = fra.synthesize_excitation(500.0, 1.0, 1024, 32000.0)
    assert hexes(vv.samples) == hexes(sin)
    assert vv.samples is not sin
    assert not np.shares_memory(vv.samples, sin)


def test_cycles_are_validated_once_per_buffer(monkeypatch):
    calls = []
    real = fra.exact_cycles

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(fra, "exact_cycles", counting)
    vv = fra.synthesize_excitation(500.0, 0.1, 1024, 32000.0)
    assert [vv.cycles, vv.cycles] == [16, 16]
    assert calls == [(500.0, 1024, 32000.0)]
    fra.analyze_pair(vv, tissue_response(vv, TissueModel(), gain=1e3))
    assert len(calls) == 1
    # 500 Hz at 33 kHz gives 15.5 cycles per 1024 samples
    with pytest.raises(fra.PeriodStabilityError):
        fra.synthesize_excitation(500.0, 0.1, 1024, 33000.0)


@pytest.mark.parametrize("noise_rms", [0.0, 1e-4])
def test_built_buffers_are_float64_and_not_the_cached_basis(noise_rms):
    # the excitation is frozen; neither it nor the response samples may be a
    # cached basis array, which every later buffer at (N, cycles) reads
    cos, sin = fra.basis(1024, 16)
    vv = fra.synthesize_excitation(500.0, 1.0, 1024, 32000.0)
    rng = np.random.default_rng(0) if noise_rms else None
    vi = tissue_response(vv, TissueModel(), gain=1e3, noise_rms=noise_rms, rng=rng)
    with pytest.raises(ValueError):
        vv.samples[0] = 1.0
    for samples in (vv.samples, vi):
        assert samples.dtype == np.float64
        assert type(samples) is np.ndarray
        for basis in (cos, sin):
            assert not np.shares_memory(samples, basis)
    assert not np.shares_memory(vv.samples, vi)


def test_synthesized_waveforms_share_one_frozen_side_per_triple():
    # 500 Hz at 32 kHz and 1 kHz at 64 kHz are both 16 cycles of 1024 samples
    a = fra.synthesize_excitation(500.0, 0.1, 1024, 32000.0)
    b = fra.synthesize_excitation(1000.0, 0.1, 1024, 64000.0)
    assert (a.frequency, b.frequency, a.cycles, b.cycles) == (500.0, 1000.0, 16, 16)
    assert a.samples is b.samples
    assert (a.rms, a.projection) == (b.rms, b.projection)
    c = fra.synthesize_excitation(500.0, 0.2, 1024, 32000.0)
    assert not np.shares_memory(a.samples, c.samples)  # another amplitude, another side
    for vv in (a, c):
        with pytest.raises(ValueError):
            vv.samples.setflags(write=True)
        with pytest.raises(ValueError):
            vv.samples[0] = 1.0
        for basis in fra.basis(1024, 16):
            assert vv.samples is not basis
            assert not np.shares_memory(vv.samples, basis)
        assert vv.rms == fra.rms(vv.samples)
        assert vv.projection == fra.fra_single_point(vv.samples, vv.cycles)


def reference_sweep(spec, respond, gain):
    """run_sweep as a loop that builds every point's waveform from a fresh
    sine, with that sine's own RMS and projection."""
    results = []
    for p in fra.plan_sweep(spec):
        sine = fra.frozen(spec.amplitude * np.sin(parent_theta(p.n_samples, p.cycles)))
        vv = fra.ExcitationWaveform(
            p.frequency_hz, spec.amplitude, p.sample_rate, p.cycles, sine,
            fra.rms(sine), fra.fra_single_point(sine, p.cycles),
        )
        results.append(fra.analyze_pair(vv, respond(vv), gain=gain))
    return results


def sweep_csv(results):
    out = io.StringIO()
    fra.write_sweep_csv(out, results)
    return out.getvalue()


@given(
    mode=st.sampled_from(["adaptive", "fixed"]),
    band=st.tuples(_SWEEP_HZ, _SWEEP_HZ).map(sorted),
    points=st.integers(1, 40),
    amplitude=st.sampled_from([fra.MIN_AMPLITUDE_V, 0.1, 0.37, fra.MAX_AMPLITUDE_V]),
    n_samples=st.sampled_from([64, 1000, 1024]),
    cycles=st.sampled_from([1, 3, 16]),
    max_rate=st.sampled_from([1e8, 2e7, 1e6]),
    fixed_rate=st.sampled_from([1e6, 1.6384e4, 4.4e5]),
    noise_rms=st.sampled_from([0.0, 1e-4]),
    seed=st.integers(0, 2**32 - 1),
)
# the benchmark's sweep (1 group of (N, cycles)), a sweep whose plan doubles
# the cycles twice (3 groups) and a fixed-rate sweep (16 groups)
@example(
    mode="adaptive", band=[8.0, 3e5], points=40, amplitude=0.1, n_samples=1024,
    cycles=16, max_rate=1e8, fixed_rate=1e6, noise_rms=1e-4, seed=7,
)
@example(
    mode="adaptive", band=[8.0, 6.5e5], points=40, amplitude=0.1, n_samples=1024,
    cycles=16, max_rate=2e7, fixed_rate=1e6, noise_rms=1e-4, seed=7,
)
@example(
    mode="fixed", band=[8.0, 3e5], points=30, amplitude=0.1, n_samples=1024,
    cycles=16, max_rate=1e8, fixed_rate=1e6, noise_rms=0.0, seed=0,
)
# a one-frequency band whose middle point geomspace puts an ulp below it
@example(
    mode="adaptive", band=[8.0, 8.0], points=3, amplitude=0.01, n_samples=64,
    cycles=1, max_rate=1e8, fixed_rate=1e6, noise_rms=0.0, seed=0,
)
@settings(max_examples=60, deadline=None)
def test_a_sweep_on_shared_sides_writes_the_bytes_of_fresh_waveforms(
    mode, band, points, amplitude, n_samples, cycles, max_rate, fixed_rate,
    noise_rms, seed,
):
    try:
        spec = fra.SweepSpec(
            start_hz=band[0], stop_hz=band[1], points=points, amplitude=amplitude,
            n_samples=n_samples, mode=mode, cycles=cycles, max_rate=max_rate,
            fixed_rate=fixed_rate,
        )
    except ValueError:
        return
    respond = sweep_responder(TissueModel(), gain=1e3, noise_rms=noise_rms, seed=seed)
    got = sweep_csv(fra.run_sweep(spec, respond, gain=1e3))
    assert got == sweep_csv(reference_sweep(spec, respond, gain=1e3))


def test_transfer_ratio_is_analyze_pairs_ratio():
    vv = fra.synthesize_excitation(500.0, 0.1, 1024, 64000.0)
    vi = tissue_response(vv, TissueModel(), gain=1e3)
    out = fra.analyze_pair(vv, vi, gain=1e3)
    ratio = fra.transfer_ratio(
        fra.fra_single_point(vv.samples, vv.cycles),
        fra.fra_single_point(vi, vv.cycles),
        1e3,
    )
    assert (ratio.real.hex(), ratio.imag.hex()) == (out.re.hex(), out.im.hex())
    with pytest.raises(fra.OpenCircuitError):
        fra.transfer_ratio(1 + 0j, 0j, 1e3)


@given(
    point=st.sampled_from(fra.plan_sweep(fra.SweepSpec(points=40))),
    rs=st.floats(min_value=0.0, max_value=1e5),
    rp=st.floats(min_value=1e1, max_value=1e7),
    cp=st.floats(min_value=1e-10, max_value=1e-3),
    gain=st.floats(min_value=1e-3, max_value=1e6),
    noise_rms=st.sampled_from([0.0, 1e-6, 1e-3]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=100, deadline=None)
def test_analyze_pair_polar_form_is_magnitude_phase(
    point, rs, rp, cp, gain, noise_rms, seed
):
    # one owner for the polar form: the sweep's magnitude and phase are
    # magnitude_phase of the transfer ratio, bit for bit
    vv = fra.synthesize_excitation(
        point.frequency_hz, 0.1, point.n_samples, point.sample_rate
    )
    rng = np.random.default_rng(seed) if noise_rms else None
    vi = tissue_response(vv, TissueModel(rs, rp, cp), gain, noise_rms, rng)
    out = fra.analyze_pair(vv, vi, gain=gain)
    ratio = fra.transfer_ratio(
        fra.fra_single_point(vv.samples, vv.cycles),
        fra.fra_single_point(vi, vv.cycles),
        gain,
    )
    magnitude, phase = fra.magnitude_phase(ratio)
    assert (out.magnitude.hex(), out.phase_deg.hex()) == (magnitude.hex(), phase.hex())


# -- rms --------------------------------------------------------------------

RMS_SPECIALS = [
    0.0, -0.0, 5e-324, -5e-324, 1e-320, 2.2250738585072014e-308,
    1.5e154, 1e200, -1e200, 1.7976931348623157e308, math.inf, -math.inf, math.nan,
]


def same_float(a, b):
    return a.hex() == b.hex() or (math.isnan(a) and math.isnan(b))


@st.composite
def rms_buffers(draw):
    """Dense random buffers at magnitudes from subnormal to overflowing
    squares, some cells overwritten by special or arbitrary floats."""
    n = draw(st.integers(1, 4096))
    scale = 10.0 ** draw(st.integers(-320, 200))
    x = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(size=n) * scale
    cells = st.tuples(st.integers(0, n - 1), st.sampled_from(RMS_SPECIALS) | st.floats())
    for i, value in draw(st.lists(cells, max_size=8)):
        x[i] = value
    return x


@given(x=rms_buffers())
@example(x=np.array([-0.0]))
@example(x=np.array([5e-324, -5e-324]))
@example(x=np.array([1e200, 1.0]))
@example(x=np.array([1e-170] * 8))
# the sum of squares is subnormal, not 0, but its mean underflows to 0
@example(x=np.array([2.99540781e-162, -1.32104863e-163, 6.40422650e-163, 1.04900117e-163]))
@example(x=np.array([math.inf, 1.0]))
@example(x=np.array([math.nan, math.inf]))
@settings(max_examples=300, deadline=None)
def test_rms_is_numpys_root_mean_square_unless_the_squares_under_or_overflow(x):
    """Bit for bit np.sqrt(np.mean(np.square(x))), except where that sum of
    squares underflows to 0 or overflows to inf on finite samples that are
    not all 0: there the rescaled RMS is the exact one to a few ulps (or to
    half the subnormal spacing, if it is subnormal), where numpy's reads 0 or
    inf."""
    with np.errstate(over="ignore", under="ignore"):
        got = fra.rms(x)
        want = float(np.sqrt(np.mean(np.square(x))))
    if want in (0.0, math.inf) and np.isfinite(x).all() and np.any(x != 0.0):
        mean_square = sum(Fraction(v) ** 2 for v in x.tolist()) / len(x)
        # the exact RMS to within 2**-1200, far below any float's spacing
        scale = 2**1200
        exact = Fraction(math.isqrt(mean_square.numerator * scale**2 // mean_square.denominator), scale)
        bound = exact / 2**48 + Fraction(1, 2**1074)
        assert abs(Fraction(got) - exact) <= bound, got.hex()
    else:
        assert same_float(got, want), (got.hex(), want.hex())


@pytest.mark.parametrize("gain", [10.0 ** -e for e in range(158, 171)])
def test_a_sweep_with_a_tiny_gain_reads_what_the_loop_reads(gain):
    # the response's sum of squares underflows below gain 1e-158; the
    # sweep's open-circuit rule rests on the projection, which does not
    params = SimParams(transimpedance_gain=gain)
    loop = PlantSimulator(params=params, seed=0).record_at(0).values["imp1"]
    f = params.excitation_hz
    (point,) = fra.run_sweep(
        fra.SweepSpec(start_hz=f, stop_hz=f, points=1),
        sweep_responder(TissueModel(), gain=gain),
        gain=gain,
    )
    imp1 = ChannelId("imp1", ChannelKind.IMPEDANCE_1)
    assert loop == quantize_for(imp1, point.magnitude) == 1058.991
    assert point.vi_rms > 0.0
