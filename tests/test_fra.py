"""Estimator tests against brute-force and closed-form oracles.

Oracles used here:
* exactly-rounded single-bin DFT via math.fsum over explicit cos/sin terms,
* numpy's full FFT, bin c divided by N,
* closed-form amplitude/phase recovery for synthetic sinusoids,
* the analytic impedance of a series resistor + parallel RC cell.
"""

import cmath
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from phytolab import fra
from phytolab.simulator import TissueModel, tissue_response


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
        samples = amp * np.sin(theta + phi)
        return fra.ResponseBuffer(
            frequency=vv.frequency, sample_rate=vv.sample_rate, samples=samples
        )

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


@pytest.mark.parametrize(
    "build",
    [
        lambda a: fra.ExcitationWaveform(500.0, 0.1, 32000.0, a),
        lambda a: fra.ResponseBuffer(500.0, 32000.0, a),
    ],
    ids=["excitation", "response"],
)
def test_buffers_freeze_a_copy_not_the_callers_array(build):
    a = np.zeros(1024)
    buf = build(a)
    assert a.flags.writeable
    a[0] = 1.0  # the caller may reuse its array
    assert buf.samples[0] == 0.0
    assert not np.shares_memory(buf.samples, a)
    with pytest.raises(ValueError):
        buf.samples[0] = 1.0


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
    dead = fra.ResponseBuffer(500.0, 64000.0, np.zeros(1024))
    with pytest.raises(fra.OpenCircuitError):
        fra.analyze_pair(vv, dead)


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


def test_plan_sweep_fixed_mode_refuses_beyond_nyquist():
    spec = fra.SweepSpec(start_hz=1e3, stop_hz=6e5, points=3, mode="fixed")
    with pytest.raises(fra.PeriodStabilityError, match="beyond Nyquist"):
        fra.plan_sweep(spec)


def _paired(n_samples=1024, frequency=500.0):
    vv = fra.synthesize_excitation(500.0, 0.1, 1024, 64000.0)
    return vv, fra.ResponseBuffer(frequency, 64000.0, np.ones(n_samples))


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
        (lambda: fra.analyze_pair(*_paired(n_samples=512)), "length mismatch"),
        (lambda: fra.analyze_pair(*_paired(frequency=1000.0)), "not paired"),
        (lambda: fra.SweepSpec(points=0), "at least one sweep point"),
        (lambda: fra.SweepSpec(mode="log"), "unknown sweep mode"),
        (lambda: fra.SweepSpec(cycles=0), "cycles must satisfy"),
        (lambda: fra.SweepSpec(cycles=512), "cycles must satisfy"),
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
    corr = fra.lockin_correlation(vi.samples * scale, vv.samples)
    p = fra.lockin_phase(corr, fra.rms(vi.samples * scale), fra.rms(vv.samples))
    p0 = fra.lockin_phase(
        fra.lockin_correlation(vi.samples, vv.samples),
        fra.rms(vi.samples),
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
    assert hexes(tissue_response(vv, tissue, gain=1e3).samples) == hexes(want)


def test_basis_cache_evicts_and_refills_bit_identically():
    first = [a.copy() for a in fra._basis(1000, 7)]
    for c in range(1, 100):  # 99 newer keys push (1000, 7) out
        fra._basis(2048, c)
    assert fra._basis.cache_info().currsize == fra._basis.cache_info().maxsize
    misses = fra._basis.cache_info().misses
    again = fra._basis(1000, 7)
    assert fra._basis.cache_info().misses == misses + 1
    assert [hexes(a) for a in again] == [hexes(a) for a in first]
    assert fra._basis(1000, 7)[0] is again[0]


def test_basis_arrays_are_read_only():
    for a in fra._basis(1024, 16):
        with pytest.raises(ValueError):
            a[0] = 1.0
        with pytest.raises(ValueError):
            a *= 2.0


def test_excitation_samples_are_not_the_cached_basis():
    _, sin = fra._basis(1024, 16)
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
    vv = fra.ExcitationWaveform(500.0, 0.1, 32000.0, np.zeros(1024))
    vi = fra.ResponseBuffer(frequency=500.0, sample_rate=32000.0, samples=np.ones(1024))
    assert [vv.cycles, vv.cycles, vi.cycles, vi.cycles] == [16, 16, 16, 16]
    assert len(calls) == 2
    # 500 Hz at 33 kHz gives 15.5 cycles per 1024 samples
    with pytest.raises(fra.PeriodStabilityError):
        fra.ExcitationWaveform(500.0, 0.1, 33000.0, np.zeros(1024))
    unstable = fra.ResponseBuffer(
        frequency=500.0, sample_rate=33000.0, samples=np.ones(1024)
    )
    for _ in range(2):
        with pytest.raises(fra.PeriodStabilityError):
            unstable.cycles


@pytest.mark.parametrize("noise_rms", [0.0, 1e-4])
def test_built_buffers_are_read_only_and_not_the_cached_basis(noise_rms):
    # synthesize_excitation and tissue_response hand their fresh arrays over
    # without a copy; those must still be frozen and not a cached basis array
    cos, sin = fra._basis(1024, 16)
    vv = fra.synthesize_excitation(500.0, 1.0, 1024, 32000.0)
    rng = np.random.default_rng(0) if noise_rms else None
    vi = tissue_response(vv, TissueModel(), gain=1e3, noise_rms=noise_rms, rng=rng)
    for buf in (vv, vi):
        assert buf.samples.dtype == np.float64
        assert type(buf.samples) is np.ndarray
        with pytest.raises(ValueError):
            buf.samples[0] = 1.0
        for basis in (cos, sin):
            assert not np.shares_memory(buf.samples, basis)
    assert not np.shares_memory(vv.samples, vi.samples)


def test_transfer_ratio_is_analyze_pairs_ratio():
    vv = fra.synthesize_excitation(500.0, 0.1, 1024, 64000.0)
    vi = tissue_response(vv, TissueModel(), gain=1e3)
    out = fra.analyze_pair(vv, vi, gain=1e3)
    ratio = fra.transfer_ratio(
        fra.fra_single_point(vv.samples, vv.cycles),
        fra.fra_single_point(vi.samples, vv.cycles),
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
        fra.fra_single_point(vi.samples, vv.cycles),
        gain,
    )
    magnitude, phase = fra.magnitude_phase(ratio)
    assert (out.magnitude.hex(), out.phase_deg.hex()) == (magnitude.hex(), phase.hex())
