"""Channel registry, quantization and record schema checks."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from phytolab import channels as ch
from phytolab import simulator as sim
from phytolab.actuation import ActuationEngine, Binding, Expression, GenericSink
from phytolab.config import parse_config
from phytolab.detectors import DetectorBank, MeanDetector
from phytolab.logstore import LogStore
from phytolab.pipes import TieredPipes
from phytolab.simulator import PlantSimulator


def test_channel_registry_covers_every_kind():
    assert set(ch.CHANNEL_SPECS) == set(ch.ChannelKind)


def test_default_channels_unique_and_ordered_by_category():
    chans = ch.default_channels()
    ch.check_unique_names("channel names", [c.name for c in chans])
    ranks = [list(ch.ChannelCategory).index(c.category) for c in chans]
    assert ranks == sorted(ranks)


def test_channel_categories():
    spec, category = ch.CHANNEL_SPECS, ch.ChannelCategory
    assert spec[ch.ChannelKind.BIOPOTENTIAL_1].category is category.BIOPOTENTIAL
    assert spec[ch.ChannelKind.IMPEDANCE_2].category is category.IMPEDANCE
    assert spec[ch.ChannelKind.AIR_HUMIDITY].category is category.ENVIRONMENT


def test_environment_model_covers_exactly_the_environment_kinds():
    env = {
        kind
        for kind, spec in ch.CHANNEL_SPECS.items()
        if spec.category is ch.ChannelCategory.ENVIRONMENT
    }
    assert set(sim._ENV_MODEL) == env


def _twin_binding():
    return Binding(id="twin", expression=Expression("a == 1"), actuator=GenericSink("s"))


@pytest.mark.parametrize(
    "build",
    [
        lambda tmp_path: parse_config(
            "[channels]\ntwin = biopotential1\ntwin = biopotential2\n"
        ),
        lambda tmp_path: PlantSimulator(
            [ch.ChannelId("twin", kind) for kind in list(ch.ChannelKind)[:2]]
        ),
        lambda tmp_path: LogStore(tmp_path / "s", columns=["twin", "x", "twin"]),
        lambda tmp_path: DetectorBank(
            [MeanDetector(id="twin", channel="x", window=60)] * 2,
            TieredPipes([ch.ChannelId("x", ch.ChannelKind.LIGHT)]),
        ),
        lambda tmp_path: ActuationEngine([_twin_binding(), _twin_binding()]),
    ],
    ids=["channels_section", "simulator", "logstore", "detector_bank", "engine"],
)
def test_a_repeated_name_is_refused_by_name(tmp_path, build):
    # the INI parser refuses a repeated [channels] key before the config does
    with pytest.raises(ValueError, match="'twin'"):
        build(tmp_path)


def test_biopotential_resolution_is_64_nanovolt():
    spec = ch.CHANNEL_SPECS[ch.ChannelKind.BIOPOTENTIAL_1]
    assert spec.resolution == 64e-9
    assert spec.lo == -1.0 and spec.hi == 1.0


def test_lm35_temperature_step_below_one_millidegree():
    # 10 mV/degC sensor on a 22-bit ADC over 10 V: one code is under 0.001 degC
    step = ch.LM35_ADC_LSB_VOLTS / ch.LM35_VOLTS_PER_DEGC
    assert step == ch.EXTERNAL_TEMP_RESOLUTION_C
    assert step < 1e-3
    assert math.isclose(step, 2.384185791015625e-4, rel_tol=0, abs_tol=0)


def snap(raw, res):
    """quantize_for's rule, encode(raw) * resolution, on a spec of step res."""
    spec = ch.ChannelSpec("u", -10.0, 10.0, res)
    return spec.encode(raw) * spec.resolution


BIO = ch.ChannelId("bio1", ch.ChannelKind.BIOPOTENTIAL_1)

# hand-computed half-away-from-zero cases
QUANT_CASES = [
    (0.0, 1.0, 0.0),
    (0.5, 1.0, 1.0),
    (-0.5, 1.0, -1.0),
    (1.25, 0.5, 1.5),
    (-1.25, 0.5, -1.5),
    (0.1, 0.25, 0.0),
    (3.3e-7, 64e-9, 64e-9 * 5),
    (-3.3e-7, 64e-9, -64e-9 * 5),
]


@pytest.mark.parametrize("raw,res,expected", QUANT_CASES)
def test_quantize_frozen_cases(raw, res, expected):
    assert snap(raw, res) == pytest.approx(expected, rel=0, abs=1e-18)


def test_quantize_rejects_bad_inputs():
    with pytest.raises(ValueError):
        ch.ChannelSpec("u", 0.0, 1.0, 0.0)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="non-finite"):
            ch.quantize_for(BIO, bad)
    # a reading whose quotient overflows a float has a code: the range end's
    assert ch.quantize_for(BIO, 1e308) == ch.quantize_for(BIO, 1.0)


@given(
    raw=st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
    res=st.sampled_from([64e-9, 1e-6, 1e-3, 0.25, 1.0]),
)
def test_quantize_idempotent_and_close(raw, res):
    q = snap(raw, res)
    # quantization is a projection: applying it twice changes nothing
    assert snap(q, res) == q
    assert abs(q - raw) <= res / 2 + 1e-12 * max(1.0, abs(raw))


@given(raw=st.floats(min_value=-1.0, max_value=1.0, allow_nan=False))
def test_quantize_bit_exact_grid_membership(raw):
    res = 64e-9
    q = ch.quantize_for(BIO, raw)
    assert q == res * round(q / res)
    assert ch.quantize_for(BIO, q) == q


def test_quantize_for_clamps_to_range():
    spec = BIO.spec
    assert ch.quantize_for(BIO, 2.0) == ch.quantize_for(BIO, 1.0) == spec.code_hi * 64e-9
    assert ch.quantize_for(BIO, -2.0) == ch.quantize_for(BIO, -1.0) == spec.code_lo * 64e-9


@pytest.mark.parametrize("raw", [1.2e301, -1.2e301, 1e308, -1e308])
def test_huge_finite_readings_clamp_in_quantize_for_and_raise_in_quantize(raw):
    # |raw| / resolution overflows a float, so no quotient exists; the code
    # saturates at the range end all the same
    end = 1.0 if raw > 0 else -1.0
    assert ch.quantize_for(BIO, raw) == ch.quantize_for(BIO, end)
    imp = ch.ChannelId("imp1", ch.ChannelKind.IMPEDANCE_1)
    assert ch.quantize_for(imp, raw).hex() == (1e9 if raw > 0 else 0.0).hex()
    # a grid whose range reaches raw has no exact code for it, and refuses it
    with pytest.raises(ValueError, match="2\\*\\*51"):
        ch.ChannelSpec("V", min(raw, 0.0), max(raw, 0.0), BIO.spec.resolution)


def test_record_holds_one_code_per_channel():
    chans = (
        ch.ChannelId("bio1", ch.ChannelKind.BIOPOTENTIAL_1),
        ch.ChannelId("leaf_temp", ch.ChannelKind.EXTERNAL_TEMPERATURE),
    )
    codes = [c.spec.encode(v) for c, v in zip(chans, (0.25, 21.5))]
    good = ch.Record(1000, codes, list(chans))
    assert (good.codes, good.channels) == (tuple(codes), chans)
    assert dict(good.values) == {
        c.name: ch.quantize_for(c, v) for c, v in zip(chans, (0.25, 21.5))
    }
    with pytest.raises(ValueError, match="1 codes for 2 channels"):
        ch.Record(1000, codes[:1], chans)
    with pytest.raises(ValueError, match="3 codes for 2 channels"):
        ch.Record(1000, [*codes, 7], chans)
    # the count is checked before the codes, so an extra float code is
    # refused by the count, not as an unnamed TypeError
    with pytest.raises(ValueError, match="^2 codes for 1 channels$"):
        ch.Record(1000, (codes[0], 2.5), chans[:1])
    # a float code would be off the grid: refused, naming its channel
    with pytest.raises(TypeError, match="^code on 'leaf_temp' must be an integer, got 2.5$"):
        ch.Record(1000, [codes[0], 2.5], chans)
    assert type(ch.Record(1000, [np.int64(3), True], chans).codes[0]) is int
    with pytest.raises(ValueError, match="channel name must be non-empty"):
        ch.ChannelId("", ch.ChannelKind.BIOPOTENTIAL_1)


@pytest.mark.parametrize("value", [-0.1, 0.05, 2e5 + 0.1, 21.5 + 0.1 / 3])
def test_a_record_reads_what_quantize_for_leaves_as_it_is(value):
    # light reads 0 .. 2e5 lux in steps of 0.1: -0.1 is below the range and
    # 0.05 between two steps, though within one step of the range; a record
    # of light's code reads the grid point quantize_for gives
    light = ch.ChannelId("light", ch.ChannelKind.LIGHT)
    got = ch.Record(1000, [light.spec.encode(value)], [light]).values["light"]
    assert got == ch.quantize_for(light, value) != value
    assert ch.quantize_for(light, got) == got


def test_record_is_immutable():
    a = ch.ChannelId("a", ch.ChannelKind.LIGHT)
    rec = ch.Record(5, [10], [a])
    with pytest.raises(TypeError):
        rec.values["a"] = 2.0  # type: ignore[index]
    with pytest.raises(AttributeError):
        rec.codes = (20,)  # type: ignore[misc]
    assert rec.values == {"a": 1.0}


def test_record_rejects_non_integer_timestamp():
    with pytest.raises(TypeError, match="^timestamp_ms must be an integer, got 1.5$"):
        ch.Record(1.5, (), ())  # type: ignore[arg-type]


@pytest.mark.parametrize("stamp", [1000.0, math.inf, math.nan])
def test_record_timestamp_is_an_integer_by_the_store_rule(stamp):
    # the rule LogStore.append_row applies: operator.index
    with pytest.raises(TypeError):
        ch.Record(stamp, (), ())
    rec = ch.Record(np.int64(1000), (), ())
    assert type(rec.timestamp_ms) is int and rec.timestamp_ms == 1000


def test_schedule_orders_biopotential_before_impedance_before_environment():
    # the simulator samples biopotential, then impedance, then environment
    # channels (test_simulator checks that), and its record holds them in
    # config order, as a store reads them back
    chans = tuple(reversed(ch.default_channels()))
    rec = PlantSimulator(channels=chans, seed=0).record_at(0)
    assert rec.channels == chans
    assert list(rec.values) == [c.name for c in chans]
    assert [c.category for c in chans][0] is ch.ChannelCategory.ENVIRONMENT


@pytest.mark.parametrize(
    "lo, hi, resolution",
    [
        (0.0, 1.0, 0.0),
        (0.0, 1.0, -1e-3),
        (0.0, 1.0, math.nan),
        (0.0, 1.0, math.inf),
        (1.0, 0.0, 1e-3),
        (math.nan, 1.0, 1e-3),
    ],
)
def test_channel_spec_is_validated_at_construction(lo, hi, resolution):
    with pytest.raises(ValueError):
        ch.ChannelSpec("V", lo, hi, resolution)


def test_channel_spec_codes_stay_below_2_to_the_51():
    # a code then converts to its reading and back exactly, and the window
    # sums can take it; a range end that rounds to 2**51 is refused too
    ch.ChannelSpec("u", -(2.0**51) + 1, 2.0**51 - 1, 1.0)
    for lo, hi in [(0.0, 2.0**51), (-(2.0**51), 0.0), (0.0, 2.0**51 - 0.5)]:
        with pytest.raises(ValueError, match=r"2\*\*51"):
            ch.ChannelSpec("u", lo, hi, 1.0)
    with pytest.raises(ValueError, match=r"2\*\*51"):
        ch.ChannelSpec("V", -1.0, 1.0, 2.0**-52)


def parent_quantize_for(channel, raw):
    """quantize_for as it was before the spec owned the grid: a float
    quotient, rounded with floor(q + 0.5), clamped, then snapped again."""

    def snap(value, res):
        steps = math.floor(abs(value) / res + 0.5)
        return math.copysign(steps * res, value) if value != 0.0 else 0.0

    spec = ch.CHANNEL_SPECS[channel.kind]
    value = snap(raw, spec.resolution)
    if spec.lo <= value <= spec.hi:
        return value
    value = min(max(value, snap(spec.lo, spec.resolution)), spec.hi)
    return snap(value, spec.resolution)


@given(
    kind=st.sampled_from(list(ch.ChannelKind)),
    raw=st.floats(allow_nan=False, allow_infinity=False),
)
def test_quantize_for_matches_the_checked_path_bit_for_bit(kind, raw):
    channel = ch.ChannelId("x", kind)
    assert channel.spec is ch.CHANNEL_SPECS[kind]
    # every range lies far inside +-1e15, so a reading beyond it clamps like
    # one at +-1e15, which the parent's float quotient can still round
    near = min(max(raw, -1e15), 1e15)
    q = abs(near) / channel.spec.resolution
    # where that quotient lies within its own rounding of a half step the
    # parent could round the wrong way (the oracle property below decides)
    assume(abs(q - math.floor(q) - 0.5) > q * 2**-50)
    # the parent kept the sign of a reading that rounds to 0; a code has none
    want = parent_quantize_for(channel, near) + 0.0
    assert ch.quantize_for(channel, raw).hex() == want.hex()
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            ch.quantize_for(channel, bad)


def exact_code(x, res):
    """The integer nearest x / res in exact rationals, a half away from zero."""
    r = Fraction(x) / Fraction(res)
    k = math.floor(abs(r) + Fraction(1, 2))
    return k if r >= 0 else -k


def oracle(spec, raw):
    """The nearest point of spec's grid to raw, exactly, clamped to the codes
    of lo and hi, as the float nearest that grid point."""
    k = min(max(exact_code(raw, spec.resolution), exact_code(spec.lo, spec.resolution)),
            exact_code(spec.hi, spec.resolution))
    return float(k * Fraction(spec.resolution))


def nudged(x, ulps):
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.copysign(math.inf, ulps))
    return x


@st.composite
def raw_readings(draw):
    """A kind and a raw reading: near a half step, near a range end, past
    float overflow of raw / resolution, or any finite float."""
    kind = draw(st.sampled_from(list(ch.ChannelKind)))
    spec = ch.CHANNEL_SPECS[kind]
    res, ulps = spec.resolution, draw(st.integers(-3, 3))
    where = draw(st.sampled_from(["half", "end", "overflow", "any"]))
    if where == "half":
        k = draw(st.integers(spec.code_lo - 2, spec.code_hi + 1))
        raw = nudged((k + 0.5) * res, ulps)
    elif where == "end":
        end = draw(st.sampled_from([spec.lo, spec.hi]))
        raw = nudged(end + draw(st.sampled_from([-1.5, -0.5, 0.0, 0.5, 1.5])) * res, ulps)
    elif where == "overflow":
        raw = draw(st.floats(1e300, 1.7976931348623157e308)) * draw(st.sampled_from([-1, 1]))
    else:
        raw = draw(st.floats(allow_nan=False, allow_infinity=False))
    return kind, raw


@given(case=raw_readings())
@settings(max_examples=600)
def test_quantize_for_is_the_exact_nearest_grid_point(case):
    kind, raw = case
    channel = ch.ChannelId("x", kind)
    got = ch.quantize_for(channel, raw)
    assert got.hex() == oracle(channel.spec, raw).hex()
    assert math.copysign(1.0, got) > 0 or got != 0.0  # never -0.0
    assert got == channel.spec.encode(raw) * channel.spec.resolution
