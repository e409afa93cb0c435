"""Channel registry, quantization and record schema checks."""

import math

import pytest
from hypothesis import given, strategies as st

from phytolab import channels as ch
from phytolab.simulator import PlantSimulator


def test_channel_registry_covers_every_kind():
    assert set(ch.CHANNEL_SPECS) == set(ch.ChannelKind)


def test_default_channels_unique_and_ordered_by_category():
    chans = ch.default_channels()
    ch.validate_unique_names(chans)
    ranks = [list(ch.ChannelCategory).index(c.category) for c in chans]
    assert ranks == sorted(ranks)


def test_channel_categories():
    assert ch.channel_category(ch.ChannelKind.BIOPOTENTIAL_1) is ch.ChannelCategory.BIOPOTENTIAL
    assert ch.channel_category(ch.ChannelKind.IMPEDANCE_2) is ch.ChannelCategory.IMPEDANCE
    assert ch.channel_category(ch.ChannelKind.AIR_HUMIDITY) is ch.ChannelCategory.ENVIRONMENT


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
    assert ch.quantize(raw, res) == pytest.approx(expected, rel=0, abs=1e-18)


def test_quantize_rejects_bad_inputs():
    with pytest.raises(ValueError):
        ch.quantize(1.0, 0.0)
    with pytest.raises(ValueError):
        ch.quantize(math.nan, 1e-3)
    with pytest.raises(ValueError):
        ch.quantize(math.inf, 1e-3)


@given(
    raw=st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
    res=st.sampled_from([64e-9, 1e-6, 1e-3, 0.25, 1.0]),
)
def test_quantize_idempotent_and_close(raw, res):
    q = ch.quantize(raw, res)
    # quantization is a projection: applying it twice changes nothing
    assert ch.quantize(q, res) == q
    assert abs(q - raw) <= res / 2 + 1e-12 * max(1.0, abs(raw))


@given(raw=st.floats(min_value=-1.0, max_value=1.0, allow_nan=False))
def test_quantize_bit_exact_grid_membership(raw):
    res = 64e-9
    q = ch.quantize(raw, res)
    assert q == res * round(q / res)


def test_quantize_for_clamps_to_range():
    bio = ch.ChannelId("bio1", ch.ChannelKind.BIOPOTENTIAL_1)
    assert ch.quantize_for(bio, 2.0) == ch.quantize(1.0, 64e-9)
    assert ch.quantize_for(bio, -2.0) == ch.quantize(-1.0, 64e-9)
    with pytest.raises(ValueError):
        ch.quantize_for(bio, 2.0, clamp=False)


def test_validate_record_schema_and_range():
    chans = (
        ch.ChannelId("bio1", ch.ChannelKind.BIOPOTENTIAL_1),
        ch.ChannelId("leaf_temp", ch.ChannelKind.EXTERNAL_TEMPERATURE),
    )
    good = ch.Record(timestamp_ms=1000, values={"bio1": 0.25, "leaf_temp": 21.5})
    ch.validate_record(good, chans)

    with pytest.raises(ValueError, match="missing"):
        ch.validate_record(ch.Record(1000, {"bio1": 0.25}), chans)
    with pytest.raises(ValueError, match="extra"):
        ch.validate_record(
            ch.Record(1000, {"bio1": 0.25, "leaf_temp": 21.5, "ghost": 1.0}), chans
        )
    with pytest.raises(ValueError, match="range"):
        ch.validate_record(
            ch.Record(1000, {"bio1": 1.5, "leaf_temp": 21.5}), chans
        )


def test_record_is_immutable():
    rec = ch.Record(timestamp_ms=5, values={"a": 1.0})
    with pytest.raises(TypeError):
        rec.values["a"] = 2.0  # type: ignore[index]


def test_record_rejects_non_integer_timestamp():
    with pytest.raises(TypeError):
        ch.Record(timestamp_ms=1.5, values={})  # type: ignore[arg-type]


def test_schedule_orders_biopotential_before_impedance_before_environment():
    chans = tuple(reversed(ch.default_channels()))
    rec = PlantSimulator(channels=chans, seed=0).record_at(0)
    category = {c.name: c.category for c in chans}
    cats = [category[name] for name in rec.values]
    first_imp = cats.index(ch.ChannelCategory.IMPEDANCE)
    assert all(c is ch.ChannelCategory.BIOPOTENTIAL for c in cats[:first_imp])
    first_env = cats.index(ch.ChannelCategory.ENVIRONMENT)
    assert all(c is not ch.ChannelCategory.ENVIRONMENT for c in cats[:first_env])
    # within a category the configured order stands
    assert list(rec.values) == [
        c.name for cat in ch.ChannelCategory for c in chans if c.category is cat
    ]


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


def parent_quantize_for(channel, raw, clamp=True):
    """quantize_for as it was before specs were validated once: public checks."""
    spec = ch.CHANNEL_SPECS[channel.kind]
    value = ch.quantize(raw, spec.resolution)
    if spec.lo <= value <= spec.hi:
        return value
    if not clamp:
        raise ValueError(raw)
    value = min(max(value, ch.quantize(spec.lo, spec.resolution)), spec.hi)
    return ch.quantize(value, spec.resolution)


@given(
    kind=st.sampled_from(list(ch.ChannelKind)),
    # beyond about 1e300 / resolution both paths overflow in math.floor
    raw=st.floats(min_value=-1e15, max_value=1e15),
)
def test_quantize_for_matches_the_checked_path_bit_for_bit(kind, raw):
    channel = ch.ChannelId("x", kind)
    assert channel.spec is ch.CHANNEL_SPECS[kind]
    assert ch.quantize_for(channel, raw).hex() == parent_quantize_for(channel, raw).hex()
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            ch.quantize_for(channel, bad)
