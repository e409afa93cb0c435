"""Channel registry, quantization and record schema checks."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

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
    with pytest.raises(ValueError):
        ch.quantize(1e308, 1e-3)


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


@pytest.mark.parametrize("raw", [1.2e301, -1.2e301, 1e308, -1e308])
def test_huge_finite_readings_clamp_in_quantize_for_and_raise_in_quantize(raw):
    # |raw| / resolution overflows a float, so no grid index exists
    end = 1.0 if raw > 0 else -1.0
    bio = ch.ChannelId("bio1", ch.ChannelKind.BIOPOTENTIAL_1)
    assert ch.quantize_for(bio, raw) == ch.quantize(end, 64e-9)
    imp = ch.ChannelId("imp1", ch.ChannelKind.IMPEDANCE_1)
    assert ch.quantize_for(imp, raw) == (1e9 if raw > 0 else 0.0)
    with pytest.raises(ValueError):
        ch.quantize(raw, 64e-9)


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
    # NaN is inside no range, and is refused before the range is read
    with pytest.raises(ValueError, match="non-finite reading on 'bio1': nan"):
        ch.validate_record(
            ch.Record(1000, {"bio1": math.nan, "leaf_temp": 21.5}), chans
        )
    with pytest.raises(ValueError, match="channel name must be non-empty"):
        ch.ChannelId("", ch.ChannelKind.BIOPOTENTIAL_1)


def test_record_is_immutable():
    rec = ch.Record(timestamp_ms=5, values={"a": 1.0})
    with pytest.raises(TypeError):
        rec.values["a"] = 2.0  # type: ignore[index]


def test_record_rejects_non_integer_timestamp():
    with pytest.raises(TypeError):
        ch.Record(timestamp_ms=1.5, values={})  # type: ignore[arg-type]


@pytest.mark.parametrize("stamp", [1000.0, math.inf, math.nan])
def test_record_timestamp_is_an_integer_by_the_store_rule(stamp):
    # the rule LogStore.append_row applies: operator.index
    with pytest.raises(TypeError):
        ch.Record(timestamp_ms=stamp, values={})
    rec = ch.Record(timestamp_ms=np.int64(1000), values={})
    assert type(rec.timestamp_ms) is int and rec.timestamp_ms == 1000


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


def parent_quantize_for(channel, raw):
    """quantize_for as it was before specs were validated once: public checks."""
    spec = ch.CHANNEL_SPECS[channel.kind]
    value = ch.quantize(raw, spec.resolution)
    if spec.lo <= value <= spec.hi:
        return value
    value = min(max(value, ch.quantize(spec.lo, spec.resolution)), spec.hi)
    return ch.quantize(value, spec.resolution)


@given(
    kind=st.sampled_from(list(ch.ChannelKind)),
    raw=st.floats(allow_nan=False, allow_infinity=False),
)
def test_quantize_for_matches_the_checked_path_bit_for_bit(kind, raw):
    channel = ch.ChannelId("x", kind)
    assert channel.spec is ch.CHANNEL_SPECS[kind]
    # every range lies far inside +-1e15, so a reading beyond it clamps like
    # one at +-1e15, which the checked path can still quantize
    near = min(max(raw, -1e15), 1e15)
    assert ch.quantize_for(channel, raw).hex() == parent_quantize_for(channel, near).hex()
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            ch.quantize_for(channel, bad)
