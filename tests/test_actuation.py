"""Expression semantics, actuators, binding engine and homeostat tests."""

import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from phytolab import streams
from phytolab.actuation import (
    ActuationEngine,
    And,
    Binding,
    Cmp,
    ElectricalStimulation,
    ExpressionError,
    Expression,
    Firing,
    GenericSink,
    HomeostatConfig,
    MessageToFile,
    MessageToIp,
    Not,
    Or,
    Relay,
    RgbLed,
    _iso_utc,
    _Parser,
)
from phytolab.config import parse_config
from phytolab.detectors import NO_DATA
from phytolab.fra import SweepSpec, run_sweep
from phytolab.runtime import Runtime
from phytolab.simulator import TissueModel, sweep_responder


class Sink:
    """Recording actuator for tests."""

    def __init__(self, id="sink"):
        self.id = id
        self.calls = []

    def fire(self, now_ms, binding_id, payload):
        self.calls.append((now_ms, binding_id, payload))


# -- three-valued logic oracle: exhaustive truth tables


def test_kleene_tables():
    # a leaf "x == 1" reads True at 1, False at -1 and unknown at NO_DATA
    reading = {True: 1.0, False: -1.0, None: NO_DATA}
    a, b = Cmp("a", "==", 1.0), Cmp("b", "==", 1.0)
    tri = (True, False, None)
    for x, y in itertools.product(tri, tri):
        want_and = False if (x is False or y is False) else (
            None if (x is None or y is None) else True
        )
        want_or = True if (x is True or y is True) else (
            None if (x is None or y is None) else False
        )
        vec = {"a": reading[x], "b": reading[y]}
        assert And((a, b)).eval(vec, (), 1.0) is want_and
        assert Or((a, b)).eval(vec, (), 1.0) is want_or
    for x, want in ((True, False), (False, True), (None, None)):
        assert Not(a).eval({"a": reading[x]}, (), 1.0) is want


# -- parsing


def test_parse_identifiers_and_precedence():
    expr = Expression("a == 1 OR b == 1 AND c == 1")
    assert expr.identifiers() == {"a", "b", "c"}
    assert isinstance(expr.root, Or)
    assert isinstance(expr.root.items[1], And)


def test_parse_parentheses_override_precedence():
    expr = Expression("(a == 1 OR b == 1) AND c == 1")
    assert isinstance(expr.root, And)


def test_parse_comparison_forms():
    vec = {"x": 3.0}
    assert Expression("x >= 3").evaluate(vec) is True
    assert Expression("x > 3").evaluate(vec) is False
    assert Expression("3 < x").evaluate(vec) is False
    assert Expression("x != 2.5").evaluate(vec) is True
    assert Expression("x == 3e0").evaluate(vec) is True
    assert Expression("x < -1").evaluate(vec) is False


def test_keywords_are_case_insensitive():
    vec = {"a": 1.0, "b": 2.0}
    assert Expression("a == 1 and b == 2").evaluate(vec) is True
    assert Expression("NOT a == 2 And b == 2").evaluate(vec) is True


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "a ==",
        "== 1",
        "a == 1 OR",
        "a == 1 extra == 2",
        "a = 1",
        "(a == 1",
        "a",
        "NOT",
        "BERNOULLI()",
        "BERNOULLI(x)",
        "BERNOULLI(1.5)",
        "a ?? 1",
    ],
)
def test_parse_rejects_malformed(bad):
    with pytest.raises(ExpressionError):
        Expression(bad)


@pytest.mark.parametrize(
    "bad,match",
    [
        ("(a == 1 b", r"expected '\)', got 'b'"),
        ("BERNOULLI(0.5 a", r"expected '\)', got 'a'"),
        ("a b == 1", "expected a comparison operator after operand"),
    ],
)
def test_parse_names_what_it_expected(bad, match):
    with pytest.raises(ExpressionError, match=match):
        Expression(bad)


# -- no-data semantics


def test_no_data_comparison_is_unknown():
    expr = Expression("p == 1")
    assert expr.evaluate({"p": 0.0}) is None
    assert expr.evaluate({"p": 1.0}) is True
    assert expr.evaluate({"p": -1.0}) is False


def test_no_data_on_the_right_is_unknown():
    expr = Expression("1 < p")
    assert expr.evaluate({"p": NO_DATA}) is None
    assert expr.evaluate({"p": 2.0}) is True
    assert expr.evaluate({"p": -1.0}) is False


def test_literal_zero_opts_out_of_no_data():
    assert Expression("p == 0").evaluate({"p": 0.0}) is True
    assert Expression("p != 0").evaluate({"p": 0.0}) is False
    assert Expression("0 <= p").evaluate({"p": 0.0}) is True


def test_unknown_propagates_through_logic():
    vec = {"p": 0.0, "q": 1.0}
    assert Expression("p == 1 AND q == 1").evaluate(vec) is None
    assert Expression("p == 1 OR q == 1").evaluate(vec) is True
    assert Expression("p == 1 AND q == 2").evaluate(vec) is False
    # an Expression refuses a bare NOT, so evaluate the parser's tree
    assert _Parser("NOT (p == 1)").parse().eval(vec, (), 1.0) is None


# -- spontaneous-fire guard


def test_guard_rejects_bare_not():
    with pytest.raises(ExpressionError, match="spontaneous"):
        Expression("NOT a == 1")


def test_guard_rejects_or_with_not_branch():
    with pytest.raises(ExpressionError):
        Expression("a == 1 OR NOT b == 1")


def test_guard_rejects_bare_bernoulli():
    with pytest.raises(ExpressionError):
        Expression("BERNOULLI(0.5)")


@pytest.mark.parametrize("text", ["1 == 1", "2 > 1 and BERNOULLI(0.5)", "a == a"])
def test_guard_refuses_a_comparison_that_reads_no_detector(text):
    # each is True on an idle bench, with no detector condition met
    with pytest.raises(ExpressionError, match="must read a detector"):
        Expression(text)


def test_guard_accepts_gated_not_and_bernoulli():
    Expression("a == 1 AND NOT b == 1")
    Expression("a == 1 AND BERNOULLI(0.25)")


def test_binding_built_in_code_must_be_quiet_on_an_idle_bench():
    # the Expression a Binding holds refuses the spontaneous path itself
    with pytest.raises(ExpressionError, match="spontaneous"):
        Expression("not a == 1")
    quiet = Binding(
        id="b", expression=Expression("a == 1 and not c == 1"), actuator=GenericSink("s")
    )
    assert ActuationEngine([quiet]).cycle({"a": -1.0, "c": -1.0}, 0) == []


@pytest.mark.parametrize("cooldown_s", [-1.0, float("nan")])
def test_binding_cooldown_must_be_non_negative(cooldown_s):
    with pytest.raises(ValueError, match="cooldown must be >= 0"):
        binding("a == 1", cooldown_s=cooldown_s)


@pytest.mark.parametrize(
    "kw", [{"id": "a\tb"}, {"id": "a\nb"}, {"id": "a\rb"},
           {"payload": "one\ntwo"}, {"payload": "one\rtwo"}],
)
def test_binding_cannot_break_the_one_line_firing_format(kw):
    # firings.log and the datagrams split a line into time, id and payload
    with pytest.raises(ValueError, match="holds a (tab or )?line break"):
        binding("a == 1", **kw)
    binding("a == 1", id="a b", payload="tabs\tare\tfine")


def test_binding_id_must_be_non_empty():
    with pytest.raises(ValueError, match="binding id must be non-empty"):
        binding("a == 1", id="")


# detector ids that are Python keywords or start like this grammar's keywords
_IDS = ("d0", "d1", "in", "None", "pass", "orx", "NOTE", "_b2")
_ATOMS = st.one_of(
    st.sampled_from(_IDS).map(lambda name: f"{name} == 1"),
    st.floats(1e-9, 1.0).map(lambda p: f"BERNOULLI({p!r})"),
)
_EXPRESSIONS = st.recursive(
    _ATOMS,
    lambda inner: st.one_of(
        inner.map(lambda e: f"NOT {e}"),
        inner.map(lambda e: f"({e})"),
        st.tuples(
            st.sampled_from([" AND ", " OR ", " and ", " or "]),
            st.lists(inner, min_size=2, max_size=3),
        ).map(lambda t: t[0].join(t[1])),
    ),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(text=_EXPRESSIONS)
def test_guard_refuses_exactly_what_fires_on_an_idle_bench(text):
    # every comparison false (a reading of -1 is data, not NO_DATA) and every
    # BERNOULLI true (a uniform of 0 is below any p > 0)
    parser = _Parser(text)
    root = parser.parse()
    idle = dict.fromkeys(_IDS, -1.0)
    fires = root.eval(idle, [0.0] * parser.n_bernoulli, 1.0) is True
    if fires:
        with pytest.raises(ExpressionError, match="spontaneous"):
            Expression(text)
    else:
        assert Expression(text).root == root


@settings(max_examples=100, deadline=None)
@given(text=_EXPRESSIONS)
def test_identifiers_are_the_name_tokens(text):
    # a letter inside a number such as 1e-09 is not a name
    names = re.findall(r"(?<![0-9A-Za-z_.])[A-Za-z_][A-Za-z0-9_]*", text)
    keywords = {"and", "or", "not", "bernoulli"}
    want = {n for n in names if n.lower() not in keywords}
    parser = _Parser(text)
    parser.parse()
    assert parser.names == want
    try:
        ids = Expression(text).identifiers()
    except ExpressionError:
        return  # spontaneous: the guard test above covers the refusal
    assert isinstance(ids, frozenset)
    assert ids == want


# -- bernoulli

def test_bernoulli_threshold_and_adjustment():
    expr = Expression("a == 1 AND BERNOULLI(0.5)")
    vec = {"a": 1.0}
    assert expr.evaluate(vec, uniforms=[0.3]) is True
    assert expr.evaluate(vec, uniforms=[0.7]) is False
    # adjustment divides the probability
    assert expr.evaluate(vec, uniforms=[0.3], adjust=2.0) is False
    # and boosts it when below 1, capped at certainty
    assert expr.evaluate(vec, uniforms=[0.99], adjust=0.1) is True


def test_bernoulli_needs_uniform_draws():
    expr = Expression("a == 1 AND BERNOULLI(0.5)")
    with pytest.raises(ValueError):
        expr.evaluate({"a": 1.0})


def test_multiple_bernoulli_draw_indexing():
    expr = Expression("a == 1 AND BERNOULLI(0.5) AND BERNOULLI(0.9)")
    assert expr.n_bernoulli == 2
    assert expr.evaluate({"a": 1.0}, uniforms=[0.4, 0.8]) is True
    assert expr.evaluate({"a": 1.0}, uniforms=[0.6, 0.8]) is False


# -- actuators


def test_iso_timestamp_frozen():
    assert _iso_utc(0) == "1970-01-01T00:00:00.000+00:00"
    assert _iso_utc(90_061_500) == "1970-01-02T01:01:01.500+00:00"


def test_message_to_file_appends_lines(tmp_path):
    out = tmp_path / "msg.log"
    act = MessageToFile("f", str(out))
    act.fire(0, "b1", "hello")
    act.fire(1000, "b1", "again")
    assert out.read_text() == (
        "1970-01-01T00:00:00.000+00:00\thello\n"
        "1970-01-01T00:00:01.000+00:00\tagain\n"
    )


def test_message_to_ip_wire_format():
    act = MessageToIp("n", "10.0.0.2", 9000)
    act.fire(0, "b1", "alert")
    assert act.sent == ["1970-01-01T00:00:00.000+00:00\tb1\talert\n"]
    with pytest.raises(ValueError):
        MessageToIp("n", "10.0.0.2", 0)


def test_relay_states_and_bad_payload():
    act = Relay("r")
    act.fire(0, "b", "on")
    act.fire(1, "b", "on")
    act.fire(2, "b", "toggle")
    act.fire(3, "b", "off")
    assert act.transitions == [(0, True), (2, False)]
    with pytest.raises(ValueError):
        act.fire(4, "b", "sideways")


def test_message_to_file_stays_dead_after_write_failure(tmp_path):
    act = MessageToFile("f", str(tmp_path / "missing_dir" / "msg.log"))
    with pytest.raises(OSError):
        act.fire(0, "b", "hello")
    (tmp_path / "missing_dir").mkdir()
    # the path is writable now, but the actuator was declared broken
    with pytest.raises(OSError, match="disabled"):
        act.fire(1000, "b", "again")


def test_rgb_led_register_and_payload_grammar():
    act = RgbLed("led")
    act.fire(0, "b", "r=on")
    assert act.state == {"r": True, "g": False, "b": False}
    act.fire(1, "b", "g=on, b=toggle")
    act.fire(2, "b", "R=OFF b=toggle")
    assert act.state == {"r": False, "g": True, "b": False}
    assert act.transitions == [
        (0, "r", True),
        (1, "g", True),
        (1, "b", True),
        (2, "r", False),
        (2, "b", False),
    ]


def test_rgb_led_rejects_bad_payload_without_mutating():
    act = RgbLed("led")
    for bad in ("", "r", "r=purple", "w=on", "r=on w=on"):
        with pytest.raises(ValueError):
            act.fire(0, "b", bad)
    assert act.state == {"r": False, "g": False, "b": False}
    assert act.transitions == []


def test_electrical_stimulation_enqueues_event():
    class FakeSim:
        def __init__(self):
            self.calls = []

        def add_electrical(self, at_ms, intensity=1.0):
            self.calls.append((at_ms, intensity))

    sim = FakeSim()
    act = ElectricalStimulation("zap", intensity=0.5, target=sim)
    act.fire(7_000, "b", "fired")
    assert sim.calls == [(7_000, 0.5)]
    with pytest.raises(ValueError):
        ElectricalStimulation("zap", intensity=1.5)
    with pytest.raises(ValueError, match="not wired"):
        ElectricalStimulation("zap").fire(0, "b", "fired")


def test_generic_sink_retains_commands():
    act = GenericSink("s")
    act.fire(0, "b1", "play c major")
    act.fire(1000, "b2", "tweet")
    assert act.commands == [(0, "b1", "play c major"), (1000, "b2", "tweet")]


# -- bindings


def binding(expr_text, actuator=None, **kw):
    return Binding(
        id=kw.pop("id", "b1"),
        expression=Expression(expr_text),
        actuator=actuator if actuator is not None else Sink(),
        **kw,
    )


def test_binding_validation_against_detector_ids():
    b = binding("peak1 == 1", payload="z={z1:.2f}")
    b.validate_against({"peak1", "z1"})
    with pytest.raises(ValueError, match="unknown detectors"):
        b.validate_against({"z1"})
    with pytest.raises(ValueError, match="payload"):
        b.validate_against({"peak1"})
    # each of these passes a field-name scan but raises on the first render
    for payload in ("x {}", "x {g[0]}", "x {g:q}", "x {g!z}"):
        with pytest.raises(ValueError, match="payload"):
            binding("g == 1", payload=payload).validate_against({"g"})


def test_validate_against_refuses_a_payload_the_led_refuses():
    led = RgbLed("led")
    binding("d == 1", led, payload="r=on, g=toggle").validate_against({"d"})
    # rendered with d at 0.0, this reads "g=0.0", which no firing can parse
    with pytest.raises(ValueError, match="bad assignment 'g=0.0'"):
        binding("d == 1", led, payload="r=on g={d}").validate_against({"d"})
    with pytest.raises(ValueError, match="empty payload"):
        binding("d == 1", led, payload=" ").validate_against({"d"})
    assert led.state == {"r": False, "g": False, "b": False}
    assert led.transitions == []


def test_binding_payload_render():
    b = binding("a == 1", payload="a={a:.1f} b={b}")
    assert b.render({"a": 1.25, "b": -1.0}) == "a=1.2 b=-1.0"


def test_engine_fires_on_rising_edge_only():
    sink = Sink()
    engine = ActuationEngine([binding("a == 1", sink)])
    t = 0
    for a in (1.0, 1.0, 1.0, -1.0, 1.0):
        engine.cycle({"a": a}, t)
        t += 1000
    # three consecutive trues collapse to one firing, the re-rise adds one
    assert [c[0] for c in sink.calls] == [0, 4000]


def test_engine_honours_cooldown():
    sink = Sink()
    engine = ActuationEngine([binding("a == 1", sink, cooldown_s=5.0)])
    pattern = [1.0, -1.0, 1.0, -1.0, -1.0, -1.0, 1.0]
    for i, a in enumerate(pattern):
        engine.cycle({"a": a}, i * 1000)
    # the rise at t=2000 lands inside the 5 s refractory window
    assert [c[0] for c in sink.calls] == [0, 6000]


def test_engine_no_data_never_fires():
    sink = Sink()
    engine = ActuationEngine([binding("a == 1", sink)])
    for t in range(5):
        engine.cycle({"a": 0.0}, t * 1000)
    assert sink.calls == []


def test_engine_is_deterministic_per_seed():
    def run(seed):
        sink = Sink()
        engine = ActuationEngine(
            [binding("a == 1 AND BERNOULLI(0.5)", sink)], seed=seed
        )
        for t in range(200):
            engine.cycle({"a": 1.0 if t % 2 == 0 else -1.0}, t * 1000)
        return [c[0] for c in sink.calls]

    assert run(7) == run(7)
    assert run(7) != run(8)


DRAW_RUN_INI = """
[system]
seed = 5
period_s = 0.1
stimulation_interval_s = 1.0

[channels]
bio1 = biopotential1
imp1 = impedance1
imp2 = impedance2

[impedance]
noise_rms_v = 1e-4

[detector.gate]
kind = time_interval
start_ms = 0
end_ms = 86400000

[actuator.stim]
kind = electrical_stimulation
intensity = 0.5

[actuator.sink]
kind = generic_sink

[binding.pulse]
expression = BERNOULLI(0.2) and gate == 1
actuator = stim

[binding.steer]
expression = BERNOULLI(0.5) and BERNOULLI(0.5) and gate == 1
actuator = sink
"""


def test_every_draw_uses_its_own_counter_block(tmp_path, monkeypatch):
    """Each (source, position, stream) draw of a short loop and a noisy sweep
    runs in its own Philox counter block (key, position, stream): word 0 stays
    below 2**32, so it never carries into the position word."""
    blocks = []  # (key, position, stream, counter after the draw)
    pending = []  # draws made since the last at()
    real_at = streams.Source.at

    def settle():
        for bits, position, stream in pending:
            state = bits.state["state"]
            key = tuple(state["key"].tolist())
            blocks.append((key, position, stream, tuple(state["counter"].tolist())))
        pending.clear()

    def at(self, position, stream=0):
        settle()
        generator = real_at(self, position, stream)
        pending.append((generator.bit_generator, position, stream))
        return generator

    monkeypatch.setattr(streams.Source, "at", at)
    cycles, points = 50, 8
    Runtime(parse_config(DRAW_RUN_INI), out_dir=tmp_path).run(cycles=cycles)
    respond = sweep_responder(TissueModel(), gain=1000.0, noise_rms=1e-4, seed=5)
    run_sweep(SweepSpec(points=points), respond, gain=1000.0)
    settle()
    monkeypatch.undo()

    # readings, 2 bindings, 2 impedance channels over 5 slots, the sweep
    assert len(blocks) == cycles + 2 * cycles + 2 * 5 + points
    # one key per source: reading, impedance, Bernoulli and sweep noise
    assert len({key for key, *_ in blocks}) == 4
    for key, position, stream, counter in blocks:
        assert counter[1:] == (position, stream, 0)
        assert 0 < counter[0] < 2**32
    # the old impedance key [seed, stream, 0] drew the reading noise at
    # t = stream; now the two are different draws
    for stream in range(4):
        reading = streams.Source(5, streams.READING_NOISE).at(stream)
        impedance = streams.Source(5, streams.IMPEDANCE_NOISE).at(0, stream)
        assert not np.array_equal(
            reading.standard_normal(16), impedance.standard_normal(16)
        )


SOURCES = (
    streams.READING_NOISE,
    streams.IMPEDANCE_NOISE,
    streams.BERNOULLI,
    streams.SWEEP_NOISE,
)


def _draw(generator, kind, n):
    if kind == "normal":
        return generator.standard_normal(n)
    if kind == "uniform":
        return generator.uniform(size=n)
    # float32 draws take 32-bit halves and can leave one pending
    return generator.random(n, dtype=np.float32)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    calls=st.lists(
        st.tuples(
            st.sampled_from(SOURCES),
            st.integers(0, 2**63),
            st.integers(0, 15),
            st.sampled_from(("normal", "uniform", "float32")),
            st.integers(1, 9),
        ),
        min_size=1,
        max_size=25,
    ),
)
def test_interleaved_draws_equal_fresh_draws(seed, calls):
    shared = {tag: streams.Source(seed, tag) for tag in SOURCES}
    for tag, position, stream, kind, n in calls:
        got = _draw(shared[tag].at(position, stream), kind, n)
        fresh = _draw(streams.Source(seed, tag).at(position, stream), kind, n)
        assert np.array_equal(got, fresh)


def array_state_generator(seed, tag, position, stream):
    """A generator positioned by a state dict of uint64 arrays, as numpy
    itself reports it: the form Source.at set before it took Python ints."""
    bits = np.random.Philox(np.random.SeedSequence([seed, tag]))
    bits.state = {
        "bit_generator": "Philox",
        "state": {
            "counter": np.array([0, position, stream, 0], dtype=np.uint64),
            "key": bits.state["state"]["key"],
        },
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return np.random.Generator(bits)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    tag=st.sampled_from(SOURCES),
    steps=st.lists(
        st.tuples(
            st.integers(0, 2**63),
            st.integers(0, 2**63),
            st.sampled_from(("normal", "uniform", "float32")),
            st.integers(1, 9),
        ),
        min_size=1,
        max_size=10,
    ),
)
def test_a_source_positioned_by_ints_draws_what_uint64_arrays_draw(seed, tag, steps):
    source = streams.Source(seed, tag)
    for position, stream, kind, n in steps:
        got = _draw(source.at(position, stream), kind, n)
        want = _draw(array_state_generator(seed, tag, position, stream), kind, n)
        assert got.tobytes() == want.tobytes()


class DrawRecorder:
    """An expression stand-in that keeps the uniforms the engine hands it."""

    def __init__(self, n_bernoulli):
        self.n_bernoulli = n_bernoulli
        self.draws = []

    def evaluate(self, vector, uniforms, adjust):
        self.draws.append(uniforms)
        return False


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    counts=st.lists(st.integers(0, 3), min_size=1, max_size=4),
    times=st.lists(st.integers(0, 2**40), min_size=1, max_size=6, unique=True),
)
def test_engine_draws_are_the_sources_uniforms_bit_for_bit(seed, counts, times):
    recorders = [DrawRecorder(n) for n in counts]
    engine = ActuationEngine(
        [Binding(f"b{i}", rec, Sink()) for i, rec in enumerate(recorders)], seed=seed
    )
    for now_ms in sorted(times):
        engine.cycle({}, now_ms)
    source = streams.Source(seed, streams.BERNOULLI)
    for stream, rec in enumerate(recorders):
        assert len(rec.draws) == len(times)
        for now_ms, got in zip(sorted(times), rec.draws):
            want = source.at(now_ms, stream).uniform(size=rec.n_bernoulli)
            assert [v.hex() for v in map(float, got)] == [
                v.hex() for v in want.tolist()
            ]


def test_source_rejects_negative_seed_position_and_stream():
    with pytest.raises(ValueError):
        streams.Source(-1, streams.BERNOULLI)
    source = streams.Source(0, streams.BERNOULLI)
    with pytest.raises(ValueError):
        source.at(-1)
    with pytest.raises(ValueError):
        source.at(0, -1)


def test_engine_rejects_duplicate_binding_ids():
    with pytest.raises(ValueError):
        ActuationEngine([binding("a == 1"), binding("a == 2")])


def test_firing_record_contents():
    sink = Sink()
    engine = ActuationEngine([binding("a == 1", sink, payload="v={a}")])
    out = engine.cycle({"a": 1.0}, 123_000)
    assert out == [Firing("b1", 123_000, "v=1.0")]
    assert sink.calls == [(123_000, "b1", "v=1.0")]


def test_engine_counts_dispatch_errors_and_keeps_going():
    jammed = Relay("led")
    sink = Sink()
    engine = ActuationEngine(
        [
            binding("a == 1", jammed, id="bad", payload="explode"),
            binding("a == 1", sink, id="good"),
        ]
    )
    out = engine.cycle({"a": 1.0}, 1000)
    assert engine.dispatch_errors == 1
    assert [f.binding_id for f in out] == ["good"]
    assert sink.calls == [(1000, "good", "fired")]

    # a payload that cannot render fails its dispatch, not the cycle
    engine = ActuationEngine(
        [
            binding("a == 1", Sink(), id="bad", payload="x {a:q}"),
            binding("a == 1", sink, id="good"),
        ]
    )
    out = engine.cycle({"a": 1.0}, 2000)
    assert engine.dispatch_errors == 1
    assert [f.binding_id for f in out] == ["good"]


def test_failed_dispatch_still_starts_cooldown():
    jammed = Relay("led")
    engine = ActuationEngine(
        [binding("a == 1", jammed, payload="explode", cooldown_s=5.0)]
    )
    engine.cycle({"a": 1.0}, 0)
    assert engine.dispatch_errors == 1
    engine.cycle({"a": -1.0}, 1000)
    # this rise lands inside the refractory window opened by the failed
    # dispatch, so the error count must not grow
    engine.cycle({"a": 1.0}, 2000)
    assert engine.dispatch_errors == 1


def test_homeostat_config_validation():
    with pytest.raises(ValueError):
        HomeostatConfig(alpha=0.0)
    with pytest.raises(ValueError):
        HomeostatConfig(step=1.0)
    with pytest.raises(ValueError):
        HomeostatConfig(lo=2.0, hi=10.0)
    assert not HomeostatConfig().enabled
    assert HomeostatConfig(target_per_cycle=0.1).enabled


def test_homeostat_suppresses_overactive_binding():
    # steering drives the adjustment to its ceiling, suppressing the rate
    # from ~0.45 per cycle toward min(1, 0.9/10)/2 = 0.045; the clamp caps
    # how far the homeostat may throttle, so firing never stops entirely.
    # After a run of misses the smoothed rate dips below target and the
    # adjustment steps down from the ceiling, so it sits there in most late
    # cycles (55-81% per seed), not in all: count the share over ten seeds.
    n, late, seeds = 4000, 1000, range(1, 11)
    at_ceiling = 0
    for seed in seeds:
        b = binding(
            "a == 1 AND BERNOULLI(0.9)",
            Sink(),
            homeostat=HomeostatConfig(target_per_cycle=0.02, alpha=0.05),
        )
        engine = ActuationEngine([b], seed=seed)
        fires_steady = 0
        for t in range(n):
            # alternating gate so every true cycle is a fresh rising edge
            vec = {"a": 1.0 if t % 2 == 0 else -1.0}
            fired = bool(engine.cycle(vec, t * 1000))
            state = engine.state_of("b1")
            assert 0.1 <= state.adjust <= 10.0
            if t >= n - late:
                fires_steady += fired
                at_ceiling += state.adjust == 10.0
        assert 0 < fires_steady < 100
    assert at_ceiling / (late * len(seeds)) > 0.5


def test_homeostat_boosts_starved_binding():
    sink = Sink()
    b = binding(
        "a == 1 AND BERNOULLI(0.05)",
        sink,
        homeostat=HomeostatConfig(target_per_cycle=0.45, alpha=0.05),
    )
    engine = ActuationEngine([b], seed=2)
    for t in range(2000):
        engine.cycle({"a": 1.0 if t % 2 == 0 else -1.0}, t * 1000)
    # underfiring drives the adjustment below 1, boosting the probability
    assert engine.state_of("b1").adjust < 1.0


def test_numpy_scalar_readings_fire_like_floats():
    # a comparison returns Python's True even for a numpy reading, and the
    # engine fires only on `is True`
    assert Expression("x > 1").evaluate({"x": np.float64(2.0)}) is True
    assert Expression("x > 1").evaluate({"x": np.float64(0.5)}) is False
    sink = Sink()
    engine = ActuationEngine([binding("a == 1 and b > 2", sink)])
    engine.cycle({"a": np.float64(1.0), "b": np.float64(3.0)}, 0)
    assert [c[0] for c in sink.calls] == [0]
