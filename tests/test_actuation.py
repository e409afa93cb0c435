"""Expression semantics, actuators, binding engine and homeostat tests."""

import itertools

import pytest

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
    Or,
    Relay,
    RgbLed,
    _and3,
    _iso_utc,
    _not3,
    _or3,
    parse_expression,
)


class Sink:
    """Recording actuator for tests."""

    def __init__(self, id="sink"):
        self.id = id
        self.calls = []

    def fire(self, now_ms, binding_id, payload):
        self.calls.append((now_ms, binding_id, payload))


# -- three-valued logic oracle: exhaustive truth tables


def test_kleene_tables():
    tri = (True, False, None)
    for a, b in itertools.product(tri, tri):
        want_and = False if (a is False or b is False) else (
            None if (a is None or b is None) else True
        )
        want_or = True if (a is True or b is True) else (
            None if (a is None or b is None) else False
        )
        assert _and3(a, b) == want_and
        assert _or3(a, b) == want_or
    assert _not3(True) is False
    assert _not3(False) is True
    assert _not3(None) is None


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


# -- no-data semantics


def test_no_data_comparison_is_unknown():
    expr = Expression("p == 1")
    assert expr.evaluate({"p": 0.0}) is None
    assert expr.evaluate({"p": 1.0}) is True
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
    assert Expression("NOT (p == 1)").evaluate(vec) is None


# -- spontaneous-fire guard


def test_guard_rejects_bare_not():
    with pytest.raises(ExpressionError, match="spontaneous"):
        parse_expression("NOT a == 1")


def test_guard_rejects_or_with_not_branch():
    with pytest.raises(ExpressionError):
        parse_expression("a == 1 OR NOT b == 1")


def test_guard_rejects_bare_bernoulli():
    with pytest.raises(ExpressionError):
        parse_expression("BERNOULLI(0.5)")


def test_guard_accepts_gated_not_and_bernoulli():
    parse_expression("a == 1 AND NOT b == 1")
    parse_expression("a == 1 AND BERNOULLI(0.25)")


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
        expression=parse_expression(expr_text),
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
    sink = Sink()
    b = binding(
        "a == 1 AND BERNOULLI(0.9)",
        sink,
        homeostat=HomeostatConfig(target_per_cycle=0.02, alpha=0.05),
    )
    engine = ActuationEngine([b], seed=1)
    fires_steady = 0
    n = 4000
    for t in range(n):
        # alternating gate so every true cycle is a fresh rising edge
        vec = {"a": 1.0 if t % 2 == 0 else -1.0}
        fired = bool(engine.cycle(vec, t * 1000))
        state = engine.state_of("b1")
        assert 0.1 <= state.adjust <= 10.0
        if t >= n - 1000:
            fires_steady += fired
    # steering drives the adjustment to its ceiling, suppressing the rate
    # from ~0.45 per cycle toward min(1, 0.9/10)/2 = 0.045; the clamp caps
    # how far the homeostat may throttle, so firing never stops entirely
    assert engine.state_of("b1").adjust == 10.0
    assert 0 < fires_steady < 100


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
