"""Detector-to-actuator wiring: trigger expressions, actuators, homeostat.

Bindings couple a boolean expression over the detector output vector to an
actuator.  Expressions use strong Kleene three-valued logic: a comparison
touching a detector entry that still reads `detectors.NO_DATA` (0.0) is unknown
rather than false, and unknown never fires an actuator.  Comparing explicitly
against a literal 0 opts out of that rule, which is how pathogenicity green
(status 0) stays testable.

Every expression is provably quiet on an idle bench.  Each comparison reads
a detector, and not the same one on both sides, so each can be false; with
every comparison false and every BERNOULLI true the expression has to come
out false, or Expression refuses its text, so a binding built in code is held
to the same rule as a configured one.  This closes the door on
NOT-constructions that would actuate spontaneously.

A per-binding homeostat tracks the smoothed firing rate and scales the
probability of the expression's BERNOULLI terms to steer the rate toward a
target, within a bounded adjustment factor.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Protocol, Sequence

from . import streams
from .channels import check_unique_names
from .detectors import NO_DATA

_CMP_OPS = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


@dataclass(frozen=True)
class Cmp:
    lhs: str | float  # a detector id or a literal
    op: str
    rhs: str | float
    # a literal 0 on either side opts out of the no-data rule
    no_data_unknown: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "no_data_unknown", 0.0 not in (self.lhs, self.rhs))

    def eval(self, vector, uniforms, adjust) -> bool | None:
        a, b = self.lhs, self.rhs
        if type(a) is str:
            a = vector[a]
            if a == NO_DATA and self.no_data_unknown:
                return None  # no data yet
        if type(b) is str:
            b = vector[b]
            if b == NO_DATA and self.no_data_unknown:
                return None
        return bool(_CMP_OPS[self.op](a, b))


@dataclass(frozen=True)
class Bernoulli:
    p: float
    index: int  # position in the expression's uniform draw

    def eval(self, vector, uniforms, adjust) -> bool | None:
        return bool(uniforms[self.index] < min(1.0, self.p / adjust))


@dataclass(frozen=True)
class Not:
    item: object

    def eval(self, vector, uniforms, adjust) -> bool | None:
        out = self.item.eval(vector, uniforms, adjust)
        return None if out is None else not out


@dataclass(frozen=True)
class And:
    items: tuple

    def eval(self, vector, uniforms, adjust) -> bool | None:
        out: bool | None = True
        for item in self.items:
            value = item.eval(vector, uniforms, adjust)
            if value is False:
                return False
            if value is None:
                out = None
        return out


@dataclass(frozen=True)
class Or:
    items: tuple

    def eval(self, vector, uniforms, adjust) -> bool | None:
        out: bool | None = False
        for item in self.items:
            value = item.eval(vector, uniforms, adjust)
            if value is True:
                return True
            if value is None:
                out = None
        return out


def _fires_idle(node) -> bool:
    """The node on an idle bench: every comparison false, every BERNOULLI true."""
    if isinstance(node, Cmp):
        return False
    if isinstance(node, Bernoulli):
        return True
    if isinstance(node, Not):
        return not _fires_idle(node.item)
    return (all if isinstance(node, And) else any)(map(_fires_idle, node.items))


class ExpressionError(ValueError):
    """Malformed or unsafe trigger expression."""


_TOKEN_RE = re.compile(
    r"\s*(?:"
    r"(?P<num>[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>==|!=|<=|>=|<|>|\(|\))"
    r"|(?P<bad>\S)"  # the first character no token matches
    r")"
)

_KEYWORDS = {"and", "or", "not", "bernoulli"}


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind, value = m.lastgroup, m.group(m.lastgroup)
        if kind == "bad":
            rest = text[m.start(kind):].strip()
            raise ExpressionError(f"cannot tokenize near {rest[:20]!r}")
        if kind == "name" and value.lower() in _KEYWORDS:
            kind, value = "kw", value.lower()
        tokens.append((kind, value))
    return tokens


class _Parser:
    def __init__(self, text: str) -> None:
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.n_bernoulli = 0
        self.names: set[str] = set()

    def peek(self) -> tuple[str, str] | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> tuple[str, str]:
        tok = self.peek()
        if tok is None:
            raise ExpressionError(f"unexpected end of expression: {self.text!r}")
        self.pos += 1
        return tok

    def expect(self, kind: str, value: str) -> None:
        tok = self.take()
        if tok != (kind, value):
            raise ExpressionError(f"expected {value!r}, got {tok[1]!r} in {self.text!r}")

    def parse(self):
        node = self.parse_or()
        if self.peek() is not None:
            raise ExpressionError(f"trailing input after expression: {self.text!r}")
        return node

    def _chain(self, word: str, cls, parse_item):
        items = [parse_item()]
        while self.peek() == ("kw", word):
            self.take()
            items.append(parse_item())
        return items[0] if len(items) == 1 else cls(tuple(items))

    def parse_or(self):
        return self._chain("or", Or, self.parse_and)

    def parse_and(self):
        return self._chain("and", And, self.parse_not)

    def parse_not(self):
        if self.peek() == ("kw", "not"):
            self.take()
            return Not(self.parse_not())
        return self.parse_atom()

    def parse_atom(self):
        tok = self.peek()
        if tok == ("op", "("):
            self.take()
            node = self.parse_or()
            self.expect("op", ")")
            return node
        if tok == ("kw", "bernoulli"):
            self.take()
            self.expect("op", "(")
            p_tok = self.take()
            if p_tok[0] != "num":
                raise ExpressionError(f"BERNOULLI needs a numeric probability, got {p_tok[1]!r}")
            p = float(p_tok[1])
            if not (0.0 <= p <= 1.0):
                raise ExpressionError(f"BERNOULLI probability {p} outside [0, 1]")
            self.expect("op", ")")
            node = Bernoulli(p=p, index=self.n_bernoulli)
            self.n_bernoulli += 1
            return node
        return self.parse_comparison()

    def parse_comparison(self):
        lhs = self.parse_operand()
        tok = self.take()
        if tok[0] != "op" or tok[1] not in _CMP_OPS:
            raise ExpressionError(
                f"expected a comparison operator after operand in {self.text!r}"
            )
        rhs = self.parse_operand()
        if str not in (type(lhs), type(rhs)) or lhs == rhs:
            raise ExpressionError(
                f"a comparison in {self.text!r} must read a detector, "
                "and not the same one on both sides"
            )
        return Cmp(lhs=lhs, op=tok[1], rhs=rhs)

    def parse_operand(self):
        tok = self.take()
        if tok[0] == "num":
            return float(tok[1])
        if tok[0] == "name":
            self.names.add(tok[1])
            return tok[1]
        raise ExpressionError(f"expected a detector id or number, got {tok[1]!r}")


class Expression:
    """Parsed trigger expression over the detector output vector.

    Text that would fire on an idle bench (see _fires_idle) is refused.
    """

    def __init__(self, text: str) -> None:
        parser = _Parser(text)
        self.text = text
        self.root = parser.parse()
        if _fires_idle(self.root):
            raise ExpressionError(
                f"expression {text!r} can fire with no detector condition met; "
                "rewrite it without the spontaneous path"
            )
        self.n_bernoulli = parser.n_bernoulli
        self._identifiers = frozenset(parser.names)

    def __repr__(self) -> str:
        return f"Expression({self.text!r})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Expression) and other.text == self.text

    def __hash__(self) -> int:
        return hash(self.text)

    def identifiers(self) -> frozenset[str]:
        return self._identifiers

    def evaluate(
        self,
        vector: dict[str, float],
        uniforms: Sequence[float] = (),
        adjust: float = 1.0,
    ) -> bool | None:
        """Three-valued result: True fires, False and None (unknown) do not."""
        if len(uniforms) < self.n_bernoulli:
            raise ValueError(
                f"expression needs {self.n_bernoulli} uniform draws, got {len(uniforms)}"
            )
        return self.root.eval(vector, uniforms, adjust)


# -- actuators ----------------------------------------------------------------


class Actuator(Protocol):
    id: str

    def fire(self, now_ms: int, binding_id: str, payload: str) -> None: ...


def _iso_utc(now_ms: int) -> str:
    dt = datetime.fromtimestamp(now_ms / 1000.0, tz=timezone.utc)
    return dt.isoformat(timespec="milliseconds")


def firing_line(now_ms: int, binding_id: str, payload: str) -> str:
    """One firings.log line, also the datagram format: time, binding, payload."""
    return f"{_iso_utc(now_ms)}\t{binding_id}\t{payload}\n"


class MessageToFile:
    """Appends one timestamped line per firing to a text file.

    A write failure disables this actuator for the rest of the run (the
    file is considered gone); other actuators are unaffected.
    """

    def __init__(self, id: str, path: str = "") -> None:
        if not path:
            raise ValueError("message_to_file needs path")
        self.id = id
        self.path = path
        self._dead = False

    def fire(self, now_ms: int, binding_id: str, payload: str) -> None:
        if self._dead:
            raise OSError(f"file actuator {self.id!r} disabled after write failure")
        try:
            with open(self.path, "a", encoding="utf-8") as fh:
                fh.write(f"{_iso_utc(now_ms)}\t{payload}\n")
        except OSError:
            self._dead = True
            raise


class MessageToIp:
    """Queues one datagram line per firing for a host:port endpoint.

    The bench has no live network; datagrams are retained in .sent in wire
    format so tests and the replay tool can inspect exactly what would have
    left the box.
    """

    def __init__(self, id: str, host: str = "", port: int | None = None) -> None:
        if not host or port is None:
            raise ValueError("message_to_ip needs host and port")
        if not (0 < port < 65536):
            raise ValueError(f"port {port} out of range")
        self.id = id
        self.host = host
        self.port = port
        self.sent: list[str] = []

    def fire(self, now_ms: int, binding_id: str, payload: str) -> None:
        self.sent.append(firing_line(now_ms, binding_id, payload))


class Relay:
    """Latched on/off output; payload 'on', 'off' or 'toggle'."""

    def __init__(self, id: str) -> None:
        self.id = id
        self.state = False
        self.transitions: list[tuple[int, bool]] = []

    def parse(self, payload: str) -> str:
        """The payload's word, or ValueError; changes no state."""
        word = payload.strip().lower()
        if word not in ("on", "off", "toggle"):
            raise ValueError(f"relay {self.id!r}: bad payload {payload!r}")
        return word

    def fire(self, now_ms: int, binding_id: str, payload: str) -> None:
        word = self.parse(payload)
        new = not self.state if word == "toggle" else word == "on"
        if new != self.state:
            self.state = new
            self.transitions.append((now_ms, new))


class RgbLed:
    """Three latched LED components; payload like 'r=on g=toggle b=off'.

    Assignments are whitespace or comma separated and applied left to
    right, after the whole payload has been validated, so a bad word never
    leaves the register half-written.
    """

    _WORDS = ("on", "off", "toggle")

    def __init__(self, id: str) -> None:
        self.id = id
        self.state = {"r": False, "g": False, "b": False}
        self.transitions: list[tuple[int, str, bool]] = []

    def parse(self, payload: str) -> list[tuple[str, str]]:
        """The payload's (component, word) pairs, or ValueError; changes no state."""
        ops = []
        for part in payload.replace(",", " ").lower().split():
            comp, eq, word = part.partition("=")
            if not eq or comp not in self.state or word not in self._WORDS:
                raise ValueError(f"led {self.id!r}: bad assignment {part!r}")
            ops.append((comp, word))
        if not ops:
            raise ValueError(f"led {self.id!r}: empty payload")
        return ops

    def fire(self, now_ms: int, binding_id: str, payload: str) -> None:
        for comp, word in self.parse(payload):
            new = word == "on" if word != "toggle" else not self.state[comp]
            if new != self.state[comp]:
                self.state[comp] = new
                self.transitions.append((now_ms, comp, new))


class ElectricalStimulation:
    """Feeds a stimulation event back into the plant simulator.

    `target` is wired by the runtime (anything with add_electrical); firing
    unwired is an error so a misassembled bench cannot silently no-op.
    """

    def __init__(self, id: str, intensity: float = 1.0, target=None) -> None:
        if not (0.0 < intensity <= 1.0):
            raise ValueError(
                f"stimulation {id!r}: intensity {intensity} outside (0, 1]"
            )
        self.id = id
        self.intensity = float(intensity)
        self.target = target

    def fire(self, now_ms: int, binding_id: str, payload: str) -> None:
        if self.target is None:
            raise ValueError(f"stimulation {self.id!r} is not wired to a simulator")
        self.target.add_electrical(now_ms, intensity=self.intensity)


class GenericSink:
    """Catch-all endpoint standing in for sound, messaging or home devices:
    every command is retained in memory for inspection."""

    def __init__(self, id: str) -> None:
        self.id = id
        self.commands: list[tuple[int, str, str]] = []

    def fire(self, now_ms: int, binding_id: str, payload: str) -> None:
        self.commands.append((now_ms, binding_id, payload))


ACTUATOR_KINDS: dict[str, type] = {
    "relay": Relay,
    "rgb_led": RgbLed,
    "electrical_stimulation": ElectricalStimulation,
    "message_to_file": MessageToFile,
    "message_to_ip": MessageToIp,
    "generic_sink": GenericSink,
}


# -- bindings and the engine ---------------------------------------------------


@dataclass(frozen=True)
class HomeostatConfig:
    """Rate steering for one binding.

    The firing rate is smoothed with an exponential window (alpha per cycle).
    When it runs above target_per_cycle the adjustment factor grows by step,
    dividing the probability of every BERNOULLI term; below target it shrinks.
    The factor stays inside [lo, hi].
    """

    target_per_cycle: float = 0.0  # 0 disables the homeostat
    alpha: float = 0.05
    step: float = 1.05
    lo: float = 0.1
    hi: float = 10.0

    def __post_init__(self) -> None:
        if not self.target_per_cycle >= 0:
            raise ValueError(f"target rate must be >= 0, got {self.target_per_cycle}")
        if not (0.0 < self.alpha <= 1.0):
            raise ValueError(f"alpha {self.alpha} outside (0, 1]")
        if not self.step > 1.0:
            raise ValueError(f"step {self.step} must exceed 1")
        if not (0.0 < self.lo <= 1.0 <= self.hi):
            raise ValueError(f"need lo <= 1 <= hi, got [{self.lo}, {self.hi}]")

    @property
    def enabled(self) -> bool:
        return self.target_per_cycle > 0.0


@dataclass(frozen=True)
class Binding:
    """One detector-expression to actuator rule.

    Fires on the rising edge of its expression, then stays quiet for
    cooldown_s.  The payload may interpolate detector values with
    str.format placeholders, e.g. 'z={z1:.2f}'.  Neither holds a line break,
    nor the id a tab, so each firing stays one firing_line.
    """

    id: str
    expression: Expression
    actuator: Actuator
    payload: str = "fired"
    cooldown_s: float = 0.0
    homeostat: HomeostatConfig = field(default_factory=HomeostatConfig)

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("binding id must be non-empty")
        if any(c in self.id for c in "\t\n\r"):
            raise ValueError(f"binding id {self.id!r} holds a tab or line break")
        if any(c in self.payload for c in "\n\r"):
            raise ValueError(
                f"binding {self.id!r}: payload {self.payload!r} holds a line break"
            )
        if not self.cooldown_s >= 0:
            raise ValueError(
                f"binding {self.id!r}: cooldown must be >= 0, got {self.cooldown_s}"
            )

    def validate_against(self, detector_ids: frozenset[str] | set[str]) -> None:
        """Reject references to unknown detectors and payloads that cannot
        render or that the actuator's parse (relay, LED) refuses.

        The payload is rendered once with every detector at 0.0; vector
        entries are always floats, so a template that renders for 0.0
        renders for every reading, and no float renders as an actuator word.
        """
        unknown = self.expression.identifiers() - set(detector_ids)
        if unknown:
            raise ValueError(
                f"binding {self.id!r} references unknown detectors: {sorted(unknown)}"
            )
        try:
            rendered = self.render(dict.fromkeys(detector_ids, 0.0))
        except KeyError as exc:
            raise ValueError(
                f"binding {self.id!r} payload references unknown detector {exc}"
            ) from None
        except (AttributeError, TypeError, ValueError) as exc:
            raise ValueError(
                f"binding {self.id!r} payload {self.payload!r} cannot render: {exc}"
            ) from None
        parse = getattr(self.actuator, "parse", None)
        if parse is not None:
            parse(rendered)

    def render(self, vector: dict[str, float]) -> str:
        return self.payload.format_map(vector)


@dataclass(frozen=True)
class Firing:
    binding_id: str
    at_ms: int
    payload: str


class _BindingState:
    __slots__ = ("ew_rate", "adjust", "prev_true", "last_fire_ms")

    def __init__(self) -> None:
        self.ew_rate = 0.0
        self.adjust = 1.0
        self.prev_true = False
        self.last_fire_ms: int | None = None


class ActuationEngine:
    """Evaluates every binding once per cycle and drives the actuators.

    A binding's BERNOULLI uniforms at now_ms come from the Bernoulli source
    at position now_ms, stream the binding's index, so a run is reproducible
    sample for sample and bindings cannot influence each other's randomness.
    """

    def __init__(self, bindings: Sequence[Binding], seed: int = 0) -> None:
        check_unique_names("binding ids", [b.id for b in bindings])
        self.bindings = tuple(bindings)
        self.seed = int(seed)
        self.dispatch_errors = 0
        self._state = {b.id: _BindingState() for b in bindings}
        self._bernoulli = streams.Source(self.seed, streams.BERNOULLI)

    def state_of(self, binding_id: str) -> _BindingState:
        return self._state[binding_id]

    def cycle(self, vector: dict[str, float], now_ms: int) -> list[Firing]:
        firings: list[Firing] = []
        for stream, binding in enumerate(self.bindings):
            state = self._state[binding.id]
            n = binding.expression.n_bernoulli
            uniforms: Sequence[float] = ()
            if n:
                # random(n) gives uniform(size=n)'s bits without its scaling
                uniforms = self._bernoulli.at(int(now_ms), stream).random(n)
            result = binding.expression.evaluate(
                vector, uniforms, adjust=state.adjust
            )
            is_true = result is True
            cooling = (
                state.last_fire_ms is not None
                and (now_ms - state.last_fire_ms) < binding.cooldown_s * 1000.0
            )
            fired = is_true and not state.prev_true and not cooling
            state.prev_true = is_true
            if fired:
                # refractory and homeostat advance even if the payload cannot
                # render or dispatch fails: the decision to fire was made, only
                # the output misbehaved
                state.last_fire_ms = now_ms
                try:
                    payload = binding.render(vector)
                    binding.actuator.fire(now_ms, binding.id, payload)
                except Exception:
                    self.dispatch_errors += 1
                else:
                    firings.append(Firing(binding.id, now_ms, payload))
            self._steer(binding, state, fired)
        return firings

    @staticmethod
    def _steer(binding: Binding, state: _BindingState, fired: bool) -> None:
        cfg = binding.homeostat
        if not cfg.enabled:
            return
        state.ew_rate += cfg.alpha * ((1.0 if fired else 0.0) - state.ew_rate)
        if state.ew_rate > cfg.target_per_cycle:
            state.adjust = min(cfg.hi, state.adjust * cfg.step)
        else:
            state.adjust = max(cfg.lo, state.adjust / cfg.step)
