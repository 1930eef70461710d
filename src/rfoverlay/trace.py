"""Trace records: typed events in memory, one JSON line per event on file.

A trace is the ordered record of everything observable in a run: joins,
availability toggles, publications, deliveries, subscription changes, and
node view changes. Each TraceEvent holds the engine's own values for its kind
(see TraceEvent), so recording builds no dict and verification reads the
values as they are.

JSON exists only in the codec. event_to_json writes a line with a fixed field
order (time, kind, node, detail), so equal runs produce byte-equal files.
event_from_json checks every field of a line and decodes it into the same
values, so a line the engine could not have written is a TraceError.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import IO, Any, Iterable, NamedTuple

from .bus import (
    NULL,
    BusError,
    DeliveryRecord,
    Identity,
    JoinRecord,
    NodeId,
    OStRole,
    OStUpdate,
    Payload,
    Sample,
    TopicKey,
    TopicName,
)
from .protocol import (
    SYSTEM_EMPTY,
    TRUST_ORE,
    Availability,
    Hint,
    NextAvailable,
    NodeView,
    TrustOre,
)


class TraceError(ValueError):
    """A trace line or event stream that does not parse or add up."""


KIND_JOIN = "Join"
KIND_TOGGLE = "Toggle"
KIND_PUBLISH = "Publish"
KIND_DELIVER = "Deliver"
KIND_SUBSCRIBE = "Subscribe"
KIND_UNSUBSCRIBE = "Unsubscribe"
KIND_VIEW_CHANGE = "ViewChange"


class TraceEvent(NamedTuple):
    """One trace line. `value` holds exactly what the kind's detail writes:

    - Join: None
    - Toggle: (Availability, interval)
    - Publish, Deliver: (TopicKey, Payload, publisher, seq); a Publish line
      does not write the publisher, which is its node
    - Subscribe, Unsubscribe: the TopicKey
    - ViewChange: traced_view_fields(view); the view's `me` is the node
    """

    time: int
    kind: str
    node: NodeId
    value: Any

    @property
    def detail(self) -> dict:
        """The line's detail as JSON values, decoded from its text."""
        return json.loads(_detail_json(self))


Trace = list[TraceEvent]


def traced_view_fields(view: NodeView) -> tuple:
    """The view fields a ViewChange line writes, but `me`, which never changes."""
    return (view.ose, view.ore, view.tre, view.state, view.joining)


# ---------------------------------------------------------------------------
# Recorder


@dataclass
class TraceRecorder:
    """Accumulates trace events as a run progresses, one per call."""

    events: Trace = field(default_factory=list)

    def join(self, time: int, node: NodeId) -> None:
        self.events.append(TraceEvent(time, KIND_JOIN, node, None))

    def toggle(self, time: int, node: NodeId, to: Availability, interval: int) -> None:
        self.events.append(TraceEvent(time, KIND_TOGGLE, node, (to, interval)))

    def publish(self, sample: Sample) -> None:
        value = (sample.key, sample.payload, sample.publisher, sample.seq)
        self.events.append(TraceEvent(sample.time, KIND_PUBLISH, sample.publisher, value))

    def deliver(self, record: DeliveryRecord) -> None:
        sample = record.sample
        value = (sample.key, sample.payload, sample.publisher, sample.seq)
        self.events.append(TraceEvent(record.time, KIND_DELIVER, record.subscriber, value))

    def subscribe(self, time: int, node: NodeId, key: TopicKey) -> None:
        self.events.append(TraceEvent(time, KIND_SUBSCRIBE, node, key))

    def unsubscribe(self, time: int, node: NodeId, key: TopicKey) -> None:
        self.events.append(TraceEvent(time, KIND_UNSUBSCRIBE, node, key))

    def view_change(self, time: int, node: NodeId, fields: tuple) -> None:
        """`fields` is traced_view_fields of the node's new view."""
        self.events.append(TraceEvent(time, KIND_VIEW_CHANGE, node, fields))


# ---------------------------------------------------------------------------
# Encoding: every value is an int, a bool or a fixed enum string, so lines are
# written as text with nothing to escape. json.dumps with separators
# (",", ":") is the reference (tests/test_sim.py checks it).

# A key's fragment is written once: a run names the same few keys per node.
_KEY_JSON: dict[TopicKey, str] = {}


def _key_json(key: TopicKey) -> str:
    text = _KEY_JSON.get(key)
    if text is None:
        instance = "" if key.instance is None else f',"instance":{key.instance}'
        text = _KEY_JSON[key] = f'{{"topic":"{key.topic.value}"{instance}}}'
    return text


def _payload_json(payload: Payload) -> str:
    if isinstance(payload, Identity):
        return f'{{"type":"identity","node":{payload.node}}}'
    if isinstance(payload, JoinRecord):
        return f'{{"type":"join_record","node":{payload.node}}}'
    if isinstance(payload, OStUpdate):
        return f'{{"type":"ost_update","role":"{payload.role.value}","who":{payload.who}}}'
    return '{"type":"null"}'


def _tre_json(tre: NextAvailable) -> str:
    if isinstance(tre, Hint):
        return f'{{"kind":"hint","node":{tre.node}}}'
    if isinstance(tre, TrustOre):
        return '{"kind":"trust_ore"}'
    return '{"kind":"system_empty"}'


def _detail_json(event: TraceEvent) -> str:
    kind, value = event.kind, event.value
    if kind == KIND_VIEW_CHANGE:
        ose, ore, tre, state, joining = value
        return (
            f'{{"view":{{"me":{event.node},"ose":{ose},"ore":{ore},"tre":{_tre_json(tre)},'
            f'"state":"{state.value}","joining":{"true" if joining else "false"}}}}}'
        )
    if kind == KIND_DELIVER or kind == KIND_PUBLISH:
        key, payload, publisher, seq = value
        head = f'{{"key":{_key_json(key)},"payload":{_payload_json(payload)},'
        if kind == KIND_PUBLISH:
            return f'{head}"seq":{seq}}}'
        return f'{head}"publisher":{publisher},"seq":{seq}}}'
    if kind == KIND_SUBSCRIBE or kind == KIND_UNSUBSCRIBE:
        return f'{{"key":{_key_json(value)}}}'
    if kind == KIND_TOGGLE:
        to, interval = value
        return f'{{"to":"{to.value}","interval":{interval}}}'
    if kind == KIND_JOIN:
        return "{}"
    raise TraceError(f"unknown event kind {kind!r}")


def event_to_json(event: TraceEvent) -> str:
    return (
        f'{{"time":{event.time},"kind":"{event.kind}","node":{event.node},'
        f'"detail":{_detail_json(event)}}}'
    )


# ---------------------------------------------------------------------------
# Decoding: JSON values are taken as they stand, never coerced, and each
# object must hold exactly the fields the encoder writes. A bad value raises
# KeyError, TypeError, ValueError or BusError, which event_from_json turns
# into one TraceError showing the line.


def _int(value: object) -> int:
    """A JSON integer as it stands: no coercion of bools, floats or strings."""
    if type(value) is int:
        return value
    raise TypeError("expected an integer")


def _fields(obj: object, *names: str) -> list:
    """The values of a JSON object that holds exactly `names`, in that order."""
    if type(obj) is not dict or len(obj) != len(names):
        raise TypeError(f"expected an object of {names}")
    return [obj[name] for name in names]


def _key(obj: object) -> TopicKey:
    if type(obj) is dict and len(obj) == 1:
        return TopicKey(TopicName(_fields(obj, "topic")[0]))
    topic, instance = _fields(obj, "topic", "instance")
    return TopicKey(TopicName(topic), _int(instance))


def _payload(obj: object) -> Payload:
    kind = obj["type"] if type(obj) is dict else None
    if kind == "identity":
        return Identity(_int(_fields(obj, "type", "node")[1]))
    if kind == "join_record":
        return JoinRecord(_int(_fields(obj, "type", "node")[1]))
    if kind == "ost_update":
        _, role, who = _fields(obj, "type", "role", "who")
        return OStUpdate(OStRole(role), _int(who))
    if _fields(obj, "type") == ["null"]:
        return NULL
    raise ValueError("unknown payload type")


def _tre(obj: object) -> NextAvailable:
    if type(obj) is dict and obj.get("kind") == "hint":
        return Hint(_int(_fields(obj, "kind", "node")[1]))
    (kind,) = _fields(obj, "kind")
    if kind == "trust_ore":
        return TRUST_ORE
    if kind == "system_empty":
        return SYSTEM_EMPTY
    raise ValueError("unknown tre kind")


def _detail_value(kind: str, node: NodeId, detail: object) -> Any:
    """The value of a line of `kind` by `node` from its detail."""
    if kind == KIND_VIEW_CHANGE:
        (view,) = _fields(detail, "view")
        me, ose, ore, tre, state, joining = _fields(
            view, "me", "ose", "ore", "tre", "state", "joining"
        )
        if _int(me) != node or type(joining) is not bool:
            raise ValueError("a view's me is its node, and joining is a bool")
        return _int(ose), _int(ore), _tre(tre), Availability(state), joining
    if kind == KIND_DELIVER:
        key, payload, publisher, seq = _fields(detail, "key", "payload", "publisher", "seq")
        return _key(key), _payload(payload), _int(publisher), _int(seq)
    if kind == KIND_PUBLISH:
        key, payload, seq = _fields(detail, "key", "payload", "seq")
        return _key(key), _payload(payload), node, _int(seq)
    if kind == KIND_SUBSCRIBE or kind == KIND_UNSUBSCRIBE:
        return _key(_fields(detail, "key")[0])
    if kind == KIND_TOGGLE:
        to, interval = _fields(detail, "to", "interval")
        return Availability(to), _int(interval)
    if kind == KIND_JOIN:
        _fields(detail)
        return None
    raise ValueError("unknown event kind")


def _bad_line(reason: str, line: str) -> TraceError:
    """A TraceError that shows at most 80 characters of the line."""
    clipped = repr(line[:80]) + ("..." if len(line) > 80 else "")
    return TraceError(f"{reason}: {clipped}")


def event_from_json(line: str) -> TraceEvent:
    try:
        obj = json.loads(line)
    except RecursionError:
        raise _bad_line("trace line nested too deeply", line) from None
    except ValueError:  # JSONDecodeError, or an integer too long to convert
        raise _bad_line("unparsable trace line", line) from None
    try:
        time, kind, node, detail = _fields(obj, "time", "kind", "node", "detail")
        node = _int(node)
        return TraceEvent(_int(time), kind, node, _detail_value(kind, node, detail))
    except (KeyError, TypeError, ValueError, BusError):
        raise _bad_line("not a valid trace event", line) from None


def dump_trace(events: Iterable[TraceEvent], stream: IO[str]) -> None:
    for event in events:
        stream.write(event_to_json(event))
        stream.write("\n")


def dumps_trace(events: Iterable[TraceEvent]) -> str:
    return "".join(event_to_json(event) + "\n" for event in events)


def load_trace(stream: IO[str]) -> Trace:
    events: Trace = []
    try:
        for line in stream:
            line = line.strip()
            if line:
                events.append(event_from_json(line))
    except UnicodeDecodeError as exc:
        raise TraceError(f"trace is not UTF-8 text: {exc}") from None
    return events
