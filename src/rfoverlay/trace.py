"""Trace records: one structured line per event, machine-diffable.

A trace is the ordered record of everything observable in a run: joins,
availability toggles, publications, deliveries, subscription changes, and
node view changes. Serialization is line-oriented JSON with a fixed field
order (time, kind, node, detail), so equal runs produce byte-equal files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import IO, Iterable

from .bus import (
    NULL,
    DeliveryRecord,
    Identity,
    JoinRecord,
    NodeId,
    OStRole,
    OStUpdate,
    Payload,
    Sample,
    TopicKey,
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

KINDS = (
    KIND_JOIN,
    KIND_TOGGLE,
    KIND_PUBLISH,
    KIND_DELIVER,
    KIND_SUBSCRIBE,
    KIND_UNSUBSCRIBE,
    KIND_VIEW_CHANGE,
)


@dataclass(frozen=True, slots=True)
class TraceEvent:
    time: int
    kind: str
    node: NodeId | None
    detail: dict

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise TraceError(f"unknown event kind {self.kind!r}")


Trace = list[TraceEvent]


# ---------------------------------------------------------------------------
# Value codecs


def payload_to_obj(payload: Payload) -> dict:
    if isinstance(payload, Identity):
        return {"type": "identity", "node": payload.node}
    if isinstance(payload, JoinRecord):
        return {"type": "join_record", "node": payload.node}
    if isinstance(payload, OStUpdate):
        return {"type": "ost_update", "role": payload.role.value, "who": payload.who}
    return {"type": "null"}


def _int(value: object) -> int:
    """A JSON integer as it stands: no coercion of bools, floats or strings."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise TypeError(f"expected an integer, got {value!r}")


def payload_from_obj(obj: dict) -> Payload:
    try:
        kind = obj["type"]
        if kind == "identity":
            return Identity(_int(obj["node"]))
        if kind == "join_record":
            return JoinRecord(_int(obj["node"]))
        if kind == "ost_update":
            return OStUpdate(OStRole(obj["role"]), _int(obj["who"]))
        if kind == "null":
            return NULL
    except (KeyError, TypeError, ValueError) as exc:
        raise TraceError(f"bad payload object {obj!r}") from exc
    raise TraceError(f"bad payload object {obj!r}")


def key_to_obj(key: TopicKey) -> dict:
    obj: dict = {"topic": key.topic.value}
    if key.instance is not None:
        obj["instance"] = key.instance
    return obj


def tre_to_obj(tre: NextAvailable) -> dict:
    if isinstance(tre, Hint):
        return {"kind": "hint", "node": tre.node}
    if isinstance(tre, TrustOre):
        return {"kind": "trust_ore"}
    return {"kind": "system_empty"}


def tre_from_obj(obj: dict) -> NextAvailable:
    try:
        kind = obj["kind"]
        if kind == "hint":
            return Hint(_int(obj["node"]))
        if kind == "trust_ore":
            return TRUST_ORE
        if kind == "system_empty":
            return SYSTEM_EMPTY
    except (KeyError, TypeError, ValueError) as exc:
        raise TraceError(f"bad tre object {obj!r}") from exc
    raise TraceError(f"bad tre object {obj!r}")


def view_to_obj(view: NodeView) -> dict:
    return {
        "me": view.me,
        "ose": view.ose,
        "ore": view.ore,
        "tre": tre_to_obj(view.tre),
        "state": view.state.value,
        "joining": view.joining,
    }


def traced_view_fields(view: NodeView) -> tuple:
    """The fields view_to_obj writes, but `me`, which never changes."""
    return (view.ose, view.ore, view.tre, view.state, view.joining)


def parse_toggle(event: TraceEvent, last_interval: int) -> tuple[int, Availability]:
    """The interval and target state of a toggle event.

    `last_interval` is the interval of the previous toggle (-1 before the
    first); toggle intervals must not go backwards.
    """
    try:
        interval = _int(event.detail["interval"])
        to_state = Availability(event.detail["to"])
    except (KeyError, TypeError, ValueError) as exc:
        raise TraceError(f"bad toggle detail {event.detail!r}") from exc
    if interval < last_interval:
        raise TraceError("toggle intervals must not go backwards")
    return interval, to_state


# ---------------------------------------------------------------------------
# Recorder


@dataclass
class TraceRecorder:
    """Accumulates trace events as a run progresses."""

    events: Trace = field(default_factory=list)

    def record(self, time: int, kind: str, node: NodeId | None, detail: dict) -> None:
        self.events.append(TraceEvent(time=time, kind=kind, node=node, detail=detail))

    def join(self, time: int, node: NodeId) -> None:
        self.record(time, KIND_JOIN, node, {})

    def toggle(self, time: int, node: NodeId, to: Availability, interval: int) -> None:
        self.record(time, KIND_TOGGLE, node, {"to": to.value, "interval": interval})

    def publish(self, sample: Sample) -> None:
        self.record(
            sample.time,
            KIND_PUBLISH,
            sample.publisher,
            {"key": key_to_obj(sample.key), "payload": payload_to_obj(sample.payload), "seq": sample.seq},
        )

    def deliver(self, record: DeliveryRecord) -> None:
        sample = record.sample
        self.record(
            record.time,
            KIND_DELIVER,
            record.subscriber,
            {
                "key": key_to_obj(sample.key),
                "payload": payload_to_obj(sample.payload),
                "publisher": sample.publisher,
                "seq": sample.seq,
            },
        )

    def subscribe(self, time: int, node: NodeId, key: TopicKey) -> None:
        self.record(time, KIND_SUBSCRIBE, node, {"key": key_to_obj(key)})

    def unsubscribe(self, time: int, node: NodeId, key: TopicKey) -> None:
        self.record(time, KIND_UNSUBSCRIBE, node, {"key": key_to_obj(key)})

    def view_change(self, time: int, node: NodeId, view: NodeView) -> None:
        self.record(time, KIND_VIEW_CHANGE, node, {"view": view_to_obj(view)})


# ---------------------------------------------------------------------------
# Serialization


# One encoder for every line: json.dumps with non-default separators builds a
# new JSONEncoder on each call.
_LINE_ENCODER = json.JSONEncoder(separators=(",", ":"))


def event_to_json(event: TraceEvent) -> str:
    obj = {"time": event.time, "kind": event.kind, "node": event.node, "detail": event.detail}
    return _LINE_ENCODER.encode(obj)


def event_from_json(line: str) -> TraceEvent:
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise TraceError(f"unparsable trace line: {line!r}") from exc
    if not isinstance(obj, dict):
        raise TraceError(f"trace line is not a record: {line!r}")
    missing = {"time", "kind", "node", "detail"} - obj.keys()
    if missing:
        raise TraceError(f"trace line missing fields {sorted(missing)}: {line!r}")
    if not isinstance(obj["detail"], dict):
        raise TraceError(f"trace line detail is not a record: {line!r}")
    try:
        time = _int(obj["time"])
        node = obj["node"] if obj["node"] is None else _int(obj["node"])
    except TypeError as exc:
        raise TraceError(f"bad time or node in trace line: {line!r}") from exc
    return TraceEvent(time=time, kind=obj["kind"], node=node, detail=obj["detail"])


def dump_trace(events: Iterable[TraceEvent], stream: IO[str]) -> None:
    for event in events:
        stream.write(event_to_json(event))
        stream.write("\n")


def dumps_trace(events: Iterable[TraceEvent]) -> str:
    return "".join(event_to_json(event) + "\n" for event in events)


def load_trace(stream: IO[str]) -> Trace:
    events: Trace = []
    for line in stream:
        line = line.strip()
        if line:
            events.append(event_from_json(line))
    return events
