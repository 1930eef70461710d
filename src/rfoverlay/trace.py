"""Trace records: typed events in memory, one JSON line per event on file.

A trace is the ordered record of everything observable in a run: joins,
availability toggles, publications, deliveries, subscription changes, and
node view changes. Each TraceEvent holds the engine's own values for its kind
(see TraceEvent), so recording builds no dict and verification reads the
values as they are. Publish and Deliver events hold the bus's own Sample:
every Deliver of a publication holds the object its Publish holds.

JSON exists only in the codec. One encoder writes every line with a fixed
field order (time, kind, node, detail), so equal runs produce byte-equal
files: event_to_json, dumps_trace, dump_trace and TraceEvent.detail all run
it, and dump_trace writes its lines in fixed-size chunks, one write each.
event_from_json checks every field of a line and decodes it into the same
values, so a line the engine could not have written is a TraceError.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import islice
from typing import IO, Any, Container, Iterable, Iterator, NamedTuple

from .bus import BusError, NodeId, Sample, TopicKey, TopicName, check_payload
from .protocol import NodeView

# A line writes a node's availability as a word.
_AVAILABILITY = {"available": True, "unavailable": False}


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
    - Toggle: (available, interval), `available` a bool
    - Publish, Deliver: the bus's Sample (key, payload, publisher, seq); a
      Publish line does not write the publisher, which is its node
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
        return json.loads(next(_encode((self,))))["detail"]


Trace = list[TraceEvent]


def traced_view_fields(view: NodeView) -> tuple:
    """The view fields a ViewChange line writes: all but `me`, which is the
    line's node."""
    return (view.ose, view.ore, view.tre, view.available, view.joining)


# ---------------------------------------------------------------------------
# Recorder


# Calling TraceEvent(...) runs the named tuple's generated Python __new__.
# tuple.__new__ builds the same tuple in one C call (what NamedTuple._make
# does), in under half the time, and a run records one event per bus step.
_tuple_new = tuple.__new__


@dataclass
class TraceRecorder:
    """Accumulates trace events as a run progresses, one per call."""

    events: Trace = field(default_factory=list)

    def join(self, time: int, node: NodeId) -> None:
        self.events.append(_tuple_new(TraceEvent, (time, KIND_JOIN, node, None)))

    def toggle(self, time: int, node: NodeId, to: bool, interval: int) -> None:
        self.events.append(_tuple_new(TraceEvent, (time, KIND_TOGGLE, node, (to, interval))))

    def publish(self, time: int, sample: Sample) -> None:
        self.events.append(_tuple_new(TraceEvent, (time, KIND_PUBLISH, sample.publisher, sample)))

    def deliver(self, time: int, node: NodeId, sample: Sample) -> None:
        self.events.append(_tuple_new(TraceEvent, (time, KIND_DELIVER, node, sample)))

    def subscribe(self, time: int, node: NodeId, key: TopicKey) -> None:
        self.events.append(_tuple_new(TraceEvent, (time, KIND_SUBSCRIBE, node, key)))

    def unsubscribe(self, time: int, node: NodeId, key: TopicKey) -> None:
        self.events.append(_tuple_new(TraceEvent, (time, KIND_UNSUBSCRIBE, node, key)))

    def view_change(self, time: int, node: NodeId, fields: tuple) -> None:
        """`fields` is traced_view_fields of the node's new view."""
        self.events.append(_tuple_new(TraceEvent, (time, KIND_VIEW_CHANGE, node, fields)))


# ---------------------------------------------------------------------------
# Encoding: every value is an int, a bool, null or a fixed word, so
# lines are written as text with nothing to escape. json.dumps with
# separators (",", ":") is the reference (tests/test_sim.py checks it).

# A key's fragment is written once: a run names the same few keys per node.
_KEY_JSON: dict[TopicKey, str] = {}


def _key_json(key: TopicKey) -> str:
    text = _KEY_JSON.get(key)
    if text is None:
        instance = "" if key.instance is None else f',"instance":{key.instance}'
        text = _KEY_JSON[key] = f'{{"topic":"{key.topic.value}"{instance}}}'
    return text


# dump_trace writes this many lines per write: about half a megabyte.
_CHUNK = 4096


def _encode(events: Iterable[TraceEvent]) -> Iterator[str]:
    """Each event's line, newline included: the one encoder.

    One loop writes every kind, so a line costs one f-string and no call but
    a dict lookup for its key. Values are written as the engine holds them:
    a node id as a bare integer, None as null, and availability as the word
    "available" or "unavailable". The key's topic fixes what a payload
    means, so a payload carries no tag of its own."""
    key_json = _KEY_JSON.get
    for time, kind, node, value in events:
        if kind == KIND_VIEW_CHANGE:
            ose, ore, tre, available, joining = value
            yield (
                f'{{"time":{time},"kind":"ViewChange","node":{node},"detail":'
                f'{{"ose":{ose},"ore":{ore},"tre":{"null" if tre is None else tre},'
                f'"state":"{"available" if available else "unavailable"}",'
                f'"joining":{"true" if joining else "false"}}}}}\n'
            )
        elif kind == KIND_DELIVER or kind == KIND_PUBLISH:
            key, payload, publisher, seq = value
            if payload is None:
                payload = "null"
            head = (
                f'{{"time":{time},"kind":"{kind}","node":{node},"detail":{{"key":'
                f'{key_json(key) or _key_json(key)},"payload":{payload},'
            )
            if kind == KIND_PUBLISH:
                yield f'{head}"seq":{seq}}}}}\n'
            else:
                yield f'{head}"publisher":{publisher},"seq":{seq}}}}}\n'
        elif kind == KIND_SUBSCRIBE or kind == KIND_UNSUBSCRIBE:
            yield (
                f'{{"time":{time},"kind":"{kind}","node":{node},'
                f'"detail":{{"key":{key_json(value) or _key_json(value)}}}}}\n'
            )
        elif kind == KIND_TOGGLE:
            to, interval = value
            yield (
                f'{{"time":{time},"kind":"Toggle","node":{node},"detail":'
                f'{{"to":"{"available" if to else "unavailable"}",'
                f'"interval":{interval}}}}}\n'
            )
        elif kind == KIND_JOIN:
            yield f'{{"time":{time},"kind":"Join","node":{node},"detail":{{}}}}\n'
        else:
            raise TraceError(f"unknown event kind {kind!r}")


def event_to_json(event: TraceEvent) -> str:
    """One event's line, without its newline."""
    return next(_encode((event,)))[:-1]


# ---------------------------------------------------------------------------
# Decoding: JSON values are taken as they stand, never coerced, and each
# object must hold exactly the fields the encoder writes. A bad value raises
# KeyError, TypeError, ValueError or BusError, and a key or a Deliver
# publisher naming a node not yet joined raises TraceError; event_from_json
# turns each into one TraceError showing the line.


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


def _key(obj: object, joined: Container[NodeId]) -> TopicKey:
    """A topic key. Keys are interned for the life of the process, so a key
    instance must be a node in `joined` before the key is built: a trace
    cannot grow the intern table past the nodes it announced."""
    if type(obj) is dict and len(obj) == 1:
        return TopicKey(TopicName(_fields(obj, "topic")[0]))
    topic, instance = _fields(obj, "topic", "instance")
    instance = _int(instance)
    if instance not in joined:
        raise TraceError(f"a key names node {instance} before its Join")
    return TopicKey(TopicName(topic), instance)


def _detail_value(
    kind: str, node: NodeId, detail: object, joined: Container[NodeId]
) -> Any:
    """The value of a line of `kind` by `node` from its detail."""
    if kind == KIND_VIEW_CHANGE:
        ose, ore, tre, state, joining = _fields(detail, "ose", "ore", "tre", "state", "joining")
        if type(joining) is not bool:
            raise TypeError("joining is a bool")
        tre = None if tre is None else _int(tre)
        return _int(ose), _int(ore), tre, _AVAILABILITY[state], joining
    if kind == KIND_DELIVER:
        key, payload, publisher, seq = _fields(detail, "key", "payload", "publisher", "seq")
        publisher = _int(publisher)
        if publisher not in joined:
            raise TraceError(f"a Deliver line names publisher {publisher} before its Join")
        key = _key(key, joined)
        check_payload(key, payload)
        return Sample(key, payload, publisher, _int(seq))
    if kind == KIND_PUBLISH:
        key, payload, seq = _fields(detail, "key", "payload", "seq")
        key = _key(key, joined)
        check_payload(key, payload)
        return Sample(key, payload, node, _int(seq))
    if kind == KIND_SUBSCRIBE or kind == KIND_UNSUBSCRIBE:
        return _key(_fields(detail, "key")[0], joined)
    if kind == KIND_TOGGLE:
        to, interval = _fields(detail, "to", "interval")
        return _AVAILABILITY[to], _int(interval)
    if kind == KIND_JOIN:
        _fields(detail)
        return None
    raise ValueError("unknown event kind")


def _bad_line(reason: str, line: str) -> TraceError:
    """A TraceError that shows at most 80 characters of the line."""
    clipped = repr(line[:80]) + ("..." if len(line) > 80 else "")
    return TraceError(f"{reason}: {clipped}")


def event_from_json(line: str, joined: Container[NodeId]) -> TraceEvent:
    """Decode one trace line. `joined` holds the nodes whose Join lines came
    before it; a key or a Deliver publisher naming any other node is a
    TraceError."""
    try:
        obj = json.loads(line)
    except RecursionError:
        raise _bad_line("trace line nested too deeply", line) from None
    except ValueError:  # JSONDecodeError, or an integer too long to convert
        raise _bad_line("unparsable trace line", line) from None
    try:
        time, kind, node, detail = _fields(obj, "time", "kind", "node", "detail")
        node = _int(node)
        return TraceEvent(_int(time), kind, node, _detail_value(kind, node, detail, joined))
    except TraceError as exc:
        raise _bad_line(str(exc), line) from None
    except (KeyError, TypeError, ValueError, BusError):
        raise _bad_line("not a valid trace event", line) from None


def dump_trace(events: Iterable[TraceEvent], stream: IO[str]) -> None:
    """Write one line per event, in one write per _CHUNK lines."""
    lines = _encode(events)
    while chunk := "".join(islice(lines, _CHUNK)):
        stream.write(chunk)


def dumps_trace(events: Iterable[TraceEvent]) -> str:
    return "".join(_encode(events))


def load_trace(stream: IO[str]) -> Iterator[TraceEvent]:
    """Decode a JSONL trace lazily, one event per line as the caller reads
    it, so a consumer that folds the events never holds the trace. A bad
    line raises TraceError when the reader reaches it, and so does a key
    or a Deliver publisher that names a node before that node's Join line.

    Sequence numbers follow the bus's rule: a Publish `seq` is one more than
    the last one of its (publisher, key), and a Deliver `seq` names a sample
    already published on its (publisher, key). Whether each delivery is owed
    to its subscriber is not checked."""
    joined: set[NodeId] = set()
    last_seq: dict[tuple[NodeId, TopicKey], int] = {}
    try:
        for line in stream:
            line = line.strip()
            if not line:
                continue
            event = event_from_json(line, joined)
            kind = event.kind
            if kind == KIND_JOIN:
                joined.add(event.node)
            elif kind == KIND_PUBLISH or kind == KIND_DELIVER:
                key, _payload, publisher, seq = event.value
                last = last_seq.get((publisher, key), 0)
                if kind == KIND_PUBLISH:
                    if seq != last + 1:
                        raise _bad_line(f"Publish seq {seq} after seq {last}", line)
                    last_seq[(publisher, key)] = seq
                elif not 1 <= seq <= last:
                    raise _bad_line(f"Deliver seq {seq}, but {last} published", line)
            yield event
    except UnicodeDecodeError as exc:
        raise TraceError(f"trace is not UTF-8 text: {exc}") from None
