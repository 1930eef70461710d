"""Trace records: typed events in memory, one JSON line per event on file.

A trace is the ordered record of everything observable in a run: joins,
availability toggles, publications, deliveries, subscription changes, and
node view changes. Each TraceEvent holds the engine's own values for its kind
(see TraceEvent), so recording builds no dict and verification reads the
values as they are. Publish and Deliver events hold the bus's own Sample:
every Deliver of a publication holds the object its Publish holds.

A recorded run keeps its trace flat: TraceRecorder extends one list by each
event's four values, and the run returns that list as a RecordedTrace, a
read-only sequence that builds each TraceEvent when it is read. The encoder
and verify_trace read a RecordedTrace's rows, plain (time, kind, node,
value) tuples, and build no TraceEvent at all; any other iterable of
TraceEvents they read as it is.

JSON exists only in the codec. One encoder writes every line with a fixed
field order (time, kind, node, detail), so equal runs produce byte-equal
files: event_to_json, dumps_trace, dump_trace and TraceEvent.detail (which
json.loads its line back) all run it, and dump_trace writes its lines in
fixed-size chunks, one write each.
The encoder formats each tick's head once per run of equal times, and reads
the text of every node id, None and topic key from one table, _TEXT. It
starts with None and ids 0-1023; an int or a key that a line names and the
table lacks is formatted once and added, for the life of the process. Every
line is the same as if each value were formatted.

A trace file is never decoded. A config and a run mode fix every byte of
its trace, so first_difference checks a file against the lines of a replay
of its config, byte for byte, and names the first line that differs.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from functools import partial
from itertools import islice
from typing import IO, Any, Iterable, Iterator, NamedTuple

from .bus import NodeId, Sample, TopicKey

class TraceError(ValueError):
    """A trace that is not the one its config writes, or does not add up."""


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
    - ViewChange: the view's (ose, ore, tre, available, joining); its `me`
      is the node
    """

    time: int
    kind: str
    node: NodeId
    value: Any

    @property
    def detail(self) -> dict:
        """The line's detail as JSON values, decoded from its text."""
        return json.loads(_line(self))["detail"]


# ---------------------------------------------------------------------------
# Recorder


# A run records one event per bus step. Extending one flat list by the
# event's four values costs about a third of building and appending a
# TraceEvent, and keeps no tuple of its own per event, so a run keeps its
# trace flat.
# A TraceEvent is built only when one is read, with tuple.__new__: one C
# call, where TraceEvent(...) runs the named tuple's generated Python
# __new__.
_event = partial(tuple.__new__, TraceEvent)


class RecordedTrace(Sequence):
    """A recorded run's trace: a read-only sequence of TraceEvents over the
    recorder's flat list, which holds four values (time, kind, node, value)
    per event.

    Length, iteration, indexing (an int, a negative int or a slice, which
    gives a list) and == with a list or another RecordedTrace read exactly
    the TraceEvents the run recorded; each is built when it is read.
    rows() reads the same events as plain tuples, building none."""

    __slots__ = ("_flat",)

    def __init__(self, flat: list) -> None:
        self._flat = flat

    def __len__(self) -> int:
        return len(self._flat) // 4

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(len(self))[index]]
        start = 4 * range(len(self))[index]  # IndexError past either end
        return _event(self._flat[start : start + 4])

    def __iter__(self) -> Iterator[TraceEvent]:
        return map(_event, self.rows())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RecordedTrace):
            return self._flat == other._flat
        if isinstance(other, list):
            return list(self) == other
        return NotImplemented

    def rows(self) -> Iterator[tuple]:
        """Each event as a plain (time, kind, node, value) tuple, which
        unpacks as its TraceEvent does."""
        values = iter(self._flat)
        return zip(values, values, values, values)


def event_rows(events: Iterable[TraceEvent]) -> Iterable[tuple]:
    """The events' rows: a RecordedTrace's own, or the events themselves."""
    return events.rows() if isinstance(events, RecordedTrace) else events


class TraceRecorder:
    """Records a run's trace, one event per call, as four values on a flat
    list; `events` reads that list as a RecordedTrace."""

    __slots__ = ("_extend", "events")

    def __init__(self) -> None:
        flat: list = []
        self._extend = flat.extend
        self.events = RecordedTrace(flat)

    def join(self, time: int, node: NodeId) -> None:
        self._extend((time, KIND_JOIN, node, None))

    def toggle(self, time: int, node: NodeId, to: bool, interval: int) -> None:
        self._extend((time, KIND_TOGGLE, node, (to, interval)))

    def publish(self, time: int, sample: Sample) -> None:
        self._extend((time, KIND_PUBLISH, sample.publisher, sample))

    def deliver(self, time: int, node: NodeId, sample: Sample) -> None:
        self._extend((time, KIND_DELIVER, node, sample))

    def subscribe(self, time: int, node: NodeId, key: TopicKey) -> None:
        self._extend((time, KIND_SUBSCRIBE, node, key))

    def unsubscribe(self, time: int, node: NodeId, key: TopicKey) -> None:
        self._extend((time, KIND_UNSUBSCRIBE, node, key))

    def view_change(self, time: int, node: NodeId, fields: tuple) -> None:
        """`fields` is the node's new view's (ose, ore, tre, available,
        joining)."""
        self._extend((time, KIND_VIEW_CHANGE, node, fields))


# ---------------------------------------------------------------------------
# Encoding: every value is an int, a bool, null or a fixed word, so
# lines are written as text with nothing to escape. json.dumps with
# separators (",", ":") is the reference (tests/test_sim.py checks it).

# dump_trace writes this many lines per write: about half a megabyte.
_CHUNK = 4096

# The text of every node id, None and TopicKey a line writes, read with one
# dict subscript: cheaper than formatting the value on each line. It starts
# with None and ids 0-1023, so a run of up to 1,024 nodes meets no id it
# lacks, and _encode adds any other int or key when a line first names it.
# An exact dict: Python specializes a subscript only on one.
_TEXT: dict = {None: "null", **{n: str(n) for n in range(1024)}}


def _encode(events: Iterable[TraceEvent]) -> Iterator[str]:
    """Each event's line, newline included: the one encoder.

    A RecordedTrace is read by its rows(), so no TraceEvent is built; any
    other iterable is read as TraceEvents, which unpack as rows do. One
    loop writes every kind, so a line costs one f-string and no call but
    the dict subscripts of _TEXT. Values are written as the engine holds
    them: a node id as a bare integer, None as null, and availability as the
    word "available" or "unavailable". The key's topic fixes what a payload
    means, so a payload carries no tag of its own. The `{"time":T,"kind":"`
    head is built once per run of equal times. A value _TEXT lacks gets its
    text there, and its row is written again: an exact int is formatted, a
    TopicKey gets its `{"topic":...}` fragment, and any other value is
    refused, so that no value equal to an int (2000.0, say) can change how
    that int is written."""
    last = head = None
    for time, kind, node, value in event_rows(events):
        if time != last:
            last = time
            head = f'{{"time":{time},"kind":"'
        try:
            if kind == KIND_VIEW_CHANGE:
                ose, ore, tre, available, joining = value
                line = (
                    f'{head}ViewChange","node":{_TEXT[node]},"detail":'
                    f'{{"ose":{_TEXT[ose]},"ore":{_TEXT[ore]},"tre":{_TEXT[tre]},'
                    f'"state":"{"available" if available else "unavailable"}",'
                    f'"joining":{"true" if joining else "false"}}}}}\n'
                )
            elif kind == KIND_DELIVER or kind == KIND_PUBLISH:
                key, payload, publisher, seq = value
                line = (
                    f'{head}{kind}","node":{_TEXT[node]},"detail":{{"key":'
                    f'{_TEXT[key]},"payload":{_TEXT[payload]},'
                )
                if kind == KIND_PUBLISH:
                    line = f'{line}"seq":{seq}}}}}\n'
                else:
                    line = f'{line}"publisher":{_TEXT[publisher]},"seq":{seq}}}}}\n'
            elif kind == KIND_SUBSCRIBE or kind == KIND_UNSUBSCRIBE:
                line = f'{head}{kind}","node":{_TEXT[node]},"detail":{{"key":{_TEXT[value]}}}}}\n'
            elif kind == KIND_TOGGLE:
                to, interval = value
                line = (
                    f'{head}Toggle","node":{_TEXT[node]},"detail":'
                    f'{{"to":"{"available" if to else "unavailable"}",'
                    f'"interval":{interval}}}}}\n'
                )
            elif kind == KIND_JOIN:
                line = f'{head}Join","node":{_TEXT[node]},"detail":{{}}}}\n'
            else:
                raise TraceError(f"unknown event kind {kind!r}")
        except KeyError as missing:
            new = missing.args[0]
            if type(new) is int:
                _TEXT[new] = str(new)
            elif type(new) is TopicKey:
                instance = "" if new.instance is None else f',"instance":{new.instance}'
                _TEXT[new] = f'{{"topic":"{new.topic.value}"{instance}}}'
            else:
                raise TraceError(f"{new!r} is not a node id, null or a topic key") from None
            line = next(_encode(((time, kind, node, value),)))
        yield line


def _line(event: TraceEvent) -> str:
    """One event's line, newline included, from the one encoder."""
    return next(_encode((event,)))


def event_to_json(event: TraceEvent) -> str:
    """One event's line, without its newline."""
    return _line(event)[:-1]


def dump_trace(events: Iterable[TraceEvent], stream: IO[str]) -> None:
    """Write one line per event, in one write per _CHUNK lines."""
    lines = _encode(events)
    while chunk := "".join(islice(lines, _CHUNK)):
        stream.write(chunk)


def dumps_trace(events: Iterable[TraceEvent]) -> str:
    return "".join(_encode(events))


# ---------------------------------------------------------------------------
# Comparing: a config and a run mode fix every byte of a trace, so a written
# trace is checked against the lines of a replay, never decoded.

# A differing line is shown up to _SHOWN characters. A character is at most
# four bytes of UTF-8, and a byte that is not UTF-8 shows as four characters,
# so _SHOWN_BYTES bytes show more than _SHOWN characters of a longer line.
_SHOWN = 80
_SHOWN_BYTES = 4 * (_SHOWN + 1)


def _shown(line: bytes) -> str:
    """A line without its newline, clipped to _SHOWN characters, as a repr."""
    if not line:
        return "the end of the file"
    text = line.split(b"\n", 1)[0].decode("utf-8", "backslashreplace")
    return repr(text[:_SHOWN]) + ("..." if len(text) > _SHOWN else "")


class Difference(NamedTuple):
    """Where a stream first differs from the events' lines: the line's
    number, a report naming it, and the stream's bytes read from that
    line's start on, so that the stream can be compared again from there."""

    line: int
    report: str
    rest: bytes


def first_difference(
    events: Iterable[TraceEvent], stream: IO[bytes], before: int = 0, read: bytes = b""
) -> Difference | None:
    """Compare the events' lines with a binary stream's bytes, a chunk of
    _CHUNK lines at a time, reading no more of the stream per chunk than the
    chunk's length, so a line of any length is never read whole. The
    events' lines are compared from line `before` + 1 on, and the stream's
    bytes from that line's start on are `read`, bytes already read from
    it, then its unread ones. None if they are the same bytes; otherwise
    the Difference at the first line that differs, reported with its
    column, the events' line and the stream's, each clipped. A stream that
    ends early or goes on past the last line differs at the line after the
    last one they share."""
    lines = _encode(islice(event_rows(events), before, None))
    number = before  # lines matched so far
    while True:
        want = "".join(islice(lines, _CHUNK)).encode()
        size = len(want) or 1
        got, read = read[:size], read[size:]
        got += stream.read(size - len(got))
        if got != want:
            break
        if not want:
            return None
        number += want.count(b"\n")
    # The first byte that differs; if none does, one is the other's start.
    at = next((i for i, (a, b) in enumerate(zip(want, got)) if a != b), min(len(want), len(got)))
    start = want.rfind(b"\n", 0, at) + 1
    number += want.count(b"\n", 0, start) + 1
    rest = got[start:] + read
    rest += stream.read(max(0, _SHOWN_BYTES - len(rest)))
    report = (
        f"line {number}, column {at - start + 1}: "
        f"expected {_shown(want[start:])}, found {_shown(rest)}"
    )
    return Difference(number, report, rest)
