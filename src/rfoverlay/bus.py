"""In-process publish/subscribe bus with data-centric QoS semantics.

The bus models a software data bus: named topics, keyed instances (one
logical stream per node for the per-node topics), reliable in-order delivery,
and deterministic dispatch. The arrival log is the one durable topic: it
keeps its last two samples and replays them to a late subscriber. Every
other topic is volatile and keeps nothing: a sample reaches only the
subscribers it has when it is published. The bus is the only communication
path between nodes; everything above it is event-driven. A subscription is
named by its (subscriber, key) pair.

Single-owner object with no internal locks: one bus serves one scenario, and
scenarios run one after another. The network that owns a bus reads its clock
and queue directly on every delivery, and cancel_subscription filters the
queue in place so that the list stays the queue.

A publication is the bus's hot path: publish builds its Sample with
tuple.__new__, one C call, where Sample(...) would run the named tuple's
generated Python __new__, and it enqueues inline. tuple.__new__ applies no
defaults, so it is given every field. publish tests the payload's type
inline and calls check_payload only to raise, and it enqueues the
subscribers in set order: dispatch orders them by id. A cancel scans the
queue for an entry of the cancelled subscription and returns if it finds
none; only a cancel that drops an entry builds a filtered copy and
heapifies it, after scanning up to that entry. Under serialized toggles
about one cancel in 300 drops an entry; under interleaved toggles about one
in five does, on queues of a few entries, where the scan still costs less
than a copy on every cancel.
"""

from __future__ import annotations

from collections import deque
from enum import Enum
from heapq import heapify, heappop, heappush
from typing import NamedTuple

NodeId = int


class BusError(Exception):
    """Base class for bus misuse."""


class PayloadKindError(BusError):
    pass


class SubscriptionError(BusError):
    pass


class TopicName(str, Enum):
    ARRIVALS = "Arrivals"
    ORE = "ORe"
    OSE = "OSe"
    MYBOX = "MyBox"
    ONEBACK = "OneBack"


# Arrivals and OneBack have a single global instance; the rest carry one
# instance per node.
GLOBAL_TOPICS = frozenset({TopicName.ARRIVALS, TopicName.ONEBACK})

# An Enum member read off its class goes through the metaclass, several
# times the cost of reading a module global.
_ARRIVALS = TopicName.ARRIVALS


class TopicKey:
    """A topic name plus instance: the unit of subscription.

    Keys are interned by construction: TopicKey(topic, instance) returns the
    one key object for that pair, built and validated the first time it is
    asked for. Keys are immutable, and equal keys are the same object, so a
    key compares and hashes by identity (object's own __eq__ and __hash__,
    which run in C). Keys have no order.
    """

    __slots__ = ("topic", "instance")
    topic: TopicName
    instance: NodeId | None

    def __new__(cls, topic: TopicName, instance: NodeId | None = None) -> TopicKey:
        keys = _KEYS.get(topic)
        if keys is None:
            raise BusError(f"unknown topic {topic!r}")
        key = keys.get(instance)
        if key is None:
            topic = TopicName(topic)
            if topic in GLOBAL_TOPICS:
                if instance is not None:
                    raise BusError(f"{topic.value} has a single global instance")
            elif type(instance) is not int or instance < 0:
                raise BusError(f"{topic.value} needs a node instance")
            key = keys[instance] = object.__new__(cls)
            object.__setattr__(key, "topic", topic)
            object.__setattr__(key, "instance", instance)
        return key

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}: keys are immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}: keys are immutable")

    def __reduce__(self) -> tuple:
        # Copies and unpickled keys go through the constructor, so they are
        # the interned key too.
        return TopicKey, (self.topic, self.instance)

    def __repr__(self) -> str:
        return f"TopicKey(topic={self.topic!r}, instance={self.instance!r})"

    def __str__(self) -> str:
        if self.instance is None:
            return self.topic.value
        return f"{self.topic.value}[{self.instance}]"


# The intern table: one key per (topic, instance), per topic by instance. It
# is shared by every bus in the process, since keys are immutable, and grows
# by one entry per node id seen on a topic. The protocol names the same few
# keys on every delivery, so the per-node accessors look up their topic's
# table directly.
_KEYS: dict[TopicName, dict[NodeId | None, TopicKey]] = {topic: {} for topic in TopicName}
_MYBOX_KEYS = _KEYS[TopicName.MYBOX]
_ORE_KEYS = _KEYS[TopicName.ORE]
_OSE_KEYS = _KEYS[TopicName.OSE]
ARRIVALS_KEY = TopicKey(TopicName.ARRIVALS)
ONEBACK_KEY = TopicKey(TopicName.ONEBACK)


def mybox_key(node: NodeId) -> TopicKey:
    key = _MYBOX_KEYS.get(node)
    return key if key is not None else TopicKey(TopicName.MYBOX, node)


def ore_key(node: NodeId) -> TopicKey:
    key = _ORE_KEYS.get(node)
    return key if key is not None else TopicKey(TopicName.ORE, node)


def ose_key(node: NodeId) -> TopicKey:
    key = _OSE_KEYS.get(node)
    return key if key is not None else TopicKey(TopicName.OSE, node)


# ---------------------------------------------------------------------------
# Payloads


# The topic fixes what its payload means, so a payload carries no tag of its
# own: Arrivals carries the joiner's id; ORe the joiner that asks to become
# the receiver; OSe the new receiver while the subscriber joins, its new
# sender afterwards; MyBox and OneBack the next Available node's id, MyBox
# also None for "nothing Available".
Payload = NodeId | None

_ALLOWED_PAYLOADS: dict[TopicName, tuple[type, ...]] = {
    TopicName.ARRIVALS: (int,),
    TopicName.ORE: (int,),
    TopicName.OSE: (int,),
    TopicName.MYBOX: (int, type(None)),
    TopicName.ONEBACK: (int,),
}


def check_payload(key: TopicKey, payload: Payload) -> None:
    """Raise PayloadKindError unless `payload` may travel on `key`'s topic.
    Types match exactly, so a bool is not a node id."""
    if type(payload) not in _ALLOWED_PAYLOADS[key.topic]:
        raise PayloadKindError(f"{type(payload).__name__} not allowed on {key.topic.value}")


# ---------------------------------------------------------------------------
# Samples, subscriptions, deliveries


class Sample(NamedTuple):
    """One publication: every subscriber is delivered this same value."""

    key: TopicKey
    payload: Payload
    publisher: NodeId
    seq: int  # per (publisher, key), starts at 1


# Sample(...) runs the named tuple's generated Python __new__; tuple.__new__
# builds the same tuple in one C call (what NamedTuple._make does).
_new = tuple.__new__


class VirtualBus:
    """Subscriber sets, the arrival log, and a deterministic delivery queue.

    Delivery is reliable and per-publisher in order: every subscriber sees
    each sample published while it is subscribed exactly once, in
    publication order. Dispatch removes the earliest pending delivery; ties
    at one tick resolve by (publisher, seq, subscriber), with the enqueue
    index as a final total tie-break. The clock advances to each delivery as
    it dispatches and by one tick per advance(); it never moves backwards.

    The bus keeps the run's running totals: publications per topic,
    deliveries, subscribes and unsubscribes.
    """

    def __init__(self, delivery_delay: int = 0) -> None:
        if delivery_delay < 0:
            raise BusError("delivery delay must be >= 0")
        self.delivery_delay = delivery_delay
        self._now = 0
        # The arrival log is the one durable topic and replays its last two
        # samples to a new subscriber: a joiner reads only its predecessor's
        # record and its own. Every other topic reaches only its current
        # subscribers. Entries are (publish tick, sample) pairs.
        self._arrivals: deque[tuple[int, Sample]] = deque(maxlen=2)
        self._seq: dict[tuple[NodeId, TopicKey], int] = {}
        self._subs: dict[TopicKey, set[NodeId]] = {}
        # heap entries: (due, publisher, seq, subscriber, enq, sample)
        self._pending: list[tuple] = []
        self._enq = 0
        self.publish_counts: dict[TopicName, int] = {n: 0 for n in TopicName}
        self.deliveries = 0
        self.subscribes = 0
        self.unsubscribes = 0

    # -- clock --------------------------------------------------------------

    @property
    def now(self) -> int:
        return self._now

    def advance(self) -> None:
        self._now += 1

    # -- publish --------------------------------------------------------------

    def publish(self, publisher: NodeId, key: TopicKey, payload: Payload) -> Sample:
        topic = key.topic
        if type(payload) not in _ALLOWED_PAYLOADS[topic]:
            check_payload(key, payload)  # raises, before any state changes
        seqs = self._seq
        stream = (publisher, key)
        seq = seqs.get(stream, 0) + 1
        seqs[stream] = seq
        sample = _new(Sample, (key, payload, publisher, seq))
        if topic is _ARRIVALS:
            self._arrivals.append((self._now, sample))
        subscribers = self._subs.get(key)
        if subscribers:
            # _enqueue, inlined: a status-wave hop publishes once per hop.
            # The entries of one sample differ in subscriber, which the heap
            # orders before the enqueue index, so they need no sorting here.
            due = self._now + self.delivery_delay
            pending = self._pending
            enq = self._enq
            for subscriber in subscribers:
                enq += 1
                heappush(pending, (due, publisher, seq, subscriber, enq, sample))
            self._enq = enq
        self.publish_counts[topic] += 1
        return sample

    # -- subscriptions --------------------------------------------------------

    def subscribe(self, subscriber: NodeId, key: TopicKey) -> None:
        subscribers = self._subs.get(key)
        if subscribers is None:
            subscribers = self._subs[key] = set()
        elif subscriber in subscribers:
            raise SubscriptionError(f"{subscriber} already subscribed to {key}")
        subscribers.add(subscriber)
        self.subscribes += 1
        if key.topic is _ARRIVALS:
            # Late-joiner replay, in publication order. Entries keep their
            # original publish tick as the due component, so history from
            # several publishers replays as published.
            for tick, sample in self._arrivals:
                self._enqueue(tick, subscriber, sample)

    def cancel_subscription(self, subscriber: NodeId, key: TopicKey) -> None:
        try:
            self._subs[key].remove(subscriber)
        except KeyError:
            raise SubscriptionError(f"{subscriber} not subscribed to {key}") from None
        self.unsubscribes += 1
        # Delivery covers samples published while subscribed, unless the
        # subscription is cancelled first: drop anything still in flight.
        # The queue is filtered in place: a drain holds on to the list.
        pending = self._pending
        for entry in pending:
            if entry[3] == subscriber and entry[5].key is key:
                break
        else:
            return
        survivors = [e for e in pending if e[3] != subscriber or e[5].key is not key]
        heapify(survivors)
        pending[:] = survivors

    # -- dispatch -------------------------------------------------------------

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    def dispatch_next(self) -> tuple[NodeId, Sample] | None:
        """Deliver the earliest pending sample: the (subscriber, sample)
        pair, delivered at `now`; None once quiescent."""
        pending = self._pending
        if not pending:
            return None
        due, _pub, _seq, subscriber, _enq, sample = heappop(pending)
        assert subscriber in self._subs[sample.key]  # cancelled entries are purged eagerly
        if due > self._now:  # replayed arrivals keep their publish tick
            self._now = due
        self.deliveries += 1
        return subscriber, sample

    def _enqueue(self, due: int, subscriber: NodeId, sample: Sample) -> None:
        self._enq += 1
        heappush(
            self._pending,
            (due, sample.publisher, sample.seq, subscriber, self._enq, sample),
        )

    # -- duplication ----------------------------------------------------------

    def clone(self) -> "VirtualBus":
        """Copy of this bus at any point, running totals included.

        The arrival log, sequence numbers, subscriber sets and the pending
        queue are copied, so the two buses evolve independently. Samples and
        queue entries are immutable values.
        """
        other = VirtualBus(self.delivery_delay)
        other._now = self._now
        other._enq = self._enq
        other._arrivals = self._arrivals.copy()
        other._seq = dict(self._seq)
        other._subs = {key: set(subscribers) for key, subscribers in self._subs.items()}
        other._pending = list(self._pending)
        other.publish_counts = dict(self.publish_counts)
        other.deliveries = self.deliveries
        other.subscribes = self.subscribes
        other.unsubscribes = self.unsubscribes
        return other
