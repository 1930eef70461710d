"""In-process publish/subscribe bus with data-centric QoS semantics.

The bus models a software data bus: named topics, keyed instances (one
logical stream per node for the per-node topics), reliable in-order delivery,
and deterministic dispatch. Each topic runs one fixed QoS profile (see
standard_qos): the arrival log is durable, keeps its last two samples and
replays them to a late subscriber; every other topic is volatile and keeps
the last one. The bus is the only communication path between nodes;
everything above it is event-driven. A subscription is named by its
(subscriber, key) pair.

Single-owner object with no internal locks: one bus serves one scenario, and
scenarios run one after another.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from enum import Enum

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


@dataclass(frozen=True, slots=True)
class TopicKey:
    """A topic name plus instance: the unit of subscription and retention."""

    topic: TopicName
    instance: NodeId | None = None

    def __post_init__(self) -> None:
        if self.topic in GLOBAL_TOPICS:
            if self.instance is not None:
                raise BusError(f"{self.topic.value} has a single global instance")
        else:
            if self.instance is None or self.instance < 0:
                raise BusError(f"{self.topic.value} needs a node instance")

    def __str__(self) -> str:
        if self.instance is None:
            return self.topic.value
        return f"{self.topic.value}[{self.instance}]"


# One key object per (topic, node), built and validated once: the protocol
# names the same few keys on every delivery, and an interned key is found in a
# set or dict by identity before any field comparison. Keys are immutable, so
# the tables may be shared by every bus in the process; they grow by one
# entry per node id seen.
ARRIVALS_KEY = TopicKey(TopicName.ARRIVALS)
ONEBACK_KEY = TopicKey(TopicName.ONEBACK)
_MYBOX_KEYS: dict[NodeId, TopicKey] = {}
_ORE_KEYS: dict[NodeId, TopicKey] = {}
_OSE_KEYS: dict[NodeId, TopicKey] = {}


def _interned(keys: dict[NodeId, TopicKey], topic: TopicName, node: NodeId) -> TopicKey:
    key = keys[node] = TopicKey(topic, node)
    return key


def arrivals_key() -> TopicKey:
    return ARRIVALS_KEY


def oneback_key() -> TopicKey:
    return ONEBACK_KEY


def mybox_key(node: NodeId) -> TopicKey:
    key = _MYBOX_KEYS.get(node)
    return key if key is not None else _interned(_MYBOX_KEYS, TopicName.MYBOX, node)


def ore_key(node: NodeId) -> TopicKey:
    key = _ORE_KEYS.get(node)
    return key if key is not None else _interned(_ORE_KEYS, TopicName.ORE, node)


def ose_key(node: NodeId) -> TopicKey:
    key = _OSE_KEYS.get(node)
    return key if key is not None else _interned(_OSE_KEYS, TopicName.OSE, node)


# ---------------------------------------------------------------------------
# QoS vocabulary


class Durability(Enum):
    VOLATILE = "volatile"
    PERSISTENT = "persistent"


@dataclass(frozen=True, slots=True)
class QosProfile:
    """A topic's durability plus its history KEEP_LAST, writer and reader alike.

    Each key retains its `depth` most recent samples, oldest evicted; a
    persistent topic replays all of them to a late subscriber, a volatile one
    replays nothing. Delivery is reliable and per-publisher in order by
    construction: every subscriber sees each sample published while it is
    subscribed exactly once, in publication order.
    """

    durability: Durability
    depth: int


def standard_qos(name: TopicName) -> QosProfile:
    """The one profile each topic runs.

    The arrival log is durable so joiners can read it back. A joiner reads
    only the last two records, its predecessor's and its own, so those two
    are all the log keeps and replays. Every other topic carries current
    state only, so its last sample is all there is to keep.
    """
    if name is TopicName.ARRIVALS:
        return QosProfile(Durability.PERSISTENT, 2)
    return QosProfile(Durability.VOLATILE, 1)


# ---------------------------------------------------------------------------
# Payloads


@dataclass(frozen=True, slots=True)
class Identity:
    """Names a node, typically "the next Available node is `node`"."""

    node: NodeId


@dataclass(frozen=True, slots=True)
class Null:
    """The no-node value: nothing Available anywhere."""


NULL = Null()


@dataclass(frozen=True, slots=True)
class JoinRecord:
    """Announcement of `node` entering the system."""

    node: NodeId


class OStRole(Enum):
    NEW_ORE = "new_ore"
    NEW_OSE = "new_ose"


@dataclass(frozen=True, slots=True)
class OStUpdate:
    """Ring rewiring instruction: `who` becomes the receiver or the sender."""

    role: OStRole
    who: NodeId


Payload = Identity | Null | JoinRecord | OStUpdate

_ALLOWED_PAYLOADS: dict[TopicName, tuple[type, ...]] = {
    TopicName.ARRIVALS: (JoinRecord,),
    TopicName.ORE: (OStUpdate,),
    TopicName.OSE: (OStUpdate,),
    TopicName.MYBOX: (Identity, Null),
    TopicName.ONEBACK: (Identity, Null),
}


# ---------------------------------------------------------------------------
# Samples, subscriptions, deliveries


@dataclass(frozen=True, slots=True)
class Sample:
    key: TopicKey
    payload: Payload
    publisher: NodeId
    seq: int  # per (publisher, key), starts at 1
    time: int  # publish tick


@dataclass(frozen=True, slots=True)
class DeliveryRecord:
    time: int
    subscriber: NodeId
    sample: Sample


class VirtualBus:
    """Fixed QoS table, retention store, and deterministic delivery queue.

    Dispatch removes the earliest pending delivery; ties at one tick resolve
    by (publisher, seq, subscriber), with the enqueue index as a final total
    tie-break. The clock advances to each delivery as it dispatches and via
    advance(); it never moves backwards.

    The bus keeps the run's running totals: publications per topic,
    deliveries, subscribes and unsubscribes.
    """

    def __init__(self, delivery_delay: int = 0) -> None:
        if delivery_delay < 0:
            raise BusError("delivery delay must be >= 0")
        self.delivery_delay = delivery_delay
        self._now = 0
        self._qos = {name: standard_qos(name) for name in TopicName}
        self._retained: dict[TopicKey, deque[Sample]] = {}
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

    def advance(self, ticks: int = 1) -> int:
        if ticks < 0:
            raise BusError("cannot advance backwards")
        self._now += ticks
        return self._now

    # -- publish / retention --------------------------------------------------

    def publish(self, publisher: NodeId, key: TopicKey, payload: Payload) -> Sample:
        if not isinstance(payload, _ALLOWED_PAYLOADS[key.topic]):
            raise PayloadKindError(
                f"{type(payload).__name__} not allowed on {key.topic.value}"
            )
        seq = self._seq.get((publisher, key), 0) + 1
        self._seq[(publisher, key)] = seq
        sample = Sample(key=key, payload=payload, publisher=publisher, seq=seq, time=self._now)

        store = self._retained.get(key)
        if store is None:
            store = deque(maxlen=self._qos[key.topic].depth)
            self._retained[key] = store
        store.append(sample)

        due = self._now + self.delivery_delay
        for subscriber in sorted(self._subs.get(key, ())):
            self._enqueue(due, subscriber, sample)
        self.publish_counts[key.topic] += 1
        return sample

    def retained(self, key: TopicKey) -> tuple[Sample, ...]:
        return tuple(self._retained.get(key, ()))

    # -- subscriptions --------------------------------------------------------

    def subscribe(self, subscriber: NodeId, key: TopicKey) -> None:
        subscribers = self._subs.setdefault(key, set())
        if subscriber in subscribers:
            raise SubscriptionError(f"{subscriber} already subscribed to {key}")
        subscribers.add(subscriber)
        self.subscribes += 1
        qos = self._qos[key.topic]
        if qos.durability is Durability.PERSISTENT:
            # Late-joiner replay: every retained sample, in publication
            # order. Entries keep their original publish tick as the due
            # component, so history from several publishers replays as
            # published.
            for sample in self._retained.get(key, ()):
                self._enqueue(sample.time, subscriber, sample)

    def cancel_subscription(self, subscriber: NodeId, key: TopicKey) -> None:
        try:
            self._subs[key].remove(subscriber)
        except KeyError:
            raise SubscriptionError(f"{subscriber} not subscribed to {key}") from None
        self.unsubscribes += 1
        # Delivery covers samples published while subscribed, unless the
        # subscription is cancelled first: drop anything still in flight.
        survivors = [e for e in self._pending if e[3] != subscriber or e[5].key != key]
        if len(survivors) != len(self._pending):
            heapq.heapify(survivors)
            self._pending = survivors

    def subscriptions_of(self, subscriber: NodeId) -> frozenset[TopicKey]:
        return frozenset(
            key for key, subscribers in self._subs.items() if subscriber in subscribers
        )

    # -- dispatch -------------------------------------------------------------

    @property
    def quiescent(self) -> bool:
        return not self._pending

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    def dispatch_next(self) -> DeliveryRecord | None:
        """Deliver the earliest pending sample; None once quiescent."""
        if not self._pending:
            return None
        due, _pub, _seq, subscriber, _enq, sample = heapq.heappop(self._pending)
        assert subscriber in self._subs[sample.key]  # cancelled entries are purged eagerly
        self._now = max(self._now, due)
        self.deliveries += 1
        return DeliveryRecord(time=self._now, subscriber=subscriber, sample=sample)

    def _enqueue(self, due: int, subscriber: NodeId, sample: Sample) -> None:
        self._enq += 1
        heapq.heappush(
            self._pending,
            (due, sample.publisher, sample.seq, subscriber, self._enq, sample),
        )

    # -- duplication ----------------------------------------------------------

    def clone(self) -> "VirtualBus":
        """Copy of this bus at a quiescent point, running totals included.

        The QoS table is shared (it never changes); retention, sequence
        numbers and subscriber sets are copied, so the two buses evolve
        independently.
        """
        if self._pending:
            raise BusError("clone requires a quiescent bus")
        other = VirtualBus(self.delivery_delay)
        other._now = self._now
        other._enq = self._enq
        other._qos = self._qos
        other._retained = {
            key: deque(store, maxlen=store.maxlen) for key, store in self._retained.items()
        }
        other._seq = dict(self._seq)
        other._subs = {key: set(subscribers) for key, subscribers in self._subs.items()}
        other.publish_counts = dict(self.publish_counts)
        other.deliveries = self.deliveries
        other.subscribes = self.subscribes
        other.unsubscribes = self.unsubscribes
        return other
