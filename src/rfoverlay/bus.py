"""In-process publish/subscribe bus with data-centric QoS semantics.

The bus models a software data bus: named topics, keyed instances (one
logical stream per node for the per-node topics), durability and history
policies, reliable in-order delivery, and deterministic dispatch. It is the
only communication path between nodes; everything above it is event-driven.

Single-owner object with no internal locks: one bus serves one scenario, and
scenarios run one after another.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Callable

NodeId = int


class BusError(Exception):
    """Base class for bus misuse."""


class DuplicateTopicError(BusError):
    pass


class UndeclaredTopicError(BusError):
    pass


class QosError(BusError):
    pass


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


def arrivals_key() -> TopicKey:
    return TopicKey(TopicName.ARRIVALS)


def oneback_key() -> TopicKey:
    return TopicKey(TopicName.ONEBACK)


def mybox_key(node: NodeId) -> TopicKey:
    return TopicKey(TopicName.MYBOX, node)


def ore_key(node: NodeId) -> TopicKey:
    return TopicKey(TopicName.ORE, node)


def ose_key(node: NodeId) -> TopicKey:
    return TopicKey(TopicName.OSE, node)


# ---------------------------------------------------------------------------
# QoS vocabulary


class Durability(Enum):
    VOLATILE = "volatile"
    PERSISTENT = "persistent"


@dataclass(frozen=True, slots=True)
class KeepLast:
    """Retain the single most recent sample per key."""


@dataclass(frozen=True, slots=True)
class KeepN:
    """Retain the most recent `depth` samples per key, oldest evicted."""

    depth: int

    def __post_init__(self) -> None:
        if self.depth < 1:
            raise QosError("KeepN depth must be >= 1")


History = KeepLast | KeepN


@dataclass(frozen=True, slots=True)
class QosProfile:
    """Per-topic quality-of-service settings.

    Durability and history are enforced (retention and late-joiner replay).
    Delivery is reliable and per-publisher in order by construction: every
    subscriber sees each sample exactly once, in publication order.
    """

    durability: Durability
    history: History

    @property
    def depth(self) -> int:
        return self.history.depth if isinstance(self.history, KeepN) else 1


def arrivals_qos(depth: int = 64) -> QosProfile:
    return QosProfile(durability=Durability.PERSISTENT, history=KeepN(depth))


def control_qos() -> QosProfile:
    """Profile for the point-to-point reconfiguration topics (ORe, OSe)."""
    return QosProfile(durability=Durability.VOLATILE, history=KeepLast())


def status_qos() -> QosProfile:
    """Profile for the availability topics (MyBox, OneBack)."""
    return QosProfile(durability=Durability.VOLATILE, history=KeepLast())


def standard_qos(name: TopicName, arrivals_depth: int = 64) -> QosProfile:
    if name is TopicName.ARRIVALS:
        return arrivals_qos(arrivals_depth)
    if name in (TopicName.ORE, TopicName.OSE):
        return control_qos()
    return status_qos()


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


@dataclass(slots=True, eq=False)
class SubscriptionHandle:
    subscriber: NodeId
    key: TopicKey
    active: bool = True


@dataclass(frozen=True, slots=True)
class DeliveryRecord:
    time: int
    subscriber: NodeId
    sample: Sample


@dataclass(frozen=True, slots=True)
class TopicDescriptor:
    name: TopicName
    qos: QosProfile

    @property
    def replay_enabled(self) -> bool:
        return self.qos.durability is Durability.PERSISTENT


Handler = Callable[[DeliveryRecord], None]


class VirtualBus:
    """Topic registry, retention store, and deterministic delivery queue.

    Dispatch removes the earliest pending delivery; ties at one tick resolve
    by (publisher, seq, subscriber), with the enqueue index as a final total
    tie-break. The clock advances to each delivery as it dispatches and via
    advance(); it never moves backwards.
    """

    def __init__(self, delivery_delay: int = 0) -> None:
        if delivery_delay < 0:
            raise BusError("delivery delay must be >= 0")
        self.delivery_delay = delivery_delay
        self._now = 0
        self._topics: dict[TopicName, TopicDescriptor] = {}
        self._retained: dict[TopicKey, deque[Sample]] = {}
        self._seq: dict[tuple[NodeId, TopicKey], int] = {}
        self._subs: dict[TopicKey, dict[NodeId, SubscriptionHandle]] = {}
        self._handlers: dict[NodeId, Handler] = {}
        # heap entries: (due, publisher, seq, subscriber, enq, handle, sample)
        self._pending: list[tuple] = []
        self._enq = 0
        self.publish_counts: dict[TopicName, int] = {n: 0 for n in TopicName}

    # -- clock --------------------------------------------------------------

    @property
    def now(self) -> int:
        return self._now

    def advance(self, ticks: int = 1) -> int:
        if ticks < 0:
            raise BusError("cannot advance backwards")
        self._now += ticks
        return self._now

    # -- topics -------------------------------------------------------------

    def declare_topic(self, name: TopicName, qos: QosProfile) -> TopicDescriptor:
        if name in self._topics:
            raise DuplicateTopicError(f"{name.value} already declared")
        self._check_qos(name, qos)
        descriptor = TopicDescriptor(name, qos)
        self._topics[name] = descriptor
        return descriptor

    def declare_standard_topics(self, arrivals_depth: int = 64) -> None:
        for name in TopicName:
            self.declare_topic(name, standard_qos(name, arrivals_depth))

    @staticmethod
    def _check_qos(name: TopicName, qos: QosProfile) -> None:
        reference = standard_qos(name, arrivals_depth=qos.depth)
        if qos != reference:
            raise QosError(f"{name.value} does not admit QoS {qos}")

    def descriptor(self, name: TopicName) -> TopicDescriptor:
        try:
            return self._topics[name]
        except KeyError:
            raise UndeclaredTopicError(f"{name.value} not declared") from None

    # -- publish / retention --------------------------------------------------

    def publish(self, publisher: NodeId, key: TopicKey, payload: Payload) -> Sample:
        descriptor = self.descriptor(key.topic)
        if not isinstance(payload, _ALLOWED_PAYLOADS[key.topic]):
            raise PayloadKindError(
                f"{type(payload).__name__} not allowed on {key.topic.value}"
            )
        seq = self._seq.get((publisher, key), 0) + 1
        self._seq[(publisher, key)] = seq
        sample = Sample(key=key, payload=payload, publisher=publisher, seq=seq, time=self._now)

        store = self._retained.get(key)
        if store is None:
            store = deque(maxlen=descriptor.qos.depth)
            self._retained[key] = store
        store.append(sample)

        due = self._now + self.delivery_delay
        for subscriber in sorted(self._subs.get(key, ())):
            handle = self._subs[key][subscriber]
            self._enqueue(due, handle, sample)
        self.publish_counts[key.topic] += 1
        return sample

    def retained(self, key: TopicKey) -> tuple[Sample, ...]:
        self.descriptor(key.topic)
        return tuple(self._retained.get(key, ()))

    # -- subscriptions --------------------------------------------------------

    def subscribe(self, subscriber: NodeId, key: TopicKey) -> SubscriptionHandle:
        descriptor = self.descriptor(key.topic)
        per_key = self._subs.setdefault(key, {})
        if subscriber in per_key:
            raise SubscriptionError(f"{subscriber} already subscribed to {key}")
        handle = SubscriptionHandle(subscriber=subscriber, key=key)
        per_key[subscriber] = handle
        if descriptor.replay_enabled:
            # Late-joiner replay: the retained history, in publication order.
            # Entries keep their original publish tick as the due component,
            # so history from several publishers replays as published.
            for sample in self._retained.get(key, ()):
                self._enqueue(sample.time, handle, sample)
        return handle

    def cancel_subscription(self, handle: SubscriptionHandle) -> None:
        if not handle.active:
            raise SubscriptionError(f"subscription to {handle.key} already cancelled")
        handle.active = False
        del self._subs[handle.key][handle.subscriber]
        # Delivery covers samples published while subscribed, unless the
        # subscription is cancelled first: drop anything still in flight.
        survivors = [e for e in self._pending if e[5] is not handle]
        if len(survivors) != len(self._pending):
            heapq.heapify(survivors)
            self._pending = survivors

    def subscriptions_of(self, subscriber: NodeId) -> frozenset[TopicKey]:
        return frozenset(
            key for key, per_key in self._subs.items() if subscriber in per_key
        )

    def handle_of(self, subscriber: NodeId, key: TopicKey) -> SubscriptionHandle:
        try:
            return self._subs[key][subscriber]
        except KeyError:
            raise SubscriptionError(f"{subscriber} not subscribed to {key}") from None

    # -- dispatch -------------------------------------------------------------

    def attach_handler(self, node: NodeId, handler: Handler | None) -> None:
        if handler is None:
            self._handlers.pop(node, None)
        else:
            self._handlers[node] = handler

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
        due, _pub, _seq, subscriber, _enq, handle, sample = heapq.heappop(self._pending)
        assert handle.active  # cancelled entries are purged eagerly
        self._now = max(self._now, due)
        record = DeliveryRecord(time=self._now, subscriber=subscriber, sample=sample)
        handler = self._handlers.get(subscriber)
        if handler is not None:
            handler(record)
        return record

    def _enqueue(self, due: int, handle: SubscriptionHandle, sample: Sample) -> None:
        self._enq += 1
        heapq.heappush(
            self._pending,
            (due, sample.publisher, sample.seq, handle.subscriber, self._enq, handle, sample),
        )

    # -- duplication ----------------------------------------------------------

    def clone(self) -> "VirtualBus":
        """Copy of this bus at a quiescent point. Handlers are not carried."""
        if self._pending:
            raise BusError("clone requires a quiescent bus")
        other = VirtualBus(self.delivery_delay)
        other._now = self._now
        other._enq = self._enq
        other._topics = dict(self._topics)
        other._retained = {
            key: deque(store, maxlen=store.maxlen) for key, store in self._retained.items()
        }
        other._seq = dict(self._seq)
        other._subs = {
            key: {
                sub: SubscriptionHandle(subscriber=sub, key=key)
                for sub in per_key
            }
            for key, per_key in self._subs.items()
        }
        other.publish_counts = dict(self.publish_counts)
        return other
