"""Per-node state machine: ring membership and next-available tracking.

Each node keeps a tiny local view: its sender (ose) and receiver (ore) on the
arrival-order ring, a tri-state belief about the next Available node (tre),
and its own availability. Handlers are pure functions from (view, message) to
Effects; all sequencing and bus interaction belongs to the network layer.

The tri-state next-available value:

* TrustOre    -- the receiver itself is Available; no extra bookkeeping.
* Hint(x)     -- the receiver is down; x is the first Available node after it.
                 x = me is the transient "I am the only Available node" case.
* SystemEmpty -- nothing is Available anywhere; wait on the global wake-up
                 channel (OneBack) for the first recovery.

A node publishes on its own status stream (MyBox) whenever the value another
node would read from it changes: Identity(me) while Available, the current
hint while down, Null when the whole system is down. Two stop rules keep the
ring quiescent: a value equal to the last one published is never republished,
and news that names the reader itself is never propagated further.

A node's subscriptions are its own ORe/OSe streams, which never change, plus
what _watched() names: the status streams it reads and the one global
stream it holds (the arrival log while joining, the wake-up channel while
nothing is Available). Every handler's subscription changes are the
difference of _watched() before and after, so each transition costs O(1),
joins and status-wave hops alike. subscriptions() stays the reference
definition of the full set.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .bus import (
    NULL,
    Identity,
    JoinRecord,
    NodeId,
    OStRole,
    OStUpdate,
    Payload,
    Sample,
    TopicKey,
    TopicName,
    arrivals_key,
    mybox_key,
    oneback_key,
    ore_key,
    ose_key,
)


class ProtocolError(Exception):
    """A handler was driven outside the protocol's reachable states."""


class Availability(Enum):
    AVAILABLE = "available"
    UNAVAILABLE = "unavailable"


@dataclass(frozen=True, slots=True)
class TrustOre:
    """The receiver is Available; no hint needed."""


@dataclass(frozen=True, slots=True)
class Hint:
    """First Available node strictly past the receiver."""

    node: NodeId


@dataclass(frozen=True, slots=True)
class SystemEmpty:
    """No node Available anywhere."""


TRUST_ORE = TrustOre()
SYSTEM_EMPTY = SystemEmpty()

NextAvailable = TrustOre | Hint | SystemEmpty


@dataclass(frozen=True, slots=True)
class NodeView:
    """A node's entire local knowledge.

    last_mybox is the most recent value published on this node's own status
    stream (None before the first publication); it backs the republication
    guard. joining is True from the arrival announcement until the node holds
    its ring position. predecessor is the node of the latest arrival record
    replayed before our own, the insertion point; it is None before the first
    such record and once the join completes.
    """

    me: NodeId
    ose: NodeId
    ore: NodeId
    tre: NextAvailable
    state: Availability
    last_mybox: Payload | None = None
    joining: bool = False
    predecessor: NodeId | None = None


@dataclass(frozen=True, slots=True)
class Effects:
    """The externally visible result of one handler application."""

    view: NodeView
    publications: tuple[tuple[TopicKey, Payload], ...] = ()
    subscribe: tuple[TopicKey, ...] = ()
    unsubscribe: tuple[TopicKey, ...] = ()


def _watched(view: NodeView) -> tuple[tuple[NodeId, ...], TopicKey | None]:
    """The nodes whose status streams the view reads, ascending, and the one
    global stream it holds, if any: the arrival log while joining, the
    wake-up channel iff nothing is Available."""
    if view.joining:
        return (), arrivals_key()
    ore = view.ore
    tre = view.tre
    if isinstance(tre, Hint) and tre.node != view.me and tre.node != ore:
        return ((ore, tre.node) if ore < tre.node else (tre.node, ore)), None
    return (ore,), oneback_key() if isinstance(tre, SystemEmpty) else None


def subscriptions(view: NodeView) -> frozenset[TopicKey]:
    """The exact subscription set a node holds in a given view.

    While joining: the arrival log plus the two standing control streams.
    Afterwards: the standing control streams, the receiver's status stream,
    the current hint's status stream (never one's own or the receiver's,
    which is already covered), and the wake-up channel iff nothing is
    Available.
    """
    boxes, channel = _watched(view)
    keys = {ore_key(view.me), ose_key(view.me), *map(mybox_key, boxes)}
    if channel is not None:
        keys.add(channel)
    return frozenset(keys)


def published_hint(view: NodeView) -> Payload:
    """The value this node's status stream should carry right now."""
    if view.state is Availability.AVAILABLE:
        return Identity(view.me)
    if isinstance(view.tre, TrustOre):
        return Identity(view.ore)
    if isinstance(view.tre, Hint) and view.tre.node != view.me:
        return Identity(view.tre.node)
    return NULL


def _with_tre(
    view: NodeView, tre: NextAvailable, state: Availability | None = None
) -> NodeView:
    return NodeView(
        view.me, view.ose, view.ore, tre, view.state if state is None else state,
        view.last_mybox, view.joining, view.predecessor,
    )


def _with_last_mybox(view: NodeView, last_mybox: Payload) -> NodeView:
    return NodeView(
        view.me, view.ose, view.ore, view.tre, view.state, last_mybox, view.joining,
        view.predecessor,
    )


def _effects(
    old: NodeView,
    new: NodeView,
    publications: list[tuple[TopicKey, Payload]] | None = None,
) -> Effects:
    pubs = tuple(publications) if publications else ()
    if pubs:
        own = mybox_key(old.me)
        for key, payload in pubs:
            if key is own or key == own:
                new = _with_last_mybox(new, payload)
    if old.joining == new.joining and old.ore == new.ore and old.tre == new.tre:
        # _watched() reads only these fields and `me`, which never changes.
        return Effects(new, pubs)
    # Trace order: status streams by ascending instance, then the global
    # stream. Node ids compare in C; TopicKeys would compare in Python.
    old_boxes, old_channel = _watched(old)
    new_boxes, new_channel = _watched(new)
    subscribe = [mybox_key(n) for n in new_boxes if n not in old_boxes]
    unsubscribe = [mybox_key(n) for n in old_boxes if n not in new_boxes]
    if new_channel is not old_channel:
        if new_channel is not None:
            subscribe.append(new_channel)
        if old_channel is not None:
            unsubscribe.append(old_channel)
    return Effects(new, pubs, tuple(subscribe), tuple(unsubscribe))


# ---------------------------------------------------------------------------
# Membership


def join(me: NodeId) -> Effects:
    """Enter the system: announce on the arrival log, then read it back.

    The announcement precedes the subscription on purpose: the durable
    arrival history then replays including our own record, and the record
    right before ours names the insertion point. The view keeps only that
    one record's node (`predecessor`), never the replayed log.
    """
    if me < 0:
        raise ProtocolError("node ids are non-negative")
    view = NodeView(
        me=me,
        ose=me,
        ore=me,
        tre=TRUST_ORE,
        state=Availability.AVAILABLE,
        joining=True,
    )
    return Effects(
        view=view,
        publications=((arrivals_key(), JoinRecord(me)),),
        subscribe=(arrivals_key(), ore_key(me), ose_key(me)),
    )


def _on_arrivals(view: NodeView, payload: JoinRecord) -> Effects:
    if not view.joining:
        return _effects(view, view)
    who = payload.node
    me = view.me
    if who != me:
        # A record before our own only moves the insertion point. The bus
        # replays the last two records, so under serialized joins this runs
        # once per join.
        new = NodeView(me, view.ose, view.ore, view.tre, view.state, view.last_mybox, True, who)
        return _effects(view, new)
    predecessor = view.predecessor
    if predecessor is None:
        # First node in: a ring of one.
        return _effects(view, NodeView(me, me, me, view.tre, view.state, view.last_mybox))
    # The predecessor is our sender; its answer on OSe_me completes the join.
    new = NodeView(me, predecessor, view.ore, view.tre, view.state, view.last_mybox, True, predecessor)
    return _effects(view, new, [(ore_key(predecessor), OStUpdate(OStRole.NEW_ORE, me))])


def handle_new_ore(view: NodeView, msg: OStUpdate) -> Effects:
    """A joiner asks to become our receiver: splice it in after us.

    We tell the joiner who its receiver is (our old one) and tell the old
    receiver who its sender now is (the joiner), then repoint ourselves.
    """
    if msg.role is not OStRole.NEW_ORE:
        raise ProtocolError("only NewORe travels on the ORe stream")
    joiner = msg.who
    if joiner == view.me or joiner == view.ore:
        return _effects(view, view)
    old_ore = view.ore
    publications = [
        (ose_key(joiner), OStUpdate(OStRole.NEW_ORE, old_ore)),
        (ose_key(old_ore), OStUpdate(OStRole.NEW_OSE, joiner)),
    ]
    new = NodeView(
        view.me, view.ose, joiner, TRUST_ORE, view.state, view.last_mybox, view.joining,
        view.predecessor,
    )
    return _effects(view, new, publications)


def handle_ose_update(view: NodeView, msg: OStUpdate) -> Effects:
    """Ring rewiring addressed to us: adopt the new receiver or sender."""
    if msg.role is OStRole.NEW_ORE:
        new = NodeView(view.me, view.ose, msg.who, TRUST_ORE, view.state, view.last_mybox)
        return _effects(view, new)
    new = NodeView(
        view.me, msg.who, view.ore, view.tre, view.state, view.last_mybox, view.joining,
        view.predecessor,
    )
    return _effects(view, new)


# ---------------------------------------------------------------------------
# Availability


def _tre_points_to_self(view: NodeView) -> bool:
    if isinstance(view.tre, Hint):
        return view.tre.node == view.me
    return isinstance(view.tre, TrustOre) and view.ore == view.me


def set_unavailable(view: NodeView) -> Effects:
    """Leave: tell readers who to use instead, or that nobody is left."""
    if view.joining:
        raise ProtocolError("cannot toggle before the join completes")
    if view.state is not Availability.AVAILABLE:
        raise ProtocolError(f"{view.me} is already unavailable")
    if _tre_points_to_self(view):
        # We were the last Available node: the system goes empty.
        empty = _with_tre(view, SYSTEM_EMPTY, Availability.UNAVAILABLE)
        return _effects(view, empty, [(mybox_key(view.me), NULL)])
    down = _with_tre(view, view.tre, Availability.UNAVAILABLE)
    return _effects(view, down, [(mybox_key(view.me), published_hint(down))])


def set_available(view: NodeView) -> Effects:
    """Return: announce ourselves; wake the system if it was empty."""
    if view.joining:
        raise ProtocolError("cannot toggle before the join completes")
    if view.state is not Availability.UNAVAILABLE:
        raise ProtocolError(f"{view.me} is already available")
    me = view.me
    announce = (mybox_key(me), Identity(me))
    if isinstance(view.tre, SystemEmpty):
        woken = _with_tre(view, Hint(me), Availability.AVAILABLE)
        return _effects(view, woken, [(oneback_key(), Identity(me)), announce])
    up = _with_tre(view, view.tre, Availability.AVAILABLE)
    return _effects(view, up, [announce])


def _next_available(view: NodeView, msg: Payload) -> NextAvailable:
    """The next-available value a status message implies for its reader."""
    if isinstance(msg, Identity):
        return TRUST_ORE if msg.node == view.ore else Hint(msg.node)
    return SYSTEM_EMPTY


def on_mybox_from_ore(view: NodeView, msg: Payload) -> Effects:
    """News on the receiver's status stream: retarget, and propagate it
    backwards if we are down ourselves, so our own readers stay current.

    Two stop rules end the propagation: a value equal to our last published
    one is dropped (the wave has already passed here), and news naming us is
    never forwarded (a full wrap of the ring, or a stale claim about us).
    """
    me = view.me
    new = _with_tre(view, _next_available(view, msg))
    publications: list[tuple[TopicKey, Payload]] = []
    names_me = isinstance(msg, Identity) and msg.node == me
    if view.state is Availability.UNAVAILABLE and not names_me:
        value = published_hint(new)
        if value != view.last_mybox:
            publications.append((mybox_key(me), value))
    return _effects(view, new, publications)


def on_mybox_from_hint(view: NodeView, msg: Payload) -> Effects:
    """News on the hint's status stream: it went down, follow its forward.

    No republication: every node that was reading our value for this hint
    subscribes to the hint's stream too, so they hear the change directly.
    """
    if not isinstance(view.tre, Hint):
        raise ProtocolError("no hint subscription in this view")
    return _effects(view, _with_tre(view, _next_available(view, msg)))


def on_oneback(view: NodeView, msg: Payload) -> Effects:
    """First recovery after the system went empty: adopt the recoverer."""
    if not isinstance(view.tre, SystemEmpty):
        raise ProtocolError("wake-up news outside the system-empty state")
    if not isinstance(msg, Identity):
        raise ProtocolError("the wake-up channel carries identities")
    if msg.node == view.me:
        # Own echo; the system-empty wait continues.
        return _effects(view, view)
    # Adopting the recoverer, and republishing while down, follow the rule
    # for news on the receiver's stream.
    return on_mybox_from_ore(view, msg)


# ---------------------------------------------------------------------------
# Routing


def handle_delivery(view: NodeView, sample: Sample) -> Effects:
    """Route a delivered sample to the handler its subscription implies."""
    key = sample.key
    topic = key.topic
    if topic is TopicName.ARRIVALS:
        return _on_arrivals(view, sample.payload)
    if topic is TopicName.ORE:
        if key.instance != view.me:
            raise ProtocolError(f"{view.me} received {key}")
        return handle_new_ore(view, sample.payload)
    if topic is TopicName.OSE:
        if key.instance != view.me:
            raise ProtocolError(f"{view.me} received {key}")
        return handle_ose_update(view, sample.payload)
    if topic is TopicName.ONEBACK:
        return on_oneback(view, sample.payload)
    if topic is TopicName.MYBOX:
        if not view.joining and key.instance == view.ore:
            return on_mybox_from_ore(view, sample.payload)
        if isinstance(view.tre, Hint) and key.instance == view.tre.node:
            return on_mybox_from_hint(view, sample.payload)
    raise ProtocolError(f"{view.me} has no route for {key}")
