"""Per-node state machine: ring membership and next-available tracking.

Each node keeps a tiny local view: its sender (ose) and receiver (ore) on the
arrival-order ring, the next Available node (tre), and its own availability.
Handlers are pure functions from (view, message) to Effects; all sequencing
and bus interaction belongs to the network layer.

The next-available value tre is a node id, or None (NextAvailable). Once
the ring settles it is the first Available node at or after the receiver,
or None when no node is Available; then the node waits on the global
wake-up channel (OneBack) for the first recovery. A tre other than the
receiver is a hint: the receiver is down and the hint is the first
Available node after it. A hint of `me` is, for an Available node, the
transient "I am the only Available node" case. Under interleaved toggles a
down node can also hold tre == me: its hint went down before the node's own
down news reached it (see on_mybox_from_hint).

A node publishes on its own status stream (MyBox) whenever the value another
node would read from it changes: its own id while Available, the current
hint while down, None when the whole system is down. The topic fixes what
the value means, so it is a bare node id or None, never a tagged object. A
down node that hears its receiver name it has seen its own down wave come
back around the ring, so nothing is Available: it sets tre to None and
publishes None. One stop rule keeps the ring quiescent: a value equal to
the last one published is never republished.

A node's subscriptions are its own ORe/OSe streams, which never change, plus
the status streams it reads and the one global stream it holds (the arrival
log while joining, the wake-up channel while nothing is Available), as
subscriptions() defines them. No handler computes that set: a status
handler changes only tre, availability and the last published value, so
_status() works out its subscription changes from the old and new tre
alone, and each join-handler branch names its own fixed change. Either way
each transition costs O(1), joins and status-wave hops alike.
"""

from __future__ import annotations

from typing import NamedTuple

from .bus import (
    ARRIVALS_KEY,
    ONEBACK_KEY,
    NodeId,
    Payload,
    Sample,
    TopicKey,
    TopicName,
    mybox_key,
    ore_key,
    ose_key,
)


class ProtocolError(Exception):
    """A handler was driven outside the protocol's reachable states."""


# Reading a member off an Enum class goes through the metaclass, which costs
# about as much as building a small tuple. The router compares topics on
# every delivery, so it reads module globals instead.
_ARRIVALS = TopicName.ARRIVALS
_ORE = TopicName.ORE
_OSE = TopicName.OSE
_MYBOX = TopicName.MYBOX
_ONEBACK = TopicName.ONEBACK


# The first Available node at or after the receiver, or None when no node is
# Available (see the module docstring).
NextAvailable = NodeId | None


class NodeView(NamedTuple):
    """A node's entire local knowledge.

    last_mybox is the most recent value published on this node's own status
    stream. It is `me` until the node's first publication, as join sets it:
    the value a reader assumes of a node that has never toggled. It backs
    the republication guard. joining is True from the arrival announcement
    until the node holds its ring position. predecessor is the node of the
    latest arrival record replayed before our own, the insertion point; it
    is None before the first such record and once the join completes.

    Views are immutable named tuples, so the engine and its clones share
    them; handlers build a new view for every change. Network._apply reads
    the fields by position, so their order is part of that contract.
    """

    me: NodeId
    ose: NodeId
    ore: NodeId
    tre: NextAvailable
    available: bool
    last_mybox: NextAvailable = None
    joining: bool = False
    predecessor: NodeId | None = None


class Effects(NamedTuple):
    """The externally visible result of one handler application."""

    view: NodeView
    publications: tuple[tuple[TopicKey, Payload], ...] = ()
    subscribe: tuple[TopicKey, ...] = ()
    unsubscribe: tuple[TopicKey, ...] = ()


def subscriptions(view: NodeView) -> frozenset[TopicKey]:
    """The exact subscription set a node holds in a given view.

    While joining: the arrival log plus the two standing control streams.
    Afterwards: the standing control streams, the receiver's status stream,
    the current hint's status stream (never one's own or the receiver's,
    which is already covered), and the wake-up channel iff nothing is
    Available.
    """
    me = view.me
    keys = {ore_key(me), ose_key(me)}
    if view.joining:
        keys.add(ARRIVALS_KEY)
        return frozenset(keys)
    keys.add(mybox_key(view.ore))
    tre = view.tre
    if tre is None:
        keys.add(ONEBACK_KEY)
    elif tre != me:
        keys.add(mybox_key(tre))
    return frozenset(keys)


def published_hint(view: NodeView) -> NextAvailable:
    """The value this node's status stream should carry right now."""
    if view.available:
        return view.me
    return _down_hint(view.me, view.tre)


def _down_hint(me: NodeId, tre: NextAvailable) -> NextAvailable:
    """published_hint of a down view of `me` whose next-available is `tre`."""
    return None if tre == me else tre


# Calling NodeView(...) or Effects(...) runs the named tuple's generated
# Python __new__; tuple.__new__ builds the same tuple in one C call (what
# NamedTuple._make does), and the engine builds one Effects, and usually a
# NodeView, per delivery. It skips the field defaults, so every call names
# all of the fields.
_new = tuple.__new__


def _status(
    view: NodeView,
    tre: NextAvailable,
    available: bool,
    last_mybox: NextAvailable,
    publications: tuple[tuple[TopicKey, Payload], ...] = (),
) -> Effects:
    """The Effects of a status handler: the settled `view` with a new tre,
    availability and last published value. joining and ore stay, so of
    subscriptions() only the hint's status stream and the wake-up channel
    can change, and they follow from the old and new tre alone. A handler
    that publishes on its own status stream passes that value as
    `last_mybox`."""
    me, ose, ore, old, _available, _last_mybox, joining, predecessor = view
    new = _new(NodeView, (me, ose, ore, tre, available, last_mybox, joining, predecessor))
    if tre == old:
        return _new(Effects, (new, publications, (), ()))
    # Trace order: at most one status stream, then the global stream.
    if tre is None:
        subscribe = (ONEBACK_KEY,)
    elif tre == ore or tre == me:
        subscribe = ()
    else:
        subscribe = (mybox_key(tre),)
    if old is None:
        unsubscribe = (ONEBACK_KEY,)
    elif old == ore or old == me:
        unsubscribe = ()
    else:
        unsubscribe = (mybox_key(old),)
    return _new(Effects, (new, publications, subscribe, unsubscribe))


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
        tre=me,
        available=True,
        last_mybox=me,
        joining=True,
    )
    return Effects(
        view=view,
        publications=((ARRIVALS_KEY, me),),
        subscribe=(ARRIVALS_KEY, ore_key(me), ose_key(me)),
    )


def _on_arrivals(view: NodeView, who: NodeId) -> Effects:
    if not view.joining:
        return _new(Effects, (view, (), (), ()))
    me = view.me
    if who != me:
        # A record before our own only moves the insertion point. The bus
        # replays the last two records, so under serialized joins this runs
        # once per join.
        new = _new(NodeView, (
            me, view.ose, view.ore, view.tre, view.available, view.last_mybox, True, who,
        ))
        return _new(Effects, (new, (), (), ()))
    predecessor = view.predecessor
    if predecessor is None:
        # First node in: a ring of one, reading its own status stream.
        new = _new(NodeView, (me, me, me, view.tre, view.available, view.last_mybox, False, None))
        return _new(Effects, (new, (), (mybox_key(me),), (ARRIVALS_KEY,)))
    # The predecessor is our sender; its answer on OSe_me completes the join.
    new = _new(NodeView, (
        me, predecessor, view.ore, view.tre, view.available, view.last_mybox, True, predecessor,
    ))
    return _new(Effects, (new, ((ore_key(predecessor), me),), (), ()))


def handle_new_ore(view: NodeView, joiner: NodeId) -> Effects:
    """A joiner asks to become our receiver: splice it in after us.

    We tell the joiner who its receiver is (our old one) and tell the old
    receiver who its sender now is (the joiner), then repoint ourselves. The
    view is settled, and the joiner is not on the ring (Network.add_node
    refuses a known node), so it is never our hint.
    """
    me, ose, old_ore, tre, available, last_mybox, joining, predecessor = view
    if joiner == me or joiner == old_ore:
        return _new(Effects, (view, (), (), ()))
    publications = ((ose_key(joiner), old_ore), (ose_key(old_ore), joiner))
    new = _new(NodeView, (me, ose, joiner, joiner, available, last_mybox, joining, predecessor))
    # We now trust the joiner and drop every status stream and channel we
    # read; trace order: status streams by ascending instance, then OneBack.
    if tre is None:
        unsubscribe = (mybox_key(old_ore), ONEBACK_KEY)
    elif tre == old_ore or tre == me:
        unsubscribe = (mybox_key(old_ore),)
    else:
        unsubscribe = tuple(map(mybox_key, sorted((old_ore, tre))))
    return _new(Effects, (new, publications, (mybox_key(joiner),), unsubscribe))


def handle_ose_update(view: NodeView, who: NodeId) -> Effects:
    """Ring rewiring addressed to us. While we join, `who` is our receiver,
    which ends the join; afterwards it is our new sender. Joins never
    overlap (see Network.add_node), so a joiner hears only its splice
    answer and a settled node only its new sender."""
    if view.joining:
        new = _new(NodeView, (
            view.me, view.ose, who, who, view.available, view.last_mybox, False, None,
        ))
        return _new(Effects, (new, (), (mybox_key(who),), (ARRIVALS_KEY,)))
    new = _new(NodeView, (
        view.me, who, view.ore, view.tre, view.available, view.last_mybox, False,
        view.predecessor,
    ))
    return _new(Effects, (new, (), (), ()))


# ---------------------------------------------------------------------------
# Availability


def set_unavailable(view: NodeView) -> Effects:
    """Leave: tell readers who to use instead, or that nobody is left."""
    if view.joining:
        raise ProtocolError("cannot toggle before the join completes")
    if not view.available:
        raise ProtocolError(f"{view.me} is already unavailable")
    me = view.me
    # If we were the last Available node the system goes empty, and the
    # value published for an empty system is None.
    tre = _down_hint(me, view.tre)
    return _status(view, tre, False, tre, ((mybox_key(me), tre),))


def set_available(view: NodeView) -> Effects:
    """Return: announce ourselves; wake the system if it was empty."""
    if view.joining:
        raise ProtocolError("cannot toggle before the join completes")
    if view.available:
        raise ProtocolError(f"{view.me} is already available")
    me = view.me
    announce = (mybox_key(me), me)
    if view.tre is None:
        return _status(view, me, True, me, ((ONEBACK_KEY, me), announce))
    return _status(view, view.tre, True, me, (announce,))


def on_mybox_from_ore(view: NodeView, msg: NextAvailable) -> Effects:
    """News on the receiver's status stream: retarget, and propagate it
    backwards if we are down ourselves, so our own readers stay current.

    News naming us while we are down is our own down wave, back after a full
    wrap of the ring: nothing is Available, so we set tre to None and
    publish None. One stop rule ends the propagation: a value equal to our
    last published one is dropped (the wave has already passed here).
    """
    if view.available:
        if msg == view.tre:
            # News we already hold: the same view, and nothing to do. About
            # one delivery in ten on a churning ring.
            return _new(Effects, (view, (), (), ()))
        return _status(view, msg, True, view.last_mybox)
    me = view.me
    tre = _down_hint(me, msg)
    if tre == view.last_mybox:
        return _status(view, tre, False, view.last_mybox)
    return _status(view, tre, False, tre, ((mybox_key(me), tre),))


def on_mybox_from_hint(view: NodeView, msg: NextAvailable) -> Effects:
    """News on the hint's status stream, the stream of tre when tre names a
    node other than the receiver: the hint went down, follow its forward.

    No republication: every node that was reading our value for this hint
    subscribes to the hint's stream too, so they hear the change directly.

    News naming us gives tre == me in either state. For an Available node
    that means it is the only Available one. A down node (seen only under
    interleaved toggles: the hint went down before our own down news reached
    it) publishes nothing here, although published_hint of the new view is
    None; it keeps reading its receiver's stream, whose news replaces the
    hint.
    """
    if view.tre is None or view.tre == view.ore:
        raise ProtocolError("no hint subscription in this view")
    return _status(view, msg, view.available, view.last_mybox)


def on_oneback(view: NodeView, msg: NodeId) -> Effects:
    """First recovery after the system went empty: adopt the recoverer."""
    if view.tre is not None:
        raise ProtocolError("wake-up news outside the system-empty state")
    if msg is None:
        raise ProtocolError("the wake-up channel carries node ids")
    if msg == view.me:
        # Own echo; the system-empty wait continues.
        return _new(Effects, (view, (), (), ()))
    # Adopting the recoverer, and republishing while down, follow the rule
    # for news on the receiver's stream.
    return on_mybox_from_ore(view, msg)


# ---------------------------------------------------------------------------
# Routing


def handle_delivery(view: NodeView, sample: Sample) -> Effects:
    """Route a delivered sample to the handler its subscription implies.
    Status news comes first: it is nearly every delivery of a run."""
    key = sample.key
    topic = key.topic
    if topic is _MYBOX:
        if not view.joining and key.instance == view.ore:
            return on_mybox_from_ore(view, sample.payload)
        if key.instance == view.tre:
            return on_mybox_from_hint(view, sample.payload)
    elif topic is _ARRIVALS:
        return _on_arrivals(view, sample.payload)
    elif topic is _ORE:
        if key.instance != view.me:
            raise ProtocolError(f"{view.me} received {key}")
        return handle_new_ore(view, sample.payload)
    elif topic is _OSE:
        if key.instance != view.me:
            raise ProtocolError(f"{view.me} received {key}")
        return handle_ose_update(view, sample.payload)
    elif topic is _ONEBACK:
        return on_oneback(view, sample.payload)
    raise ProtocolError(f"{view.me} has no route for {key}")
