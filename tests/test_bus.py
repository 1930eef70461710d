"""Bus behavior: the one durable log and its replay, ordering, cancellation.

The arrival log is the bus's only history: it replays its last two samples
to a late subscriber, and every other topic keeps nothing. History is
checked the way a node sees it, through replay to a late subscriber.
"""

import copy
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import subscriptions_of
from rfoverlay import protocol
from rfoverlay.bus import (
    ARRIVALS_KEY,
    ONEBACK_KEY,
    PayloadKindError,
    SubscriptionError,
    TopicKey,
    TopicName,
    VirtualBus,
    mybox_key,
    ore_key,
    ose_key,
    BusError,
)
from rfoverlay.network import Network
from rfoverlay.trace import TraceRecorder


def fresh_bus(delay: int = 0) -> VirtualBus:
    return VirtualBus(delivery_delay=delay)


def drain(bus: VirtualBus) -> list:
    """Every (subscriber, sample) pair the bus dispatches until quiescent."""
    deliveries = []
    while (delivery := bus.dispatch_next()) is not None:
        deliveries.append(delivery)
    return deliveries


def replayed(bus: VirtualBus, key=None, subscriber: int = 99) -> list:
    """What a new subscriber to `key` (default: the arrival log) is sent."""
    key = ARRIVALS_KEY if key is None else key
    drain(bus)
    bus.subscribe(subscriber, key)
    return [sample for _subscriber, sample in drain(bus)]


# -- keys ---------------------------------------------------------------


def test_global_topics_refuse_instances():
    with pytest.raises(BusError):
        TopicKey(TopicName.ARRIVALS, 3)
    with pytest.raises(BusError):
        TopicKey(TopicName.ONEBACK, 0)


def test_keyed_topics_require_instances():
    with pytest.raises(BusError):
        TopicKey(TopicName.MYBOX)
    with pytest.raises(BusError):
        TopicKey(TopicName.ORE, -1)
    assert str(mybox_key(3)) == "MyBox[3]"
    assert str(ARRIVALS_KEY) == "Arrivals"


def test_keys_are_interned_by_construction():
    """A key built directly is the accessor's key, so keys compare and hash
    by identity; copies and pickles give the same object back, and a bad
    first construction still raises."""
    assert TopicKey(TopicName.MYBOX, 3) is mybox_key(3)
    assert TopicKey(TopicName.ORE, 5) is ore_key(5)
    assert TopicKey(TopicName.OSE, 5) is ose_key(5)
    assert TopicKey(TopicName.ARRIVALS) is ARRIVALS_KEY
    assert TopicKey(TopicName.ONEBACK, None) is ONEBACK_KEY
    assert TopicKey(TopicName.MYBOX, 3) != mybox_key(4)
    assert copy.copy(mybox_key(3)) is copy.deepcopy(mybox_key(3)) is mybox_key(3)
    assert pickle.loads(pickle.dumps(mybox_key(3))) is mybox_key(3)
    assert repr(mybox_key(3)) == "TopicKey(topic=<TopicName.MYBOX: 'MyBox'>, instance=3)"
    with pytest.raises(AttributeError):
        mybox_key(3).instance = 4
    with pytest.raises(BusError):
        TopicKey("Bogus", 3)
    with pytest.raises(BusError):
        TopicKey(TopicName.MYBOX, "3")


# -- durability -------------------------------------------------------------


def test_only_the_arrival_log_replays():
    """The arrival log alone is durable, and replays its last two samples (a
    joiner's predecessor and itself); every other topic replays nothing."""
    bus = fresh_bus()
    for node in range(3):
        bus.publish(node, ARRIVALS_KEY, node)
        bus.publish(node, mybox_key(node), node)
        bus.publish(node, ONEBACK_KEY, node)
        bus.publish(node, ore_key(node), node)
        bus.publish(node, ose_key(node), node)
    for key in (mybox_key(2), ONEBACK_KEY, ore_key(2), ose_key(2)):
        assert replayed(bus, key) == []
    assert [s.payload for s in replayed(bus)] == [1, 2]


def test_payload_kinds_are_checked():
    """The topic fixes what its payload means: a node id on every topic, or
    None on MyBox only. Types match exactly, so a bool is not a node id."""
    bus = fresh_bus()
    with pytest.raises(PayloadKindError):
        bus.publish(0, ARRIVALS_KEY, {"role": "new_ore", "who": 0})
    with pytest.raises(PayloadKindError):
        bus.publish(0, mybox_key(0), "0")
    with pytest.raises(PayloadKindError):
        bus.publish(0, ore_key(1), None)
    with pytest.raises(PayloadKindError):
        bus.publish(0, ose_key(1), None)
    with pytest.raises(PayloadKindError):
        bus.publish(0, ose_key(1), False)
    with pytest.raises(PayloadKindError):
        bus.publish(0, mybox_key(0), True)
    with pytest.raises(PayloadKindError):
        bus.publish(0, ARRIVALS_KEY, None)
    with pytest.raises(PayloadKindError):
        bus.publish(0, ONEBACK_KEY, None)


def test_a_refused_publish_changes_nothing():
    """The payload is checked before any state changes: no sequence number
    is taken, nothing is counted, queued or logged."""
    bus = fresh_bus()
    bus.subscribe(1, mybox_key(0))
    bus.subscribe(1, ARRIVALS_KEY)
    counts = dict(bus.publish_counts)
    for key, payload in ((mybox_key(0), "0"), (ARRIVALS_KEY, None)):
        with pytest.raises(PayloadKindError):
            bus.publish(0, key, payload)
    assert bus._seq == {}
    assert bus.publish_counts == counts
    assert bus.pending_count == 0
    assert replayed(bus) == []
    assert bus.publish(0, mybox_key(0), 0).seq == 1


# -- history -----------------------------------------------------------------


def test_keep_n_retains_the_last_n():
    bus = fresh_bus()
    for node in range(5):
        bus.publish(node, ARRIVALS_KEY, node)
    assert [s.payload for s in replayed(bus)] == [3, 4]


def test_sequence_numbers_count_per_publisher_and_key():
    bus = fresh_bus()
    a = bus.publish(0, mybox_key(0), 0)
    b = bus.publish(0, mybox_key(0), None)
    c = bus.publish(1, mybox_key(1), 1)
    assert (a.seq, b.seq, c.seq) == (1, 2, 1)


# -- replay ------------------------------------------------------------------


def test_durable_history_replays_to_late_joiners():
    bus = fresh_bus()
    for node in range(3):
        bus.advance()
        bus.publish(node, ARRIVALS_KEY, node)
    bus.subscribe(9, ARRIVALS_KEY)
    got = [sample.payload for _subscriber, sample in drain(bus)]
    assert got == [1, 2]  # writer and reader keep the last two


def test_replay_preserves_publication_order_across_publishers():
    bus = fresh_bus()
    bus.publish(5, ARRIVALS_KEY, 5)
    bus.advance()
    bus.publish(1, ARRIVALS_KEY, 1)
    bus.subscribe(9, ARRIVALS_KEY)
    got = [sample.payload for _subscriber, sample in drain(bus)]
    assert got == [5, 1]


def test_volatile_topics_do_not_replay():
    bus = fresh_bus()
    bus.publish(0, mybox_key(0), 0)
    bus.subscribe(1, mybox_key(0))
    assert bus.pending_count == 0
    assert drain(bus) == []


@settings(max_examples=60, deadline=None)
@given(published=st.integers(0, 12))
def test_replay_length_is_min_of_history_and_depth(published):
    bus = fresh_bus()
    for node in range(published):
        bus.publish(node, ARRIVALS_KEY, node)
    bus.subscribe(99, ARRIVALS_KEY)
    got = [sample.payload for _subscriber, sample in drain(bus)]
    # The arrival log keeps, and replays, its last two records.
    assert got == list(range(published))[-2:]


# -- dispatch order ------------------------------------------------------------


def test_same_tick_ties_resolve_by_publisher():
    bus = fresh_bus()
    bus.subscribe(7, mybox_key(1))
    bus.subscribe(7, mybox_key(0))
    bus.publish(1, mybox_key(1), 1)
    bus.publish(0, mybox_key(0), 0)
    order = [sample.publisher for _subscriber, sample in drain(bus)]
    assert order == [0, 1]


def test_per_publisher_order_is_fifo():
    bus = fresh_bus()
    bus.subscribe(7, mybox_key(0))
    bus.publish(0, mybox_key(0), 0)
    bus.publish(0, mybox_key(0), None)
    payloads = [sample.payload for _subscriber, sample in drain(bus)]
    assert payloads == [0, None]


def test_fanout_orders_subscribers_by_id():
    # A set of small ints iterates in slot order: {2, 9} gives 9 first.
    for order in ((5,), (5, 2), (5, 1, 3), (2, 9)):
        bus = fresh_bus()
        for subscriber in order:
            bus.subscribe(subscriber, mybox_key(0))
        bus.publish(0, mybox_key(0), 0)
        subscribers = [subscriber for subscriber, _sample in drain(bus)]
        assert subscribers == sorted(order)


def test_each_subscriber_sees_each_sample_once():
    bus = fresh_bus()
    bus.subscribe(1, mybox_key(0))
    bus.subscribe(2, mybox_key(0))
    bus.publish(0, mybox_key(0), 0)
    bus.publish(0, mybox_key(0), None)
    deliveries = drain(bus)
    seen = {(subscriber, sample.seq) for subscriber, sample in deliveries}
    assert len(deliveries) == 4 and len(seen) == 4
    assert drain(bus) == []


def test_dispatch_returns_the_subscriber_and_the_published_sample():
    """A delivery is the (subscriber, sample) pair, the sample being the very
    object publish returned; it is delivered at the clock's new time."""
    bus = fresh_bus(delay=1)
    bus.subscribe(2, mybox_key(0))
    bus.subscribe(1, mybox_key(0))
    for _ in range(3):
        bus.advance()
    sample = bus.publish(0, mybox_key(0), 0)
    first = bus.dispatch_next()
    assert first == (1, sample) and first[1] is sample
    assert bus.now == 4
    subscriber, again = bus.dispatch_next()
    assert subscriber == 2 and again is sample
    assert bus.now == 4
    assert bus.dispatch_next() is None


def test_delivery_delay_shifts_due_time():
    bus = fresh_bus(delay=2)
    bus.subscribe(1, mybox_key(0))
    for _ in range(3):
        bus.advance()
    sample = bus.publish(0, mybox_key(0), 0)
    assert bus.now == 3
    assert bus.dispatch_next() == (1, sample)
    assert bus.now == 5
    assert bus.dispatch_next() is None


def test_clock_never_moves_backwards():
    bus = fresh_bus()
    bus.subscribe(1, mybox_key(0))
    sample = bus.publish(0, mybox_key(0), 0)
    for _ in range(10):
        bus.advance()
    assert drain(bus) == [(1, sample)]
    assert bus.now == 10  # dispatch at now, the due tick already passed


# -- subscriptions ---------------------------------------------------------


def test_duplicate_subscription_is_an_error():
    bus = fresh_bus()
    bus.subscribe(1, mybox_key(0))
    with pytest.raises(SubscriptionError):
        bus.subscribe(1, mybox_key(0))


def test_cancel_purges_in_flight_deliveries():
    bus = fresh_bus()
    bus.subscribe(1, mybox_key(0))
    bus.subscribe(1, mybox_key(3))
    bus.subscribe(2, mybox_key(0))
    bus.publish(0, mybox_key(0), 0)
    bus.publish(3, mybox_key(3), 3)
    bus.cancel_subscription(1, mybox_key(0))
    delivered = [(subscriber, sample.key) for subscriber, sample in drain(bus)]
    assert delivered == [(2, mybox_key(0)), (1, mybox_key(3))]
    with pytest.raises(SubscriptionError):
        bus.cancel_subscription(1, mybox_key(0))


def test_cancel_on_an_empty_queue_still_cancels():
    bus = fresh_bus()
    bus.subscribe(1, mybox_key(0))
    bus.cancel_subscription(1, mybox_key(0))
    assert bus.unsubscribes == 1
    assert subscriptions_of(bus, 1) == frozenset()
    with pytest.raises(SubscriptionError):
        bus.cancel_subscription(1, mybox_key(0))


_PROPERTY_STREAMS = [
    (node, key)
    for node in range(3)
    for key in (mybox_key(0), mybox_key(1), ore_key(0), ARRIVALS_KEY)
]

# Subscribes and publications outweigh the rest, so cancels find entries
# of other subscribers and other keys in flight beside their own.
_bus_ops = st.lists(
    st.tuples(
        st.sampled_from(
            ["subscribe"] * 3 + ["publish"] * 3 + ["cancel"] * 2 + ["dispatch", "advance"]
        ),
        st.integers(0, len(_PROPERTY_STREAMS) - 1),
    ),
    max_size=80,
)


@settings(max_examples=300, deadline=None)
@given(delay=st.integers(0, 2), ops=_bus_ops)
def test_a_cancel_drops_exactly_its_own_entries_in_place(delay, ops):
    """After a cancel the queue holds what it held before but the cancelled
    (subscriber, key)'s entries, in the same list object, which a drain
    holds on to; every dispatch, then and after, takes the least entry in
    the documented order (due, publisher, seq, subscriber, enq)."""
    bus = fresh_bus(delay)
    pending = bus._pending
    live: list[tuple] = []

    def dispatch_checked() -> None:
        least = min(pending)
        assert bus.dispatch_next() == (least[3], least[5])

    for op, index in ops:
        node, key = _PROPERTY_STREAMS[index]
        if op == "subscribe" and (node, key) not in live:
            bus.subscribe(node, key)
            live.append((node, key))
        elif op == "publish":
            bus.publish(node, key, node)
        elif op == "cancel" and live:
            node, key = live.pop(index % len(live))
            before = sorted(pending)
            bus.cancel_subscription(node, key)
            assert bus._pending is pending
            assert sorted(pending) == [
                e for e in before if not (e[3] == node and e[5].key is key)
            ]
        elif op == "dispatch" and pending:
            dispatch_checked()
        elif op == "advance":
            bus.advance()
    while pending:
        dispatch_checked()


def test_subscriptions_of_reports_the_live_set():
    bus = fresh_bus()
    bus.subscribe(1, mybox_key(0))
    bus.subscribe(1, ONEBACK_KEY)
    assert subscriptions_of(bus, 1) == frozenset({mybox_key(0), ONEBACK_KEY})
    bus.cancel_subscription(1, ONEBACK_KEY)
    assert subscriptions_of(bus, 1) == frozenset({mybox_key(0)})


def test_handlers_run_on_dispatch():
    """The bus only hands a delivery back; Network.step dispatches it,
    records it and applies the subscriber's handler."""
    recorder = TraceRecorder()
    net = Network(recorder=recorder)
    for node in range(3):
        net.add_node(node)
    net.bus.advance()
    net.toggle(1, False)
    views = dict(net.views)
    recorded = len(recorder.events)
    node, sample = net.step()
    assert net.views[node] == protocol.handle_delivery(views[node], sample).view
    delivered = [e for e in recorder.events[recorded:] if e.kind == "Deliver"]
    assert [(e.time, e.node) for e in delivered] == [(net.bus.now, node)]
    assert delivered[0].value is sample
    while net.step() is not None:
        pass
    assert net.bus.pending_count == 0 and net.views[0].tre == 2
    assert net.step() is None


def test_running_totals_count_every_operation():
    bus = fresh_bus()
    bus.subscribe(1, mybox_key(0))
    bus.subscribe(2, mybox_key(0))
    bus.publish(0, mybox_key(0), 0)
    bus.publish(0, ARRIVALS_KEY, 0)
    bus.cancel_subscription(2, mybox_key(0))
    drain(bus)
    assert (bus.deliveries, bus.subscribes, bus.unsubscribes) == (1, 2, 1)
    assert bus.publish_counts[TopicName.MYBOX] == bus.publish_counts[TopicName.ARRIVALS] == 1
    twin = bus.clone()
    twin.subscribe(3, mybox_key(0))
    assert (twin.deliveries, twin.subscribes, twin.unsubscribes) == (1, 3, 1)
    assert bus.subscribes == 2


# -- determinism and duplication -----------------------------------------------


def _scripted_run() -> list[tuple]:
    bus = fresh_bus()
    bus.subscribe(3, mybox_key(0))
    bus.subscribe(1, mybox_key(0))
    for node in (2, 0, 1):
        bus.publish(node, ARRIVALS_KEY, node)
    bus.publish(0, mybox_key(0), 0)
    bus.advance()
    bus.subscribe(4, ARRIVALS_KEY)
    bus.publish(0, mybox_key(0), None)
    run = []
    while (delivery := bus.dispatch_next()) is not None:
        subscriber, sample = delivery
        run.append((bus.now, subscriber, sample.publisher, sample.seq, str(sample.key)))
    return run


def test_dispatch_is_reproducible():
    assert _scripted_run() == _scripted_run()


def test_clone_works_in_flight():
    """A clone taken mid-wave drains to the same deliveries and views as the
    original, and records nothing."""
    recorder = TraceRecorder()
    net = Network(delivery_delay=1, recorder=recorder)
    for node in range(8):
        net.add_node(node)
    net.bus.advance()
    for node in (1, 2, 5):
        net.toggle(node, False)
    net.step()
    net.step()
    assert net.bus.pending_count > 0
    twin = net.clone()
    assert twin.recorder is None
    recorded = len(recorder.events)

    def drained(network: Network) -> list:
        deliveries = []
        while (delivery := network.step()) is not None:
            deliveries.append((network.bus.now, *delivery))
        return deliveries

    twin_deliveries = drained(twin)
    assert twin_deliveries and len(recorder.events) == recorded
    assert drained(net) == twin_deliveries
    assert twin.views == net.views
    assert twin.bus.now == net.bus.now


def test_clone_carries_state():
    bus = fresh_bus()
    bus.subscribe(1, mybox_key(0))
    bus.publish(0, mybox_key(0), 0)
    for node in range(3):
        bus.publish(node, ARRIVALS_KEY, node)
    drain(bus)
    twin = bus.clone()
    history = replayed(bus)
    assert [s.payload for s in history] == [1, 2]
    assert replayed(twin) == history
    assert subscriptions_of(twin, 1) == subscriptions_of(bus, 1)
    # the twin's subscriber sets are its own
    twin.cancel_subscription(1, mybox_key(0))
    assert subscriptions_of(twin, 1) == frozenset()
    assert subscriptions_of(bus, 1) == frozenset({mybox_key(0)})
    # sequence numbering continues rather than restarting
    sample = twin.publish(0, mybox_key(0), None)
    assert sample.seq == 2
    # and the original is untouched by the twin's activity
    twin.publish(7, ARRIVALS_KEY, 7)
    assert [s.payload for s in replayed(twin, subscriber=97)] == [2, 7]
    assert [s.payload for s in replayed(bus, subscriber=97)] == [1, 2]
    assert bus.publish_counts[TopicName.MYBOX] == 1
