"""Bus behavior: the QoS table, retention, replay, ordering, cancellation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfoverlay import protocol
from rfoverlay.bus import (
    NULL,
    Identity,
    JoinRecord,
    PayloadKindError,
    QosProfile,
    SubscriptionError,
    TopicKey,
    TopicName,
    VirtualBus,
    arrivals_key,
    mybox_key,
    oneback_key,
    ore_key,
    standard_qos,
    BusError,
    Durability,
)
from rfoverlay.network import Network
from rfoverlay.trace import TraceRecorder


def fresh_bus(delay: int = 0) -> VirtualBus:
    return VirtualBus(delivery_delay=delay)


def drain(bus: VirtualBus) -> list:
    records = []
    while (record := bus.dispatch_next()) is not None:
        records.append(record)
    return records


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
    assert str(arrivals_key()) == "Arrivals"


# -- QoS table -------------------------------------------------------------


def test_standard_qos_table():
    """The arrival log alone is durable, and keeps and replays its last two
    samples (a joiner's predecessor and itself); the rest keep one sample."""
    assert {name: standard_qos(name) for name in TopicName} == {
        TopicName.ARRIVALS: QosProfile(Durability.PERSISTENT, 2),
        TopicName.ORE: QosProfile(Durability.VOLATILE, 1),
        TopicName.OSE: QosProfile(Durability.VOLATILE, 1),
        TopicName.MYBOX: QosProfile(Durability.VOLATILE, 1),
        TopicName.ONEBACK: QosProfile(Durability.VOLATILE, 1),
    }


def test_payload_kinds_are_checked():
    bus = fresh_bus()
    with pytest.raises(PayloadKindError):
        bus.publish(0, arrivals_key(), Identity(0))
    with pytest.raises(PayloadKindError):
        bus.publish(0, mybox_key(0), JoinRecord(0))
    with pytest.raises(PayloadKindError):
        bus.publish(0, ore_key(1), NULL)


# -- retention -------------------------------------------------------------


def test_keep_n_retains_the_last_n():
    bus = fresh_bus()
    for node in range(5):
        bus.publish(node, arrivals_key(), JoinRecord(node))
    kept = [s.payload.node for s in bus.retained(arrivals_key())]
    assert kept == [3, 4]


def test_keep_last_retains_one_per_key():
    bus = fresh_bus()
    bus.publish(0, mybox_key(0), Identity(0))
    bus.publish(0, mybox_key(0), NULL)
    bus.publish(1, mybox_key(1), Identity(1))
    assert [s.payload for s in bus.retained(mybox_key(0))] == [NULL]
    assert [s.payload for s in bus.retained(mybox_key(1))] == [Identity(1)]


def test_sequence_numbers_count_per_publisher_and_key():
    bus = fresh_bus()
    a = bus.publish(0, mybox_key(0), Identity(0))
    b = bus.publish(0, mybox_key(0), NULL)
    c = bus.publish(1, mybox_key(1), Identity(1))
    assert (a.seq, b.seq, c.seq) == (1, 2, 1)


# -- replay ------------------------------------------------------------------


def test_durable_history_replays_to_late_joiners():
    bus = fresh_bus()
    for node in range(3):
        bus.advance()
        bus.publish(node, arrivals_key(), JoinRecord(node))
    bus.subscribe(9, arrivals_key())
    got = [r.sample.payload.node for r in drain(bus)]
    assert got == [1, 2]  # writer and reader keep the last two
    assert [s.payload.node for s in bus.retained(arrivals_key())] == [1, 2]


def test_replay_preserves_publication_order_across_publishers():
    bus = fresh_bus()
    bus.publish(5, arrivals_key(), JoinRecord(5))
    bus.advance()
    bus.publish(1, arrivals_key(), JoinRecord(1))
    bus.subscribe(9, arrivals_key())
    got = [r.sample.payload.node for r in drain(bus)]
    assert got == [5, 1]


def test_volatile_topics_do_not_replay():
    bus = fresh_bus()
    bus.publish(0, mybox_key(0), Identity(0))
    bus.subscribe(1, mybox_key(0))
    assert bus.quiescent
    assert drain(bus) == []


@settings(max_examples=60, deadline=None)
@given(published=st.integers(0, 12))
def test_replay_length_is_min_of_history_and_depth(published):
    bus = fresh_bus()
    for node in range(published):
        bus.publish(node, arrivals_key(), JoinRecord(node))
    bus.subscribe(99, arrivals_key())
    got = [r.sample.payload.node for r in drain(bus)]
    # The arrival log keeps, and replays, its last two records.
    assert got == list(range(published))[-2:]


# -- dispatch order ------------------------------------------------------------


def test_same_tick_ties_resolve_by_publisher():
    bus = fresh_bus()
    bus.subscribe(7, mybox_key(1))
    bus.subscribe(7, mybox_key(0))
    bus.publish(1, mybox_key(1), Identity(1))
    bus.publish(0, mybox_key(0), Identity(0))
    order = [r.sample.publisher for r in drain(bus)]
    assert order == [0, 1]


def test_per_publisher_order_is_fifo():
    bus = fresh_bus()
    bus.subscribe(7, mybox_key(0))
    bus.publish(0, mybox_key(0), Identity(0))
    bus.publish(0, mybox_key(0), NULL)
    payloads = [r.sample.payload for r in drain(bus)]
    assert payloads == [Identity(0), NULL]


def test_fanout_orders_subscribers_by_id():
    bus = fresh_bus()
    bus.subscribe(5, mybox_key(0))
    bus.subscribe(2, mybox_key(0))
    bus.publish(0, mybox_key(0), Identity(0))
    subscribers = [r.subscriber for r in drain(bus)]
    assert subscribers == [2, 5]


def test_each_subscriber_sees_each_sample_once():
    bus = fresh_bus()
    bus.subscribe(1, mybox_key(0))
    bus.subscribe(2, mybox_key(0))
    bus.publish(0, mybox_key(0), Identity(0))
    bus.publish(0, mybox_key(0), NULL)
    records = drain(bus)
    seen = {(r.subscriber, r.sample.seq) for r in records}
    assert len(records) == 4 and len(seen) == 4
    assert drain(bus) == []


def test_delivery_delay_shifts_due_time():
    bus = fresh_bus(delay=2)
    bus.subscribe(1, mybox_key(0))
    bus.advance(3)
    bus.publish(0, mybox_key(0), Identity(0))
    (record,) = drain(bus)
    assert record.time == 5
    assert bus.now == 5


def test_clock_never_moves_backwards():
    bus = fresh_bus()
    with pytest.raises(BusError):
        bus.advance(-1)
    bus.subscribe(1, mybox_key(0))
    bus.publish(0, mybox_key(0), Identity(0))
    bus.advance(10)
    (record,) = drain(bus)
    assert record.time == 10  # dispatch at now, the due tick already passed


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
    bus.publish(0, mybox_key(0), Identity(0))
    bus.publish(3, mybox_key(3), Identity(3))
    bus.cancel_subscription(1, mybox_key(0))
    delivered = [(r.subscriber, r.sample.key) for r in drain(bus)]
    assert delivered == [(2, mybox_key(0)), (1, mybox_key(3))]
    with pytest.raises(SubscriptionError):
        bus.cancel_subscription(1, mybox_key(0))


def test_subscriptions_of_reports_the_live_set():
    bus = fresh_bus()
    bus.subscribe(1, mybox_key(0))
    bus.subscribe(1, oneback_key())
    assert bus.subscriptions_of(1) == frozenset({mybox_key(0), oneback_key()})
    bus.cancel_subscription(1, oneback_key())
    assert bus.subscriptions_of(1) == frozenset({mybox_key(0)})


def test_handlers_run_on_dispatch():
    """The bus only hands a delivery back; Network.step dispatches it,
    records it and applies the subscriber's handler."""
    recorder = TraceRecorder()
    net = Network(recorder=recorder)
    net.bus.advance()
    net.add_node(0)
    net.dispatch_to_quiescence()
    net.bus.advance()
    net.add_node(1)
    views = dict(net.views)
    recorded = len(recorder.events)
    record = net.step()
    node = record.subscriber
    assert net.views[node] == protocol.handle_delivery(views[node], record.sample).view
    delivered = [e for e in recorder.events[recorded:] if e.kind == "Deliver"]
    assert [(e.time, e.node) for e in delivered] == [(record.time, node)]
    while net.step() is not None:
        pass
    assert net.bus.quiescent and net.join_completed(1)
    assert net.step() is None


def test_running_totals_count_every_operation():
    bus = fresh_bus()
    bus.subscribe(1, mybox_key(0))
    bus.subscribe(2, mybox_key(0))
    bus.publish(0, mybox_key(0), Identity(0))
    bus.publish(0, arrivals_key(), JoinRecord(0))
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
        bus.publish(node, arrivals_key(), JoinRecord(node))
    bus.publish(0, mybox_key(0), Identity(0))
    bus.advance()
    bus.subscribe(4, arrivals_key())
    bus.publish(0, mybox_key(0), NULL)
    return [
        (r.time, r.subscriber, r.sample.publisher, r.sample.seq, str(r.sample.key))
        for r in drain(bus)
    ]


def test_dispatch_is_reproducible():
    assert _scripted_run() == _scripted_run()


def test_clone_requires_quiescence():
    bus = fresh_bus()
    bus.subscribe(1, mybox_key(0))
    bus.publish(0, mybox_key(0), Identity(0))
    with pytest.raises(BusError):
        bus.clone()


def test_clone_carries_state():
    bus = fresh_bus()
    bus.subscribe(1, mybox_key(0))
    bus.publish(0, mybox_key(0), Identity(0))
    drain(bus)
    twin = bus.clone()
    assert twin.retained(mybox_key(0)) == bus.retained(mybox_key(0))
    assert twin.subscriptions_of(1) == bus.subscriptions_of(1)
    # the twin's subscriber sets are its own
    twin.cancel_subscription(1, mybox_key(0))
    assert twin.subscriptions_of(1) == frozenset()
    assert bus.subscriptions_of(1) == frozenset({mybox_key(0)})
    # sequence numbering continues rather than restarting
    sample = twin.publish(0, mybox_key(0), NULL)
    assert sample.seq == 2
    # and the original is untouched by the twin's activity
    assert bus.retained(mybox_key(0))[-1].payload == Identity(0)
