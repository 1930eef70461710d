"""Bus behavior: declaration, retention, replay, ordering, cancellation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfoverlay.bus import (
    NULL,
    DuplicateTopicError,
    Identity,
    JoinRecord,
    KeepLast,
    PayloadKindError,
    QosError,
    QosProfile,
    SubscriptionError,
    TopicKey,
    TopicName,
    UndeclaredTopicError,
    VirtualBus,
    arrivals_key,
    arrivals_qos,
    control_qos,
    mybox_key,
    oneback_key,
    ore_key,
    standard_qos,
    status_qos,
    BusError,
    Durability,
)


def fresh_bus(arrivals_depth: int = 8, delay: int = 0) -> VirtualBus:
    bus = VirtualBus(delivery_delay=delay)
    bus.declare_standard_topics(arrivals_depth=arrivals_depth)
    return bus


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


# -- declaration ---------------------------------------------------------


def test_declare_twice_is_an_error():
    bus = VirtualBus()
    bus.declare_topic(TopicName.MYBOX, status_qos())
    with pytest.raises(DuplicateTopicError):
        bus.declare_topic(TopicName.MYBOX, status_qos())


def test_publish_requires_declaration():
    bus = VirtualBus()
    with pytest.raises(UndeclaredTopicError):
        bus.publish(0, mybox_key(0), Identity(0))
    with pytest.raises(UndeclaredTopicError):
        bus.subscribe(0, mybox_key(0))


def test_topic_qos_is_pinned():
    """Each topic admits exactly one profile shape."""
    bus = VirtualBus()
    with pytest.raises(QosError):
        bus.declare_topic(TopicName.ARRIVALS, status_qos())
    with pytest.raises(QosError):
        bus.declare_topic(TopicName.MYBOX, arrivals_qos(4))
    with pytest.raises(QosError):
        bus.declare_topic(TopicName.ORE, arrivals_qos(4))
    volatile_deep = QosProfile(durability=Durability.VOLATILE, history=KeepLast())
    assert standard_qos(TopicName.MYBOX) == volatile_deep


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
    bus = fresh_bus(arrivals_depth=3)
    for node in range(5):
        bus.publish(node, arrivals_key(), JoinRecord(node))
    kept = [s.payload.node for s in bus.retained(arrivals_key())]
    assert kept == [2, 3, 4]


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
    bus = fresh_bus(arrivals_depth=8)
    for node in range(3):
        bus.advance()
        bus.publish(node, arrivals_key(), JoinRecord(node))
    bus.subscribe(9, arrivals_key())
    got = [r.sample.payload.node for r in drain(bus)]
    assert got == [0, 1, 2]


def test_replay_preserves_publication_order_across_publishers():
    bus = fresh_bus(arrivals_depth=8)
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
@given(published=st.integers(0, 12), depth=st.integers(1, 8))
def test_replay_length_is_min_of_history_and_depth(published, depth):
    bus = fresh_bus(arrivals_depth=depth)
    for node in range(published):
        bus.publish(node, arrivals_key(), JoinRecord(node))
    bus.subscribe(99, arrivals_key())
    got = [r.sample.payload.node for r in drain(bus)]
    assert got == list(range(published))[-depth:]


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
    handle = bus.subscribe(1, mybox_key(0))
    bus.subscribe(2, mybox_key(0))
    bus.publish(0, mybox_key(0), Identity(0))
    bus.cancel_subscription(handle)
    assert [r.subscriber for r in drain(bus)] == [2]
    with pytest.raises(SubscriptionError):
        bus.cancel_subscription(handle)


def test_subscriptions_of_reports_the_live_set():
    bus = fresh_bus()
    bus.subscribe(1, mybox_key(0))
    handle = bus.subscribe(1, oneback_key())
    assert bus.subscriptions_of(1) == frozenset({mybox_key(0), oneback_key()})
    bus.cancel_subscription(handle)
    assert bus.subscriptions_of(1) == frozenset({mybox_key(0)})


def test_handlers_run_on_dispatch():
    bus = fresh_bus()
    seen = []
    bus.attach_handler(1, lambda record: seen.append(record.sample.payload))
    bus.subscribe(1, mybox_key(0))
    bus.publish(0, mybox_key(0), Identity(0))
    drain(bus)
    assert seen == [Identity(0)]


# -- determinism and duplication -----------------------------------------------


def _scripted_run() -> list[tuple]:
    bus = fresh_bus(arrivals_depth=4)
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


def test_clone_carries_state_but_not_handles():
    bus = fresh_bus()
    handle = bus.subscribe(1, mybox_key(0))
    bus.publish(0, mybox_key(0), Identity(0))
    drain(bus)
    twin = bus.clone()
    assert twin.retained(mybox_key(0)) == bus.retained(mybox_key(0))
    assert twin.subscriptions_of(1) == bus.subscriptions_of(1)
    assert twin.handle_of(1, mybox_key(0)) is not handle
    # sequence numbering continues rather than restarting
    sample = twin.publish(0, mybox_key(0), NULL)
    assert sample.seq == 2
    # and the original is untouched by the twin's activity
    assert bus.retained(mybox_key(0))[-1].payload == Identity(0)
