"""End-to-end behavior: joins, propagation, traces, verification, metrics."""

import hashlib
import io
import json
from collections.abc import Sized
from dataclasses import fields, is_dataclass
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rfoverlay
from rfoverlay import network, protocol, workload
from rfoverlay.bus import NULL, Identity, TopicKey, TopicName, VirtualBus
from rfoverlay.metrics import (
    SETUP_INTERVAL,
    IntervalStats,
    Metrics,
    ToggleStats,
    compute_metrics,
    render_metrics,
    tally,
)
from rfoverlay.network import DISPATCH_BUDGET_FACTOR, JoinError, Network, QuiescenceError
from rfoverlay.oracle import RingModel, basic_tst
from rfoverlay.protocol import SYSTEM_EMPTY, TRUST_ORE, Availability, Hint
from rfoverlay.scenario import (
    ConfigError,
    ScenarioConfig,
    VerificationError,
    load_config,
    oracle_mismatches,
    parse_config,
    run_scenario,
    verify_trace,
)
from rfoverlay.trace import (
    KIND_DELIVER,
    KIND_VIEW_CHANGE,
    TraceError,
    TraceEvent,
    TraceRecorder,
    dump_trace,
    dumps_trace,
    event_from_json,
    event_to_json,
    load_trace,
)
from rfoverlay.workload import AvailabilitySchedule, WorkloadConfig, sample_k

AVAILABLE = Availability.AVAILABLE
UNAVAILABLE = Availability.UNAVAILABLE


def joined_network(count: int, recorder=None, delivery_delay: int = 0) -> Network:
    net = Network(delivery_delay=delivery_delay, recorder=recorder)
    for node in range(count):
        net.bus.advance()
        net.add_node(node)
        net.dispatch_to_quiescence()
        assert net.join_completed(node)
    return net


def toggle_settled(net: Network, node: int, to_state: Availability) -> None:
    net.bus.advance()
    net.toggle(node, to_state)
    net.dispatch_to_quiescence()


def forced_schedule(count: int, *interval_down_sets) -> AvailabilitySchedule:
    """Build a schedule from explicit per-interval down sets."""
    states = {
        node: tuple(
            UNAVAILABLE if node in down else AVAILABLE for down in interval_down_sets
        )
        for node in range(count)
    }
    return AvailabilitySchedule(intervals=len(interval_down_sets), states=states)


# -- joining ------------------------------------------------------------------


def test_ring_forms_in_arrival_order():
    net = joined_network(5)
    for node in range(5):
        view = net.views[node]
        assert view.ore == (node + 1) % 5
        assert view.ose == (node - 1) % 5
        assert view.tre == TRUST_ORE


def test_join_publication_costs():
    """First join costs one publication; every later join costs four."""
    net = Network()
    costs = []
    for node in range(6):
        before = dict(net.bus.publish_counts)
        net.bus.advance()
        net.add_node(node)
        net.dispatch_to_quiescence()
        after = net.bus.publish_counts
        costs.append(sum(after.values()) - sum(before.values()))
    assert costs == [1, 4, 4, 4, 4, 4]
    assert net.bus.publish_counts[TopicName.ARRIVALS] == 6
    assert net.bus.publish_counts[TopicName.ORE] == 5
    assert net.bus.publish_counts[TopicName.OSE] == 10


def test_rejoining_is_an_error():
    net = joined_network(2)
    with pytest.raises(JoinError):
        net.add_node(1)


def test_overlapping_joins_are_refused():
    """A joiner is replayed the last two arrival records, which are
    [predecessor, self] only if the previous join has completed."""
    net = joined_network(3)
    net.bus.advance()
    net.add_node(7)
    net.bus.advance()
    with pytest.raises(JoinError, match="still joining"):
        net.add_node(3)
    assert list(net.views) == [0, 1, 2, 7]
    net.dispatch_to_quiescence()
    net.bus.advance()
    net.add_node(3)
    net.dispatch_to_quiescence()
    assert ring_order(net) == [0, 1, 2, 7, 3]
    assert oracle_mismatches(net) == []


def test_same_tick_joins_are_refused():
    """Replay ties at one tick resolve by publisher id, not by arrival order,
    so a second arrival at the tick of the previous one is refused; a clone
    remembers the last arrival too."""
    net = joined_network(2)
    net.bus.advance()
    net.add_node(5)
    net.dispatch_to_quiescence()
    for candidate in (net, net.clone()):
        with pytest.raises(JoinError, match="arrived then"):
            candidate.add_node(4)
        assert list(candidate.views) == [0, 1, 5]
    net.bus.advance()
    net.add_node(4)
    net.dispatch_to_quiescence()
    assert ring_order(net) == [0, 1, 5, 4]


def test_a_refused_join_leaves_the_network_unchanged():
    """A node id the protocol refuses adds no view and no last arrival, so
    the next join proceeds as if the refused one never happened."""
    net = Network()
    with pytest.raises(protocol.ProtocolError):
        net.add_node(-1)
    assert net.views == {}
    net.add_node(0)
    net.dispatch_to_quiescence()
    assert net.join_completed(0)
    net.check_subscription_invariant()


def test_oracle_judges_the_arrival_order_ring():
    net = Network()
    for node in (0, 1, 2, 5, 4):
        net.bus.advance()
        net.add_node(node)
        net.dispatch_to_quiescence()
    toggle_settled(net, 4, UNAVAILABLE)
    assert net.views[5].tre == Hint(0)
    assert oracle_mismatches(net) == []


def ring_order(net: Network) -> list[int]:
    """The first len(views) nodes in receiver order from the first joiner,
    then that node again if the ring closes."""
    node = next(iter(net.views))
    order = []
    for _ in net.views:
        order.append(node)
        node = net.views[node].ore
    return order if node == order[0] else order + [node]


@settings(max_examples=60, deadline=None)
@given(
    order=st.lists(st.integers(0, 15), min_size=1, max_size=8, unique=True),
    batches=st.lists(st.sets(st.integers(0, 7), min_size=1), max_size=5),
)
def test_serialized_joins_in_any_order_build_the_arrival_ring(order, batches):
    recorder = TraceRecorder()
    net = Network(recorder=recorder)
    for node in order:
        net.bus.advance()
        net.add_node(node)
        net.dispatch_to_quiescence()
        net.check_subscription_invariant()
    assert [net.views[node].ore for node in order] == [*order[1:], order[0]]
    assert [net.views[node].ose for node in order] == [order[-1], *order[:-1]]
    arrivals = [
        e.node for e in recorder.events
        if e.kind == KIND_DELIVER and e.detail["key"]["topic"] == TopicName.ARRIVALS.value
    ]
    assert [arrivals.count(node) for node in order] == [min(k, 1) + 1 for k in range(len(order))]
    assert oracle_mismatches(net) == []

    for batch in batches:
        for index in sorted(i for i in batch if i < len(order)):
            node = order[index]
            flipped = UNAVAILABLE if net.views[node].state is AVAILABLE else AVAILABLE
            toggle_settled(net, node, flipped)
            net.check_subscription_invariant()
        assert oracle_mismatches(net) == []

    last_line = {}
    for event in recorder.events:
        if event.kind == KIND_VIEW_CHANGE:
            line = event_to_json(event)
            assert last_line.get(event.node) != line, line
            last_line[event.node] = line


def test_subscription_invariant_after_joins():
    joined_network(7).check_subscription_invariant()


def test_join_phase_work_is_linear_in_the_node_count():
    """A joiner is replayed only [predecessor, self]: joining m nodes makes
    2m - 1 arrival deliveries and O(m) subscriptions() calls, and a joiner's
    view holds nothing that grows per record."""
    size = 64
    calls = 0
    arrivals = 0
    joiner_views = []
    subscriptions = protocol.subscriptions
    handle_delivery = protocol.handle_delivery

    def counting_subscriptions(view):
        nonlocal calls
        calls += 1
        return subscriptions(view)

    def keeping_joiner_views(view, sample):
        nonlocal arrivals
        arrivals += sample.key.topic is TopicName.ARRIVALS
        effects = handle_delivery(view, sample)
        if effects.view.joining:
            joiner_views.append(effects.view)
        return effects

    with (
        mock.patch.object(protocol, "subscriptions", counting_subscriptions),
        mock.patch.object(protocol, "handle_delivery", keeping_joiner_views),
    ):
        joined_network(size)
    assert calls <= 8 * size
    assert arrivals == 2 * size - 1
    assert joiner_views
    for view in joiner_views:
        assert not [f.name for f in fields(view) if isinstance(getattr(view, f.name), Sized)]


def test_toggle_phase_work_is_constant_per_delivery():
    """A toggle and every status-wave delivery it causes cost O(1): on the
    toggle path no handler calls subscriptions(), and verifying a trace makes
    no RingModel.position lookup."""
    import random as stdlib_random

    size = 32
    calls = {"subscriptions": 0, "position": 0, "deliveries": 0}
    subscriptions = protocol.subscriptions
    handle_delivery = protocol.handle_delivery
    position = RingModel.position

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    net = joined_network(size)
    rng = stdlib_random.Random(11)
    with (
        mock.patch.object(protocol, "subscriptions", counting("subscriptions", subscriptions)),
        mock.patch.object(protocol, "handle_delivery", counting("deliveries", handle_delivery)),
    ):
        for _ in range(60):
            for node in sorted(rng.sample(range(size), rng.randrange(1, 8))):
                flip = AVAILABLE if net.views[node].state is UNAVAILABLE else UNAVAILABLE
                toggle_settled(net, node, flip)
    assert calls["deliveries"] > 10 * size
    assert calls["subscriptions"] == 0
    net.check_subscription_invariant()
    assert oracle_mismatches(net) == []

    cfg = ScenarioConfig(
        node_count=16, workload=WorkloadConfig(lam=3.0, intervals=40, seed=5), seed=5
    )
    trace, _ = run_scenario(cfg)
    with mock.patch.object(RingModel, "position", counting("position", position)):
        assert verify_trace(trace, cfg).passed
    assert calls["position"] == 0


def trace_order(key: TopicKey) -> tuple[str, int]:
    """The order of a subscription list in the trace: by topic name, then
    by instance."""
    return (key.topic.value, -1 if key.instance is None else key.instance)


@settings(max_examples=60, deadline=None)
@given(
    size=st.integers(1, 7),
    delay=st.integers(0, 3),
    batches=st.lists(
        st.tuples(st.booleans(), st.sets(st.integers(0, 6), min_size=1)), max_size=6
    ),
)
def test_subscription_changes_are_the_exact_diff(size, delay, batches):
    """Every handler's subscribe/unsubscribe lists are exactly the difference
    of the derived subscription sets, in trace order (MyBox by ascending
    instance, then OneBack), also where _effects skips or narrows the diff;
    joins, serialized and interleaved toggle batches, with delivery delays."""

    def exact(handler):
        def checked(view, *args):
            effects = handler(view, *args)
            before = protocol.subscriptions(view)
            after = protocol.subscriptions(effects.view)
            assert effects.subscribe == tuple(sorted(after - before, key=trace_order))
            assert effects.unsubscribe == tuple(sorted(before - after, key=trace_order))
            return effects

        return checked

    with (
        mock.patch.object(protocol, "handle_delivery", exact(protocol.handle_delivery)),
        mock.patch.object(protocol, "set_available", exact(protocol.set_available)),
        mock.patch.object(protocol, "set_unavailable", exact(protocol.set_unavailable)),
    ):
        net = Network(delivery_delay=delay)
        for node in range(size):
            net.bus.advance()
            net.add_node(node)
            net.dispatch_to_quiescence()
            net.check_subscription_invariant()
        for serialized, flips in batches:
            net.bus.advance()
            for node in sorted(n for n in flips if n < size):
                flip = AVAILABLE if net.views[node].state is UNAVAILABLE else UNAVAILABLE
                if serialized:
                    net.bus.advance()
                net.toggle(node, flip)
                if serialized:
                    net.dispatch_to_quiescence()
                    net.check_subscription_invariant()
            net.dispatch_to_quiescence()
            net.check_subscription_invariant()


# -- serialized toggles ------------------------------------------------------------


def test_reference_pattern_settles_to_the_oracle():
    net = joined_network(10)
    for node in (2, 5, 6):
        toggle_settled(net, node, UNAVAILABLE)
    assert oracle_mismatches(net) == []
    assert net.views[1].tre == Hint(3)
    assert net.views[4].tre == Hint(7)
    assert net.views[5].tre == Hint(7)
    assert net.last_mybox_value(5) == Identity(7)
    net.check_subscription_invariant()


def test_recovery_from_the_reference_pattern():
    net = joined_network(10)
    for node in (2, 5, 6):
        toggle_settled(net, node, UNAVAILABLE)
    toggle_settled(net, 5, AVAILABLE)
    assert oracle_mismatches(net) == []
    assert net.views[4].tre == TRUST_ORE  # its own receiver came back
    assert net.views[5].tre == Hint(7)    # 6 is still down
    net.check_subscription_invariant()


def test_single_node_toggles():
    net = joined_network(1)
    toggle_settled(net, 0, UNAVAILABLE)
    assert net.views[0].tre == SYSTEM_EMPTY
    assert net.last_mybox_value(0) == NULL
    toggle_settled(net, 0, AVAILABLE)
    assert net.views[0].tre == TRUST_ORE  # the self-addressed status heals the hint
    assert net.last_mybox_value(0) == Identity(0)
    assert oracle_mismatches(net) == []


def test_total_outage_and_first_recovery():
    net = joined_network(4)
    for node in range(4):
        toggle_settled(net, node, UNAVAILABLE)
    assert all(view.tre == SYSTEM_EMPTY for view in net.views.values())
    assert all(net.last_mybox_value(n) == NULL for n in range(4))
    assert oracle_mismatches(net) == []

    before = dict(net.bus.publish_counts)
    toggle_settled(net, 2, AVAILABLE)
    assert oracle_mismatches(net) == []
    assert net.views[1].tre == TRUST_ORE
    assert net.views[0].tre == Hint(2)
    assert net.views[3].tre == Hint(2)
    assert net.bus.publish_counts[TopicName.ONEBACK] - before[TopicName.ONEBACK] == 1
    # the recoverer plus each of the three sleepers updates its status once
    assert net.bus.publish_counts[TopicName.MYBOX] - before[TopicName.MYBOX] == 4
    net.check_subscription_invariant()


def test_wave_length_is_bounded_by_the_dead_run():
    """A toggle triggers at most U+1 status publications, U = the run of
    Unavailable nodes immediately before the toggler against ring order."""
    net = joined_network(6)
    for node in (1, 2, 3):
        toggle_settled(net, node, UNAVAILABLE)
    before = net.bus.publish_counts[TopicName.MYBOX]
    toggle_settled(net, 4, UNAVAILABLE)  # run 1,2,3 sits right before 4
    assert net.bus.publish_counts[TopicName.MYBOX] - before == 4
    assert oracle_mismatches(net) == []


def test_exhaustive_small_rings_settle_to_the_oracle():
    """Walk every availability vector on rings of 1..5 nodes, one toggle at
    a time from all-up, and compare each settled state with the oracle."""
    import itertools

    for size in range(1, 6):
        base = joined_network(size)
        for bits in itertools.product((AVAILABLE, UNAVAILABLE), repeat=size):
            net = base.clone()
            for node, target in enumerate(bits):
                if target is UNAVAILABLE:
                    toggle_settled(net, node, target)
            assert oracle_mismatches(net) == [], f"size={size} bits={bits}"


def test_quiescence_budget_is_enforced():
    net = joined_network(3)
    net.toggle(0, UNAVAILABLE)
    assert not net.bus.quiescent
    with mock.patch.object(network, "DISPATCH_BUDGET_FACTOR", 0):
        with pytest.raises(QuiescenceError):
            net.dispatch_to_quiescence()
    net.dispatch_to_quiescence()  # default budget finishes the wave


def test_clone_is_independent():
    net = joined_network(4)
    toggle_settled(net, 1, UNAVAILABLE)
    twin = net.clone()
    toggle_settled(twin, 2, UNAVAILABLE)
    assert net.views[2].state is AVAILABLE
    assert twin.views[2].state is UNAVAILABLE
    assert oracle_mismatches(net) == []
    assert oracle_mismatches(twin) == []


# -- interleaved stress --------------------------------------------------------------


def test_interleaved_death_of_all_live_nodes_can_miss_system_empty():
    """Known limitation, pinned: when every Available node leaves in one
    batch, the crossing status waves cancel on the full-wrap stop rule and
    nobody learns the system is empty. Serialized toggles do not hit this."""
    net = joined_network(2)
    net.bus.advance()
    net.toggle(0, UNAVAILABLE)
    net.toggle(1, UNAVAILABLE)
    net.dispatch_to_quiescence()  # still terminates
    assert oracle_mismatches(net) != []
    assert net.views[0].tre == Hint(0)
    assert net.views[1].tre == Hint(1)


def test_interleaved_batches_always_terminate():
    import random as stdlib_random

    rng = stdlib_random.Random(2024)
    for trial in range(20):
        size = rng.randrange(2, 7)
        net = joined_network(size)
        current = {n: AVAILABLE for n in range(size)}
        for _ in range(6):
            net.bus.advance()
            for node in range(size):
                if rng.random() < 0.4:
                    flip = AVAILABLE if current[node] is UNAVAILABLE else UNAVAILABLE
                    net.toggle(node, flip)
                    current[node] = flip
            net.dispatch_to_quiescence()  # budget turns loops into failures
            net.check_subscription_invariant()


def test_interleaved_runs_with_a_survivor_still_settle():
    """Batches that leave at least one previously-Available node alive
    converge to the oracle in practice; spot-check a few patterns."""
    patterns = [
        (5, [{1, 2}, {3}, set(), {1, 4}]),
        (6, [{0, 1, 2, 3, 4}, {5}, {0}]),
        (4, [{1, 3}, {1, 3}, {0, 2}]),
    ]
    for size, interval_sets in patterns:
        net = joined_network(size)
        current = {n: AVAILABLE for n in range(size)}
        for down in interval_sets:
            net.bus.advance()
            for node in range(size):
                target = UNAVAILABLE if node in down else AVAILABLE
                if current[node] is not target:
                    net.toggle(node, target)
                    current[node] = target
            net.dispatch_to_quiescence()
        assert oracle_mismatches(net) == [], f"size={size} sets={interval_sets}"


# -- scenarios end to end ---------------------------------------------------------


def test_scenario_traces_verify():
    cfg = ScenarioConfig(node_count=8, workload=WorkloadConfig(intervals=30, seed=21), seed=21)
    trace, metrics = run_scenario(cfg)
    report = verify_trace(trace, cfg)
    assert report.passed
    assert report.intervals_checked == 30
    assert metrics.publications == sum(metrics.publications_per_topic.values())


def test_verification_reuses_the_run_schedule():
    cfg = ScenarioConfig(node_count=5, workload=WorkloadConfig(intervals=20, seed=33), seed=33)
    draws = []

    def counted(rng, lam):
        draws.append(lam)
        return sample_k(rng, lam)

    workload._draw_schedule.cache_clear()
    with mock.patch.object(workload, "sample_k", counted):
        trace, _ = run_scenario(cfg)
        assert verify_trace(trace, cfg).passed
    assert len(draws) == 5 * 20


def test_scenario_is_deterministic():
    cfg = ScenarioConfig(node_count=7, workload=WorkloadConfig(intervals=25, seed=3), seed=3)
    first, _ = run_scenario(cfg)
    second, _ = run_scenario(cfg)
    assert dumps_trace(first) == dumps_trace(second)


def test_toggle_heavy_trace_is_pinned_across_commits():
    """A 32-node, 100-interval run whose trace is mostly toggle-phase work:
    its 2,979 Subscribe and 2,867 Unsubscribe lines pin the order in which
    handlers list subscription changes. The digest changes only when the
    trace does."""
    cfg = ScenarioConfig(
        node_count=32,
        workload=WorkloadConfig(lam=3.0, threshold=2, intervals=100, seed=3),
        seed=3,
    )
    trace, _ = run_scenario(cfg)
    data = dumps_trace(trace).encode()
    assert len(trace) == data.count(b"\n") == 21252
    assert hashlib.sha256(data).hexdigest() == (
        "a28f82785c0b947ba3ad2c2023f3fbdaac420eb56d13e1000d12ffce977e1ef2"
    )


def test_scenario_with_delivery_delay_still_verifies():
    cfg = ScenarioConfig(
        node_count=6, delivery_delay=3,
        workload=WorkloadConfig(intervals=15, seed=8), seed=8,
    )
    trace, _ = run_scenario(cfg)
    assert verify_trace(trace, cfg).passed


def test_scenario_under_forced_schedule():
    cfg = ScenarioConfig(node_count=10, workload=WorkloadConfig(intervals=2, seed=0))
    schedule = forced_schedule(10, {2, 5, 6}, {2, 6})
    trace, _ = run_scenario(cfg, schedule=schedule)
    assert verify_trace(trace, cfg, schedule=schedule).passed


def test_in_run_verification_accepts_a_clean_run():
    cfg = ScenarioConfig(
        node_count=5, verify_each_interval=True,
        workload=WorkloadConfig(intervals=12, seed=4), seed=4,
    )
    trace, _ = run_scenario(cfg)
    assert verify_trace(trace, cfg).passed


def test_unrecorded_runs_return_an_empty_trace():
    cfg = ScenarioConfig(node_count=4, workload=WorkloadConfig(intervals=6, seed=2), seed=2)
    trace, metrics = run_scenario(cfg, record=False)
    assert trace == []
    assert metrics == run_scenario(cfg)[1]
    assert metrics.deliveries > 0


def test_corrupted_view_fails_verification():
    cfg = ScenarioConfig(node_count=6, workload=WorkloadConfig(intervals=10, seed=13), seed=13)
    trace, _ = run_scenario(cfg)
    index = max(i for i, e in enumerate(trace) if e.kind == "ViewChange")
    event = trace[index]
    ose, ore, _tre, state, joining = event.value
    corrupted = list(trace)
    corrupted[index] = TraceEvent(
        event.time, event.kind, event.node, (ose, ore, Hint(999), state, joining)
    )
    report = verify_trace(corrupted, cfg)
    assert not report.passed
    assert any(m.node == event.node for m in report.mismatches)


def test_diverging_toggles_are_a_structural_error():
    cfg = ScenarioConfig(node_count=4, workload=WorkloadConfig(intervals=8, seed=6), seed=6)
    trace, _ = run_scenario(cfg)
    index = next(i for i, e in enumerate(trace) if e.kind == "Toggle")
    event = trace[index]
    to_state, interval = event.value
    flipped = AVAILABLE if to_state is UNAVAILABLE else UNAVAILABLE
    corrupted = list(trace)
    corrupted[index] = TraceEvent(event.time, event.kind, event.node, (flipped, interval))
    with pytest.raises(TraceError):
        verify_trace(corrupted, cfg)


def test_backwards_toggle_intervals_are_a_structural_error():
    cfg = ScenarioConfig(node_count=4, workload=WorkloadConfig(intervals=3, seed=0))
    schedule = forced_schedule(4, set(), {1}, {1, 2})
    trace, _ = run_scenario(cfg, schedule=schedule)
    index = [i for i, e in enumerate(trace) if e.kind == "Toggle"][-1]
    event = trace[index]
    to_state, interval = event.value
    assert interval == 2
    corrupted = list(trace)
    corrupted[index] = TraceEvent(event.time, event.kind, event.node, (to_state, 0))
    with pytest.raises(TraceError, match="intervals must not go backwards"):
        verify_trace(corrupted, cfg, schedule=schedule)


def test_wrong_node_count_is_a_structural_error():
    cfg = ScenarioConfig(node_count=4, workload=WorkloadConfig(intervals=5, seed=1), seed=1)
    trace, _ = run_scenario(cfg)
    bigger = ScenarioConfig(node_count=5, workload=WorkloadConfig(intervals=5, seed=1), seed=1)
    with pytest.raises(TraceError):
        verify_trace(trace, bigger)


# -- trace serialization -----------------------------------------------------------


def test_trace_roundtrips_through_jsonl():
    cfg = ScenarioConfig(node_count=5, workload=WorkloadConfig(intervals=8, seed=17), seed=17)
    trace, _ = run_scenario(cfg)
    buffer = io.StringIO()
    dump_trace(trace, buffer)
    buffer.seek(0)
    assert load_trace(buffer) == trace


def test_trace_lines_keep_a_fixed_field_order():
    cfg = ScenarioConfig(node_count=3, workload=WorkloadConfig(intervals=2, seed=0))
    trace, _ = run_scenario(cfg)
    for event in trace[:20]:
        line = event_to_json(event)
        keys = [k for k, _ in json.loads(line, object_pairs_hook=lambda pairs: pairs)]
        assert keys == ["time", "kind", "node", "detail"]
        assert event_from_json(line) == event


def test_malformed_trace_lines_are_rejected():
    with pytest.raises(TraceError):
        event_from_json("not json at all")
    with pytest.raises(TraceError):
        event_from_json('{"time": 1, "kind": "Nonsense", "node": 0, "detail": {}}')
    with pytest.raises(TraceError):
        event_from_json('{"time": 1, "kind": "Join"}')


@settings(max_examples=40, deadline=None)
@given(
    size=st.integers(1, 8),
    delay=st.integers(0, 3),
    interleaved=st.booleans(),
    lam=st.sampled_from([1.0, 2.0, 3.0]),
    intervals=st.integers(0, 8),
    seed=st.integers(0, 2**16),
)
def test_codec_agrees_with_the_standard_encoder(size, delay, interleaved, lam, intervals, seed):
    """Each line is what json.dumps writes for it, and decodes back into the
    recorded event; `detail` is the line's detail."""
    cfg = ScenarioConfig(
        node_count=size,
        delivery_delay=delay,
        workload=WorkloadConfig(lam=lam, intervals=intervals, seed=seed),
        seed=seed,
    )
    trace, _ = run_scenario(cfg, interleaved_toggles=interleaved)
    for event in trace:
        line = event_to_json(event)
        obj = json.loads(line)
        assert line == json.dumps(obj, separators=(",", ":"))
        assert event_from_json(line) == event
        assert event.detail == obj["detail"]


def _values_within(value):
    yield value
    if isinstance(value, tuple):
        for item in value:
            yield from _values_within(item)
    elif is_dataclass(value):
        for f in fields(value):
            yield from _values_within(getattr(value, f.name))


def test_recorded_events_hold_the_engine_values():
    cfg = ScenarioConfig(node_count=6, workload=WorkloadConfig(intervals=12, seed=9), seed=9)
    trace, _ = run_scenario(cfg)
    shapes = {
        "Join": type(None),
        "Toggle": tuple,
        "Publish": tuple,
        "Deliver": tuple,
        "Subscribe": TopicKey,
        "Unsubscribe": TopicKey,
        "ViewChange": tuple,
    }
    assert {event.kind for event in trace} == set(shapes)
    for event in trace:
        assert isinstance(event.value, shapes[event.kind])
        assert not any(isinstance(v, dict) for v in _values_within(event))


# -- metrics ---------------------------------------------------------------------


def fold_trace(trace, intervals: int) -> Metrics:
    """Reference metrics: Publish lines by topic, plus Deliver, Subscribe
    and Unsubscribe lines, per interval and per toggle. A toggle owns every
    line up to the next toggle."""
    rows = {i: IntervalStats(i) for i in range(SETUP_INTERVAL, intervals)}
    row, toggle = rows[SETUP_INTERVAL], None
    toggles = []
    for event in trace:
        if event.kind == "Toggle":
            row = rows[event.detail["interval"]]
            row.toggles += 1
            toggle = ToggleStats(row.interval, event.node, event.detail["to"])
            toggles.append(toggle)
        elif event.kind == "Publish":
            topic = event.detail["key"]["topic"]
            row.publications_per_topic[topic] += 1
            if toggle is not None:
                toggle.publications += 1
                toggle.mybox_publications += topic == TopicName.MYBOX.value
        elif event.kind == "Deliver":
            row.deliveries += 1
            if toggle is not None:
                toggle.deliveries += 1
        elif event.kind == "Subscribe":
            row.subscribes += 1
        elif event.kind == "Unsubscribe":
            row.unsubscribes += 1
    everything = tuple(rows.values())
    return Metrics(
        publications_per_topic={
            topic: sum(r.publications_per_topic[topic] for r in everything)
            for topic in everything[0].publications_per_topic
        },
        subscribes=sum(r.subscribes for r in everything),
        unsubscribes=sum(r.unsubscribes for r in everything),
        deliveries=sum(r.deliveries for r in everything),
        setup=everything[0],
        intervals=everything[1:],
        toggles=tuple(toggles),
    )


def assert_counters_equal_the_fold(cfg: ScenarioConfig, interleaved: bool) -> None:
    trace, metrics = run_scenario(cfg, interleaved_toggles=interleaved)
    assert metrics == fold_trace(trace, cfg.workload.intervals)
    assert run_scenario(cfg, interleaved_toggles=interleaved, record=False) == ([], metrics)


@settings(max_examples=40, deadline=None)
@given(
    size=st.integers(1, 8),
    delay=st.integers(0, 3),
    interleaved=st.booleans(),
    lam=st.sampled_from([1.0, 2.0, 3.0]),
    intervals=st.integers(0, 12),
    seed=st.integers(0, 2**16),
)
def test_counters_equal_the_fold_over_the_trace(size, delay, interleaved, lam, intervals, seed):
    cfg = ScenarioConfig(
        node_count=size,
        delivery_delay=delay,
        workload=WorkloadConfig(lam=lam, intervals=intervals, seed=seed),
        seed=seed,
    )
    assert_counters_equal_the_fold(cfg, interleaved)


@pytest.mark.parametrize(
    "cfg",
    [
        # the README demo
        ScenarioConfig(node_count=6, workload=WorkloadConfig(intervals=12, seed=9), seed=9),
        # toggle-heavy, as churn128 at a quarter of the ring
        ScenarioConfig(
            node_count=32, workload=WorkloadConfig(lam=3.0, intervals=100, seed=3), seed=3
        ),
    ],
    ids=["demo", "churn32"],
)
def test_counters_equal_the_fold_on_reference_configs(cfg):
    assert_counters_equal_the_fold(cfg, interleaved=False)


def test_metrics_of_an_empty_run():
    metrics = compute_metrics(tally(VirtualBus()), (), ())
    assert metrics.publications == 0
    assert metrics.deliveries == 0
    assert metrics.intervals == ()
    assert metrics.toggles == ()


def test_metrics_count_join_costs():
    net = joined_network(3)
    metrics = compute_metrics(tally(net.bus), (), ())
    per_topic = metrics.publications_per_topic
    assert per_topic[TopicName.ARRIVALS.value] == 3
    assert per_topic[TopicName.ORE.value] == 2
    assert per_topic[TopicName.OSE.value] == 4
    assert per_topic[TopicName.MYBOX.value] == 0
    assert metrics.setup.publications_per_topic == per_topic
    assert metrics.setup.deliveries == metrics.deliveries == net.bus.deliveries > 0


def test_metrics_attribute_toggles_to_intervals():
    cfg = ScenarioConfig(node_count=4, workload=WorkloadConfig(intervals=3, seed=0))
    schedule = forced_schedule(4, {1}, {1}, {1, 2})
    trace, metrics = run_scenario(cfg, schedule=schedule)
    assert len(metrics.intervals) == 3
    assert metrics.intervals[0].toggles == 1   # 1 goes down
    assert metrics.intervals[1].toggles == 0   # nothing changes
    assert metrics.intervals[2].toggles == 1   # 2 goes down
    first = metrics.toggles[0]
    assert (first.interval, first.node) == (0, 1)
    assert first.mybox_publications == 1  # lone toggle, live neighbours


def test_metrics_table_shape():
    cfg = ScenarioConfig(node_count=3, workload=WorkloadConfig(intervals=2, seed=1), seed=1)
    _, metrics = run_scenario(cfg)
    table = render_metrics(metrics)
    lines = table.splitlines()
    assert lines[0].split() == [
        "interval", "toggles", "pub_arrivals", "pub_ore", "pub_ose",
        "pub_mybox", "pub_oneback", "deliveries", "subscribes", "unsubscribes",
    ]
    assert lines[1].split()[0] == "setup"
    assert lines[-1].split()[0] == "total"
    assert len(lines) == 2 + 2 + 1  # header, setup, two intervals, total


# -- configuration parsing ----------------------------------------------------------


def test_config_minimal_defaults():
    cfg = parse_config({"node_count": 3})
    assert cfg.delivery_delay == 0
    assert cfg.workload.lam == 2.0
    assert cfg.workload.seed == 0


def test_config_rate_key_maps_to_the_rate():
    cfg = parse_config({"node_count": 3, "workload": {"lambda": 1.5}})
    assert cfg.workload.lam == 1.5


def test_config_seed_flows_into_the_workload():
    cfg = parse_config({"node_count": 3, "seed": 42})
    assert cfg.seed == 42
    assert cfg.workload.seed == 42
    explicit = parse_config({"node_count": 3, "seed": 42, "workload": {"seed": 7}})
    assert explicit.workload.seed == 7


def test_config_refuses_the_removed_arrivals_depth_key():
    """The arrival log keeps a fixed two records, so its depth is no longer
    configurable; a config that still names it is refused."""
    for depth in (3, 64):
        with pytest.raises(ConfigError, match="arrivals_depth"):
            parse_config({"node_count": 5, "arrivals_depth": depth})


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        parse_config({"node_count": 3, "nodes": 4})
    with pytest.raises(ConfigError):
        parse_config({"node_count": 3, "workload": {"rate": 2.0}})


def test_config_rejects_bad_types_and_values():
    with pytest.raises(ConfigError):
        parse_config({"node_count": True})
    with pytest.raises(ConfigError):
        parse_config({"node_count": 0})
    with pytest.raises(ConfigError):
        parse_config({"node_count": 3, "verify_each_interval": 1})
    with pytest.raises(ConfigError):
        parse_config({"node_count": 3, "workload": {"lambda": 0.0}})
    with pytest.raises(ConfigError):
        parse_config([1, 2, 3])


def test_config_loads_from_a_stream():
    stream = io.StringIO('{"node_count": 4}')
    cfg = load_config(stream)
    assert cfg.node_count == 4
    with pytest.raises(ConfigError):
        load_config(io.StringIO("{broken"))


# -- package surface ----------------------------------------------------------------


def test_every_exported_name_exists():
    missing = [name for name in rfoverlay.__all__ if not hasattr(rfoverlay, name)]
    assert not missing, missing
