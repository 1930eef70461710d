"""End-to-end behavior: joins, propagation, traces, verification, metrics."""

import functools
import gc
import hashlib
import io
import itertools
import json
import re
import shlex
import subprocess
import sys
from collections import Counter
from collections.abc import Sized
from dataclasses import fields, is_dataclass
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import check_subscription_invariant
from rfoverlay import cli, network, protocol, scenario, workload
from rfoverlay import trace as trace_module
from rfoverlay.bus import ARRIVALS_KEY, Sample, TopicKey, TopicName, VirtualBus, mybox_key
from rfoverlay.metrics import (
    SETUP_INTERVAL,
    IntervalStats,
    Metrics,
    compute_metrics,
    render_metrics,
    tally,
)
from rfoverlay.network import DISPATCH_BUDGET_FACTOR, JoinError, Network, QuiescenceError
from rfoverlay.oracle import RingError, RingModel, basic_tst, mybox_table
from rfoverlay.protocol import NodeView
from rfoverlay.scenario import (
    ConfigError,
    Mismatch,
    ScenarioConfig,
    load_config,
    oracle_mismatches,
    parse_config,
    ring_of,
    run_scenario,
    verify_trace,
)
from rfoverlay.trace import (
    KIND_DELIVER,
    KIND_JOIN,
    KIND_PUBLISH,
    KIND_SUBSCRIBE,
    KIND_TOGGLE,
    KIND_UNSUBSCRIBE,
    KIND_VIEW_CHANGE,
    RecordedTrace,
    TraceError,
    TraceEvent,
    TraceRecorder,
    dump_trace,
    dumps_trace,
    event_to_json,
    first_difference,
)
from rfoverlay.workload import AvailabilitySchedule, WorkloadConfig, build_schedule, sample_k


def joined_network(count: int, recorder=None, delivery_delay: int = 0) -> Network:
    net = Network(delivery_delay=delivery_delay, recorder=recorder)
    for node in range(count):
        net.add_node(node)
    return net


def toggle_settled(net: Network, node: int, available: bool) -> None:
    net.bus.advance()
    net.toggle(node, available)
    net.dispatch_to_quiescence()


def forced_schedule(count: int, *interval_down_sets) -> AvailabilitySchedule:
    """Build a schedule from explicit per-interval down sets."""
    states = {
        node: tuple(
            node not in down for down in interval_down_sets
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
        assert view.tre == view.ore


def test_join_publication_costs():
    """First join costs one publication; every later join costs four."""
    net = Network()
    costs = []
    for node in range(6):
        before = dict(net.bus.publish_counts)
        net.add_node(node)
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


def test_a_refused_join_leaves_the_network_unchanged():
    """A node id the protocol refuses, or one already joined, adds no view,
    moves no clock and records nothing, so the next join proceeds as if the
    refused one never happened."""
    recorder = TraceRecorder()
    net = Network(recorder=recorder)
    with pytest.raises(protocol.ProtocolError):
        net.add_node(-1)
    assert (net.views, net.bus.now, recorder.events) == ({}, 0, [])
    net.add_node(0)
    assert not net.views[0].joining
    check_subscription_invariant(net)
    views, now, recorded = dict(net.views), net.bus.now, list(recorder.events)
    with pytest.raises(JoinError, match="already joined"):
        net.add_node(0)
    assert (net.views, net.bus.now, recorder.events) == (views, now, recorded)


def test_a_join_whose_handshake_cannot_finish_is_an_error():
    """A predecessor that ignores the joiner's NewORe leaves the joiner
    joining once the queue drains, and add_node says so."""
    net = joined_network(1)
    with mock.patch.object(protocol, "handle_new_ore", lambda view, msg: protocol.Effects(view)):
        with pytest.raises(JoinError, match="1 never completed its join"):
            net.add_node(1)
    assert net.bus.pending_count == 0 and net.views[1].joining


def test_oracle_judges_the_arrival_order_ring():
    net = Network()
    for node in (0, 1, 2, 5, 4):
        net.add_node(node)
    toggle_settled(net, 4, False)
    assert net.views[5].tre == 0
    assert oracle_mismatches(net) == []
    net.views[2] = net.views[2]._replace(ose=0)
    net.views[5] = net.views[5]._replace(ore=1)
    assert oracle_mismatches(net) == [(2, "ose", "1", "0"), (5, "ore", "4", "1")]


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
        net.add_node(node)
        check_subscription_invariant(net)
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
            flipped = not net.views[node].available
            toggle_settled(net, node, flipped)
            check_subscription_invariant(net)
        assert oracle_mismatches(net) == []

    last_line = {}
    for event in recorder.events:
        if event.kind == KIND_VIEW_CHANGE:
            line = event_to_json(event)
            assert last_line.get(event.node) != line, line
            last_line[event.node] = line


def test_subscription_invariant_after_joins():
    check_subscription_invariant(joined_network(7))


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
        assert not [name for name, value in zip(view._fields, view) if isinstance(value, Sized)]


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
                flip = not net.views[node].available
                toggle_settled(net, node, flip)
    assert calls["deliveries"] > 10 * size
    assert calls["subscriptions"] == 0
    check_subscription_invariant(net)
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
    instance, then OneBack), on every join and toggle an engine reaches:
    joins, serialized and interleaved toggle batches, with delivery delays.
    Neither _status nor a join handler computes a set difference, so this
    compares each change it names against subscriptions()."""

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
            net.add_node(node)
            check_subscription_invariant(net)
        for serialized, flips in batches:
            net.bus.advance()
            for node in sorted(n for n in flips if n < size):
                flip = not net.views[node].available
                if serialized:
                    net.bus.advance()
                net.toggle(node, flip)
                if serialized:
                    net.dispatch_to_quiescence()
                    check_subscription_invariant(net)
            net.dispatch_to_quiescence()
            check_subscription_invariant(net)


# -- serialized toggles ------------------------------------------------------------


def test_reference_pattern_settles_to_the_oracle():
    net = joined_network(10)
    for node in (2, 5, 6):
        toggle_settled(net, node, False)
    assert oracle_mismatches(net) == []
    assert net.views[1].tre == 3
    assert net.views[4].tre == 7
    assert net.views[5].tre == 7
    assert net.views[5].last_mybox == 7
    check_subscription_invariant(net)


def test_recovery_from_the_reference_pattern():
    net = joined_network(10)
    for node in (2, 5, 6):
        toggle_settled(net, node, False)
    toggle_settled(net, 5, True)
    assert oracle_mismatches(net) == []
    assert net.views[4].tre == net.views[4].ore  # its own receiver came back
    assert net.views[5].tre == 7                 # 6 is still down
    check_subscription_invariant(net)


def test_single_node_toggles():
    net = joined_network(1)
    toggle_settled(net, 0, False)
    assert net.views[0].tre is None
    assert net.views[0].last_mybox is None
    toggle_settled(net, 0, True)
    assert net.views[0].tre == net.views[0].ore  # trusts its receiver, itself
    assert net.views[0].last_mybox == 0
    assert oracle_mismatches(net) == []


def test_a_ring_of_one_writes_one_view_change_on_recovery():
    """When the only node comes back it trusts its receiver, itself, and
    its own returning status names the same node: recovery changes the view
    once, so the trace has one ViewChange line for it."""
    recorder = TraceRecorder()
    net = joined_network(1, recorder)
    toggle_settled(net, 0, False)
    recorded = len(recorder.events)
    toggle_settled(net, 0, True)
    views = [e.value for e in recorder.events[recorded:] if e.kind == KIND_VIEW_CHANGE]
    assert views == [(0, 0, 0, True, False)]


_SETTLED = NodeView(
    me=5, ose=1, ore=2, tre=3, available=True, last_mybox=5, joining=False, predecessor=None
)


@pytest.mark.parametrize(
    "change, written",
    [
        ({"ose": 7}, True),
        ({"ore": 7}, True),
        ({"tre": 7}, True),
        ({"available": False}, True),
        ({"joining": True}, True),
        ({"last_mybox": 7}, False),
        ({"predecessor": 7}, False),
        ({}, False),
    ],
)
def test_a_view_change_line_follows_the_five_fields_it_writes(change, written):
    """A node's first view writes one ViewChange line. After that a line is
    written iff one of ose, ore, tre, available or joining changed, and it
    holds the five new values; me, last_mybox and predecessor are not
    written, so a change to them alone writes nothing."""
    recorder = TraceRecorder()
    net = Network(recorder=recorder)
    net._apply(5, protocol.Effects(_SETTLED))
    net._apply(5, protocol.Effects(_SETTLED))  # the same view object
    new = _SETTLED._replace(**change)
    net._apply(5, protocol.Effects(new))
    assert net.views[5] is new
    views = [(1, 2, 3, True, False)]
    if written:
        views.append((new.ose, new.ore, new.tre, new.available, new.joining))
    assert list(recorder.events.rows()) == [(0, KIND_VIEW_CHANGE, 5, view) for view in views]


def test_total_outage_and_first_recovery():
    net = joined_network(4)
    for node in range(4):
        toggle_settled(net, node, False)
    assert all(view.tre is None for view in net.views.values())
    assert all(view.last_mybox is None for view in net.views.values())
    assert oracle_mismatches(net) == []

    before = dict(net.bus.publish_counts)
    toggle_settled(net, 2, True)
    assert oracle_mismatches(net) == []
    assert net.views[1].tre == net.views[1].ore
    assert net.views[0].tre == 2
    assert net.views[3].tre == 2
    assert net.bus.publish_counts[TopicName.ONEBACK] - before[TopicName.ONEBACK] == 1
    # the recoverer plus each of the three sleepers updates its status once
    assert net.bus.publish_counts[TopicName.MYBOX] - before[TopicName.MYBOX] == 4
    check_subscription_invariant(net)


def test_wave_length_is_bounded_by_the_dead_run():
    """A toggle triggers at most U+1 status publications, U = the run of
    Unavailable nodes immediately before the toggler against ring order."""
    net = joined_network(6)
    for node in (1, 2, 3):
        toggle_settled(net, node, False)
    before = net.bus.publish_counts[TopicName.MYBOX]
    toggle_settled(net, 4, False)  # run 1,2,3 sits right before 4
    assert net.bus.publish_counts[TopicName.MYBOX] - before == 4
    assert oracle_mismatches(net) == []


def test_exhaustive_small_rings_settle_to_the_oracle():
    """Walk every availability vector on rings of 1..5 nodes, one toggle at
    a time from all-up, and compare each settled state with the oracle."""
    import itertools

    for size in range(1, 6):
        base = joined_network(size)
        for bits in itertools.product((True, False), repeat=size):
            net = base.clone()
            for node, target in enumerate(bits):
                if not target:
                    toggle_settled(net, node, target)
            assert oracle_mismatches(net) == [], f"size={size} bits={bits}"


def test_quiescence_budget_is_enforced():
    net = joined_network(3)
    net.toggle(0, False)
    assert net.bus.pending_count > 0
    with mock.patch.object(network, "DISPATCH_BUDGET_FACTOR", 0):
        with pytest.raises(QuiescenceError):
            net.dispatch_to_quiescence()
    net.dispatch_to_quiescence()  # default budget finishes the wave


def test_clone_is_independent():
    net = joined_network(4)
    toggle_settled(net, 1, False)
    twin = net.clone()
    toggle_settled(twin, 2, False)
    assert net.views[2].available is True
    assert twin.views[2].available is False
    assert oracle_mismatches(net) == []
    assert oracle_mismatches(twin) == []


# -- interleaved stress --------------------------------------------------------------


def test_interleaved_death_of_all_live_nodes_settles_to_system_empty():
    """When every Available node leaves in one batch, the crossing status
    waves each wrap back to their sender, which marks the system empty."""
    net = joined_network(2)
    net.bus.advance()
    net.toggle(0, False)
    net.toggle(1, False)
    net.dispatch_to_quiescence()
    assert oracle_mismatches(net) == []
    assert net.views[0].tre is None
    assert net.views[1].tre is None


@settings(max_examples=40, deadline=None)
@given(
    size=st.integers(2, 8),
    delay=st.integers(0, 3),
    lam=st.sampled_from([2.0, 3.0, 4.0, 6.0]),
    seed=st.integers(0, 2**16),
)
def test_interleaved_runs_verify_clean(size, delay, lam, seed):
    """Interleaved toggles, with waves racing each other at any delivery
    delay, settle to the oracle answer at every interval."""
    cfg = ScenarioConfig(
        node_count=size,
        delivery_delay=delay,
        workload=WorkloadConfig(lam=lam, intervals=12, seed=seed),
        seed=seed,
    )
    trace, _ = run_scenario(cfg, interleaved_toggles=True)
    report = verify_trace(trace, cfg)
    assert report.mismatches == ()
    assert report.intervals_checked == 12


class _KeptNetwork(Network):
    """A Network that the test can read after run_scenario returns, with the
    count each drain returned."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.drains: list[int] = []
        _KeptNetwork.last = self

    def dispatch_to_quiescence(self) -> int:
        delivered = super().dispatch_to_quiescence()
        self.drains.append(delivered)
        return delivered


class _SteppedNetwork(_KeptNetwork):
    """Every drain is repeated step() calls."""

    def dispatch_to_quiescence(self) -> int:
        delivered = 0
        while self.step() is not None:
            delivered += 1
        self.drains.append(delivered)
        return delivered


@settings(max_examples=40, deadline=None)
@given(
    size=st.integers(1, 8),
    delay=st.integers(0, 3),
    interleaved=st.booleans(),
    lam=st.sampled_from([2.0, 3.0, 4.0]),
    seed=st.integers(0, 2**16),
)
def test_stepping_each_drain_matches_the_drain_loop(size, delay, interleaved, lam, seed):
    """dispatch_to_quiescence is step() repeated until quiescence: the same
    trace bytes, metrics, views, drain lengths, bus totals and clock."""
    cfg = ScenarioConfig(
        node_count=size,
        delivery_delay=delay,
        workload=WorkloadConfig(lam=lam, intervals=10, seed=seed),
        seed=seed,
    )
    results = []
    for network_class in (_KeptNetwork, _SteppedNetwork):
        with mock.patch.object(scenario, "Network", network_class):
            trace, metrics = run_scenario(cfg, interleaved_toggles=interleaved)
        net = _KeptNetwork.last
        assert all(type(view) is NodeView and len(view) == 8 for view in net.views.values())
        bus = net.bus
        results.append((
            dumps_trace(trace), metrics, net.views, net.drains, bus.now, bus.publish_counts,
            bus.deliveries, bus.subscribes, bus.unsubscribes,
        ))
    assert results[0] == results[1]


def test_interleaved_batches_always_terminate():
    import random as stdlib_random

    rng = stdlib_random.Random(2024)
    for trial in range(20):
        size = rng.randrange(2, 7)
        net = joined_network(size)
        current = {n: True for n in range(size)}
        for _ in range(6):
            net.bus.advance()
            for node in range(size):
                if rng.random() < 0.4:
                    flip = not current[node]
                    net.toggle(node, flip)
                    current[node] = flip
            net.dispatch_to_quiescence()  # budget turns loops into failures
            check_subscription_invariant(net)


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
        current = {n: True for n in range(size)}
        for down in interval_sets:
            net.bus.advance()
            for node in range(size):
                target = node not in down
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
    assert sum(metrics.publications_per_topic.values()) > 0


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


@pytest.mark.parametrize(
    "interleaved, delay, lines, digest",
    [
        (False, 0, 21252, "8e3e2487e7c264a7b46fb178296112900ed6a602c325a02204864f42e3d3dd41"),
        (True, 0, 21119, "da4ee868f99821d27c06f631eb56ac5122b6288ae82640c55a75b81f1eaa0962"),
        (False, 3, 21276, "73dad74f56c43410d92156a91250842b8b3ea9fa2ece183975509d93a71549f0"),
    ],
    ids=["serialized", "interleaved", "delay3"],
)
def test_toggle_heavy_trace_is_pinned_across_commits(interleaved, delay, lines, digest):
    """A 32-node, 100-interval run whose trace is mostly toggle-phase work,
    in each run mode: serialized (its 2,979 Subscribe and 2,867 Unsubscribe
    lines pin the order in which handlers list subscription changes),
    interleaved toggles, and a delivery delay of 3. The digest changes only
    when the trace does."""
    cfg = ScenarioConfig(
        node_count=32,
        delivery_delay=delay,
        workload=WorkloadConfig(lam=3.0, threshold=2, intervals=100, seed=3),
        seed=3,
    )
    trace, _ = run_scenario(cfg, interleaved_toggles=interleaved)
    data = dumps_trace(trace).encode()
    assert len(trace) == data.count(b"\n") == lines
    assert hashlib.sha256(data).hexdigest() == digest


@pytest.mark.parametrize(
    "delay, digest",
    [
        (0, "e69ecf51f5a8ed66e2d1f2c1708ef2d9ee49ee05a9fd2cefe1a833c18675e857"),
        (2, "57715c3fdd7658f250174a6f2fd772e707b20dc5eb0bcea8b72fb4c11207448e"),
    ],
    ids=["delay0", "delay2"],
)
def test_a_trace_with_ids_above_255_is_pinned_across_commits(delay, digest):
    """A 300-node run: its lines hold node ids past CPython's small-int
    cache, which ends at 256, so the encoder's id text is pinned for ids
    that are distinct objects on every line."""
    cfg = ScenarioConfig(
        node_count=300,
        delivery_delay=delay,
        workload=WorkloadConfig(lam=3.0, threshold=2, intervals=4, seed=3),
        seed=3,
    )
    trace, _ = run_scenario(cfg)
    data = dumps_trace(trace).encode()
    assert len(trace) == data.count(b"\n") == 14933
    assert hashlib.sha256(data).hexdigest() == digest
    assert verify_trace(trace, cfg).passed


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


@pytest.mark.parametrize("interleaved", [False, True], ids=["serialized", "interleaved"])
def test_a_schedule_runs_in_node_order_whatever_its_mapping_order(interleaved):
    """A run reads each interval's states node by node: the same states
    listed in reverse give the same trace and metrics."""
    cfg = ScenarioConfig(node_count=6, workload=WorkloadConfig(intervals=5, seed=0))
    ordered = forced_schedule(6, {0}, {0, 1, 4}, {5}, set(), {1, 2, 3})
    states = ordered.states
    reverse = AvailabilitySchedule(
        intervals=ordered.intervals, states={node: states[node] for node in reversed(states)}
    )
    assert list(reverse.states) == [5, 4, 3, 2, 1, 0]
    runs = [
        run_scenario(cfg, schedule=schedule, interleaved_toggles=interleaved)
        for schedule in (ordered, reverse)
    ]
    (ordered_trace, ordered_metrics), (reverse_trace, reverse_metrics) = runs
    assert dumps_trace(reverse_trace) == dumps_trace(ordered_trace)
    assert reverse_metrics == ordered_metrics


def test_a_schedule_for_other_nodes_is_a_config_error():
    """A schedule must name exactly the config's nodes 0..m-1: one with an
    extra node would run, then fail its own verification."""
    cfg = ScenarioConfig(node_count=3, workload=WorkloadConfig(intervals=2, seed=0))
    extra = forced_schedule(4, {1}, {1, 3})
    with pytest.raises(ConfigError, match="schedule names nodes"):
        run_scenario(cfg, schedule=extra)
    trace, _ = run_scenario(cfg, schedule=forced_schedule(3, {1}, {1}))
    with pytest.raises(ConfigError, match="schedule names nodes"):
        verify_trace(trace, cfg, schedule=extra)
    with pytest.raises(ConfigError, match="schedule names nodes"):
        run_scenario(cfg, schedule=forced_schedule(2, {1}, set()))


def test_a_schedule_shorter_than_its_intervals_is_a_config_error():
    cfg = ScenarioConfig(node_count=3, workload=WorkloadConfig(intervals=3, seed=0))
    full = forced_schedule(3, set(), {1}, {1, 2})
    short = AvailabilitySchedule(intervals=3, states={**full.states, 2: full.states[2][:2]})
    with pytest.raises(ConfigError, match="node 2 2 states for 3 intervals"):
        run_scenario(cfg, schedule=short)
    trace, _ = run_scenario(cfg, schedule=full)
    with pytest.raises(ConfigError, match="node 2 2 states for 3 intervals"):
        verify_trace(trace, cfg, schedule=short)


@pytest.mark.parametrize("state", [0, 1, "available", None], ids=["zero", "one", "word", "none"])
def test_a_schedule_state_that_is_not_a_bool_is_a_config_error(state):
    """The run compares states by identity, so a state that is not a bool
    would fail mid-run as an unrelated protocol error."""
    cfg = ScenarioConfig(node_count=3, workload=WorkloadConfig(intervals=2, seed=0))
    full = forced_schedule(3, {1}, set())
    forged = AvailabilitySchedule(intervals=2, states={**full.states, 1: (state, True)})
    with pytest.raises(ConfigError, match="node 1 a state that is not a bool"):
        run_scenario(cfg, schedule=forged)
    trace, _ = run_scenario(cfg, schedule=full)
    with pytest.raises(ConfigError, match="node 1 a state that is not a bool"):
        verify_trace(trace, cfg, schedule=forged)


@pytest.mark.parametrize("stale", [False, True], ids=["as-is", "stale-view"])
def test_in_run_check_reports_what_verify_trace_reports(stale, monkeypatch):
    """A run given a `mismatches` list runs as it would without one, and
    fills it with exactly the report of verify_trace on its trace, recorded
    or not: on clean runs, and on runs whose nodes keep stale views."""
    if stale:
        # A node that ignores its receiver's status stream keeps a stale view.
        monkeypatch.setattr(protocol, "on_mybox_from_ore", lambda view, msg: protocol.Effects(view))
    failed = []

    @settings(max_examples=60, deadline=None)
    @given(
        size=st.integers(1, 10),
        delay=st.integers(0, 3),
        interleaved=st.booleans(),
        intervals=st.integers(0, 30),
        lam=st.sampled_from([0.5, 1.0, 2.0, 3.0, 5.0]),
        seed=st.integers(0, 10_000),
    )
    def check(size, delay, interleaved, intervals, lam, seed):
        cfg = ScenarioConfig(
            node_count=size,
            delivery_delay=delay,
            workload=WorkloadConfig(lam=lam, intervals=intervals, seed=seed),
            seed=seed,
        )
        found = []
        trace, metrics = run_scenario(cfg, interleaved_toggles=interleaved, mismatches=found)
        plain, plain_metrics = run_scenario(cfg, interleaved_toggles=interleaved)
        assert dumps_trace(trace) == dumps_trace(plain)
        assert metrics == plain_metrics
        assert tuple(found) == verify_trace(trace, cfg).mismatches
        unrecorded = []
        assert run_scenario(
            cfg, interleaved_toggles=interleaved, record=False, mismatches=unrecorded
        ) == ([], metrics)
        assert unrecorded == found
        failed.append(bool(found))

    check()
    assert any(failed) is stale


def test_in_run_check_refuses_a_view_that_leaves_the_schedule(flip_one_view):
    """A handler that flips its node's availability leaves the view off the
    schedule at that interval's quiescent point: the in-run check raises the
    TraceError that verify_trace raises on the same run's trace. Toggles
    are interleaved, so the flip cannot land on a node that a later toggle
    of the same interval expects in its scheduled state."""
    cfg = ScenarioConfig(node_count=6, workload=WorkloadConfig(lam=3.0, intervals=20, seed=5), seed=5)
    with pytest.raises(TraceError, match=r"^interval \d+: availability diverges") as in_run:
        run_scenario(cfg, interleaved_toggles=True, record=False, mismatches=[])
    assert flip_one_view
    flip_one_view.clear()
    trace, _ = run_scenario(cfg, interleaved_toggles=True)
    with pytest.raises(TraceError) as replayed:
        verify_trace(trace, cfg)
    assert str(replayed.value) == str(in_run.value)


@st.composite
def hand_built_traces(draw):
    """A schedule and an event list that verify_trace reads without a
    TraceError: joins in any order, some of them after interval 0's first
    toggles. At the end of interval 0, and of some later intervals, each
    node writes its settled view and status value, a forged one, or
    nothing."""
    size = draw(st.integers(1, 5))
    intervals = draw(st.integers(1, 4))
    bools = st.lists(st.booleans(), min_size=intervals, max_size=intervals)
    states = {node: tuple(draw(bools)) for node in range(size)}
    schedule = AvailabilitySchedule(intervals=intervals, states=states)
    order = draw(st.permutations(range(size)))
    early = draw(st.integers(1, size))
    ids = st.sampled_from([*range(size), None])
    avail: dict = {}
    events: list[TraceEvent] = []

    def line(kind, node, value):
        events.append(TraceEvent(len(events), kind, node, value))

    def toggle(nodes, interval):
        for node in nodes:
            if states[node][interval] is not avail[node]:
                line(KIND_TOGGLE, node, (states[node][interval], interval))
                avail[node] = states[node][interval]

    def settle():
        ring = RingModel.from_states(tuple(avail), avail)
        tre = basic_tst(ring)
        mybox = mybox_table(ring, tre)
        for node in ring.nodes:
            how = draw(st.sampled_from(["settled", "forged", "silent"]))
            if how == "settled":
                neighbours = (ring.nodes[ring.position(node) - 1], ring.successor(node))
                line(KIND_VIEW_CHANGE, node, (*neighbours, tre[node], avail[node], False))
                line(KIND_PUBLISH, node, Sample(mybox_key(node), mybox[node], node, 0))
            elif how == "forged":
                view = (draw(ids), draw(ids), draw(ids), avail[node], draw(st.booleans()))
                line(KIND_VIEW_CHANGE, node, view)
                line(KIND_PUBLISH, node, Sample(mybox_key(node), draw(ids), node, 0))

    for node in order[:early]:
        line(KIND_JOIN, node, None)
        avail[node] = True
    toggle(order[:early], 0)
    for node in order[early:]:
        line(KIND_JOIN, node, None)
        avail[node] = True
    toggle(order[early:], 0)
    settle()
    for interval in range(1, intervals):
        toggle(order, interval)
        if draw(st.booleans()):
            settle()
    return schedule, events


def fresh_reports(events, intervals):
    """What one fresh `_oracle_compare` call gives at each interval's
    quiescent point: the state right before the first toggle of a later
    interval, or at the trace's end."""
    avail: dict = {}
    observed = {name: {} for name in ("ose", "ore", "tre", "mybox", "joining")}
    reports = []

    def close(upto):
        while len(reports) < upto:
            ring = RingModel.from_states(tuple(avail), avail)
            snapshot = {name: dict(table) for name, table in observed.items()}
            reports.append(scenario._oracle_compare(ring, snapshot))

    for _time, kind, node, value in events:
        if kind == KIND_JOIN:
            avail[node] = True
            observed["mybox"][node] = node
        elif kind == KIND_VIEW_CHANGE:
            for name, field in zip(("ose", "ore", "tre"), value):
                observed[name][node] = field
            avail[node], observed["joining"][node] = value[3], value[4]
        elif kind == KIND_PUBLISH:
            observed["mybox"][node] = value.payload
        else:
            available, interval = value
            close(interval)
            avail[node] = available
    close(intervals)
    return [(interval, *found) for interval, report in enumerate(reports) for found in report]


@settings(max_examples=200, deadline=None)
@given(hand_built_traces())
def test_verify_trace_reports_what_a_fresh_oracle_compare_gives(built):
    """verify_trace keeps the ring-order tables across intervals, and its
    report is still, interval by interval and in order, what a fresh
    `_oracle_compare` of that quiescent point gives: joins in any order,
    joins after the first toggle, and nodes with no view line."""
    schedule, events = built
    cfg = ScenarioConfig(
        node_count=len(schedule.states), workload=WorkloadConfig(intervals=schedule.intervals)
    )
    report = verify_trace(events, cfg, schedule=schedule)
    assert [
        (m.interval, m.node, m.field, m.expected, m.observed) for m in report.mismatches
    ] == fresh_reports(events, schedule.intervals)


@settings(max_examples=100, deadline=None)
@given(
    orders=st.lists(st.permutations(range(4)), min_size=1, max_size=4),
    ids=st.lists(st.sampled_from([0, 1, 2, 3, None]), min_size=20, max_size=20),
    up=st.lists(st.booleans(), min_size=4, max_size=4),
)
def test_the_quiescent_check_rebuilds_its_ring_tables_when_the_order_changes(orders, ids, up):
    """No caller changes the node order between two checks of one run, yet
    a check handed another order compares against that order's ring."""
    schedule = AvailabilitySchedule(intervals=1, states={node: (up[node],) for node in range(4)})
    names = ("ose", "ore", "tre", "mybox", "joining")
    observed = {name: dict(zip(range(4), ids[5 * i : 5 * i + 4])) for i, name in enumerate(names)}
    found: list = []
    check = scenario._quiescent_check(schedule, found)
    expected = []
    for order in orders:
        avail = {node: up[node] for node in order}
        check(0, avail, observed)
        ring = RingModel.from_states(order, avail)
        expected += [Mismatch(0, *miss) for miss in scenario._oracle_compare(ring, observed)]
    assert found == expected


def test_each_checked_interval_sweeps_the_oracle_once(monkeypatch):
    """A checked run and verify_trace call scenario.basic_tst once per
    interval, and an unchecked run never: perfbench's
    oracle.basic_tst.calls counts these calls."""
    calls = []
    sweep = scenario.basic_tst
    monkeypatch.setattr(scenario, "basic_tst", lambda ring: calls.append(ring) or sweep(ring))
    cfg = ScenarioConfig(node_count=6, workload=WorkloadConfig(lam=3.0, intervals=9, seed=4), seed=4)
    for interleaved in (False, True):
        trace, _ = run_scenario(cfg, interleaved_toggles=interleaved)
        run_scenario(cfg, interleaved_toggles=interleaved, record=False)
        assert calls == []
        run_scenario(cfg, interleaved_toggles=interleaved, record=False, mismatches=[])
        assert len(calls) == 9
        calls.clear()
        assert verify_trace(trace, cfg).passed
        assert len(calls) == 9
        calls.clear()


def test_unrecorded_runs_return_an_empty_trace():
    cfg = ScenarioConfig(node_count=4, workload=WorkloadConfig(intervals=6, seed=2), seed=2)
    trace, metrics = run_scenario(cfg, record=False)
    assert type(trace) is RecordedTrace and trace == [] and [] == trace
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
        event.time, event.kind, event.node, (ose, ore, 999, state, joining)
    )
    report = verify_trace(corrupted, cfg)
    assert not report.passed
    assert any(m.node == event.node for m in report.mismatches)


def test_a_node_without_view_lines_never_matches_an_empty_system():
    """None is the empty system's next-available value, so a node the
    trace gives no view must not read as one."""
    cfg = ScenarioConfig(node_count=1, workload=WorkloadConfig(intervals=2, seed=0))
    schedule = forced_schedule(1, set(), {0})
    trace, _ = run_scenario(cfg, schedule=schedule)
    viewless = [e for e in trace if e.kind != KIND_VIEW_CHANGE]
    report = verify_trace(viewless, cfg, schedule=schedule)
    assert [(m.interval, m.field, m.expected) for m in report.mismatches] == [
        (0, "ose", "0"), (0, "ore", "0"), (0, "tre", "0"), (0, "joining", "False"),
        (1, "ose", "0"), (1, "ore", "0"), (1, "tre", "None"), (1, "joining", "False"),
    ]


def test_diverging_toggles_are_a_structural_error():
    cfg = ScenarioConfig(node_count=4, workload=WorkloadConfig(intervals=8, seed=6), seed=6)
    trace, _ = run_scenario(cfg)
    index = next(i for i, e in enumerate(trace) if e.kind == "Toggle")
    event = trace[index]
    available, interval = event.value
    flipped = not available
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
    available, interval = event.value
    assert interval == 2
    corrupted = list(trace)
    corrupted[index] = TraceEvent(event.time, event.kind, event.node, (available, 0))
    with pytest.raises(TraceError, match="intervals must not go backwards"):
        verify_trace(corrupted, cfg, schedule=schedule)


def test_wrong_node_count_is_a_structural_error():
    cfg = ScenarioConfig(node_count=4, workload=WorkloadConfig(intervals=5, seed=1), seed=1)
    trace, _ = run_scenario(cfg)
    bigger = ScenarioConfig(node_count=5, workload=WorkloadConfig(intervals=5, seed=1), seed=1)
    with pytest.raises(TraceError):
        verify_trace(trace, bigger)


def test_a_join_outside_the_config_nodes_fails_at_its_own_line():
    """A Join of a node the config does not have is refused at that line,
    naming the node, not later as a diverging availability vector."""
    trace, _ = run_scenario(
        ScenarioConfig(node_count=4, workload=WorkloadConfig(intervals=5, seed=1), seed=1)
    )
    smaller = ScenarioConfig(node_count=3, workload=WorkloadConfig(intervals=5, seed=1), seed=1)
    read = []

    def events():
        for event in trace:
            read.append(event)
            yield event

    with pytest.raises(TraceError, match="Join of node 3, config says 0..2"):
        verify_trace(events(), smaller)
    assert read[-1].kind == "Join" and read[-1].node == 3


def _time_backwards(trace):
    return trace[:-1] + [trace[-1]._replace(time=0)]


def _joined_twice(trace):
    second = next(i for i, e in enumerate(trace) if e.kind == "Join" and e.node == 1)
    return trace[: second + 1] + [trace[0]._replace(time=trace[second].time)] + trace[second + 1 :]


def _toggle_past_the_schedule(trace):
    last = max(i for i, e in enumerate(trace) if e.kind == "Toggle")
    available, _interval = trace[last].value
    return trace[:last] + [trace[last]._replace(value=(available, 8))] + trace[last + 1 :]


def _cut_before_the_last_join(trace):
    return trace[: next(i for i, e in enumerate(trace) if e.kind == "Join" and e.node == 3)]


@pytest.mark.parametrize(
    "mutate, message",
    [
        (_time_backwards, "time went backwards"),
        (_joined_twice, "0 joined twice"),
        (_toggle_past_the_schedule, "toggle interval 8 outside the schedule"),
        (_cut_before_the_last_join, "trace joined 3 nodes, config says 4"),
    ],
    ids=["time-backwards", "joined-twice", "toggle-outside-schedule", "too-few-joins"],
)
def test_verify_refuses_a_broken_trace_structure(mutate, message):
    """Each structural refusal of verify_trace, on one edit of a real trace."""
    cfg = ScenarioConfig(node_count=4, workload=WorkloadConfig(intervals=8, seed=6), seed=6)
    trace, _ = run_scenario(cfg)
    assert verify_trace(trace, cfg).passed
    with pytest.raises(TraceError, match=message):
        verify_trace(mutate(trace), cfg)


# -- the cyclic collector ----------------------------------------------------------


@pytest.mark.parametrize("delay", [0, 2])
@pytest.mark.parametrize("interleaved", [False, True], ids=["serialized", "interleaved"])
@pytest.mark.parametrize("record", [True, False], ids=["recorded", "unrecorded"])
def test_a_run_makes_no_reference_cycles(record, interleaved, delay):
    """Reference counting frees everything a run drops, so the collector,
    which run_scenario pauses, would have nothing to find."""
    cfg = ScenarioConfig(
        node_count=8,
        delivery_delay=delay,
        workload=WorkloadConfig(lam=3.0, intervals=40, seed=11),
        seed=11,
    )
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        result = run_scenario(cfg, interleaved_toggles=interleaved, record=record)
        assert result[1].deliveries > 0
        del result
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_run_scenario_leaves_the_collector_as_it_found_it(enabled, monkeypatch):
    cfg = ScenarioConfig(
        node_count=6,
        workload=WorkloadConfig(lam=3.0, intervals=20, seed=5),
        seed=5,
    )
    was = gc.isenabled()
    gc.enable() if enabled else gc.disable()
    try:
        run_scenario(cfg, mismatches=[])
        assert gc.isenabled() is enabled
        with pytest.raises(ConfigError):
            run_scenario(cfg, schedule=forced_schedule(5, set()))
        assert gc.isenabled() is enabled
        # A handler that fails in the middle of the toggle phase.
        def refuse(view, msg):
            raise protocol.ProtocolError(f"{view.me} refuses {msg}")

        monkeypatch.setattr(protocol, "on_mybox_from_ore", refuse)
        with pytest.raises(protocol.ProtocolError, match="refuses"):
            run_scenario(cfg)
        assert gc.isenabled() is enabled
    finally:
        gc.enable() if was else gc.disable()


def test_a_recorded_run_starts_no_collection(monkeypatch):
    """Count-based guard for the pause: from the recorder's creation to the
    metrics, no collection starts, although the run allocates many times
    the young generation's threshold."""
    inside = False
    started = []

    class Recorder(TraceRecorder):
        def __init__(self):
            nonlocal inside
            super().__init__()
            inside = True

    def metrics(*args):
        nonlocal inside
        result = compute_metrics(*args)
        inside = False
        return result

    def watch(phase, info):
        if phase == "start" and inside:
            started.append(info["generation"])

    monkeypatch.setattr(scenario, "TraceRecorder", Recorder)
    monkeypatch.setattr(scenario, "compute_metrics", metrics)
    cfg = ScenarioConfig(
        node_count=16, workload=WorkloadConfig(lam=3.0, intervals=100, seed=2), seed=2
    )
    assert gc.isenabled()
    gc.callbacks.append(watch)
    try:
        trace, _ = scenario.run_scenario(cfg)
    finally:
        gc.callbacks.remove(watch)
    assert not inside
    assert len(trace) > 10 * gc.get_threshold()[0]
    assert started == []


# -- trace serialization -----------------------------------------------------------


def test_a_recorded_trace_holds_one_status_value_per_node():
    """A status payload is the bare node id it names, or None on MyBox when
    nothing is Available."""
    cfg = ScenarioConfig(node_count=8, workload=WorkloadConfig(intervals=30, seed=3), seed=3)
    trace, _ = run_scenario(cfg)
    status = [
        event.value
        for event in trace
        if event.kind in (KIND_PUBLISH, KIND_DELIVER)
        and event.value.key.topic in (TopicName.MYBOX, TopicName.ONEBACK)
    ]
    assert status
    for key, payload, _publisher, _seq in status:
        if payload is None:
            assert key.topic is TopicName.MYBOX
        else:
            assert type(payload) is int and 0 <= payload < cfg.node_count


def test_every_recorded_event_is_a_trace_event():
    """The recorder builds its tuples in C, bypassing TraceEvent's own
    constructor: each event must still be exactly a TraceEvent, equal to
    the one that constructor builds from its fields, with a line."""
    cfg = ScenarioConfig(node_count=6, workload=WorkloadConfig(intervals=12, seed=9), seed=9)
    trace, _ = run_scenario(cfg)
    assert {event.kind for event in trace} == {
        "Join", "Toggle", "Publish", "Deliver", "Subscribe", "Unsubscribe", "ViewChange"
    }
    for event in trace:
        assert type(event) is TraceEvent
        assert TraceEvent(*event) == event
        assert json.loads(event_to_json(event))["kind"] == event.kind


_RECORDER_METHODS = (
    "join", "toggle", "publish", "deliver", "subscribe", "unsubscribe", "view_change"
)


def test_a_recorded_run_builds_no_trace_event(monkeypatch):
    """A recorded run keeps its trace as flat rows: right after the run,
    before anything reads the trace, no TraceEvent exists, and the trace
    holds one event per call of a recorder method (each wrapped on the
    class, as a profiler's probe is)."""
    calls = Counter()

    def counted(name):
        method = getattr(TraceRecorder, name)

        def wrapper(*args):
            calls[name] += 1
            return method(*args)

        return wrapper

    for name in _RECORDER_METHODS:
        monkeypatch.setattr(TraceRecorder, name, counted(name))
    cfg = ScenarioConfig(
        node_count=12, workload=WorkloadConfig(lam=3.0, intervals=30, seed=4), seed=4
    )
    trace, _ = run_scenario(cfg)
    assert not any(type(obj) is TraceEvent for obj in gc.get_objects())
    assert set(calls) == set(_RECORDER_METHODS)
    assert len(trace) == sum(calls.values())
    assert type(trace) is RecordedTrace and type(trace[0]) is TraceEvent


def _outcome(check, *args):
    """What `check` returns, or the TraceError it raises, as text."""
    try:
        return check(*args)
    except TraceError as exc:
        return f"TraceError: {exc}"


def assert_rows_read_as_their_events(trace: RecordedTrace, cfg: ScenarioConfig) -> None:
    """Every writer and verify_trace give from a recorded trace's rows what
    they give from its TraceEvents, and the trace reads as the list of its
    events: length, indexing, slicing and == (both ways)."""
    events = list(trace)
    text = dumps_trace(trace)
    assert dumps_trace(events) == text
    written = []
    for source in (trace, events):
        stream = io.StringIO()
        dump_trace(source, stream)
        written.append(stream.getvalue().encode())
    assert written == [text.encode()] * 2
    assert _outcome(verify_trace, trace, cfg) == _outcome(verify_trace, events, cfg)

    n = len(events)
    assert len(trace) == n and all(type(event) is TraceEvent for event in events)
    for index in {0, 1, n // 2, n - 1, -1, -n}:
        if -n <= index < n:
            assert trace[index] == events[index]
    for index in (n, n + 7, -n - 1):
        with pytest.raises(IndexError):
            trace[index]
    for cut in (
        slice(None), slice(1, None), slice(None, -1), slice(None, None, -1),
        slice(n // 3, n // 2), slice(None, None, 3), slice(-2, None), slice(n + 5, None),
    ):
        assert type(trace[cut]) is list and trace[cut] == events[cut]
    assert trace == events and events == trace and not trace != events
    assert (trace == []) is ([] == trace) is (n == 0)
    assert trace != tuple(events)
    flat = [value for event in events for value in event]
    assert trace == RecordedTrace(flat) and RecordedTrace(flat) == trace
    assert (trace != RecordedTrace(flat[:-4])) is (n > 0)


@settings(max_examples=40, deadline=None)
@given(
    size=st.integers(1, 10),
    delay=st.integers(0, 3),
    interleaved=st.booleans(),
    lam=st.sampled_from([0.5, 1.0, 2.0, 3.0, 5.0]),
    intervals=st.integers(0, 30),
    seed=st.integers(0, 2**16),
)
def test_a_recorded_trace_reads_as_the_list_of_its_events(
    size, delay, interleaved, lam, intervals, seed
):
    cfg = ScenarioConfig(
        node_count=size,
        delivery_delay=delay,
        workload=WorkloadConfig(lam=lam, intervals=intervals, seed=seed),
        seed=seed,
    )
    trace, _ = run_scenario(cfg, interleaved_toggles=interleaved)
    assert_rows_read_as_their_events(trace, cfg)


def test_every_delivery_of_a_publication_holds_its_published_sample():
    """A publication is one Sample from publish to trace: each Deliver event's
    value is the very object of the Publish event it delivers, fan-out and
    arrival-log replay included."""
    cfg = ScenarioConfig(node_count=6, workload=WorkloadConfig(intervals=6, seed=5), seed=5)
    trace, _ = run_scenario(cfg)
    published = {
        (e.value.publisher, e.value.key, e.value.seq): e.value
        for e in trace if e.kind == KIND_PUBLISH
    }
    fanout = Counter()
    for e in trace:
        if e.kind == KIND_DELIVER:
            sample = e.value
            assert sample is published[sample.publisher, sample.key, sample.seq]
            fanout[id(sample)] += 1
    assert max(fanout.values()) > 1


def test_trace_lines_keep_a_fixed_field_order():
    cfg = ScenarioConfig(node_count=3, workload=WorkloadConfig(intervals=2, seed=0))
    trace, _ = run_scenario(cfg)
    for event in trace[:20]:
        line = event_to_json(event)
        keys = [k for k, _ in json.loads(line, object_pairs_hook=lambda pairs: pairs)]
        assert keys == ["time", "kind", "node", "detail"]


def test_trace_lines_hold_the_engine_values_as_written():
    """One line of each kind from a two-node run whose second interval takes
    both nodes down, as text: a node id is a bare integer, None is null
    (MyBox's "nothing Available" and a view's empty `tre`), availability is
    a word, and a view holds all its fields but me, last_mybox and
    predecessor."""
    cfg = ScenarioConfig(node_count=2, workload=WorkloadConfig(intervals=2, seed=0))
    trace, _ = run_scenario(cfg, schedule=forced_schedule(2, set(), {0, 1}))
    lines = dumps_trace(trace).splitlines()
    golden = {
        0: '{"time":1,"kind":"Join","node":0,"detail":{}}',
        1: '{"time":1,"kind":"Publish","node":0,"detail":{"key":{"topic":"Arrivals"},'
        '"payload":0,"seq":1}}',
        22: '{"time":2,"kind":"Publish","node":0,"detail":{"key":{"topic":"OSe","instance":0},'
        '"payload":1,"seq":1}}',
        23: '{"time":2,"kind":"Unsubscribe","node":0,"detail":{"key":{"topic":"MyBox","instance":0}}}',
        24: '{"time":2,"kind":"Subscribe","node":0,"detail":{"key":{"topic":"MyBox","instance":1}}}',
        32: '{"time":5,"kind":"Toggle","node":0,"detail":{"to":"unavailable","interval":1}}',
        35: '{"time":5,"kind":"Deliver","node":1,"detail":{"key":{"topic":"MyBox","instance":0},'
        '"payload":1,"publisher":0,"seq":1}}',
        38: '{"time":6,"kind":"Publish","node":1,"detail":{"key":{"topic":"MyBox","instance":1},'
        '"payload":null,"seq":1}}',
        40: '{"time":6,"kind":"ViewChange","node":1,"detail":{"ose":0,"ore":0,"tre":null,'
        '"state":"unavailable","joining":false}}',
    }
    assert {index: lines[index] for index in golden} == golden


def test_malformed_trace_lines_are_rejected():
    """A line that is not the trace's own is reported at its number and
    first differing column, with the trace's line and the file's, each
    clipped to 80 characters, and the file's bytes from that line on."""
    trace = _demo_trace()
    head = dumps_trace(trace[:2])
    third = (
        "'{\"time\":1,\"kind\":\"Subscribe\",\"node\":0,\"detail\":"
        "{\"key\":{\"topic\":\"Arrivals\"}}}'"
    )
    for line, column in [
        ("not json at all", 1),
        ('{"time":1,"kind":"Nonsense","node":0,"detail":{}}', 19),
        ('{"time":1,"kind":"Join"}', 19),
        ('{"time":1,"kind":"Subscribe","node":0,"detail":{"key":{"topic":"Arrivals"}}} ', 77),
    ]:
        assert first_difference(trace, io.BytesIO(f"{head}{line}\n".encode())) == (
            3, f"line 3, column {column}: expected {third}, found {line!r}", f"{line}\n".encode()
        )


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
    """Each line is what json.dumps writes for it, and `detail` is the
    line's detail."""
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
        assert event.detail == obj["detail"]
    assert dumps_trace(trace) == "".join(event_to_json(e) + "\n" for e in trace)


@functools.cache
def _demo_trace() -> RecordedTrace:
    """The README demo's trace (6 nodes, seed 9, 359 lines)."""
    cfg = ScenarioConfig(node_count=6, workload=WorkloadConfig(intervals=12, seed=9), seed=9)
    return run_scenario(cfg)[0]


# A character edit: what to do, where (taken modulo the line's length), and
# the character to write. The characters are those that JSON syntax reads.
_EDIT = st.tuples(
    st.sampled_from(["insert", "delete", "replace"]),
    st.integers(0, 200),
    st.sampled_from(list(' -019",:{}[]\\.enu')),
)


@settings(max_examples=300, deadline=None)
@given(index=st.integers(0, 358), edits=st.lists(_EDIT, min_size=1, max_size=2))
def test_an_edited_line_is_the_first_difference(index, edits):
    """One or two character edits of a real trace line: a file holding the
    edited line differs from the trace at that line and at the first
    column the edits changed, or the edits changed nothing."""
    trace = _demo_trace()
    lines = dumps_trace(trace).splitlines(keepends=True)
    line = list(lines[index][:-1])
    for op, position, char in edits:
        position %= len(line) + (op == "insert")
        if op == "insert":
            line.insert(position, char)
        elif op == "delete":
            del line[position]
        else:
            line[position] = char
    original, lines[index] = lines[index], "".join(line) + "\n"
    found = first_difference(trace, io.BytesIO("".join(lines).encode()))
    if lines[index] == original:
        assert found is None
        return
    column = next(n for n, (a, b) in enumerate(zip(original, lines[index]), 1) if a != b)
    assert found[0] == index + 1
    assert found[1].startswith(f"line {index + 1}, column {column}: ")


def test_first_difference_reads_past_the_first_chunk():
    """A trace of several chunks: the same bytes compare equal, and a
    change, a cut or an extra line in a later chunk is found at its line,
    also when the compare starts at a later line."""
    cfg = ScenarioConfig(
        node_count=16, workload=WorkloadConfig(lam=3.0, intervals=40, seed=4), seed=4
    )
    trace, _ = run_scenario(cfg)
    data = dumps_trace(trace).encode()
    lines = data.splitlines(keepends=True)
    n = len(lines)
    late = trace_module._CHUNK + 5
    assert n > late + 1
    assert first_difference(trace, io.BytesIO(data)) is None
    changed = lines[:late] + [lines[late].replace(b'"kind"', b'"kinds"')] + lines[late + 1 :]
    for forged, line in [
        (b"".join(changed), late + 1),
        (b"".join(lines[:-1]), n),
        (data + lines[-1], n + 1),
        (data[:-1], n),
    ]:
        found = first_difference(trace, io.BytesIO(forged))
        assert found is not None and found[0] == line
    # Compared from line `late` + 1 on, with some or all of the stream's
    # bytes from that line's start already read. A Difference holds the
    # stream's bytes from its line's start on, enough to show that line.
    start = len(b"".join(lines[:late]))
    for forged, line in [
        (data, None), (b"".join(changed), late + 1), (data[:-1], n), (data + b"more\n", n + 1)
    ]:
        for cut in (100, len(forged)):
            read, unread = forged[start : start + cut], io.BytesIO(forged[start + cut :])
            found = first_difference(trace, unread, late, read)
            assert (found and found.line) == line
            if found:
                tail = forged[len(b"".join(lines[: line - 1])) :]
                assert tail.startswith(found.rest)
                assert len(found.rest) >= min(len(tail), trace_module._SHOWN_BYTES)
    assert found.report.endswith("found 'more'")


@settings(max_examples=100, deadline=None)
@given(
    size=st.integers(1, 10),
    delay=st.integers(0, 3),
    lam=st.sampled_from([0.5, 1.0, 2.0, 3.0, 5.0]),
    intervals=st.integers(0, 20),
    seed=st.integers(0, 2**16),
)
def test_the_toggle_modes_first_differ_at_the_first_toggle_line(size, delay, lam, intervals, seed):
    """`verify` works out a file's toggle mode from this rule: a config's
    serialized and interleaved traces are the same lines before the
    serialized trace's first Toggle line, and differ on it; with no Toggle
    line, they are the same trace."""
    cfg = ScenarioConfig(
        node_count=size,
        delivery_delay=delay,
        workload=WorkloadConfig(lam=lam, intervals=intervals, seed=seed),
        seed=seed,
    )
    serialized = dumps_trace(run_scenario(cfg)[0]).splitlines()
    interleaved = dumps_trace(run_scenario(cfg, interleaved_toggles=True)[0]).splitlines()
    toggles = [i for i, line in enumerate(serialized) if '"kind":"Toggle"' in line]
    if not toggles:
        assert interleaved == serialized
        return
    first = toggles[0]
    assert interleaved[:first] == serialized[:first]
    assert interleaved[first] != serialized[first]


class _WriteLog(io.StringIO):
    """A text stream that keeps the length of each write."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, text):
        self.writes.append(len(text))
        return super().write(text)


def test_whole_trace_writers_agree_with_the_line_encoder():
    """dump_trace and dumps_trace write byte for byte the lines of
    event_to_json, and dump_trace writes whole chunks of lines, so a chunk
    boundary falling mid-trace changes nothing."""
    cfg = ScenarioConfig(
        node_count=16, workload=WorkloadConfig(lam=3.0, intervals=40, seed=4), seed=4
    )
    trace, _ = run_scenario(cfg)
    chunk = trace_module._CHUNK
    assert len(trace) > chunk and len(trace) % chunk
    reference = "".join(event_to_json(e) + "\n" for e in trace)
    assert dumps_trace(trace) == reference
    stream = _WriteLog()
    dump_trace(trace, stream)
    assert stream.getvalue() == reference
    assert len(stream.writes) == -(-len(trace) // chunk)
    lines = reference.splitlines(keepends=True)
    assert stream.writes[0] == sum(map(len, lines[:chunk]))


def _events_naming(node):
    """An event of every kind, each id field holding `node`."""
    sample = Sample(ARRIVALS_KEY, node, node, 1)
    return [
        TraceEvent(1, KIND_JOIN, node, None),
        TraceEvent(1, KIND_TOGGLE, node, (True, 2)),
        TraceEvent(2, KIND_PUBLISH, node, sample),
        TraceEvent(2, KIND_DELIVER, node, sample),
        TraceEvent(3, KIND_SUBSCRIBE, node, ARRIVALS_KEY),
        TraceEvent(3, KIND_UNSUBSCRIBE, node, ARRIVALS_KEY),
        TraceEvent(3, KIND_VIEW_CHANGE, node, (node, node, node, True, False)),
        TraceEvent(4, KIND_VIEW_CHANGE, node, (node, node, None, False, True)),
    ]


def _new_ids(start, count):
    """`count` ids, counting up from `start`, that the encoder's table of
    text does not hold yet."""
    fresh = (n for n in itertools.count(start) if n not in trace_module._TEXT)
    return list(itertools.islice(fresh, count))


_WRITERS = ["event_to_json", "dumps_trace", "dump_trace", "dumps_trace-rows", "dump_trace-rows"]


def _write(writer, events):
    """The events' text from one writer: event_to_json line by line, or
    dumps_trace or dump_trace, given the TraceEvents or, with "-rows", a
    RecordedTrace of them, which they read by its rows."""
    if writer == "event_to_json":
        return "".join(event_to_json(event) + "\n" for event in events)
    name, _, rows = writer.partition("-")
    if rows:
        events = RecordedTrace([value for event in events for value in event])
    if name == "dumps_trace":
        return dumps_trace(events)
    stream = io.StringIO()
    dump_trace(events, stream)
    return stream.getvalue()


@pytest.mark.parametrize(
    "node",
    [0, 1023, 1024, 5000, 10**9, -1, -7],
    ids=["zero", "last-in-table", "first-past-table", "5000", "1e9", "negative", "minus-7"],
)
def test_every_writer_writes_an_id_at_the_tables_edges_as_json_does(node):
    """Node ids and keys are read from one table of their text, built with
    ids 0-1023 and filled as lines name others. An id at either side of
    the built end, far past it or below it, and a line naming several ids
    the table does not hold, followed by a key of one of them, are written
    as json.dumps writes them, by every writer; the table then holds the
    new ids and the new key."""
    for writer in _WRITERS:
        new = _new_ids(10**10, 2) + _new_ids(-(10**10), 1)
        key = TopicKey(TopicName.MYBOX, new[0])
        events = _events_naming(node) + [
            TraceEvent(5, KIND_VIEW_CHANGE, new[0], (new[1], node, new[2], True, False)),
            TraceEvent(5, KIND_SUBSCRIBE, node, key),
        ]
        assert not any(value in trace_module._TEXT for value in (*new, key))
        text = _write(writer, events)
        assert all(value in trace_module._TEXT for value in (*new, key))
        lines = text.splitlines()
        assert len(lines) == len(events) and text.endswith("\n")
        for event, line in zip(events, lines):
            obj = json.loads(line)
            assert line == json.dumps(obj, separators=(",", ":"))
            assert obj["node"] == event.node and event.detail == obj["detail"]
        detail = json.loads(lines[-2])["detail"]
        assert (detail["ose"], detail["ore"], detail["tre"]) == (new[1], node, new[2])
        assert json.loads(lines[-1])["detail"]["key"] == {"topic": "MyBox", "instance": new[0]}
        assert text == _write("event_to_json", events)


def test_a_value_that_only_equals_an_id_is_refused():
    """A value the table lacks that is not an exact int, None or a key is
    refused by every writer, and not added: 2000.0 cannot set how id 2000
    is written. No other test names id 2000."""
    assert 2000 not in trace_module._TEXT
    for writer in _WRITERS:
        with pytest.raises(TraceError, match="2000.0"):
            _write(writer, [TraceEvent(1, KIND_JOIN, 2000.0, None)])
    assert 2000 not in trace_module._TEXT
    events = _events_naming(2000)
    for writer in _WRITERS:
        assert _write(writer, events) == _write("event_to_json", events)
    assert event_to_json(TraceEvent(1, KIND_JOIN, 2000, None)) == (
        '{"time":1,"kind":"Join","node":2000,"detail":{}}'
    )
    assert trace_module._TEXT[2000] == "2000"


def test_the_tick_head_follows_every_change_of_time():
    """Times that go up, repeat as distinct int objects (as ints parsed from
    text are) and go back down: the whole-trace writers, which build a
    line's head once per run of equal times, write each event's own line."""
    times = [0, 1, 1, 1000, int("1000"), int("1000"), 7, 7, 1000, 0]
    assert times[3] is not times[4] and times[4] is not times[5]
    events = [
        _events_naming(300 + index)[index % 8]._replace(time=time)
        for index, time in enumerate(times)
    ]
    lines = [event_to_json(event) for event in events]
    assert [json.loads(line)["time"] for line in lines] == times
    assert dumps_trace(events) == "".join(line + "\n" for line in lines)


def test_an_empty_trace_writes_nothing():
    stream = _WriteLog()
    dump_trace([], stream)
    assert stream.writes == []
    assert dumps_trace([]) == ""


def test_an_event_of_unknown_kind_is_refused_by_every_writer():
    event = TraceEvent(1, "Nonsense", 0, None)
    with pytest.raises(TraceError, match="Nonsense"):
        event_to_json(event)
    with pytest.raises(TraceError, match="Nonsense"):
        dumps_trace([event])
    with pytest.raises(TraceError, match="Nonsense"):
        dump_trace([event], io.StringIO())


def test_the_writers_and_detail_do_not_call_the_public_line_function(monkeypatch):
    """perfbench wraps the module global event_to_json to time it, and reads
    .detail outside its timed spans: the whole-trace writers and .detail run
    the encoder itself, so they never enter that wrapper."""
    cfg = ScenarioConfig(node_count=4, workload=WorkloadConfig(intervals=4, seed=2), seed=2)
    trace, _ = run_scenario(cfg)
    reference = "".join(event_to_json(e) + "\n" for e in trace)
    details = [json.loads(line)["detail"] for line in reference.splitlines()]

    def refuse(event):
        raise AssertionError("event_to_json called")

    monkeypatch.setattr(trace_module, "event_to_json", refuse)
    assert [e.detail for e in trace] == details
    assert dumps_trace(trace) == reference
    stream = io.StringIO()
    dump_trace(trace, stream)
    assert stream.getvalue() == reference


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
    and Unsubscribe lines, per interval. Lines before the first Toggle line
    are the setup row's; each Toggle line starts its interval's row."""
    keys = range(SETUP_INTERVAL, intervals)
    toggles = dict.fromkeys(keys, 0)
    published = {i: dict.fromkeys((t.value for t in TopicName), 0) for i in keys}
    deliveries = dict.fromkeys(keys, 0)
    subscribes = dict.fromkeys(keys, 0)
    unsubscribes = dict.fromkeys(keys, 0)
    interval = SETUP_INTERVAL
    for event in trace:
        if event.kind == "Toggle":
            interval = event.detail["interval"]
            toggles[interval] += 1
        elif event.kind == "Publish":
            published[interval][event.detail["key"]["topic"]] += 1
        elif event.kind == "Deliver":
            deliveries[interval] += 1
        elif event.kind == "Subscribe":
            subscribes[interval] += 1
        elif event.kind == "Unsubscribe":
            unsubscribes[interval] += 1
    everything = tuple(
        IntervalStats(
            i, toggles[i], published[i], deliveries[i], subscribes[i], unsubscribes[i]
        )
        for i in keys
    )
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
    assert sum(metrics.publications_per_topic.values()) == 0
    assert metrics.deliveries == 0
    assert metrics.intervals == ()


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
    # lone toggle, live neighbours
    assert metrics.intervals[0].publications_per_topic[TopicName.MYBOX.value] == 1


@pytest.mark.parametrize("interleaved", [False, True], ids=["serialized", "interleaved"])
def test_a_run_tallies_after_the_joins_and_at_each_intervals_end(monkeypatch, interleaved):
    """The metrics are per interval, so a run tallies the bus once after the
    joins and once per interval, however many toggles it applies."""
    calls = []

    def counted(bus):
        calls.append(bus.now)
        return tally(bus)

    monkeypatch.setattr(scenario, "tally", counted)
    cfg = ScenarioConfig(node_count=6, workload=WorkloadConfig(intervals=12, seed=9), seed=9)
    _, metrics = run_scenario(cfg, interleaved_toggles=interleaved)
    assert sum(row.toggles for row in metrics.intervals) > cfg.workload.intervals
    assert len(calls) == cfg.workload.intervals + 1


@settings(max_examples=200, deadline=None)
@given(
    size=st.integers(1, 12),
    delay=st.integers(0, 3),
    lam=st.sampled_from([1.0, 2.0, 3.0, 4.0]),
    intervals=st.integers(1, 20),
    seed=st.integers(0, 2**16),
)
def test_a_serialized_toggle_publishes_once_per_changed_status_value(
    size, delay, lam, intervals, seed
):
    """Message complexity of a serialized toggle: its MyBox Publish lines
    come from exactly the nodes whose settled status value (mybox_table)
    differs between the availability vectors before and after it, one line
    per node. The network is driven as run_scenario drives it."""
    schedule = build_schedule(WorkloadConfig(lam=lam, intervals=intervals, seed=seed), range(size))
    recorder = TraceRecorder()
    net = joined_network(size, recorder, delay)

    def settled():
        ring = ring_of(net)
        return mybox_table(ring, basic_tst(ring))

    for interval in range(intervals):
        net.bus.advance()
        for node in range(size):
            available = schedule.state(node, interval)
            if available is net.views[node].available:
                continue
            before, start = settled(), len(recorder.events)
            net.bus.advance()
            recorder.toggle(net.bus.now, node, available, interval)
            net.toggle(node, available)
            net.dispatch_to_quiescence()
            after = settled()
            publishers = [
                event.node
                for event in recorder.events[start:]
                if event.kind == KIND_PUBLISH and event.value.key.topic is TopicName.MYBOX
            ]
            assert sorted(publishers) == [n for n in after if after[n] != before[n]]


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
    with pytest.raises(ConfigError, match="unknown config keys"):
        parse_config({"node_count": 3, "verify_each_interval": True})
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


def test_readme_python_examples_run():
    """Every ```python block of README.md runs as written."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, re.DOTALL | re.MULTILINE)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


def test_readme_command_examples_match_the_cli(tmp_path, monkeypatch, capsys):
    """Every `$ rfoverlay ...` command of README.md's ```text blocks runs on
    the README's ```json config, and prints every output line it shows
    (`...` stands for lines left out)."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (config,) = re.findall(r"^```json\n(.*?)^```$", readme, re.DOTALL | re.MULTILINE)
    blocks = re.findall(r"^```text\n(.*?)^```$", readme, re.DOTALL | re.MULTILINE)
    examples = [
        example
        for block in blocks
        for example in re.split(r"^(?=\$ )", block, flags=re.MULTILINE)
        if example.startswith("$ rfoverlay ")
    ]
    assert len(examples) >= 3
    (tmp_path / "demo.json").write_text(config)
    monkeypatch.chdir(tmp_path)
    for example in examples:
        command, *shown = example.strip().splitlines()
        assert cli.main(shlex.split(command)[2:]) == 0, command
        printed = capsys.readouterr().out.splitlines()
        missing = [line for line in shown if line != "..." and line not in printed]
        assert not missing, (command, missing)


# -- records --------------------------------------------------------------------------


def test_importing_the_package_loads_neither_dataclasses_nor_inspect():
    """The records are named tuples, so a fresh import generates no
    dataclass methods and loads neither module."""
    src = Path(scenario.__file__).resolve().parents[1]
    code = (
        f"import sys; sys.path.insert(0, {str(src)!r}); import rfoverlay; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    done = subprocess.run(
        [sys.executable, "-I", "-S", "-B", "-c", code], capture_output=True, text=True, timeout=60
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


def test_records_print_as_fields_and_refuse_assignment():
    cfg = ScenarioConfig(node_count=3)
    stats = IntervalStats(0, 1, {"MyBox": 1}, 1, 0, 0)
    metrics = Metrics({"MyBox": 1}, 0, 0, 1, stats._replace(interval=SETUP_INTERVAL), (stats,))
    mismatch = Mismatch(0, 1, "tre", "2", "None")
    printed = [
        (
            cfg,
            "ScenarioConfig(node_count=3, workload=WorkloadConfig(lam=2.0, threshold=2, "
            "intervals=100, seed=0), delivery_delay=0, seed=0)",
        ),
        (
            WorkloadConfig(lam=3.0, threshold=1, intervals=2, seed=7),
            "WorkloadConfig(lam=3.0, threshold=1, intervals=2, seed=7)",
        ),
        (RingModel.of(3, down={1}), "RingModel(nodes=(0, 1, 2), avail=(True, False, True))"),
        (
            workload.build_schedule(WorkloadConfig(intervals=2, seed=1), range(2)),
            "AvailabilitySchedule(intervals=2, states=mappingproxy({0: (True, True), "
            "1: (True, True)}))",
        ),
        (
            stats,
            "IntervalStats(interval=0, toggles=1, publications_per_topic={'MyBox': 1}, "
            "deliveries=1, subscribes=0, unsubscribes=0)",
        ),
        (
            metrics,
            "Metrics(publications_per_topic={'MyBox': 1}, subscribes=0, unsubscribes=0, "
            "deliveries=1, setup=IntervalStats(interval=-1, toggles=1, "
            "publications_per_topic={'MyBox': 1}, deliveries=1, subscribes=0, unsubscribes=0), "
            "intervals=(IntervalStats(interval=0, toggles=1, publications_per_topic={'MyBox': 1}, "
            "deliveries=1, subscribes=0, unsubscribes=0),))",
        ),
        (mismatch, "Mismatch(interval=0, node=1, field='tre', expected='2', observed='None')"),
        (
            scenario.VerifyReport(1, (mismatch,)),
            "VerifyReport(intervals_checked=1, mismatches=(Mismatch(interval=0, node=1, "
            "field='tre', expected='2', observed='None'),))",
        ),
    ]
    for record, text in printed:
        assert repr(record) == text
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], record[0])
    twin = parse_config({"node_count": 3})
    assert twin == cfg and hash(twin) == hash(cfg)


def test_every_way_to_build_a_validated_record_validates():
    """_replace and _make go through the same checks as the constructor."""
    cfg = ScenarioConfig(node_count=3)
    for build in (
        lambda: cfg._replace(node_count=0),
        lambda: ScenarioConfig._make((3, WorkloadConfig(), -1, 0)),
    ):
        with pytest.raises(ConfigError):
            build()
    for build in (
        lambda: WorkloadConfig()._replace(lam=0.0),
        lambda: WorkloadConfig._make((2.0, -1, 100, 0)),
    ):
        with pytest.raises(ValueError):
            build()
    for build in (
        lambda: RingModel.of(3)._replace(avail=(True,)),
        lambda: RingModel._make(((0, 0), (True, True))),
    ):
        with pytest.raises(RingError):
            build()
    assert cfg._replace(node_count=4) == ScenarioConfig(node_count=4)


def test_a_run_and_its_verify_share_one_schedule(monkeypatch):
    drawn = []

    def spy(*args):
        drawn.append(workload.build_schedule(*args))
        return drawn[-1]

    monkeypatch.setattr(scenario, "build_schedule", spy)
    cfg = ScenarioConfig(node_count=5, workload=WorkloadConfig(intervals=6, seed=11), seed=11)
    trace, _ = run_scenario(cfg)
    assert verify_trace(trace, ScenarioConfig(**cfg._asdict())).passed
    assert len(drawn) == 2 and drawn[0] is drawn[1]
