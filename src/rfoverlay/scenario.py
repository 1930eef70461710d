"""Scenario configuration, the run loop, and trace verification.

A scenario joins every node serially, then walks the availability schedule
interval by interval, applying each state change as a toggle driven to
quiescence (ascending node order). Runs use the basic topology; the
bidirectional and shortest-path variants exist only as oracles.

Verification checks every interval's quiescent point against the oracles:
each node's availability must be the schedule's, its sender and receiver
its neighbours on the arrival-order ring, and its next-available knowledge
and the last value on its status stream the all-seeing computation's for
that interval's availability vector. A run checks each point as it reaches
it (`run_scenario(..., mismatches=[])`); `verify_trace` reads a recorded
trace, or any list of events, to the same points and reports the same
mismatches. A written file is never decoded: `rfoverlay verify` replays its
config with the in-run check, compares the bytes, and prints that check
(see cli.cmd_verify).
"""

from __future__ import annotations

import gc
import json
from contextlib import contextmanager
from typing import IO, Any, Callable, Iterable, Iterator, Mapping, NamedTuple

from .bus import NodeId, TopicName
from .metrics import Metrics, Tally, compute_metrics, tally
from .network import Network
# mybox_fixpoint is not called here: _oracle_compare reads the whole table at
# once. The name stays bound in this module because perfbench/probes.py wraps
# scenario.mybox_fixpoint.
from .oracle import RingModel, basic_tst, mybox_fixpoint, mybox_table  # noqa: F401
from .protocol import NextAvailable
from .trace import (
    KIND_JOIN,
    KIND_PUBLISH,
    KIND_TOGGLE,
    KIND_VIEW_CHANGE,
    RecordedTrace,
    TraceError,
    TraceEvent,
    TraceRecorder,
    event_rows,
)
from .workload import AvailabilitySchedule, WorkloadConfig, build_schedule

# verify_trace reads every line's topic; a module global is cheaper to read
# than an Enum member off its class (see protocol).
_MYBOX = TopicName.MYBOX


class ConfigError(ValueError):
    """A scenario configuration that does not validate."""


class _ScenarioFields(NamedTuple):
    node_count: int
    workload: WorkloadConfig = WorkloadConfig()
    delivery_delay: int = 0
    seed: int = 0


class ScenarioConfig(_ScenarioFields):
    """One scenario: m nodes joined in order, then a workload's schedule.

    The run draws its schedule from `workload.seed`. `seed` is a label that
    `config_with_seed` and a sweep set, and in a config file it is the
    default of the workload seed; `parse_config` copies it there. So
    ScenarioConfig(node_count=4, seed=5) runs workload seed 0.

    Whether a run is checked against the oracles is not part of the config:
    a caller passes `mismatches` to run_scenario.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "ScenarioConfig":
        self = super().__new__(cls, *args, **kwargs)
        if self.node_count < 1:
            raise ConfigError("node_count must be >= 1")
        if self.delivery_delay < 0:
            raise ConfigError("delivery_delay must be >= 0")
        return self

    @classmethod
    def _make(cls, iterable: Iterable) -> "ScenarioConfig":
        # Through __new__, so _replace validates too.
        return cls(*iterable)


# ---------------------------------------------------------------------------
# Config file handling (a strict key/value tree)

_WORKLOAD_KEYS = ("lambda", "threshold", "intervals", "seed")
_TOP_KEYS = ("node_count", "workload", "delivery_delay", "seed")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def _as_int(value: Any, name: str) -> int:
    _require(isinstance(value, int) and not isinstance(value, bool), f"{name} must be an integer")
    return value


def parse_config(obj: Any) -> ScenarioConfig:
    """Build a ScenarioConfig from a parsed key/value tree; strict keys."""
    _require(isinstance(obj, dict), "config root must be a mapping")
    unknown = set(obj) - set(_TOP_KEYS)
    _require(not unknown, f"unknown config keys: {sorted(unknown)}")
    _require("node_count" in obj, "node_count is required")

    node_count = _as_int(obj["node_count"], "node_count")
    seed = _as_int(obj.get("seed", 0), "seed")

    workload_obj = obj.get("workload", {})
    _require(isinstance(workload_obj, dict), "workload must be a mapping")
    unknown = set(workload_obj) - set(_WORKLOAD_KEYS)
    _require(not unknown, f"unknown workload keys: {sorted(unknown)}")
    lam = workload_obj.get("lambda", 2.0)
    _require(isinstance(lam, (int, float)) and not isinstance(lam, bool), "lambda must be a number")
    try:
        workload = WorkloadConfig(
            lam=float(lam),
            threshold=_as_int(workload_obj.get("threshold", 2), "threshold"),
            intervals=_as_int(workload_obj.get("intervals", 100), "intervals"),
            seed=_as_int(workload_obj.get("seed", seed), "workload seed"),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    except OverflowError:  # float() of an integer beyond the float range
        raise ConfigError("lambda is too large") from None

    return ScenarioConfig(
        node_count=node_count,
        workload=workload,
        delivery_delay=_as_int(obj.get("delivery_delay", 0), "delivery_delay"),
        seed=seed,
    )


def load_config(stream: IO[str]) -> ScenarioConfig:
    try:
        obj = json.load(stream)
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config is not UTF-8 text: {exc}") from None
    except RecursionError:
        raise ConfigError("config is nested too deeply") from None
    except ValueError as exc:  # JSONDecodeError, or an integer too long to convert
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    return parse_config(obj)


def config_with_seed(cfg: ScenarioConfig, seed: int) -> ScenarioConfig:
    """The same scenario re-rooted on another seed (workload included)."""
    return cfg._replace(seed=seed, workload=cfg.workload._replace(seed=seed))


# ---------------------------------------------------------------------------
# Oracle agreement of a live network


def ring_of(net: Network) -> RingModel:
    """The arrival-order ring: `views` keeps add_node order."""
    nodes = tuple(net.views)
    return RingModel.from_states(nodes, {n: net.views[n].available for n in nodes})


# Per field (ose, ore, tre, mybox, joining), every node's value.
_Tables = Mapping[str, Mapping[NodeId, NextAvailable | bool]]


def _ring_tables(nodes: tuple[NodeId, ...]) -> dict[str, dict[NodeId, NodeId | bool]]:
    """The expected tables that depend on the ring order alone: each node's
    sender and receiver are its ring neighbours, and no node is joining."""
    return {
        "ose": dict(zip(nodes, nodes[-1:] + nodes[:-1])),
        "ore": dict(zip(nodes, nodes[1:] + nodes[:1])),
        "joining": dict.fromkeys(nodes, False),
    }


def _oracle_compare(
    ring: RingModel, observed: _Tables, fixed: _Tables | None = None
) -> list[tuple[NodeId, str, str, str]]:
    """Every (node, field, expected, observed) where observed state on `ring`
    disagrees with the all-seeing computation: each node's sender and
    receiver are its ring neighbours, its next-available value and the last
    value on its status stream are the oracles', and no node is joining.

    `observed` maps each field, ose, ore, tre, mybox and joining, to every
    node's value. `fixed` is `_ring_tables(ring.nodes)`, built here when not
    given: a quiescent check passes the tables it keeps while the ring order
    holds, so only the availability-dependent tables are built per call.
    The tables are compared whole, and the nodes are walked only when they
    differ. One oracle sweep gives both next-available tables: mybox_table
    reads basic_tst's.
    """
    nodes = ring.nodes
    if fixed is None:
        fixed = _ring_tables(nodes)
    tre = basic_tst(ring)
    expected = {
        "ose": fixed["ose"],
        "ore": fixed["ore"],
        "tre": tre,
        "mybox": mybox_table(ring, tre),
        "joining": fixed["joining"],
    }
    if observed == expected:
        return []
    # None is a value (nothing Available), so a node with no view yet reads
    # as a string that matches no expected value.
    return [
        (node, name, repr(want[node]), repr(seen))
        for node in nodes
        for name, want in expected.items()
        if (seen := observed[name].get(node, "no view")) != want[node]
    ]


def _observed(net: Network) -> dict[str, dict[NodeId, NextAvailable | bool]]:
    """Every view's fields as _oracle_compare reads them."""
    views = net.views.items()
    return {
        "ose": {node: view.ose for node, view in views},
        "ore": {node: view.ore for node, view in views},
        "tre": {node: view.tre for node, view in views},
        "mybox": {node: view.last_mybox for node, view in views},
        "joining": {node: view.joining for node, view in views},
    }


def oracle_mismatches(net: Network) -> list[tuple[NodeId, str, str, str]]:
    """Compare a quiescent network against the all-seeing computation."""
    return _oracle_compare(ring_of(net), _observed(net))


def _quiescent_check(
    schedule: AvailabilitySchedule, mismatches: list[Mismatch]
) -> Callable[[int, dict[NodeId, bool], _Tables], None]:
    """A check of one run's quiescent points: `check(interval, avail,
    observed)` appends interval's oracle disagreements to `mismatches`.
    `avail` maps every node, in arrival order, to its availability;
    TraceError if that is not the schedule's.

    The ose, ore and joining tables, and the schedule's states as one
    column per interval in ring order, depend on the ring order alone, which
    the joins fix before the first quiescent point. So the check builds them
    at its first call and again only when the order of `avail` changes.
    Each call builds the interval's availability tuple, one oracle sweep and
    the comparison.
    """
    states = schedule.states
    ring_nodes: tuple[NodeId, ...] = ()
    fixed: _Tables = {}
    columns: list[tuple[bool, ...]] = []

    def check(interval: int, avail: dict[NodeId, bool], observed: _Tables) -> None:
        nonlocal ring_nodes, fixed, columns
        nodes = tuple(avail)
        if nodes != ring_nodes:
            ring_nodes, fixed = nodes, _ring_tables(nodes)
            # No columns when the ring's nodes are not the schedule's: every
            # interval then diverges.
            columns = []
            if states.keys() == set(nodes):
                columns = list(zip(*(states[node] for node in nodes)))
        column = tuple(avail.values())
        if interval >= len(columns) or column != columns[interval]:
            raise TraceError(f"interval {interval}: availability diverges from the schedule")
        ring = RingModel(ring_nodes, column)
        mismatches.extend(
            Mismatch(interval, *found) for found in _oracle_compare(ring, observed, fixed)
        )

    return check


# ---------------------------------------------------------------------------
# Run loop


def _resolve_schedule(
    cfg: ScenarioConfig, schedule: AvailabilitySchedule | None
) -> AvailabilitySchedule:
    """The config's own schedule, or `schedule` if it gives exactly the
    config's nodes 0..m-1 one bool per interval. The run compares states by
    identity, so any other value would fail mid-run."""
    if schedule is None:
        return build_schedule(cfg.workload, range(cfg.node_count))
    nodes = set(schedule.states)
    if nodes != set(range(cfg.node_count)):
        raise ConfigError(
            f"schedule names nodes {sorted(nodes)}, config says 0..{cfg.node_count - 1}"
        )
    for node, states in schedule.states.items():
        if len(states) != schedule.intervals:
            raise ConfigError(
                f"schedule gives node {node} {len(states)} states for "
                f"{schedule.intervals} intervals"
            )
        if any(type(state) is not bool for state in states):
            raise ConfigError(f"schedule gives node {node} a state that is not a bool")
    return schedule


@contextmanager
def _collector_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector, and restore its state after.

    A recorded run keeps its trace as one flat list (see TraceRecorder),
    but every Sample and value tuple in it is an object the collector
    tracks. Over a 128-node, 500-interval run the collector would make over
    four hundred passes, its older-generation passes walking all that the
    run has kept so far, and every pass would find nothing: about a tenth
    of the run's time. The engine
    makes no reference cycles (reference counting frees all of its
    garbage; tests/test_sim.py checks that a run leaves `gc.collect()`
    nothing to find), so the run itself loses nothing. A collector that
    was already off stays off.

    The pause is process-wide. Cycles that another thread makes during a
    run wait for the run to end, and two runs overlapping in different
    threads turn the collector back on while the later one still runs.
    Do not run a scenario alongside threaded code that relies on the
    collector.

    The collector is deferred, not skipped: the first allocation after the
    pause starts one young-generation pass over the samples and value
    tuples the run kept. On a recorded churn128 seed 1 run (m=128, lambda
    3, 500 intervals) that pass took 0.038, 0.038 and 0.043 s host time in
    three runs on a 2-core x86_64 box, timed from its start to its stop
    callback in `gc.callbacks`. That allocation comes as this context
    manager exits, so the pass is still part of the run's time.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def run_scenario(
    cfg: ScenarioConfig,
    schedule: AvailabilitySchedule | None = None,
    interleaved_toggles: bool = False,
    record: bool = True,
    mismatches: list[Mismatch] | None = None,
) -> tuple[RecordedTrace, Metrics]:
    """Run one scenario to completion; returns its trace and metrics. The
    trace is a RecordedTrace, empty when `record` is False.

    `schedule` overrides the Poisson draw with an explicit availability
    pattern (used to force specific topologies). `interleaved_toggles` is the
    stress mode: all of an interval's toggles land before any dispatch, so
    propagation waves race each other. Given a `mismatches` list, the run
    checks each interval's quiescent point as it reaches it and appends what
    `verify_trace` would report for that interval, with no trace needed; a
    view whose availability is not the schedule's raises TraceError, as
    `verify_trace` does on the run's trace. The whole run, metrics included,
    runs with the cyclic garbage collector paused for the whole process
    (see _collector_paused): do not call this alongside threaded code that
    relies on the collector.
    """
    with _collector_paused():
        schedule = _resolve_schedule(cfg, schedule)
        recorder = TraceRecorder() if record else None
        net = Network(delivery_delay=cfg.delivery_delay, recorder=recorder)
        for node in range(cfg.node_count):
            net.add_node(node)

        check = _quiescent_check(schedule, mismatches) if mismatches is not None else None
        joined = tally(net.bus)
        toggles: list[int] = []
        ends: list[Tally] = []
        # Each interval's states as one column, in node order whatever the
        # order of the schedule's mapping.
        states = schedule.states
        columns = zip(*(states[node] for node in range(cfg.node_count)))
        for interval, column in enumerate(columns):
            net.bus.advance()
            views = net.views
            changes = [
                (node, available)
                for node, available in enumerate(column)
                if available is not views[node].available
            ]
            for node, available in changes:
                if not interleaved_toggles:
                    net.bus.advance()
                if recorder is not None:
                    recorder.toggle(net.bus.now, node, available, interval)
                net.toggle(node, available)
                if not interleaved_toggles:
                    net.dispatch_to_quiescence()
            if interleaved_toggles:
                net.dispatch_to_quiescence()
            toggles.append(len(changes))
            ends.append(tally(net.bus))
            if check is not None:
                avail = {node: view.available for node, view in views.items()}
                check(interval, avail, _observed(net))
        trace = recorder.events if recorder is not None else RecordedTrace([])
        return trace, compute_metrics(joined, toggles, ends)


# ---------------------------------------------------------------------------
# Verification


class Mismatch(NamedTuple):
    interval: int
    node: NodeId
    field: str  # "ose" | "ore" | "tre" | "mybox" | "joining"
    expected: str
    observed: str


class VerifyReport(NamedTuple):
    intervals_checked: int
    mismatches: tuple[Mismatch, ...]

    @property
    def passed(self) -> bool:
        return not self.mismatches


def verify_trace(
    trace: Iterable[TraceEvent],
    cfg: ScenarioConfig,
    schedule: AvailabilitySchedule | None = None,
) -> VerifyReport:
    """Check a trace's quiescent points against the oracles.

    The events are read once, in order, and a RecordedTrace by its rows, so
    no TraceEvent is built for it. Structural problems (wrong node set, inconsistent
    availability, broken records) raise TraceError; oracle disagreement lands
    in the report.
    """
    schedule = _resolve_schedule(cfg, schedule)
    # The run as the trace shows it: only Join, Toggle, ViewChange and MyBox
    # Publish lines carry state that the oracles check.
    avail: dict[NodeId, bool] = {}  # in arrival order, the ring's
    ose: dict[NodeId, NodeId] = {}
    ore: dict[NodeId, NodeId] = {}
    tre: dict[NodeId, NextAvailable] = {}
    # A node's status stream reads as its own id until it first publishes,
    # as join sets its view's last_mybox.
    mybox: dict[NodeId, NextAvailable] = {}
    joining: dict[NodeId, bool] = {}
    observed = {"ose": ose, "ore": ore, "tre": tre, "mybox": mybox, "joining": joining}
    mismatches: list[Mismatch] = []
    check = _quiescent_check(schedule, mismatches)

    # Interval k's quiescent point is right before the first toggle of any
    # later interval (or the end of the trace). Toggles carry their interval.
    last_time = 0
    current_interval = -1
    for time, kind, node, value in event_rows(trace):
        if time < last_time:
            raise TraceError(f"time went backwards at {TraceEvent(time, kind, node, value)}")
        last_time = time
        if node not in avail:
            if kind != KIND_JOIN:
                raise TraceError(f"{kind} line for {node} before its Join")
            if not 0 <= node < cfg.node_count:
                raise TraceError(f"Join of node {node}, config says 0..{cfg.node_count - 1}")
            avail[node] = True
            mybox[node] = node
        elif kind == KIND_VIEW_CHANGE:
            ose[node], ore[node], tre[node], avail[node], joining[node] = value
        elif kind == KIND_PUBLISH:
            key, payload, _publisher, _seq = value
            if key.topic is _MYBOX:
                # A node publishes only on its own status stream.
                if key.instance != node:
                    raise TraceError(f"{node} published on MyBox instance {key.instance}")
                mybox[node] = payload
        elif kind == KIND_JOIN:
            raise TraceError(f"{node} joined twice")
        elif kind == KIND_TOGGLE:
            available, interval = value
            if interval < current_interval:
                raise TraceError("toggle intervals must not go backwards")
            if not 0 <= interval < schedule.intervals:
                raise TraceError(f"toggle interval {interval} outside the schedule")
            if available is not schedule.state(node, interval):
                raise TraceError(
                    f"toggle of {node} at interval {interval} diverges from the schedule"
                )
            # The run toggles a node only when its view holds the other state.
            if available is avail[node]:
                raise TraceError(f"toggle of {node} at interval {interval} changes nothing")
            for pending in range(max(current_interval, 0), interval):
                check(pending, avail, observed)
            current_interval = interval
            avail[node] = available
    if len(avail) != cfg.node_count:
        raise TraceError(f"trace joined {len(avail)} nodes, config says {cfg.node_count}")
    for pending in range(max(current_interval, 0), schedule.intervals):
        check(pending, avail, observed)

    return VerifyReport(
        intervals_checked=schedule.intervals, mismatches=tuple(mismatches)
    )
