"""Scenario configuration, the run loop, and trace verification.

A scenario joins every node serially, then walks the availability schedule
interval by interval, applying each state change as a toggle driven to
quiescence (ascending node order). Runs use the basic topology; the
bidirectional and shortest-path variants exist only as oracles.

Verification replays a trace against the oracles: at every interval's
quiescent point, each node's next-available knowledge and the last value on
its status stream must match the all-seeing computation for that interval's
availability vector.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import IO, Any, Mapping

from .bus import Identity, NodeId, Payload, TopicName
from .metrics import Metrics, Tally, ToggleMark, compute_metrics, tally
from .network import JoinError, Network
# mybox_fixpoint is not called here: _oracle_compare reads the whole table at
# once. The name stays bound in this module because perfbench/probes.py wraps
# scenario.mybox_fixpoint.
from .oracle import RingModel, basic_tst, mybox_fixpoint, mybox_table  # noqa: F401
from .protocol import Availability, NextAvailable
from .trace import (
    KIND_JOIN,
    KIND_PUBLISH,
    KIND_TOGGLE,
    KIND_VIEW_CHANGE,
    Trace,
    TraceError,
    TraceRecorder,
)
from .workload import AvailabilitySchedule, WorkloadConfig, build_schedule


class ConfigError(ValueError):
    """A scenario configuration that does not validate."""


class VerificationError(RuntimeError):
    """Raised by in-run verification when a quiescent point disagrees."""


@dataclass(frozen=True, slots=True)
class ScenarioConfig:
    node_count: int
    workload: WorkloadConfig = field(default_factory=WorkloadConfig)
    delivery_delay: int = 0
    verify_each_interval: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        if self.node_count < 1:
            raise ConfigError("node_count must be >= 1")
        if self.delivery_delay < 0:
            raise ConfigError("delivery_delay must be >= 0")


# ---------------------------------------------------------------------------
# Config file handling (a strict key/value tree)

_WORKLOAD_KEYS = ("lambda", "threshold", "intervals", "seed")
_TOP_KEYS = (
    "node_count",
    "workload",
    "delivery_delay",
    "verify_each_interval",
    "seed",
)


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

    verify_flag = obj.get("verify_each_interval", False)
    _require(isinstance(verify_flag, bool), "verify_each_interval must be a boolean")

    try:
        return ScenarioConfig(
            node_count=node_count,
            workload=workload,
            delivery_delay=_as_int(obj.get("delivery_delay", 0), "delivery_delay"),
            verify_each_interval=verify_flag,
            seed=seed,
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


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
    return replace(cfg, seed=seed, workload=replace(cfg.workload, seed=seed))


# ---------------------------------------------------------------------------
# Oracle agreement of a live network


def ring_of(net: Network) -> RingModel:
    """The arrival-order ring: `views` keeps add_node order."""
    nodes = tuple(net.views)
    return RingModel.from_states(nodes, {n: net.views[n].state for n in nodes})


def _oracle_compare(
    ring: RingModel,
    tre: Mapping[NodeId, NextAvailable],
    mybox: Mapping[NodeId, Payload | None],
) -> list[tuple[NodeId, str, str, str]]:
    """Every (node, field, expected, observed) where observed state on `ring`
    disagrees with the all-seeing computation.

    A node with no `mybox` value never published on its status stream: it
    has never toggled, so its settled value is its own identity.
    """
    expected = basic_tst(ring)
    settled = mybox_table(ring)
    mismatches: list[tuple[NodeId, str, str, str]] = []
    for node in ring.nodes:
        seen = tre.get(node)
        if seen != expected[node]:
            mismatches.append((node, "tre", repr(expected[node]), repr(seen)))
        want = settled[node]
        got = mybox.get(node)
        if got is None:
            got = Identity(node)
        if got != want:
            mismatches.append((node, "mybox", repr(want), repr(got)))
    return mismatches


def oracle_mismatches(net: Network) -> list[tuple[NodeId, str, str, str]]:
    """Compare a quiescent network against the all-seeing computation."""
    tre = {node: view.tre for node, view in net.views.items()}
    mybox = {node: net.last_mybox_value(node) for node in net.views}
    return _oracle_compare(ring_of(net), tre, mybox)


# ---------------------------------------------------------------------------
# Run loop


def _resolve_schedule(
    cfg: ScenarioConfig, schedule: AvailabilitySchedule | None
) -> AvailabilitySchedule:
    if schedule is None:
        return build_schedule(cfg.workload, range(cfg.node_count))
    for node in range(cfg.node_count):
        if node not in schedule.states:
            raise ConfigError(f"schedule does not cover node {node}")
    return schedule


def run_scenario(
    cfg: ScenarioConfig,
    schedule: AvailabilitySchedule | None = None,
    interleaved_toggles: bool = False,
    record: bool = True,
) -> tuple[Trace, Metrics]:
    """Run one scenario to completion; returns its trace and metrics.

    `schedule` overrides the Poisson draw with an explicit availability
    pattern (used to force specific topologies). `interleaved_toggles` is the
    stress mode: all of an interval's toggles land before any dispatch, so
    propagation waves race each other.
    """
    schedule = _resolve_schedule(cfg, schedule)
    recorder = TraceRecorder() if record else None
    net = Network(delivery_delay=cfg.delivery_delay, recorder=recorder)
    for node in range(cfg.node_count):
        net.bus.advance()
        if recorder is not None:
            recorder.join(net.bus.now, node)
        net.add_node(node)
        net.dispatch_to_quiescence()
        if not net.join_completed(node):
            raise JoinError(f"{node} never completed its join")

    joined = tally(net.bus)
    marks: list[ToggleMark] = []
    ends: list[Tally] = []
    for interval in range(schedule.intervals):
        net.bus.advance()
        changes = [
            (node, schedule.state(node, interval))
            for node in range(cfg.node_count)
            if schedule.state(node, interval) is not net.views[node].state
        ]
        for node, to_state in changes:
            if not interleaved_toggles:
                net.bus.advance()
            marks.append(ToggleMark(interval, node, to_state, tally(net.bus)))
            if recorder is not None:
                recorder.toggle(net.bus.now, node, to_state, interval)
            net.toggle(node, to_state)
            if not interleaved_toggles:
                net.dispatch_to_quiescence()
        if interleaved_toggles:
            net.dispatch_to_quiescence()
        ends.append(tally(net.bus))
        if cfg.verify_each_interval:
            mismatches = oracle_mismatches(net)
            if mismatches:
                raise VerificationError(
                    f"interval {interval} disagrees with the oracle: {mismatches}"
                )
    trace = recorder.events if recorder is not None else []
    return trace, compute_metrics(joined, marks, ends)


# ---------------------------------------------------------------------------
# Verification


@dataclass(frozen=True, slots=True)
class Mismatch:
    interval: int
    node: NodeId
    field: str  # "tre" | "mybox"
    expected: str
    observed: str


@dataclass(frozen=True, slots=True)
class VerifyReport:
    intervals_checked: int
    mismatches: tuple[Mismatch, ...]

    @property
    def passed(self) -> bool:
        return not self.mismatches


def verify_trace(
    trace: Trace,
    cfg: ScenarioConfig,
    schedule: AvailabilitySchedule | None = None,
) -> VerifyReport:
    """Check a trace's quiescent points against the oracles.

    Structural problems (wrong node set, inconsistent availability, broken
    records) raise TraceError; oracle disagreement lands in the report.
    """
    schedule = _resolve_schedule(cfg, schedule)
    # The run as the trace shows it: only Join, Toggle, ViewChange and MyBox
    # Publish lines carry state that the oracles check.
    joined: list[NodeId] = []
    avail: dict[NodeId, Availability] = {}
    tre: dict[NodeId, NextAvailable] = {}
    mybox: dict[NodeId, Payload] = {}
    mismatches: list[Mismatch] = []

    # Interval k's quiescent point is right before the first toggle of any
    # later interval (or the end of the trace). Toggles carry their interval.
    def check_interval(interval: int) -> None:
        vector = schedule.vector(interval)
        if {n: avail[n] for n in joined} != vector:
            raise TraceError(
                f"interval {interval}: trace availability diverges from the schedule"
            )
        ring = RingModel.from_states(joined, vector)
        for found in _oracle_compare(ring, tre, mybox):
            mismatches.append(Mismatch(interval, *found))

    last_time = 0
    current_interval = -1
    for event in trace:
        time, kind, node, value = event
        if time < last_time:
            raise TraceError(f"time went backwards at {event}")
        last_time = time
        if node not in avail:
            if kind != KIND_JOIN:
                raise TraceError(f"{kind} line for {node} before its Join")
            joined.append(node)
            avail[node] = Availability.AVAILABLE
        elif kind == KIND_VIEW_CHANGE:
            _ose, _ore, tre[node], avail[node], _joining = value
        elif kind == KIND_PUBLISH:
            key, payload, _publisher, _seq = value
            if key.topic is TopicName.MYBOX:
                # A node publishes only on its own status stream.
                if key.instance != node:
                    raise TraceError(f"{node} published on MyBox instance {key.instance}")
                mybox[node] = payload
        elif kind == KIND_JOIN:
            raise TraceError(f"{node} joined twice")
        elif kind == KIND_TOGGLE:
            to_state, interval = value
            if interval < current_interval:
                raise TraceError("toggle intervals must not go backwards")
            if not 0 <= interval < schedule.intervals:
                raise TraceError(f"toggle interval {interval} outside the schedule")
            if node not in schedule.states:
                raise TraceError(f"toggle of unknown node {node}")
            if to_state is not schedule.state(node, interval):
                raise TraceError(
                    f"toggle of {node} at interval {interval} diverges from the schedule"
                )
            for pending in range(max(current_interval, 0), interval):
                check_interval(pending)
            current_interval = interval
            avail[node] = to_state
    if len(joined) != cfg.node_count:
        raise TraceError(f"trace joined {len(joined)} nodes, config says {cfg.node_count}")
    for pending in range(max(current_interval, 0), schedule.intervals):
        check_interval(pending)

    return VerifyReport(
        intervals_checked=schedule.intervals, mismatches=tuple(mismatches)
    )
