"""Probes at rfoverlay's layer boundaries and the per-layer metrics they give.

Every wrapper sits at the name its caller looks up at call time, so a probe
sees exactly the calls the engine makes:

* module globals that another module imported by name are patched in the
  importer (`scenario.build_schedule`, `scenario.compute_metrics`,
  `scenario.basic_tst`, `scenario.mybox_fixpoint`);
* functions reached through a module attribute or a global of their own
  module are patched in their home module (`protocol.handle_delivery`,
  `protocol.subscriptions`, `protocol.set_available`, `trace.event_to_json`);
* methods are patched on their class (`VirtualBus`, `Network`,
  `TraceRecorder`, `RingModel`).

A span name is `<layer>.<boundary>`; the layer is the rfoverlay module whose
code runs inside the span, plus `harness` for the benchmark's own code.
"""

from __future__ import annotations

from types import ModuleType

from tracer import Patches, Tracer

LAYERS = ("workload", "bus", "protocol", "network", "trace", "metrics", "oracle", "scenario", "harness")

TOPICS = ("arrivals", "mybox", "ore", "ose", "oneback")

_RECORDER_METHODS = ("join", "toggle", "publish", "deliver", "subscribe", "unsubscribe", "view_change")

# Every per-layer metric with its unit, in report order. Units other than "s"
# mark exact work counts (or ratios of them), which must repeat exactly.
PER_LAYER: tuple[tuple[str, str], ...] = (
    ("workload.build_schedule.calls", "count"),
    ("workload.build_schedule.self_s", "s"),
    ("bus.publish.calls", "count"),
    ("bus.publish.self_s", "s"),
    ("bus.fanout", "count"),
    ("bus.subscribe.calls", "count"),
    ("bus.subscribe.self_s", "s"),
    ("bus.replay_enqueued", "count"),
    ("bus.cancel.calls", "count"),
    ("bus.cancel.self_s", "s"),
    ("bus.cancel.pending_scanned", "count"),
    ("bus.dispatch.calls", "count"),
    ("bus.dispatch.self_s", "s"),
    ("bus.pending_peak", "count"),
    ("protocol.handle_delivery.calls", "count"),
    ("protocol.handle_delivery.self_s", "s"),
    *((f"protocol.deliveries.{topic}", "count") for topic in TOPICS),
    ("protocol.subscriptions.calls", "count"),
    ("protocol.subscriptions.self_s", "s"),
    ("protocol.toggle.calls", "count"),
    ("protocol.toggle.self_s", "s"),
    ("protocol.arrivals_per_join", "ratio"),
    ("protocol.noop_ratio", "ratio"),
    ("network.apply.calls", "count"),
    ("network.apply.self_s", "s"),
    ("network.drain.join.deliveries", "count"),
    ("network.drain.toggle.deliveries", "count"),
    ("network.drain.max_deliveries", "count"),
    ("network.drain.join_s", "s"),
    ("network.drain.toggle_s", "s"),
    ("trace.events", "count"),
    ("trace.record.calls", "count"),
    ("trace.record.self_s", "s"),
    ("trace.event_to_json.self_s", "s"),
    ("trace.dump.self_s", "s"),
    ("trace.bytes", "bytes"),
    ("metrics.compute.self_s", "s"),
    ("oracle.basic_tst.calls", "count"),
    ("oracle.basic_tst.self_s", "s"),
    ("oracle.mybox_fixpoint.calls", "count"),
    ("oracle.mybox_fixpoint.self_s", "s"),
    ("oracle.position.calls", "count"),
    ("scenario.run.self_s", "s"),
    ("scenario.verify.self_s", "s"),
    ("harness.self_s", "s"),
    ("traced.wall_s", "s"),
    ("traced.accounted_ratio", "ratio"),
    ("traced.overhead_ratio", "ratio"),
)

EXACT = frozenset(name for name, unit in PER_LAYER if unit != "s" and not name.startswith("traced."))


def install(tracer: Tracer, rf: ModuleType, patches: Patches) -> None:
    """Wrap every layer boundary of the imported package `rf`."""
    scenario, protocol, trace = rf.scenario, rf.protocol, rf.trace
    counts = tracer.counts

    def span(owner, attr: str, name: str, before=None, after=None) -> None:
        patches.wrap(owner, attr, lambda fn: tracer.span(name, fn, before, after))

    spans_of_scenario = {
        "build_schedule": "workload.build_schedule",
        "compute_metrics": "metrics.compute",
        "basic_tst": "oracle.basic_tst",
        "mybox_fixpoint": "oracle.mybox_fixpoint",
        "run_scenario": "scenario.run",
        "verify_trace": "scenario.verify",
    }
    for attr, name in spans_of_scenario.items():
        span(scenario, attr, name)
    patches.wrap(rf.RingModel, "position", lambda fn: tracer.counted("oracle.position", fn))

    # bus: pending-queue growth is measured across publish and subscribe,
    # the only calls that enqueue.
    def pending(bus, *_args, **_kwargs) -> int:
        return bus.pending_count

    def grew(counter: str):
        def after(before: int, _result, bus, *_args, **_kwargs) -> None:
            now = bus.pending_count
            counts[counter] += now - before
            counts["bus.pending_peak"] = max(counts["bus.pending_peak"], now)

        return after

    def scanned(bus, *_args, **_kwargs) -> None:
        counts["bus.cancel.pending_scanned"] += bus.pending_count

    span(rf.VirtualBus, "publish", "bus.publish", pending, grew("bus.fanout"))
    span(rf.VirtualBus, "subscribe", "bus.subscribe", pending, grew("bus.replay_enqueued"))
    span(rf.VirtualBus, "cancel_subscription", "bus.cancel", scanned)
    span(rf.VirtualBus, "dispatch_next", "bus.dispatch")

    # protocol
    def delivered(_token, effects, view, sample) -> None:
        counts["protocol.deliveries." + sample.key.topic.name.lower()] += 1
        if effects.view == view and not (
            effects.publications or effects.subscribe or effects.unsubscribe
        ):
            counts["protocol.noops"] += 1

    span(protocol, "handle_delivery", "protocol.handle_delivery", after=delivered)
    span(protocol, "subscriptions", "protocol.subscriptions")
    span(protocol, "set_available", "protocol.toggle")
    span(protocol, "set_unavailable", "protocol.toggle")

    # network: a drain is tagged by the operation that preceded it.
    phase: list[str | None] = [None]

    def marks(tag: str):
        def wrapper(fn):
            def marked(*args, **kwargs):
                phase[0] = tag
                counts["network." + tag + "s"] += 1
                return fn(*args, **kwargs)

            return marked

        return wrapper

    def drained(tag: str):
        def after(_token, delivered: int, *_args, **_kwargs) -> None:
            counts[f"network.drain.{tag}.deliveries"] += delivered
            counts["network.drain.max_deliveries"] = max(
                counts["network.drain.max_deliveries"], delivered
            )

        return after

    def drain(fn):
        by_phase = {
            tag: tracer.span(f"network.drain.{tag}", fn, after=drained(tag))
            for tag in ("join", "toggle")
        }

        def dispatch(*args, **kwargs):
            return by_phase[phase[0]](*args, **kwargs)

        return dispatch

    patches.wrap(rf.Network, "add_node", marks("join"))
    patches.wrap(rf.Network, "toggle", marks("toggle"))
    patches.wrap(rf.Network, "dispatch_to_quiescence", drain)
    span(rf.Network, "_apply", "network.apply")

    # trace: every recorder entry point is one recorded event.
    for method in _RECORDER_METHODS:
        span(rf.TraceRecorder, method, "trace.record")
    span(trace, "event_to_json", "trace.event_to_json")
    span(trace, "dump_trace", "trace.dump")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every PER_LAYER metric except the `traced.*` ones, from one pass."""
    counts = tracer.counts
    values: dict[str, float] = {}
    for name, _unit in PER_LAYER:
        if name.startswith("traced."):
            continue
        if name.endswith(".calls"):
            values[name] = tracer.calls[name.removesuffix(".calls")]
        elif name.endswith(".self_s"):
            values[name] = tracer.self_s[name.removesuffix(".self_s")]
        elif name.startswith("network.drain.") and name.endswith("_s"):
            values[name] = tracer.total_s[name.removesuffix("_s")]
        else:
            values[name] = counts[name]
    joins = counts["network.joins"]
    deliveries = tracer.calls["protocol.handle_delivery"]
    values["protocol.arrivals_per_join"] = counts["protocol.deliveries.arrivals"] / joins if joins else 0.0
    values["protocol.noop_ratio"] = counts["protocol.noops"] / deliveries if deliveries else 0.0
    return values


def layer_self_s(tracer: Tracer) -> dict[str, float]:
    """Self time summed by layer, over every span the pass opened."""
    totals = dict.fromkeys(LAYERS, 0.0)
    for name, seconds in tracer.self_s.items():
        totals[name.split(".", 1)[0]] += seconds
    return totals
