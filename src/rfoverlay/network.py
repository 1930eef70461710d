"""Event engine: node views wired onto one bus, driven to quiescence.

The engine owns all sequencing. Handlers stay pure; this layer applies their
Effects (publications first, then subscription changes), keeps the per-node
views, and drains the delivery queue. A join is one call, add_node, which
drains until the handshake completes; a toggle only applies its transition,
so a caller may land a batch of toggles before dispatching any of them. A
dispatch budget of 64 * m^2 per drain turns any non-terminating propagation
into a hard failure instead of a hang.

The delivery path is the simulator's inner loop, so it is kept tight:
dispatch_to_quiescence is step() unrolled, with its callees (the bus's
dispatch_next, protocol.handle_delivery, _apply, the recorder's deliver)
bound to locals once per drain. They are bound when each drain starts and
not at import, so a wrapper installed later on VirtualBus, on the protocol
module or on Network (a profiler's probe, a test's patch) still sees every
call. The network is its bus's one owner and reads the bus's clock and
queue (`_now`, `_pending`) directly; the bus filters its queue in place, so
the list a drain holds stays the queue. Views, effects and samples are
built with tuple.__new__ (see protocol and bus). An unrecorded _apply only
stores the new view; a recorded one tests the five fields a ViewChange line
writes one at a time and builds the line's tuple only when it writes one.
"""

from __future__ import annotations

from .bus import NodeId, Sample, VirtualBus
from . import protocol
from .protocol import Effects, NodeView

DISPATCH_BUDGET_FACTOR = 64


class QuiescenceError(RuntimeError):
    """The delivery queue failed to drain within the dispatch budget."""


class JoinError(RuntimeError):
    """A node's insertion handshake did not complete, or could not start."""


class Network:
    """All nodes of one scenario plus the bus between them."""

    def __init__(self, delivery_delay: int = 0, recorder=None) -> None:
        self.bus = VirtualBus(delivery_delay)
        self.recorder = recorder
        self.views: dict[NodeId, NodeView] = {}

    # -- membership -----------------------------------------------------------

    def add_node(self, node: NodeId) -> None:
        """Join `node`: announce it at the next tick, record the Join and
        dispatch to quiescence, which also drains any deliveries already
        pending. Raises JoinError if the handshake did not complete; a join
        refused up front (a known node, or one the protocol rejects) changes
        nothing.

        Joins therefore never overlap: a joiner is replayed the last two
        arrival records, which are its predecessor's and its own because the
        previous join has completed and was announced at an earlier tick
        (replay ties at one tick resolve by publisher id, not by arrival
        order).
        """
        if node in self.views:
            raise JoinError(f"{node} already joined")
        effects = protocol.join(node)
        self.bus.advance()
        if self.recorder is not None:
            self.recorder.join(self.bus.now, node)
        self._apply(node, effects)
        self.dispatch_to_quiescence()
        if self.views[node].joining:
            raise JoinError(f"{node} never completed its join")

    # -- availability -----------------------------------------------------------

    def toggle(self, node: NodeId, available: bool) -> None:
        """Apply one availability transition. Does not dispatch."""
        view = self.views[node]
        if available:
            self._apply(node, protocol.set_available(view))
        else:
            self._apply(node, protocol.set_unavailable(view))

    # -- dispatch -----------------------------------------------------------

    def dispatch_to_quiescence(self) -> int:
        """Drain the delivery queue; returns the number of deliveries.

        Each delivery is what step() does, with its callees bound once per
        drain rather than looked up on every delivery. They are bound when
        the drain starts, not at import, so a wrapper installed on the bus
        class, the protocol module or this class still sees every call.
        """
        bus = self.bus
        pending = bus._pending  # the bus filters its queue in place
        budget = DISPATCH_BUDGET_FACTOR * max(1, len(self.views)) ** 2
        dispatch = bus.dispatch_next
        handle = protocol.handle_delivery
        apply = self._apply
        views = self.views
        deliver = None if self.recorder is None else self.recorder.deliver
        delivered = 0
        while pending:
            if delivered >= budget:
                raise QuiescenceError(
                    f"no quiescence within {budget} deliveries "
                    f"({len(pending)} still pending)"
                )
            node, sample = dispatch()
            if deliver is not None:
                deliver(bus._now, node, sample)
            apply(node, handle(views[node], sample))
            delivered += 1
        return delivered

    def step(self) -> tuple[NodeId, Sample] | None:
        """Dispatch one delivery, record it and apply its subscriber's
        handler. Returns the (subscriber, sample) pair, delivered at
        `bus.now`; None once quiescent."""
        delivery = self.bus.dispatch_next()
        if delivery is None:
            return None
        node, sample = delivery
        if self.recorder is not None:
            self.recorder.deliver(self.bus.now, node, sample)
        self._apply(node, protocol.handle_delivery(self.views[node], sample))
        return delivery

    # -- effects -----------------------------------------------------------

    def _apply(self, node: NodeId, effects: Effects) -> None:
        new, publications, subscribe, unsubscribe = effects
        bus = self.bus
        recorder = self.recorder
        for key, payload in publications:
            sample = bus.publish(node, key, payload)
            if recorder is not None:
                recorder.publish(bus._now, sample)
        for key in unsubscribe:
            bus.cancel_subscription(node, key)
            if recorder is not None:
                recorder.unsubscribe(bus._now, node, key)
        for key in subscribe:
            bus.subscribe(node, key)
            if recorder is not None:
                recorder.subscribe(bus._now, node, key)
        views = self.views
        if recorder is None:
            views[node] = new
            return
        old = views.get(node)
        views[node] = new
        # A ViewChange line writes all of a view but me, last_mybox and
        # predecessor: a change to those alone would repeat the node's
        # previous line. The fields are compared one at a time by their
        # place in NodeView, tre first, as a status handler changes little
        # else.
        if new is not old and (
            old is None
            or new[3] != old[3]  # tre
            or new[4] != old[4]  # available
            or new[1] != old[1]  # ose
            or new[2] != old[2]  # ore
            or new[6] != old[6]  # joining
        ):
            # (ose, ore, tre, available, joining)
            recorder.view_change(bus._now, node, (new[1], new[2], new[3], new[4], new[6]))

    # -- duplication -----------------------------------------------------------

    def clone(self) -> "Network":
        """Independent copy at any point, deliveries in flight included
        (views are immutable). The copy records nothing."""
        other = Network.__new__(Network)
        other.bus = self.bus.clone()
        other.recorder = None
        other.views = dict(self.views)
        return other
