"""Event engine: node views wired onto one bus, driven to quiescence.

The engine owns all sequencing. Handlers stay pure; this layer applies their
Effects (publications first, then subscription changes), keeps the per-node
views, and drains the delivery queue. A join is one call, add_node, which
drains until the handshake completes; a toggle only applies its transition,
so a caller may land a batch of toggles before dispatching any of them. A
dispatch budget of 64 * m^2 per drain turns any non-terminating propagation
into a hard failure instead of a hang.
"""

from __future__ import annotations

from .bus import NodeId, Sample, VirtualBus
from . import protocol
from .protocol import Availability, Effects, NodeView
from .trace import traced_view_fields

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

    def toggle(self, node: NodeId, to_state: Availability) -> None:
        """Apply one availability transition. Does not dispatch."""
        view = self.views[node]
        if to_state is Availability.AVAILABLE:
            self._apply(node, protocol.set_available(view))
        else:
            self._apply(node, protocol.set_unavailable(view))

    # -- dispatch -----------------------------------------------------------

    def dispatch_to_quiescence(self) -> int:
        """Drain the delivery queue; returns the number of deliveries."""
        budget = DISPATCH_BUDGET_FACTOR * max(1, len(self.views)) ** 2
        delivered = 0
        while not self.bus.quiescent:
            if delivered >= budget:
                raise QuiescenceError(
                    f"no quiescence within {budget} deliveries "
                    f"({self.bus.pending_count} still pending)"
                )
            self.step()
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
        old = self.views.get(node)
        for key, payload in effects.publications:
            sample = self.bus.publish(node, key, payload)
            if self.recorder is not None:
                self.recorder.publish(self.bus.now, sample)
        for key in effects.unsubscribe:
            self.bus.cancel_subscription(node, key)
            if self.recorder is not None:
                self.recorder.unsubscribe(self.bus.now, node, key)
        for key in effects.subscribe:
            self.bus.subscribe(node, key)
            if self.recorder is not None:
                self.recorder.subscribe(self.bus.now, node, key)
        new = effects.view
        self.views[node] = new
        if self.recorder is not None:
            # A change to a field the trace does not write (predecessor,
            # last_mybox) would give a line equal to the node's previous one.
            fields = traced_view_fields(new)
            if old is None or fields != traced_view_fields(old):
                self.recorder.view_change(self.bus.now, node, fields)

    # -- inspection -----------------------------------------------------------

    def check_subscription_invariant(self) -> None:
        """Bus-side subscriptions must equal each view's derived set."""
        for node, view in self.views.items():
            actual = self.bus.subscriptions_of(node)
            expected = protocol.subscriptions(view)
            if actual != expected:
                raise AssertionError(
                    f"subscriptions of {node} diverged: bus={sorted(map(str, actual))} "
                    f"view={sorted(map(str, expected))}"
                )

    # -- duplication -----------------------------------------------------------

    def clone(self) -> "Network":
        """Independent copy at any point, deliveries in flight included
        (views are immutable). The copy records nothing."""
        other = Network.__new__(Network)
        other.bus = self.bus.clone()
        other.recorder = None
        other.views = dict(self.views)
        return other
