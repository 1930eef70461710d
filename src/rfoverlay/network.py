"""Event engine: node views wired onto one bus, driven to quiescence.

The engine owns all sequencing. Handlers stay pure; this layer applies their
Effects (publications first, then subscription changes), keeps the per-node
views, and drains the delivery queue. A dispatch budget of 64 * m^2 per drain
turns any non-terminating propagation into a hard failure instead of a hang.
"""

from __future__ import annotations

from .bus import DeliveryRecord, NodeId, Payload, TopicKey, VirtualBus, mybox_key
from . import protocol
from .protocol import Availability, Effects, NodeView

DISPATCH_BUDGET_FACTOR = 64


class QuiescenceError(RuntimeError):
    """The delivery queue failed to drain within the dispatch budget."""


class JoinError(RuntimeError):
    """A node's insertion handshake did not complete."""


class Network:
    """All nodes of one scenario plus the bus between them."""

    def __init__(
        self,
        arrivals_depth: int = 64,
        delivery_delay: int = 0,
        recorder=None,
    ) -> None:
        self.bus = VirtualBus(delivery_delay)
        self.bus.declare_standard_topics(arrivals_depth)
        self.recorder = recorder
        self.views: dict[NodeId, NodeView] = {}
        self._handles: dict[tuple[NodeId, TopicKey], object] = {}

    # -- membership -----------------------------------------------------------

    def add_node(self, node: NodeId) -> None:
        """Start a join. Dispatch to quiescence to let the handshake finish."""
        if node in self.views:
            raise JoinError(f"{node} already joined")
        self.bus.attach_handler(node, self._on_delivery)
        self.views[node] = None  # placeholder until the join effects land
        self._apply(node, protocol.join(node))

    def join_completed(self, node: NodeId) -> bool:
        view = self.views.get(node)
        return view is not None and not view.joining

    # -- availability -----------------------------------------------------------

    def toggle(self, node: NodeId, to_state: Availability) -> None:
        """Apply one availability transition. Does not dispatch."""
        view = self.views[node]
        if to_state is Availability.AVAILABLE:
            self._apply(node, protocol.set_available(view))
        else:
            self._apply(node, protocol.set_unavailable(view))

    # -- dispatch -----------------------------------------------------------

    def dispatch_to_quiescence(self, budget: int | None = None) -> int:
        """Drain the delivery queue; returns the number of deliveries."""
        if budget is None:
            budget = DISPATCH_BUDGET_FACTOR * max(1, len(self.views)) ** 2
        delivered = 0
        while not self.bus.quiescent:
            if delivered >= budget:
                raise QuiescenceError(
                    f"no quiescence within {budget} deliveries "
                    f"({self.bus.pending_count} still pending)"
                )
            self.bus.dispatch_next()
            delivered += 1
        return delivered

    def _on_delivery(self, record: DeliveryRecord) -> None:
        if self.recorder is not None:
            self.recorder.deliver(record)
        node = record.subscriber
        effects = protocol.handle_delivery(self.views[node], record.sample)
        self._apply(node, effects)

    # -- effects -----------------------------------------------------------

    def _apply(self, node: NodeId, effects: Effects) -> None:
        old = self.views[node]
        for key, payload in effects.publications:
            sample = self.bus.publish(node, key, payload)
            if self.recorder is not None:
                self.recorder.publish(sample)
        for key in effects.unsubscribe:
            handle = self._handles.pop((node, key))
            self.bus.cancel_subscription(handle)
            if self.recorder is not None:
                self.recorder.unsubscribe(self.bus.now, node, key)
        for key in effects.subscribe:
            self._handles[(node, key)] = self.bus.subscribe(node, key)
            if self.recorder is not None:
                self.recorder.subscribe(self.bus.now, node, key)
        self.views[node] = effects.view
        if effects.view != old and self.recorder is not None:
            self.recorder.view_change(self.bus.now, node, effects.view)

    # -- inspection -----------------------------------------------------------

    def last_mybox_value(self, node: NodeId) -> Payload | None:
        store = self.bus.retained(mybox_key(node))
        return store[-1].payload if store else None

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

    def clone(self, recorder=None) -> "Network":
        """Independent copy at a quiescent point (views are immutable)."""
        other = Network.__new__(Network)
        other.bus = self.bus.clone()
        other.recorder = recorder
        other.views = dict(self.views)
        other._handles = {
            (node, key): other.bus.handle_of(node, key)
            for (node, key) in self._handles
        }
        for node in other.views:
            other.bus.attach_handler(node, other._on_delivery)
        return other
