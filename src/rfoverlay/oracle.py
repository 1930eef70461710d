"""Global-view topology oracles.

These compute, from a bird's-eye snapshot of the ring and an availability
vector, what every node's next-available knowledge must be once the event
protocol settles. The event-driven machinery is verified against them, never
the other way around.

Every table is one read of a single O(m) sweep: one backward pass over two
laps of the ring finds the first Available node at or after every position.
mybox_table reads it as it stands and basic_tst one position on; brf_tst
pairs basic_tst of the ring with basic_tst of its mirror, and sbrf_tst keeps
the nearer of that pair for a node that is down. Their definitions as direct
brute-force scans live in tests/test_oracle.py and tests/test_acceptance.py,
which check the sweeps against them.

Three structures are covered: the basic single-successor form that the event
protocol realizes, and the two variants that keep a candidate in each ring
direction (the bidirectional form, and its shortest-path refinement for nodes
that are down).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .bus import NodeId
from .protocol import NextAvailable


class RingError(ValueError):
    pass


@dataclass(frozen=True, slots=True)
class RingModel:
    """Arrival-ordered ring plus an availability vector aligned with it:
    avail[i] is True iff nodes[i] is Available."""

    nodes: tuple[NodeId, ...]
    avail: tuple[bool, ...]
    _positions: dict[NodeId, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.nodes:
            raise RingError("a ring has at least one node")
        positions = {node: index for index, node in enumerate(self.nodes)}
        if len(positions) != len(self.nodes):
            raise RingError("node ids must be distinct")
        if len(self.avail) != len(self.nodes):
            raise RingError("availability vector must align with the nodes")
        object.__setattr__(self, "_positions", positions)

    @classmethod
    def of(cls, count: int, down: Iterable[NodeId] = ()) -> "RingModel":
        """Ring of nodes 0..count-1 in arrival order, `down` Unavailable."""
        down = set(down)
        unknown = down - set(range(count))
        if unknown:
            raise RingError(f"down nodes {sorted(unknown)} outside 0..{count - 1}")
        return cls(
            nodes=tuple(range(count)),
            avail=tuple(n not in down for n in range(count)),
        )

    @classmethod
    def from_states(
        cls, nodes: Iterable[NodeId], states: Mapping[NodeId, bool]
    ) -> "RingModel":
        nodes = tuple(nodes)
        return cls(nodes=nodes, avail=tuple(states[n] for n in nodes))

    @property
    def size(self) -> int:
        return len(self.nodes)

    def position(self, node: NodeId) -> int:
        try:
            return self._positions[node]
        except KeyError:
            raise RingError(f"{node} is not on the ring") from None

    def successor(self, node: NodeId) -> NodeId:
        return self.nodes[(self.position(node) + 1) % self.size]


def _first_available(ring: RingModel) -> list[NodeId | None]:
    """For every position, the first Available node scanning ring-forward
    from it (itself included); None everywhere when nothing is Available.

    One backward sweep over two laps: the second lap seeds the wrap-around,
    the first records the answers.
    """
    size = ring.size
    nodes = ring.nodes
    up = ring.avail
    first: list[NodeId | None] = [None] * size
    found: NodeId | None = None
    for index in range(2 * size - 1, -1, -1):
        position = index % size
        if up[position]:
            found = nodes[position]
        if index < size:
            first[index] = found
    return first


def mybox_table(ring: RingModel) -> dict[NodeId, NextAvailable]:
    """The settled value of every node's status stream.

    The first Available node scanning ring-forward from the node itself
    (self included), or None when nothing is Available.
    """
    return dict(zip(ring.nodes, _first_available(ring)))


def mybox_fixpoint(ring: RingModel, node: NodeId) -> NextAvailable:
    """The settled value of one node's status stream (see mybox_table)."""
    return _first_available(ring)[ring.position(node)]


def basic_tst(ring: RingModel) -> dict[NodeId, NextAvailable]:
    """Settled next-available knowledge of every node, single-successor form.

    The first Available node at or after the node's receiver (its ring
    successor), or None when nothing is Available. That is the receiver
    itself while it is Available; otherwise the first Available node
    strictly past it, a scan that may wrap all the way back to the node
    itself.
    """
    first = _first_available(ring)
    size = ring.size
    return {node: first[(position + 1) % size] for position, node in enumerate(ring.nodes)}


def brf_tst(ring: RingModel) -> dict[NodeId, tuple[NodeId | None, NodeId | None]]:
    """Bidirectional form: one Available candidate per ring direction.

    Each entry is (clockwise, counter-clockwise): the nearest Available node
    scanning forward from the successor, and the nearest scanning backward
    from the predecessor. The node itself is permitted only on a full wrap,
    so exactly one Available node x collapses every pair to (x, x); with
    nothing Available both entries are absent. Clockwise is basic_tst of the
    ring; counter-clockwise is basic_tst of its mirror.
    """
    counter = basic_tst(RingModel(ring.nodes[::-1], ring.avail[::-1]))
    return {node: (clockwise, counter[node]) for node, clockwise in basic_tst(ring).items()}


def sbrf_tst(
    ring: RingModel,
) -> dict[NodeId, tuple[NodeId | None, NodeId | None] | NodeId | None]:
    """Shortest-path refinement of the bidirectional form.

    Available nodes keep their directional pair. An Unavailable node keeps a
    single candidate: the Available node at minimal hop distance over both
    directions, the clockwise one winning ties; absent when nothing is
    Available.
    """
    pairs = brf_tst(ring)
    size = ring.size
    assignment: dict[NodeId, tuple[NodeId | None, NodeId | None] | NodeId | None] = {}
    for position, (node, up) in enumerate(zip(ring.nodes, ring.avail)):
        clockwise, counter = pairs[node]
        if up:
            assignment[node] = pairs[node]
        elif clockwise is None:
            assignment[node] = None
        else:
            ahead = (ring.position(clockwise) - position) % size
            behind = (position - ring.position(counter)) % size
            assignment[node] = clockwise if ahead <= behind else counter
    return assignment
