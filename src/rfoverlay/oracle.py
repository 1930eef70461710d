"""Global-view topology oracles.

These compute, from a bird's-eye snapshot of the ring and an availability
vector, what every node's next-available knowledge must be once the event
protocol settles. The event-driven machinery is verified against them, never
the other way around.

Every table is one read of a single O(m) sweep: one backward pass over the
ring, seeded with its first Available node for the wrap-around, finds the
first Available node at or after every position. basic_tst reads it one
position on, and mybox_table reads basic_tst's table for a node that is
down; brf_tst pairs basic_tst of the ring with basic_tst of its mirror, and
sbrf_tst keeps the nearer of that pair for a node that is down. Their
definitions as direct brute-force scans live in tests/test_oracle.py and
tests/test_acceptance.py, which check the sweeps against them.

Three structures are covered: the basic single-successor form that the event
protocol realizes, and the two variants that keep a candidate in each ring
direction (the bidirectional form, and its shortest-path refinement for nodes
that are down).
"""

from __future__ import annotations

from typing import Iterable, Mapping, NamedTuple

from .bus import NodeId
from .protocol import NextAvailable


class RingError(ValueError):
    pass


class _RingFields(NamedTuple):
    nodes: tuple[NodeId, ...]
    avail: tuple[bool, ...]


class RingModel(_RingFields):
    """Arrival-ordered ring plus an availability vector aligned with it:
    avail[i] is True iff nodes[i] is Available."""

    __slots__ = ()

    def __new__(cls, nodes: tuple[NodeId, ...], avail: tuple[bool, ...]) -> "RingModel":
        if not nodes:
            raise RingError("a ring has at least one node")
        if len(set(nodes)) != len(nodes):
            raise RingError("node ids must be distinct")
        if len(avail) != len(nodes):
            raise RingError("availability vector must align with the nodes")
        return super().__new__(cls, nodes, avail)

    @classmethod
    def _make(cls, iterable: Iterable) -> "RingModel":
        # Through __new__, so _replace validates too.
        return cls(*iterable)

    @classmethod
    def of(cls, count: int, down: Iterable[NodeId] = ()) -> "RingModel":
        """Ring of nodes 0..count-1 in arrival order, `down` Unavailable."""
        down = set(down)
        # The ring is built first, so a bad size is reported before the down set.
        ring = cls(nodes=tuple(range(count)), avail=tuple(n not in down for n in range(count)))
        unknown = down - set(ring.nodes)
        if unknown:
            raise RingError(f"down nodes {sorted(unknown)} outside 0..{count - 1}")
        return ring

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
        """The node's index in arrival order: an O(m) scan, so a caller that
        needs every node's position builds its own table."""
        try:
            return self.nodes.index(node)
        except ValueError:
            raise RingError(f"{node} is not on the ring") from None

    def successor(self, node: NodeId) -> NodeId:
        return self.nodes[(self.position(node) + 1) % self.size]


def _first_available(ring: RingModel) -> list[NodeId | None]:
    """For every position, the first Available node scanning ring-forward
    from it (itself included); None everywhere when nothing is Available.

    One backward sweep over one lap, seeded with the ring's first Available
    node: that is the answer past the last position, where the scan wraps.
    """
    nodes = ring.nodes
    up = ring.avail
    first: list[NodeId | None] = [None] * len(nodes)
    found = nodes[up.index(True)] if True in up else None
    for position in range(len(nodes) - 1, -1, -1):
        if up[position]:
            found = nodes[position]
        first[position] = found
    return first


def mybox_table(
    ring: RingModel, tst: Mapping[NodeId, NextAvailable]
) -> dict[NodeId, NextAvailable]:
    """The settled value of every node's status stream, from `tst`, the
    ring's basic_tst table.

    The first Available node scanning ring-forward from the node itself
    (self included), or None when nothing is Available: the node itself
    while it is Available, else the first Available node past it, which is
    its basic_tst entry.
    """
    return {node: node if up else tst[node] for node, up in zip(ring.nodes, ring.avail)}


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
    return dict(zip(ring.nodes, first[1:] + first[:1]))


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
    positions = dict(zip(ring.nodes, range(size)))
    assignment: dict[NodeId, tuple[NodeId | None, NodeId | None] | NodeId | None] = {}
    for position, (node, up) in enumerate(zip(ring.nodes, ring.avail)):
        clockwise, counter = pairs[node]
        if up:
            assignment[node] = pairs[node]
        elif clockwise is None:
            assignment[node] = None
        else:
            ahead = (positions[clockwise] - position) % size
            behind = (position - positions[counter]) % size
            assignment[node] = clockwise if ahead <= behind else counter
    return assignment
