"""Metrics of a run: publication counts, churn, latency.

A run tallies the bus's running totals after the join phase, before each
toggle and at each interval's end; the metrics are differences of those
tallies. A toggle owns everything up to the next toggle of its interval or
the interval's end, so in interleaved mode the last toggle of an interval
owns the whole drain. The rendered form is a fixed-width table with one row
per interval, a setup row for the join phase, and a totals row.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

from .bus import NodeId, TopicName, VirtualBus
from .protocol import Availability

SETUP_INTERVAL = -1  # join phase, before the first interval

_TOPIC_ORDER = tuple(name.value for name in TopicName)

# A bus's running totals at one instant: publications per topic, in TopicName
# order, then deliveries, subscribes and unsubscribes.
Tally = tuple[int, ...]
_MYBOX = list(TopicName).index(TopicName.MYBOX)  # positions in a tally
_DELIVERIES = len(TopicName)


def tally(bus: VirtualBus) -> Tally:
    """The bus's running totals now."""
    # publish_counts is built in TopicName order and never re-keyed.
    return (*bus.publish_counts.values(), bus.deliveries, bus.subscribes, bus.unsubscribes)


class ToggleMark(NamedTuple):
    """One applied toggle and the tally taken just before it."""

    interval: int
    node: NodeId
    to_state: Availability
    before: Tally


@dataclass(slots=True)
class ToggleStats:
    """Propagation cost of one availability transition."""

    interval: int
    node: int
    to_state: str
    mybox_publications: int = 0
    publications: int = 0
    deliveries: int = 0


@dataclass(slots=True)
class IntervalStats:
    """One interval's totals; deliveries double as quiescence latency."""

    interval: int
    toggles: int = 0
    publications_per_topic: dict = field(default_factory=lambda: {t: 0 for t in _TOPIC_ORDER})
    deliveries: int = 0
    subscribes: int = 0
    unsubscribes: int = 0

    @property
    def publications(self) -> int:
        return sum(self.publications_per_topic.values())


@dataclass(slots=True)
class Metrics:
    publications_per_topic: dict
    subscribes: int
    unsubscribes: int
    deliveries: int
    setup: IntervalStats
    intervals: tuple[IntervalStats, ...]
    toggles: tuple[ToggleStats, ...]

    @property
    def publications(self) -> int:
        return sum(self.publications_per_topic.values())


def _work(interval: int, start: Tally, end: Tally) -> IntervalStats:
    """The work between two tallies, as an interval row without toggles."""
    *published, delivered, subscribed, unsubscribed = map(operator.sub, end, start)
    return IntervalStats(
        interval, 0, dict(zip(_TOPIC_ORDER, published)), delivered, subscribed, unsubscribed
    )


def compute_metrics(
    joined: Tally, toggles: Sequence[ToggleMark], ends: Sequence[Tally]
) -> Metrics:
    """Per-interval and per-toggle statistics of a run on a fresh bus.

    `joined` is the tally after the join phase, `toggles` the toggles in the
    order applied and `ends` the tally at each interval's end.
    """
    starts = (joined, *ends)
    rows = [_work(interval, starts[interval], end) for interval, end in enumerate(ends)]
    stats: list[ToggleStats] = []
    for i, (interval, node, to_state, before) in enumerate(toggles):
        following = toggles[i + 1] if i + 1 < len(toggles) else None
        if following is not None and following.interval == interval:
            after = following.before
        else:
            after = ends[interval]
        rows[interval].toggles += 1
        stats.append(
            ToggleStats(
                interval,
                node,
                to_state.value,
                after[_MYBOX] - before[_MYBOX],
                sum(after[:_DELIVERIES]) - sum(before[:_DELIVERIES]),
                after[_DELIVERIES] - before[_DELIVERIES],
            )
        )
    fresh = (0,) * len(joined)
    total = _work(SETUP_INTERVAL, fresh, starts[-1])
    return Metrics(
        publications_per_topic=total.publications_per_topic,
        subscribes=total.subscribes,
        unsubscribes=total.unsubscribes,
        deliveries=total.deliveries,
        setup=_work(SETUP_INTERVAL, fresh, joined),
        intervals=tuple(rows),
        toggles=tuple(stats),
    )


def render_metrics(metrics: Metrics) -> str:
    """Tabular text: one row per interval, a setup row, and a totals row."""
    headers = (
        "interval",
        "toggles",
        *(f"pub_{t.lower()}" for t in _TOPIC_ORDER),
        "deliveries",
        "subscribes",
        "unsubscribes",
    )

    def row_cells(stats: IntervalStats) -> tuple[str, ...]:
        label = "setup" if stats.interval == SETUP_INTERVAL else str(stats.interval)
        return (
            label,
            str(stats.toggles),
            *(str(stats.publications_per_topic[t]) for t in _TOPIC_ORDER),
            str(stats.deliveries),
            str(stats.subscribes),
            str(stats.unsubscribes),
        )

    rows = [row_cells(metrics.setup)]
    rows.extend(row_cells(stats) for stats in metrics.intervals)
    totals = (
        "total",
        str(sum(s.toggles for s in metrics.intervals)),
        *(str(metrics.publications_per_topic[t]) for t in _TOPIC_ORDER),
        str(metrics.deliveries),
        str(metrics.subscribes),
        str(metrics.unsubscribes),
    )
    rows.append(totals)

    widths = [len(h) for h in headers]
    for cells in rows:
        for i, cell in enumerate(cells):
            widths[i] = max(widths[i], len(cell))
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)).rstrip()]
    for cells in rows:
        lines.append("  ".join(c.ljust(widths[i]) for i, c in enumerate(cells)).rstrip())
    return "\n".join(lines) + "\n"
