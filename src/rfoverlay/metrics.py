"""Metrics of a run: publication counts, churn, latency.

A run tallies the bus's running totals after the join phase and at each
interval's end; the metrics are differences of those tallies. The rendered
form is a fixed-width table with one row per interval, a setup row for the
join phase, and a totals row.
"""

from __future__ import annotations

import operator
from typing import NamedTuple, Sequence

from .bus import TopicName, VirtualBus

SETUP_INTERVAL = -1  # join phase, before the first interval

_TOPIC_ORDER = tuple(name.value for name in TopicName)

# A bus's running totals at one instant: publications per topic, in TopicName
# order, then deliveries, subscribes and unsubscribes.
Tally = tuple[int, ...]


def tally(bus: VirtualBus) -> Tally:
    """The bus's running totals now."""
    # publish_counts is built in TopicName order and never re-keyed.
    return (*bus.publish_counts.values(), bus.deliveries, bus.subscribes, bus.unsubscribes)


class IntervalStats(NamedTuple):
    """One interval's totals; deliveries double as quiescence latency."""

    interval: int
    toggles: int
    publications_per_topic: dict
    deliveries: int
    subscribes: int
    unsubscribes: int


class Metrics(NamedTuple):
    publications_per_topic: dict
    subscribes: int
    unsubscribes: int
    deliveries: int
    setup: IntervalStats
    intervals: tuple[IntervalStats, ...]


def _work(interval: int, start: Tally, end: Tally, toggles: int = 0) -> IntervalStats:
    """The work between two tallies, as an interval row."""
    *published, delivered, subscribed, unsubscribed = map(operator.sub, end, start)
    return IntervalStats(
        interval, toggles, dict(zip(_TOPIC_ORDER, published)), delivered, subscribed, unsubscribed
    )


def compute_metrics(joined: Tally, toggles: Sequence[int], ends: Sequence[Tally]) -> Metrics:
    """Per-interval statistics of a run on a fresh bus.

    `joined` is the tally after the join phase, `toggles` the number of
    toggles applied in each interval and `ends` the tally at each interval's
    end.
    """
    starts = (joined, *ends)
    rows = tuple(map(_work, range(len(ends)), starts, ends, toggles))
    fresh = (0,) * len(joined)
    total = _work(SETUP_INTERVAL, fresh, starts[-1])
    return Metrics(
        publications_per_topic=total.publications_per_topic,
        subscribes=total.subscribes,
        unsubscribes=total.unsubscribes,
        deliveries=total.deliveries,
        setup=_work(SETUP_INTERVAL, fresh, joined),
        intervals=rows,
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
