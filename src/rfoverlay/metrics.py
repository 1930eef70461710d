"""Metrics derived from a trace: publication counts, churn, latency.

Everything here is a pure fold over the event list. Toggle attribution
assumes serialized toggles (each driven to quiescence before the next), which
is how scenarios run; events between one toggle and the next belong to the
former. The rendered form is a fixed-width table with one row per interval,
a setup row for the join phase, and a totals row.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .bus import TopicName
from .trace import (
    KIND_DELIVER,
    KIND_PUBLISH,
    KIND_SUBSCRIBE,
    KIND_TOGGLE,
    KIND_UNSUBSCRIBE,
    Trace,
    TraceError,
    parse_toggle,
)

SETUP_INTERVAL = -1  # join phase, before the first interval

_TOPIC_ORDER = tuple(name.value for name in TopicName)


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


def compute_metrics(trace: Trace, intervals: int | None = None) -> Metrics:
    """Fold a trace into per-interval and per-toggle statistics.

    `intervals` pads the result out to a known interval count, so quiet
    trailing intervals still get (empty) rows; without it the fold stops at
    the last interval the trace mentions.
    """
    per_interval: dict[int, IntervalStats] = {}
    toggles: list[ToggleStats] = []
    current_interval = SETUP_INTERVAL
    current_toggle: ToggleStats | None = None

    def interval_stats() -> IntervalStats:
        stats = per_interval.get(current_interval)
        if stats is None:
            stats = IntervalStats(interval=current_interval)
            per_interval[current_interval] = stats
        return stats

    interval_stats()  # the setup row always exists
    for event in trace:
        kind = event.kind
        if kind == KIND_TOGGLE:
            current_interval, to_state = parse_toggle(event, current_interval)
            current_toggle = ToggleStats(
                interval=current_interval, node=event.node, to_state=to_state.value
            )
            toggles.append(current_toggle)
            interval_stats().toggles += 1
        elif kind == KIND_PUBLISH:
            topic = str(event.detail["key"]["topic"])
            stats = interval_stats()
            if topic not in stats.publications_per_topic:
                raise TraceError(f"unknown topic {topic!r} in trace")
            stats.publications_per_topic[topic] += 1
            if current_toggle is not None:
                current_toggle.publications += 1
                if topic == TopicName.MYBOX.value:
                    current_toggle.mybox_publications += 1
        elif kind == KIND_DELIVER:
            interval_stats().deliveries += 1
            if current_toggle is not None:
                current_toggle.deliveries += 1
        elif kind == KIND_SUBSCRIBE:
            interval_stats().subscribes += 1
        elif kind == KIND_UNSUBSCRIBE:
            interval_stats().unsubscribes += 1

    setup = per_interval.pop(SETUP_INTERVAL)
    last = max(per_interval) if per_interval else -1
    if intervals is not None:
        if last >= intervals:
            raise TraceError(f"trace mentions interval {last}, expected < {intervals}")
        last = intervals - 1
    filled: list[IntervalStats] = [
        per_interval.get(i) or IntervalStats(interval=i) for i in range(last + 1)
    ]

    per_topic = {t: 0 for t in _TOPIC_ORDER}
    for stats in (setup, *filled):
        for topic, count in stats.publications_per_topic.items():
            per_topic[topic] += count
    return Metrics(
        publications_per_topic=per_topic,
        subscribes=setup.subscribes + sum(s.subscribes for s in filled),
        unsubscribes=setup.unsubscribes + sum(s.unsubscribes for s in filled),
        deliveries=setup.deliveries + sum(s.deliveries for s in filled),
        setup=setup,
        intervals=tuple(filled),
        toggles=tuple(toggles),
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
