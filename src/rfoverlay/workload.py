"""Poisson-driven availability workload.

Each node draws one event count per interval; the node is Available for that
interval iff the count stays at or under the busyness threshold. Every node
owns a private substream seeded from the master seed and its id, so growing
or shrinking the node set never perturbs the draws of the others.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping

from .bus import NodeId
from .protocol import Availability

# CDF inversion walks k upward; past this rate the walk gets long and float
# cancellation starts to matter, so larger rates are rejected outright.
MAX_RATE = 30.0


@dataclass(frozen=True, slots=True)
class WorkloadConfig:
    """Poisson rate, busyness threshold, interval count, master seed."""

    lam: float = 2.0
    threshold: int = 2
    intervals: int = 100
    seed: int = 0

    def __post_init__(self) -> None:
        if not (0.0 < self.lam <= MAX_RATE):
            raise ValueError(f"rate must be in (0, {MAX_RATE}], got {self.lam}")
        if self.threshold < 0:
            raise ValueError("threshold must be >= 0")
        if self.intervals < 0:
            raise ValueError("interval count must be >= 0")


@dataclass(frozen=True, slots=True)
class AvailabilitySchedule:
    """Per-node availability, one state per interval."""

    intervals: int
    states: Mapping[NodeId, tuple[Availability, ...]]

    def state(self, node: NodeId, interval: int) -> Availability:
        return self.states[node][interval]

    def vector(self, interval: int) -> dict[NodeId, Availability]:
        return {node: states[interval] for node, states in self.states.items()}


def poisson_pmf(k: int, lam: float) -> float:
    """Probability of exactly k events at rate lam.

    Evaluated in log space so large k underflows gracefully instead of
    overflowing the factorial.
    """
    if k < 0 or k != int(k):
        raise ValueError("k must be a non-negative integer")
    if lam <= 0.0:
        raise ValueError("rate must be positive")
    return math.exp(k * math.log(lam) - lam - math.lgamma(k + 1))


def sample_k(rng: random.Random, lam: float) -> int:
    """Draw one Poisson count by inverting the CDF.

    Exact and deterministic for a given generator state: one uniform draw,
    then a walk up the cumulative sum using the ratio recurrence
    p(k+1) = p(k) * lam / (k+1).
    """
    if not (0.0 < lam <= MAX_RATE):
        raise ValueError(f"rate must be in (0, {MAX_RATE}], got {lam}")
    u = rng.random()
    k = 0
    p = math.exp(-lam)
    cumulative = p
    while u >= cumulative:
        k += 1
        p *= lam / k
        cumulative += p
        if p == 0.0:
            # The tail underflowed; u sits in float round-off territory.
            break
    return k


def _substream_seed(master: int, node: NodeId) -> int:
    """Stable 64-bit mix of master seed and node id (splitmix64 finalizer)."""
    mask = 0xFFFFFFFFFFFFFFFF
    x = (master ^ (node * 0x9E3779B97F4A7C15)) & mask
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & mask
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & mask
    return x ^ (x >> 31)


def build_schedule(cfg: WorkloadConfig, nodes: Iterable[NodeId]) -> AvailabilitySchedule:
    """Draw the full availability schedule for the given nodes.

    The draw is a pure function of its inputs, so a run and the verification
    of its trace share one schedule; its states are handed out read-only.
    """
    return _draw_schedule(cfg, tuple(nodes))


# A run and the verification of its trace ask for the same schedule back to
# back; a few entries cover that without growing over a seed sweep.
@functools.lru_cache(maxsize=8)
def _draw_schedule(cfg: WorkloadConfig, nodes: tuple[NodeId, ...]) -> AvailabilitySchedule:
    if len(set(nodes)) != len(nodes):
        raise ValueError("node ids must be distinct")
    states: dict[NodeId, tuple[Availability, ...]] = {}
    for node in nodes:
        rng = random.Random(_substream_seed(cfg.seed, node))
        states[node] = tuple(
            Availability.AVAILABLE
            if sample_k(rng, cfg.lam) <= cfg.threshold
            else Availability.UNAVAILABLE
            for _ in range(cfg.intervals)
        )
    return AvailabilitySchedule(intervals=cfg.intervals, states=MappingProxyType(states))
