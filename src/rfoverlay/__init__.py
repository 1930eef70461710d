"""Ring overlay simulator: pub/sub bus, node protocol, oracles, scenarios.

The package models a self-repairing ring of nodes over a topic-based
publish/subscribe bus. Every node keeps two neighbours and a belief about
the nearest available successor; availability changes propagate as status
publications along the ring. Global-knowledge oracles compute the expected
steady state for any availability vector, and the scenario runner checks
live runs against them.

The root exports only the names below; every other name is imported from
its own module (`rfoverlay.trace`, `rfoverlay.bus`, ...).
"""

from .bus import VirtualBus
from .network import JoinError, Network, QuiescenceError
from .oracle import RingModel
from .scenario import ScenarioConfig, oracle_mismatches, run_scenario, verify_trace
from .trace import TraceError, TraceRecorder
from .workload import WorkloadConfig
