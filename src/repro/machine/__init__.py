"""The timed simulated machine and the views derived from it.

The paper's cost model — work, distinct-fetch traffic and λ, exact
counts over an assignment with no clock — lives in :mod:`repro.core`
(``core.work``, ``core.traffic``, ``core.metrics``); this package
re-exports it beside the simulator.
"""

from ..core.dependencies import topological_order
from ..core.metrics import LoadBalance, imbalance_factor, load_balance
from ..core.traffic import (
    DEFAULT_CHUNK_READS,
    ReadIndex,
    TrafficResult,
    build_read_index,
    communication_matrix,
    data_traffic,
)
from ..core.work import processor_work, total_work, unit_work
from .batched import batched_metrics
from .hotspot import HotspotProfile, hotspot_profile
from .simulate import (
    MachineModel,
    ScheduleTimeline,
    edge_volumes,
    simulate_assignment,
    simulate_schedule,
    simulation_messages,
    unit_graph,
)
from .scorecard import scorecard
from .solve_metrics import solve_balance, solve_traffic, solve_work

__all__ = [
    "ReadIndex",
    "batched_metrics",
    "DEFAULT_CHUNK_READS",
    "build_read_index",
    "HotspotProfile",
    "hotspot_profile",
    "LoadBalance",
    "imbalance_factor",
    "load_balance",
    "MachineModel",
    "ScheduleTimeline",
    "edge_volumes",
    "simulate_assignment",
    "simulate_schedule",
    "simulation_messages",
    "topological_order",
    "unit_graph",
    "scorecard",
    "solve_balance",
    "solve_traffic",
    "solve_work",
    "TrafficResult",
    "communication_matrix",
    "data_traffic",
    "processor_work",
    "total_work",
    "unit_work",
]
