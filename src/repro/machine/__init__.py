"""Distributed-memory machine model: work, traffic, balance, timing."""

from ..core.dependencies import topological_order
from .batched import batched_metrics
from .hotspot import HotspotProfile, hotspot_profile
from .metrics import LoadBalance, imbalance_factor, load_balance
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
from .traffic import (
    DEFAULT_CHUNK_READS,
    ReadIndex,
    TrafficResult,
    build_read_index,
    communication_matrix,
    data_traffic,
)
from .work import processor_work, total_work, unit_work

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
