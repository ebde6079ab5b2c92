"""The paper's contribution: block-based partitioning and scheduling."""

from .assignment import Assignment
from .blocks import BlockKind, DenseBlock, UnitBlock
from .clusters import Cluster, ClusterSet, find_clusters
from .dependencies import (
    CATEGORY_NAMES,
    DependencyInfo,
    analyze_dependencies,
    classify_pair_updates,
    unit_edge_volumes,
)
from .partitioner import Partition, chunk_bounds, partition_clusters, partition_factor
from .adaptive import adaptive_schedule
from .pipeline import (
    MappingResult,
    PartitionedMatrix,
    PreparedMatrix,
    adaptive_block_mapping,
    block_mapping,
    block_mappings,
    partition_prepared,
    prepare,
    wrap_mapping,
    wrap_mappings,
)
from .scheduler import SchedulerOptions, schedule_blocks
from .variants import schedule_affinity, schedule_lpt
from .wrap import block_cyclic_columns, two_d_cyclic, wrap_assignment

__all__ = [
    "Assignment",
    "BlockKind",
    "DenseBlock",
    "UnitBlock",
    "Cluster",
    "ClusterSet",
    "find_clusters",
    "CATEGORY_NAMES",
    "DependencyInfo",
    "analyze_dependencies",
    "classify_pair_updates",
    "Partition",
    "chunk_bounds",
    "partition_clusters",
    "partition_factor",
    "MappingResult",
    "PartitionedMatrix",
    "PreparedMatrix",
    "adaptive_block_mapping",
    "adaptive_schedule",
    "block_mapping",
    "block_mappings",
    "partition_prepared",
    "prepare",
    "wrap_mapping",
    "wrap_mappings",
    "SchedulerOptions",
    "schedule_blocks",
    "schedule_affinity",
    "schedule_lpt",
    "unit_edge_volumes",
    "block_cyclic_columns",
    "two_d_cyclic",
    "wrap_assignment",
]
