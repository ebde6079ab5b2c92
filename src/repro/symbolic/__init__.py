"""Symbolic factorization: elimination tree, counts, fill, supernodes."""

from .colcount import column_counts, factor_nnz, row_counts, sequential_work
from .etree import children_lists, etree, postorder, tree_levels
from .fill import SymbolicFactor, fill_in, symbolic_cholesky
from .supernodes import fundamental_supernodes, supernode_bounds, supernode_of_column
from .treestats import TreeStats, tree_stats
from .updates import UpdateSet, enumerate_updates

__all__ = [
    "TreeStats",
    "tree_stats",
    "UpdateSet",
    "enumerate_updates",
    "column_counts",
    "factor_nnz",
    "row_counts",
    "sequential_work",
    "children_lists",
    "etree",
    "postorder",
    "tree_levels",
    "SymbolicFactor",
    "fill_in",
    "symbolic_cholesky",
    "fundamental_supernodes",
    "supernode_bounds",
    "supernode_of_column",
]
