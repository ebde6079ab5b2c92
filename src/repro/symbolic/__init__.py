"""Symbolic factorization: fill, supernodes, pair updates."""

from .fill import SymbolicFactor, fill_in, symbolic_cholesky, tree_levels
from .supernodes import fundamental_supernodes, supernode_bounds, supernode_of_column
from .updates import UpdateSet, enumerate_updates

__all__ = [
    "UpdateSet",
    "enumerate_updates",
    "tree_levels",
    "SymbolicFactor",
    "fill_in",
    "symbolic_cholesky",
    "fundamental_supernodes",
    "supernode_bounds",
    "supernode_of_column",
]
