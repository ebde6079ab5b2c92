"""Permutation utilities shared by the ordering algorithms.

Convention: an ordering is an array ``perm`` with ``perm[k]`` = the
*original* index of the variable eliminated k-th.  The permuted matrix is
``B[k, l] = A[perm[k], perm[l]]``.
"""

from __future__ import annotations

import numpy as np

from ..sparse.dtypes import as_permutation

__all__ = ["is_permutation", "invert_permutation", "identity_permutation", "random_permutation"]


def is_permutation(perm, n: int | None = None) -> bool:
    """True if ``perm`` is a permutation of 0..len(perm)-1 (of 0..n-1 if given)."""
    try:
        perm = np.asarray(perm)
        as_permutation(perm, perm.size if n is None else n)
    except ValueError:
        return False
    return True


def invert_permutation(perm) -> np.ndarray:
    """``inv[old] = new`` for ``perm[new] = old``."""
    perm = np.asarray(perm, dtype=np.int64)
    inv = np.empty(len(perm), dtype=np.int64)
    inv[perm] = np.arange(len(perm), dtype=np.int64)
    return inv


def identity_permutation(n: int) -> np.ndarray:
    return np.arange(n, dtype=np.int64)


def random_permutation(n: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.permutation(n).astype(np.int64)
