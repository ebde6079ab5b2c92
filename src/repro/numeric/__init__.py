"""Numerical factorization."""

from .cholesky import NotPositiveDefiniteError, sparse_cholesky

__all__ = [
    "NotPositiveDefiniteError",
    "sparse_cholesky",
]
