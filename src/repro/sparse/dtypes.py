"""Index-dtype discipline for large sparse structures.

The big-tier workloads (n = 10^5 .. 10^6 unknowns, nnz(L) in the
millions) are dominated by index arrays: row indices, element ids,
update endpoints, read lists.  Storing them as int64 doubles the
resident size of every stage for no benefit — no realistic problem
needs more than 31 bits per *index* — so index arrays are stored as
int32 whenever their value range fits and only widen to int64 when a
count genuinely demands it.

Three rules, applied everywhere an index array is built:

* **storage** uses :func:`index_dtype` of the largest value the array
  can hold (``n`` for node/row/column indices, ``nnz`` for element ids,
  the pair-update total for update indices);
* **linearized keys** (``col * n + row`` style dedup/sort keys) are
  always computed through :func:`linear_index` which forces int64 —
  the *values* exceed 32 bits long before the array lengths do;
* **counts and cumsums** stay int64 (``indptr`` included): they are
  O(n) in number, so the savings would be negligible and the overflow
  risk — pair-update totals beyond 2^31 are perfectly reachable — is
  real.

Under numpy's NEP 50 promotion (numpy >= 2) an int32 array combined
with a Python int stays int32 and combined with an explicit
``np.int64`` scalar widens to int64, which is exactly the behaviour the
two helper functions rely on.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "INDEX_MAX_INT32", "index_dtype", "as_index_array", "as_permutation",
    "as_processor_count", "linear_index",
]

#: Largest value an int32 index can address.
INDEX_MAX_INT32 = int(np.iinfo(np.int32).max)


def index_dtype(limit: int) -> np.dtype:
    """Smallest index dtype whose range covers ``0 .. limit``.

    ``limit`` is the largest *value* the array may hold (not its
    length).  int32 up to 2^31 - 1, int64 beyond.
    """
    return np.dtype(np.int32 if limit <= INDEX_MAX_INT32 else np.int64)


def as_index_array(a, limit: int | None = None) -> np.ndarray:
    """Coerce ``a`` to a 1-D index array.

    With ``limit`` the result is narrowed (or widened) to
    :func:`index_dtype`; without it an existing int32/int64 array keeps
    its dtype and anything else becomes int64.
    """
    arr = np.asarray(a)
    if arr.ndim != 1:
        raise ValueError(f"expected 1-D index array, got shape {arr.shape}")
    if limit is not None:
        return np.ascontiguousarray(arr, dtype=index_dtype(limit))
    if arr.dtype in (np.int32, np.int64):
        return arr
    return np.ascontiguousarray(arr, dtype=np.int64)


def as_permutation(perm, n: int) -> np.ndarray:
    """``perm`` as an int64 array if it is a permutation of ``0 .. n-1``.

    Anything else — not 1-D, a bool or float anywhere (no silent
    ``astype``), the wrong length, an index out of range or repeated —
    is a ``ValueError``.
    """
    arr = np.asarray(perm)
    if arr.size == 0:
        arr = arr.astype(np.int64)  # an empty list carries no dtype
    ok = arr.ndim == 1 and arr.dtype.kind in "iu" and len(arr) == n
    if ok and not isinstance(perm, np.ndarray):
        # numpy has already promoted a list mixing bools and ints to int64
        ok = not any(isinstance(p, (bool, np.bool_)) for p in perm)
    if ok and n:
        arr = arr.astype(np.int64, copy=False)
        ok = arr.min() >= 0 and arr.max() < n and (np.bincount(arr, minlength=n) == 1).all()
    if not ok:
        raise ValueError("perm is not a permutation of 0..n-1")
    return arr


def as_processor_count(value, name: str = "nprocs") -> int:
    """``value`` as a Python int if it is an integer in 1 ..
    :data:`INDEX_MAX_INT32` — the traffic kernel narrows owners to int32.

    A bool, a float (even an integral one), a string or anything out of
    range is a ``ValueError`` naming the value.
    """
    ok = isinstance(value, (int, np.integer)) and not isinstance(value, (bool, np.bool_))
    if not (ok and 1 <= value <= INDEX_MAX_INT32):
        raise ValueError(
            f"{name} must be positive: an integer in 1..{INDEX_MAX_INT32}, got {value!r}"
        )
    return int(value)


def linear_index(major, minor, n: int) -> np.ndarray:
    """``major * n + minor`` as int64, regardless of the input dtypes.

    This is the linearized sort/dedup key used for (row, col) pairs;
    its values reach ``n * n`` and overflow int32 for any n above
    ~46k, so the widening is forced rather than left to promotion.
    """
    return np.asarray(major, dtype=np.int64) * np.int64(n) + minor
