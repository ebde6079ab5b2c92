"""A processor count is an integer in 1 .. 2^31 - 1, or a clean error.

Each row is a call that used to fail somewhere deep in the pipeline —
an unrelated ``ValueError``, a numpy ``TypeError`` or ``OverflowError``,
or an 8 TiB allocation — and must now be refused up front with a
``ValueError`` naming the value.
"""

import re

import numpy as np
import pytest

from repro.core import (
    Assignment,
    block_cyclic_columns,
    block_mapping,
    prepare,
    two_d_cyclic,
    wrap_mapping,
)
from repro.sparse import grid9


@pytest.fixture(scope="module")
def prepared():
    return prepare(grid9(3, 3))


@pytest.mark.parametrize(
    "mapping, nprocs",
    [
        (wrap_mapping, 4.5),
        (wrap_mapping, 4.0),
        (wrap_mapping, np.float64(4)),
        (block_mapping, 4.0),
        (block_mapping, True),
        (wrap_mapping, True),
        (wrap_mapping, "4"),
        (wrap_mapping, 2**40),
        (block_mapping, 2**40),
    ],
    ids=["wrap-4.5", "wrap-4.0", "wrap-float64", "block-4.0", "block-True",
         "wrap-True", "wrap-str", "wrap-2**40", "block-2**40"],
)
def test_refused_with_the_value_named(prepared, mapping, nprocs):
    with pytest.raises(ValueError, match=f"nprocs must be positive.*got {re.escape(repr(nprocs))}"):
        mapping(prepared, nprocs)


def test_numpy_integers_are_counts(prepared):
    for nprocs in (np.int32(4), np.int64(4), np.uint8(4)):
        assert wrap_mapping(prepared, nprocs).traffic.total == wrap_mapping(prepared, 4).traffic.total
        assert block_mapping(prepared, nprocs).nprocs == 4


def test_every_constructor_checks(prepared):
    pattern = prepared.pattern
    owner = np.zeros(pattern.nnz, dtype=np.int64)
    with pytest.raises(ValueError, match="nprocs must be positive.*got 2.0"):
        Assignment("raw", 2.0, pattern, owner)
    with pytest.raises(ValueError, match="block must be positive.*got 0"):
        block_cyclic_columns(pattern, 4, 0)
    with pytest.raises(ValueError, match="nprocs must be positive.*got 0"):
        block_cyclic_columns(pattern, 0, 2)
    with pytest.raises(ValueError, match="proc_cols must be positive.*got 1.5"):
        two_d_cyclic(pattern, 2, 1.5)
    with pytest.raises(ValueError, match="nprocs must be positive"):
        two_d_cyclic(pattern, 2**16, 2**16)  # each in range, the grid not
