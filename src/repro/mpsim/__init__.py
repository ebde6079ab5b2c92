"""Distributed sparse Cholesky and triangular solves on a simulated
message-passing machine: every rank a coroutine on one stepper."""

from .distchol import distributed_cholesky, distributed_solve_spd
from .distblock import distributed_block_cholesky
from .engine import CommStats, MPSimError
from .fanin import distributed_cholesky_fanin
from .solve import (
    distributed_backward_solve,
    distributed_block_backward_solve,
    distributed_block_forward_solve,
    distributed_forward_solve,
)

__all__ = [
    "CommStats",
    "MPSimError",
    "distributed_backward_solve",
    "distributed_cholesky",
    "distributed_block_cholesky",
    "distributed_block_backward_solve",
    "distributed_block_forward_solve",
    "distributed_cholesky_fanin",
    "distributed_forward_solve",
    "distributed_solve_spd",
]
