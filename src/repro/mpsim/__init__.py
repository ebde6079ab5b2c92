"""Simulated message-passing runtime and distributed sparse Cholesky."""

from .comm import (
    ANY_SOURCE,
    ANY_TAG,
    Comm,
    CommStats,
    CommWorld,
    MPSimError,
    Request,
)
from .distchol import distributed_cholesky, distributed_solve_spd
from .distblock import distributed_block_cholesky
from .fanin import distributed_cholesky_fanin
from .launcher import run_parallel
from .solve import (
    distributed_backward_solve,
    distributed_block_backward_solve,
    distributed_block_forward_solve,
    distributed_forward_solve,
)

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "Comm",
    "CommStats",
    "CommWorld",
    "MPSimError",
    "Request",
    "distributed_backward_solve",
    "distributed_cholesky",
    "distributed_block_cholesky",
    "distributed_block_backward_solve",
    "distributed_block_forward_solve",
    "distributed_cholesky_fanin",
    "distributed_forward_solve",
    "distributed_solve_spd",
    "run_parallel",
]
