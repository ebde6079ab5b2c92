"""repro — reproduction of Venugopal & Naik (Supercomputing 1991):
*Effects of Partitioning and Scheduling Sparse Matrix Factorization on
Communication and Load Balance*.

Top-level convenience re-exports; see the subpackages for the full API:

* :mod:`repro.sparse`   — structures, I/O, generators, test matrices
* :mod:`repro.ordering` — MMD / MD / RCM / ND fill-reducing orderings
* :mod:`repro.symbolic` — symbolic factorization, supernodes, pair updates
* :mod:`repro.numeric`  — sequential numerical Cholesky
* :mod:`repro.core`     — the block partitioner, scheduler, wrap baseline,
  and the §4 cost model: work / traffic / load-balance accounting
* :mod:`repro.machine`  — the timed simulated machine and its derived views
* :mod:`repro.mpsim`    — simulated message-passing runtime
* :mod:`repro.obs`      — tracing/metrics layer (spans, counters, exports)
* :mod:`repro.analysis` — experiment harness regenerating the paper's tables
"""

from . import obs
from .core import (
    MappingResult,
    PreparedMatrix,
    block_mapping,
    prepare,
    wrap_mapping,
)
from .sparse import PAPER_MATRICES, load

__version__ = "1.0.0"

__all__ = [
    "MappingResult",
    "PreparedMatrix",
    "block_mapping",
    "prepare",
    "wrap_mapping",
    "PAPER_MATRICES",
    "load",
    "obs",
    "__version__",
]
