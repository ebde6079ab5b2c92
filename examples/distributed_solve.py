"""Solve a sparse SPD system on the simulated message-passing machine.

Runs the complete four-step pipeline of the paper's §2 — MMD ordering,
symbolic factorization, distributed fan-out numerical factorization and
distributed triangular solves — on the thread-based message-passing
runtime, and reports the real message counts per mapping.

Run:  python examples/distributed_solve.py [NPROCS]
"""

import sys

import numpy as np

from repro.analysis import render_table
from repro.core import block_mapping, prepare
from repro.mpsim import distributed_cholesky, distributed_solve_spd
from repro.sparse import load, spd_from_graph


def main(nprocs: int = 4) -> None:
    # A structural test matrix with synthetic SPD values.
    graph = load("DWT512")
    prep = prepare(graph, ordering="mmd", name="DWT512")
    a = spd_from_graph(graph, seed=0).permute(prep.perm)
    pattern = prep.pattern
    print(f"DWT512: n={a.n}, nnz(L)={pattern.nnz}, ranks={nprocs}")

    # Column ownership: wrap, and the block scheduler's diagonal owners.
    mappings = {
        "wrap": np.arange(a.n) % nprocs,
        "block(g=25)": block_mapping(prep, nprocs, grain=25)
        .assignment.owner_of_element[pattern.indptr[:-1]],
    }

    rows = []
    for name, proc_of_col in mappings.items():
        L, stats = distributed_cholesky(a, pattern, proc_of_col, nprocs)
        msgs = sum(s.messages_sent for s in stats)
        nbytes = sum(s.bytes_sent for s in stats)
        rows.append([name, msgs, nbytes])
    print()
    print(
        render_table(
            ["column mapping", "messages", "bytes"],
            rows,
            "Fan-out factorization message traffic by mapping",
        )
    )

    # Full distributed solve, verified against the residual.
    b = np.ones(a.n)
    x = distributed_solve_spd(a, b, pattern, mappings["wrap"], nprocs)
    residual = np.abs(a.matvec(x) - b).max()
    print(f"\ndistributed solve residual: {residual:.2e}")
    assert residual < 1e-8


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 4)
