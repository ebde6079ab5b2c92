"""Matrix Market (coordinate) I/O for symmetric matrices and patterns."""

from __future__ import annotations

import io
from pathlib import Path

import numpy as np

from .csc import SymmetricCSC
from .pattern import SymmetricGraph

__all__ = ["write_matrix_market", "read_matrix_market"]

_HEADER = "%%MatrixMarket matrix coordinate {field} symmetric\n"


def _open_for(obj, mode: str):
    if isinstance(obj, (str, Path)):
        return open(obj, mode), True
    return obj, False


def write_matrix_market(obj, target) -> None:
    """Write a :class:`SymmetricCSC` (real) or :class:`SymmetricGraph`
    (pattern) in Matrix Market coordinate symmetric format.

    ``target`` may be a path or a writable text file object.
    """
    fh, owned = _open_for(target, "w")
    try:
        if isinstance(obj, SymmetricCSC):
            rows = obj.pattern.rowidx
            cols = obj.pattern.element_cols()
            fh.write(_HEADER.format(field="real"))
            fh.write(f"{obj.n} {obj.n} {obj.nnz}\n")
            for r, c, v in zip(rows.tolist(), cols.tolist(), obj.values.tolist()):
                fh.write(f"{r + 1} {c + 1} {v!r}\n")
        elif isinstance(obj, SymmetricGraph):
            u, v = obj.edges()
            n_entries = len(u) + obj.n
            fh.write(_HEADER.format(field="pattern"))
            fh.write(f"{obj.n} {obj.n} {n_entries}\n")
            for i in range(obj.n):
                fh.write(f"{i + 1} {i + 1}\n")
            for a, b in zip(u.tolist(), v.tolist()):
                fh.write(f"{max(a, b) + 1} {min(a, b) + 1}\n")
        else:
            raise TypeError(f"cannot write object of type {type(obj).__name__}")
    finally:
        if owned:
            fh.close()


def read_matrix_market(source):
    """Read a symmetric Matrix Market coordinate file.

    Returns a :class:`SymmetricCSC` for ``real``/``integer`` files and a
    :class:`SymmetricGraph` for ``pattern`` files.  A malformed size or
    entry line is a ``ValueError`` naming the line.
    """
    fh, owned = _open_for(source, "r")
    try:
        lines = enumerate(fh, start=1)
        header = next(lines, (1, ""))[1]
        if not header.startswith("%%MatrixMarket"):
            raise ValueError("not a Matrix Market file")
        parts = header.strip().split()
        if len(parts) < 5 or parts[1] != "matrix" or parts[2] != "coordinate":
            raise ValueError(f"unsupported MatrixMarket header: {header.strip()}")
        field, symmetry = parts[3], parts[4]
        if symmetry != "symmetric":
            raise ValueError("only symmetric matrices are supported")
        lineno, line = next(((i, s) for i, s in lines if not s.startswith("%")), (0, ""))
        size = line.split()
        if len(size) != 3:
            raise ValueError(
                f"Matrix Market line {lineno}: expected 'rows cols entries', "
                f"got {line.strip()!r}"
            )
        nrows, ncols, nnz = (int(t) for t in size)
        if nrows != ncols:
            raise ValueError("matrix is not square")
        rows = np.empty(nnz, dtype=np.int64)
        cols = np.empty(nnz, dtype=np.int64)
        vals = np.empty(nnz, dtype=np.float64) if field in ("real", "integer") else None
        width = 2 if vals is None else 3
        k = 0
        for lineno, line in lines:
            toks = line.split()
            if not toks or toks[0].startswith("%"):
                continue
            if k == nnz:
                raise ValueError(
                    f"Matrix Market line {lineno}: more entries than the {nnz} "
                    "its size line declares"
                )
            if len(toks) < width:
                raise ValueError(
                    f"Matrix Market line {lineno}: expected {width} fields, "
                    f"got {line.strip()!r}"
                )
            rows[k] = int(toks[0]) - 1
            cols[k] = int(toks[1]) - 1
            if vals is not None:
                vals[k] = float(toks[2])
            k += 1
        if k != nnz:
            raise ValueError(f"expected {nnz} entries, found {k}")
        if vals is not None:
            lo_r, lo_c = np.maximum(rows, cols), np.minimum(rows, cols)
            return SymmetricCSC.from_entries(nrows, lo_r, lo_c, vals)
        off = rows != cols
        return SymmetricGraph.from_edges(nrows, rows[off], cols[off])
    finally:
        if owned:
            fh.close()


def matrix_market_string(obj) -> str:
    """Render to a Matrix Market string (convenience for tests/examples)."""
    buf = io.StringIO()
    write_matrix_market(obj, buf)
    return buf.getvalue()
