"""Harwell-Boeing (fixed-format Fortran) I/O.

The paper's test matrices are distributed in the Harwell-Boeing format
(Duff, Grimes & Lewis 1989).  This module implements a reader and writer
for the assembled symmetric cases used here: ``PSA`` (pattern symmetric
assembled) and ``RSA`` (real symmetric assembled), including a small
Fortran edit-descriptor parser for formats like ``(16I5)`` and
``(5E16.8)``.
"""

from __future__ import annotations

import io
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .csc import SymmetricCSC
from .pattern import SymmetricGraph

__all__ = ["FortranFormat", "write_harwell_boeing", "read_harwell_boeing"]

_INT_FMT = re.compile(r"^\s*\(\s*(\d+)\s*I\s*(\d+)\s*\)\s*$", re.IGNORECASE)
_REAL_FMT = re.compile(
    r"^\s*\(\s*(\d+)\s*[EFD]\s*(\d+)\s*\.\s*(\d+)\s*(?:E\s*\d+)?\s*\)\s*$",
    re.IGNORECASE,
)


@dataclass(frozen=True)
class FortranFormat:
    """A simple repeated edit descriptor: ``count`` fields of ``width``
    characters per line; ``decimals`` is None for integer formats."""

    count: int
    width: int
    decimals: int | None = None

    @classmethod
    def parse(cls, text: str) -> "FortranFormat":
        m = _INT_FMT.match(text)
        if m:
            return cls(int(m.group(1)), int(m.group(2)))
        m = _REAL_FMT.match(text)
        if m:
            return cls(int(m.group(1)), int(m.group(2)), int(m.group(3)))
        raise ValueError(f"unsupported Fortran format: {text!r}")

    def render(self) -> str:
        if self.decimals is None:
            return f"({self.count}I{self.width})"
        return f"({self.count}E{self.width}.{self.decimals})"

    def lines_for(self, n_items: int) -> int:
        return -(-n_items // self.count) if n_items else 0

    def write(self, fh, values) -> None:
        for start in range(0, len(values), self.count):
            chunk = values[start : start + self.count]
            if self.decimals is None:
                fh.write("".join(f"{int(v):>{self.width}d}" for v in chunk))
            else:
                fh.write(
                    "".join(f"{float(v):>{self.width}.{self.decimals}E}" for v in chunk)
                )
            fh.write("\n")

    def read(self, cards, n_items: int, section: str) -> np.ndarray:
        """Read ``n_items`` fields from ``cards``, an iterator of
        ``(card line number, text)``.  A field that does not parse is a
        ``ValueError`` naming ``section`` and the card line."""
        out = []
        parse = int if self.decimals is None else float
        while len(out) < n_items:
            lineno, line = next(cards, (None, ""))
            if lineno is None:
                raise ValueError("unexpected end of Harwell-Boeing data")
            line = line.rstrip("\n")
            for k in range(self.count):
                field = line[k * self.width : (k + 1) * self.width]
                if not field.strip():
                    continue
                try:
                    out.append(parse(field))
                except ValueError:
                    raise ValueError(
                        f"Harwell-Boeing {section}, card line {lineno}: field "
                        f"{k + 1} {field!r} of format {self.render()}: "
                        + self._misfit(field)
                    ) from None
                if len(out) == n_items:
                    break
        dtype = np.int64 if self.decimals is None else np.float64
        return np.asarray(out, dtype=dtype)

    def _misfit(self, field: str) -> str:
        """Why ``field`` did not parse: several numbers in one field mean
        the declared width is not the width the data was written with."""
        parse, kind = (int, "an integer") if self.decimals is None else (float, "a number")
        tokens = field.split()
        try:
            for token in tokens:
                parse(token)
        except ValueError:
            return f"not {kind}"
        return (f"{len(tokens)} numbers in one field, so the data was not "
                f"written {self.width} wide")


_PTR_FMT = FortranFormat(8, 10)
_IND_FMT = FortranFormat(12, 6)
_VAL_FMT = FortranFormat(4, 20, 12)


def _open_for(obj, mode: str):
    if isinstance(obj, (str, Path)):
        return open(obj, mode), True
    return obj, False


def _lower_csc_arrays(obj):
    if isinstance(obj, SymmetricCSC):
        pat = obj.pattern
        return pat.indptr, pat.rowidx, obj.values
    if isinstance(obj, SymmetricGraph):
        pat = obj.lower()
        return pat.indptr, pat.rowidx, None
    raise TypeError(f"cannot write object of type {type(obj).__name__}")


def write_harwell_boeing(obj, target, title: str = "", key: str = "REPRO") -> None:
    """Write a symmetric matrix/pattern in Harwell-Boeing format.

    :class:`SymmetricCSC` is written as RSA, :class:`SymmetricGraph` as PSA.
    """
    indptr, rowidx, values = _lower_csc_arrays(obj)
    n = len(indptr) - 1
    nnz = len(rowidx)
    ptrcrd = _PTR_FMT.lines_for(n + 1)
    indcrd = _IND_FMT.lines_for(nnz)
    valcrd = _VAL_FMT.lines_for(nnz) if values is not None else 0
    totcrd = ptrcrd + indcrd + valcrd
    mxtype = "RSA" if values is not None else "PSA"

    fh, owned = _open_for(target, "w")
    try:
        fh.write(f"{title:<72.72s}{key:<8.8s}\n")
        fh.write(f"{totcrd:>14d}{ptrcrd:>14d}{indcrd:>14d}{valcrd:>14d}{0:>14d}\n")
        fh.write(f"{mxtype:<3s}{'':11s}{n:>14d}{n:>14d}{nnz:>14d}{0:>14d}\n")
        fh.write(
            f"{_PTR_FMT.render():<16s}{_IND_FMT.render():<16s}"
            f"{_VAL_FMT.render():<20s}{'':20s}\n"
        )
        _PTR_FMT.write(fh, (indptr + 1).tolist())
        _IND_FMT.write(fh, (rowidx + 1).tolist())
        if values is not None:
            _VAL_FMT.write(fh, values.tolist())
    finally:
        if owned:
            fh.close()


def _header_card(fh, number: int) -> str:
    card = fh.readline()
    if not card:
        raise ValueError(f"Harwell-Boeing header card {number} is missing")
    return card


def _int_field(card: str, lo: int, hi: int, number: int, name: str) -> int:
    text = card[lo:hi]
    try:
        return int(text)
    except ValueError:
        raise ValueError(
            f"Harwell-Boeing header card {number}: {name} is not an integer: {text!r}"
        ) from None


def read_harwell_boeing(source):
    """Read an assembled symmetric Harwell-Boeing file (PSA or RSA).

    Returns :class:`SymmetricGraph` for PSA, :class:`SymmetricCSC` for RSA.
    A missing or malformed header card is a ``ValueError`` naming it, and
    a data field that does not parse one naming its section and card line.
    """
    fh, owned = _open_for(source, "r")
    try:
        _header_card(fh, 1)  # title line (ignored)
        card2 = _header_card(fh, 2)
        valcrd = _int_field(card2, 42, 56, 2, "VALCRD")
        card3 = _header_card(fh, 3)
        mxtype = card3[:3].upper()
        if len(mxtype) < 3 or mxtype[1] != "S" or mxtype[2] != "A":
            raise ValueError(f"unsupported matrix type {mxtype!r}")
        nrow = _int_field(card3, 14, 28, 3, "NROW")
        ncol = _int_field(card3, 28, 42, 3, "NCOL")
        nnz = _int_field(card3, 42, 56, 3, "NNZERO")
        if nrow != ncol:
            raise ValueError("matrix is not square")
        card4 = _header_card(fh, 4)
        ptrfmt = FortranFormat.parse(card4[0:16])
        indfmt = FortranFormat.parse(card4[16:32])
        valfmt = FortranFormat.parse(card4[32:52]) if valcrd > 0 else None

        cards = enumerate(fh, start=5)  # the data follows the four header cards
        indptr = ptrfmt.read(cards, ncol + 1, "pointers") - 1
        if indptr[0] != 0 or indptr[-1] != nnz or (np.diff(indptr) < 0).any():
            raise ValueError(
                f"Harwell-Boeing pointers do not rise from 1 to NNZERO + 1 = "
                f"{nnz + 1}; is {ptrfmt.render()} the format they were written in?"
            )
        rowidx = indfmt.read(cards, nnz, "row indices") - 1
        cols = np.repeat(np.arange(ncol, dtype=np.int64), np.diff(indptr))
        if mxtype[0] == "R" and valfmt is not None:
            values = valfmt.read(cards, nnz, "values")
            return SymmetricCSC.from_entries(ncol, rowidx, cols, values)
        off = rowidx != cols
        return SymmetricGraph.from_edges(ncol, rowidx[off], cols[off])
    finally:
        if owned:
            fh.close()


def harwell_boeing_string(obj, title: str = "", key: str = "REPRO") -> str:
    buf = io.StringIO()
    write_harwell_boeing(obj, buf, title=title, key=key)
    return buf.getvalue()
