"""Matrix Market I/O round trips."""

import io

import numpy as np
import pytest

from repro.sparse import (
    SymmetricCSC,
    grid5,
    read_matrix_market,
    spd_from_graph,
    write_matrix_market,
)
from repro.sparse.io_mm import matrix_market_string
from repro.sparse.pattern import SymmetricGraph


class TestRealRoundTrip:
    def test_roundtrip_values(self):
        a = spd_from_graph(grid5(3, 3), seed=1)
        buf = io.StringIO()
        write_matrix_market(a, buf)
        buf.seek(0)
        b = read_matrix_market(buf)
        assert isinstance(b, SymmetricCSC)
        assert b.pattern == a.pattern
        assert np.allclose(b.values, a.values)

    def test_roundtrip_file(self, tmp_path):
        a = spd_from_graph(grid5(2, 4), seed=2)
        path = tmp_path / "m.mtx"
        write_matrix_market(a, str(path))
        b = read_matrix_market(str(path))
        assert np.allclose(b.to_dense(), a.to_dense())

    def test_exact_float_precision(self):
        a = SymmetricCSC.from_entries(2, [1, 0], [0, 0], [1 / 3, np.pi])
        b = read_matrix_market(io.StringIO(matrix_market_string(a)))
        assert b.values.tolist() == a.values.tolist()


class TestPatternRoundTrip:
    def test_roundtrip_pattern(self):
        g = grid5(4, 3)
        buf = io.StringIO()
        write_matrix_market(g, buf)
        buf.seek(0)
        h = read_matrix_market(buf)
        assert isinstance(h, SymmetricGraph)
        assert h == g

    def test_header_says_pattern(self):
        s = matrix_market_string(grid5(2, 2))
        assert s.splitlines()[0] == "%%MatrixMarket matrix coordinate pattern symmetric"


class TestErrors:
    def test_rejects_non_mm(self):
        with pytest.raises(ValueError):
            read_matrix_market(io.StringIO("garbage\n1 1 0\n"))

    def test_rejects_general_symmetry(self):
        s = "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1.0\n"
        with pytest.raises(ValueError):
            read_matrix_market(io.StringIO(s))

    def test_rejects_rectangular(self):
        s = "%%MatrixMarket matrix coordinate real symmetric\n2 3 1\n1 1 1.0\n"
        with pytest.raises(ValueError):
            read_matrix_market(io.StringIO(s))

    def test_rejects_wrong_count(self):
        s = "%%MatrixMarket matrix coordinate real symmetric\n2 2 2\n1 1 1.0\n"
        with pytest.raises(ValueError):
            read_matrix_market(io.StringIO(s))

    def test_more_entries_than_declared_names_the_line(self):
        """Used to be ``IndexError: index 1 is out of bounds``."""
        s = "%%MatrixMarket matrix coordinate real symmetric\n% c\n2 2 1\n1 1 1.0\n2 2 1.0\n"
        with pytest.raises(ValueError, match="line 5: more entries than the 1"):
            read_matrix_market(io.StringIO(s))

    @pytest.mark.parametrize(
        "body, message",
        [("2 2\n", "line 2: expected 'rows cols entries'"),
         ("2 2 1\n2\n", "line 3: expected 3 fields"),
         ("", "line 0: expected 'rows cols entries'")],
        ids=["short_size_line", "short_entry", "no_size_line"],
    )
    def test_short_lines_name_the_line(self, body, message):
        s = "%%MatrixMarket matrix coordinate real symmetric\n" + body
        with pytest.raises(ValueError, match=message):
            read_matrix_market(io.StringIO(s))

    def test_rejects_unknown_type(self):
        with pytest.raises(TypeError):
            write_matrix_market(object(), io.StringIO())

    def test_comments_skipped(self):
        s = (
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "% a comment\n"
            "2 2 1\n"
            "2 1 -3.5\n"
        )
        m = read_matrix_market(io.StringIO(s))
        assert m.get(1, 0) == -3.5
