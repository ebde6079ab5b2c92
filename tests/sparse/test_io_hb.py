"""Harwell-Boeing fixed-format I/O."""

import io

import numpy as np
import pytest

from repro.sparse import (
    SymmetricCSC,
    grid5,
    grid9,
    read_harwell_boeing,
    spd_from_graph,
    write_harwell_boeing,
)
from repro.sparse.io_hb import FortranFormat, harwell_boeing_string
from repro.sparse.pattern import SymmetricGraph


class TestFortranFormat:
    def test_parse_int(self):
        f = FortranFormat.parse("(16I5)")
        assert (f.count, f.width, f.decimals) == (16, 5, None)

    def test_parse_real(self):
        f = FortranFormat.parse("(5E16.8)")
        assert (f.count, f.width, f.decimals) == (5, 16, 8)

    def test_parse_real_with_exponent_width(self):
        f = FortranFormat.parse("(3E25.16E3)")
        assert (f.count, f.width, f.decimals) == (3, 25, 16)

    def test_parse_d_descriptor(self):
        f = FortranFormat.parse("(4D20.12)")
        assert f.decimals == 12

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            FortranFormat.parse("(A40)")

    def test_render_roundtrip(self):
        for text in ("(8I10)", "(4E20.12)"):
            assert FortranFormat.parse(FortranFormat.parse(text).render()).render() == \
                FortranFormat.parse(text).render()

    def test_write_read_ints(self):
        f = FortranFormat(5, 4)
        buf = io.StringIO()
        f.write(buf, list(range(12)))
        buf.seek(0)
        out = f.read(enumerate(buf, 1), 12, "row indices")
        assert out.tolist() == list(range(12))

    def test_write_read_reals(self):
        f = FortranFormat(3, 20, 12)
        vals = [1.0, -2.5e-7, 3.25e11]
        buf = io.StringIO()
        f.write(buf, vals)
        buf.seek(0)
        out = f.read(enumerate(buf, 1), 3, "values")
        assert np.allclose(out, vals, rtol=1e-11)

    def test_lines_for(self):
        assert FortranFormat(8, 10).lines_for(0) == 0
        assert FortranFormat(8, 10).lines_for(8) == 1
        assert FortranFormat(8, 10).lines_for(9) == 2

    def test_read_truncated_raises(self):
        f = FortranFormat(5, 4)
        with pytest.raises(ValueError):
            f.read(enumerate(io.StringIO("   1   2\n"), 1), 5, "pointers")


class TestHBRoundTrip:
    def test_pattern_roundtrip(self):
        g = grid5(4, 4)
        buf = io.StringIO()
        write_harwell_boeing(g, buf, title="grid", key="GRID")
        buf.seek(0)
        h = read_harwell_boeing(buf)
        assert isinstance(h, SymmetricGraph)
        assert h == g

    def test_real_roundtrip(self):
        a = spd_from_graph(grid5(3, 3), seed=7)
        buf = io.StringIO()
        write_harwell_boeing(a, buf)
        buf.seek(0)
        b = read_harwell_boeing(buf)
        assert isinstance(b, SymmetricCSC)
        assert b.pattern == a.pattern
        assert np.allclose(b.values, a.values, rtol=1e-11)

    def test_file_roundtrip(self, tmp_path):
        g = grid5(5, 2)
        p = tmp_path / "g.rsa"
        write_harwell_boeing(g, str(p))
        assert read_harwell_boeing(str(p)) == g

    def test_header_fields(self):
        s = harwell_boeing_string(grid5(2, 2), title="t", key="K")
        lines = s.splitlines()
        assert lines[0].startswith("t")
        assert lines[0].rstrip().endswith("K")
        assert lines[2].startswith("PSA")

    def test_rsa_type_for_values(self):
        s = harwell_boeing_string(spd_from_graph(grid5(2, 2), seed=0))
        assert s.splitlines()[2].startswith("RSA")

    def test_rejects_unknown_object(self):
        with pytest.raises(TypeError):
            write_harwell_boeing(42, io.StringIO())

    def test_rejects_unsymmetric_type(self):
        s = harwell_boeing_string(grid5(2, 2)).replace("PSA", "PUA")
        with pytest.raises(ValueError):
            read_harwell_boeing(io.StringIO(s))

    @pytest.mark.parametrize("cards", [0, 1, 2, 3])
    def test_missing_header_card_is_named(self, cards):
        """Fewer than three cards used to raise ``IndexError``, an empty
        file ``invalid literal for int()``."""
        head = harwell_boeing_string(grid5(2, 2)).splitlines(keepends=True)[:cards]
        with pytest.raises(ValueError, match=f"header card {cards + 1} is missing"):
            read_harwell_boeing(io.StringIO("".join(head)))

    def test_garbled_header_field_is_named(self):
        lines = harwell_boeing_string(grid5(2, 2)).splitlines(keepends=True)
        lines[2] = lines[2][:14] + "x" * 14 + lines[2][28:]
        with pytest.raises(ValueError, match="header card 3: NROW is not an integer"):
            read_harwell_boeing(io.StringIO("".join(lines)))

    def test_a_field_that_is_not_an_integer_names_section_and_line(self):
        lines = harwell_boeing_string(grid9(3, 3)).splitlines(keepends=True)
        lines[6] = lines[6][:3] + "x" + lines[6][4:]  # the first row-index card
        with pytest.raises(ValueError, match=(
                r"row indices, card line 7: field 1 '   x 1' of format "
                r"\(12I6\): not an integer$")):
            read_harwell_boeing(io.StringIO("".join(lines)))

    def test_a_declared_width_that_misfits_the_data_is_named(self):
        """A grid9(3, 3) file whose pointer format says (8I12) over (8I10)
        data used to fail with ``invalid literal for int()``."""
        text = harwell_boeing_string(grid9(3, 3))
        assert "(8I10)" in text
        with pytest.raises(ValueError, match=(
                r"pointers, card line 5: field 5 '17        22' of format "
                r"\(8I12\): 2 numbers in one field, so the data was not "
                r"written 12 wide")):
            read_harwell_boeing(io.StringIO(text.replace("(8I10)  ", "(8I12)  ")))

    def test_pointers_read_at_a_wrong_width_that_parse_are_refused(self):
        """(8I9) over (8I10) data parses into pointers that fall, which
        ``np.repeat`` used to reject as "repeats may not contain negative
        values"."""
        text = harwell_boeing_string(grid9(3, 3)).replace("(8I10)  ", "(8I9)   ")
        with pytest.raises(ValueError, match=(
                r"pointers do not rise from 1 to NNZERO \+ 1 = 30; "
                r"is \(8I9\) the format")):
            read_harwell_boeing(io.StringIO(text))

    def test_a_value_that_is_not_a_number_is_named(self):
        lines = harwell_boeing_string(
            spd_from_graph(grid5(2, 2), seed=0)).splitlines(keepends=True)
        lines[-1] = "Q" + lines[-1][1:]
        with pytest.raises(ValueError, match=r"values, card line \d+: field 1 "):
            read_harwell_boeing(io.StringIO("".join(lines)))
