"""Sweep records and their CSV form: the rows ``python -m repro sweep``
prints, from the one grid runner (:mod:`repro.perf.sweep`)."""

import csv
import io

import pytest

from repro.perf import SweepRecord, records_to_csv, sweep


@pytest.fixture(scope="module")
def records():
    return sweep(
        ["DWT512"],
        schemes=("block", "block-adaptive", "wrap"),
        procs=(2, 4),
        grains=(4,),
        min_widths=(2,),
    )


class TestSweep:
    def test_record_count(self, records):
        # per proc: block(1 grain x 1 width) + adaptive(1x1) + wrap = 3.
        assert len(records) == 2 * 3

    def test_schemes_present(self, records):
        assert {r.scheme for r in records} == {"block", "block-adaptive", "wrap"}

    def test_wrap_has_no_grain(self, records):
        for r in records:
            if r.scheme == "wrap":
                assert r.grain is None and r.units is None
            else:
                assert r.grain == 4 and r.units is not None

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError, match="unknown scheme"):
            sweep(["DWT512"], schemes=("cyclic",))

    def test_imbalance_nonnegative(self, records):
        assert all(r.imbalance >= 0 for r in records)


class TestCSV:
    def test_header_and_rows(self, records):
        text = records_to_csv(records)
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == SweepRecord.fields()
        assert len(rows) == len(records) + 1

    def test_write_to_path(self, records, tmp_path):
        p = tmp_path / "sweep.csv"
        records_to_csv(records, p)
        assert p.read_text().startswith("matrix,scheme")

    def test_write_to_handle(self, records):
        buf = io.StringIO()
        records_to_csv(records, buf)
        assert "wrap" in buf.getvalue()
