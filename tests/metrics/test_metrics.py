"""Tests for tables, sweep series, and statistics helpers."""

import pytest

from repro.metrics import SweepSeries, Table, mean


class TestTable:
    def test_render_contains_data(self):
        t = Table(["a", "b"], title="demo")
        t.add_row(1, 2.5)
        out = t.render()
        assert "demo" in out
        assert "a" in out and "b" in out
        assert "2.5" in out

    def test_column_access(self):
        t = Table(["x", "y"])
        t.add_row(1, 10)
        t.add_row(2, 20)
        assert t.column("y") == [10, 20]
        with pytest.raises(KeyError):
            t.column("z")

    def test_row_arity_checked(self):
        t = Table(["a", "b"])
        with pytest.raises(ValueError):
            t.add_row(1)

    def test_empty_headers_rejected(self):
        with pytest.raises(ValueError):
            Table([])

    def test_csv(self):
        t = Table(["a", "b"])
        t.add_row(1, 2)
        assert t.to_csv() == "a,b\n1,2\n"

    def test_float_formatting(self):
        t = Table(["v"])
        t.add_row(1.23456789)
        assert "1.235" in t.render()

    def test_len(self):
        t = Table(["a"])
        assert len(t) == 0
        t.add_row(1)
        assert len(t) == 1


class TestSweepSeries:
    def test_add_and_access(self):
        s = SweepSeries("H", ["rounds"], title="fig")
        s.add(2, rounds=5)
        s.add(4, rounds=3)
        assert s.x == [2, 4]
        assert s.series("rounds") == [5, 3]
        assert len(s) == 2

    def test_series_mismatch_rejected(self):
        s = SweepSeries("H", ["a", "b"])
        with pytest.raises(ValueError):
            s.add(1, a=1)
        with pytest.raises(ValueError):
            s.add(1, a=1, b=2, c=3)

    def test_to_table_roundtrip(self):
        s = SweepSeries("x", ["y"])
        s.add(1, y=10)
        t = s.to_table()
        assert t.column("x") == [1]
        assert t.column("y") == [10]
        assert "x" in s.render()

    def test_needs_a_series(self):
        with pytest.raises(ValueError):
            SweepSeries("x", [])


class TestStats:
    def test_mean(self):
        assert mean([1, 2, 3]) == 2
        with pytest.raises(ValueError):
            mean([])
