"""Tests for ASCII table rendering."""

from __future__ import annotations

import pytest

from repro.util.tables import format_table


class TestFormatTable:
    def test_basic_shape(self):
        out = format_table(["a", "bb"], [[1, 2], [30, 4.5]])
        lines = out.splitlines()
        assert lines[0].startswith("+")
        assert "| a " in lines[1]
        # all lines same width
        assert len({len(line) for line in lines}) == 1

    def test_title(self):
        out = format_table(["x"], [[1]], title="My Table")
        assert out.splitlines()[0] == "My Table"

    def test_mismatched_row_raises(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])

    def test_float_formatting(self):
        out = format_table(["v"], [[1.23456789]])
        assert "1.235" in out

    def test_empty_rows_ok(self):
        out = format_table(["a"], [])
        assert "| a " in out

    def test_wide_cells_expand_columns(self):
        out = format_table(["a"], [["wide-cell-content"]])
        assert "wide-cell-content" in out

