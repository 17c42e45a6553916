"""ASCII table rendering."""

import pytest

from repro.util.tables import render_table


class TestRenderTable:
    def test_basic_alignment(self):
        text = render_table(["name", "value"], [["a", 1], ["bb", 22]])
        lines = text.splitlines()
        assert lines[0].startswith("name")
        assert "---" in lines[1]
        assert len(lines) == 4

    def test_title(self):
        text = render_table(["x"], [[1]], title="demo")
        assert text.splitlines()[0] == "demo"

    def test_numeric_right_aligned(self):
        text = render_table(["v"], [[1], [100]])
        rows = text.splitlines()[-2:]
        assert rows[0].endswith("1")
        assert rows[1].endswith("100")

    def test_mismatched_row_rejected(self):
        with pytest.raises(ValueError):
            render_table(["a", "b"], [["only-one"]])

    def test_float_formatting(self):
        text = render_table(["v"], [[0.123456]])
        assert "0.1235" in text

    def test_tiny_float_scientific(self):
        text = render_table(["v"], [[1e-7]])
        assert "e-07" in text

    def test_zero(self):
        assert render_table(["v"], [[0.0]]).splitlines()[-1].endswith("0")

    def test_empty_rows(self):
        text = render_table(["a"], [])
        assert "a" in text
