"""Edge cases for the report renderer and figure plumbing."""

import pytest

from repro.analysis.report import format_bar_chart, format_figure, format_table
from repro.sim.experiments import FigureData


class TestTableEdges:
    def test_empty_rows(self):
        out = format_table(["a", "b"], [])
        lines = out.splitlines()
        assert len(lines) == 2  # header + rule

    def test_wide_values_stretch_columns(self):
        out = format_table(["x"], [["a-very-long-cell-value"]])
        header, rule, row = out.splitlines()
        assert len(rule) >= len("a-very-long-cell-value")

    def test_mixed_types(self):
        out = format_table(["v"], [[1], [2.5], ["s"], [None]])
        assert "None" in out and "2.5" in out

    def test_right_alignment(self):
        out = format_table(["num"], [[1], [100]])
        rows = out.splitlines()[2:]
        assert rows[0].endswith("1")
        assert rows[1].endswith("100")


class TestBarChartEdges:
    def test_empty(self):
        assert format_bar_chart([], []) == ""

    def test_negative_values_use_magnitude(self):
        out = format_bar_chart(["a", "b"], [-1.0, 0.5], width=10)
        lines = out.splitlines()
        assert lines[0].count("#") == 10
        assert lines[1].count("#") == 5

    def test_custom_format(self):
        out = format_bar_chart(["x"], [3.14159], fmt="{:6.1f}")
        assert "3.1" in out


class TestFigureLayout:
    def test_title_table_and_summary(self):
        data = FigureData(
            "Figure 9",
            "Bandwidth efficiency",
            ["benchmark", "raw"],
            [["SG", 0.07431], ["FT", 2]],
            {"avg_raw": 0.5, "runs": 2},
        )
        assert format_figure(data) == (
            "== Figure 9: Bandwidth efficiency ==\n"
            "benchmark     raw\n"
            "---------  ------\n"
            "       SG  0.0743\n"
            "       FT       2\n"
            "  avg_raw: 0.5000\n"
            "  runs: 2"
        )
