"""SVG rendering checks: well-formedness, determinism, and value encoding."""

import xml.etree.ElementTree as ET

import numpy as np
import pytest

from disentlab.plots import NAN_FILL, heatmap_svg, line_chart_svg, write_svg


def _parse(svg: str) -> ET.Element:
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    return root


class TestHeatmap:
    def test_well_formed_and_cell_count(self):
        svg = heatmap_svg([[0.0, 0.5, 1.0], [1.0, 0.25, 0.75]])
        _parse(svg)
        # one background rect plus one per cell
        assert svg.count("<rect ") == 1 + 6

    def test_extreme_cells_hit_ramp_anchors(self):
        svg = heatmap_svg([[0.0, 1.0]])
        assert 'fill="#f7fbff"' in svg
        assert 'fill="#08306b"' in svg

    def test_cell_values_printed(self):
        svg = heatmap_svg([[0.125, 3.5]])
        assert ">0.125</text>" in svg
        assert ">3.5</text>" in svg

    def test_nan_cells_gray_and_unlabeled(self):
        svg = heatmap_svg([[0.0, np.nan], [1.0, 0.5]])
        assert svg.count(f'fill="{NAN_FILL}"') == 1
        assert "nan" not in svg

    def test_constant_matrix_uniform_color(self):
        svg = heatmap_svg([[2.0, 2.0]])
        fills = [
            chunk.split('"')[0]
            for chunk in svg.split('fill="')[1:]
            if chunk.startswith("#")
        ]
        cell_fills = [f for f in fills if f != "#ffffff"]
        assert len(set(cell_fills)) <= 1
        _parse(svg)

    def test_deterministic_text(self):
        m = np.arange(12.0).reshape(3, 4)
        first = heatmap_svg(m, title="demo")
        assert first == heatmap_svg(m, title="demo")
        assert first.endswith("</svg>\n")
        assert "\r" not in first

    def test_labels_rendered_and_escaped(self):
        svg = heatmap_svg([[1.0]], row_labels=["a<b&c"], col_labels=["x"])
        assert "a&lt;b&amp;c" in svg
        _parse(svg)

    def test_shape_and_label_validation(self):
        with pytest.raises(ValueError):
            heatmap_svg(np.empty((0, 3)))
        with pytest.raises(ValueError):
            heatmap_svg([1.0, 2.0])
        with pytest.raises(ValueError):
            heatmap_svg([[1.0, 2.0]], col_labels=["only-one"])


class TestLineChart:
    def test_nan_splits_a_series(self):
        ys = np.array([0.0, 1.0, np.nan, 3.0, 4.0])
        svg = line_chart_svg(np.arange(5.0), ys, "y")
        assert svg.count("<polyline") == 2

    def test_single_point_becomes_marker(self):
        svg = line_chart_svg([1.0], [5.0], "y")
        _parse(svg)
        assert "<circle" in svg
        assert "<polyline" not in svg

    def test_axis_titles(self):
        svg = line_chart_svg([0.0, 1.0], [0.0, 1.0], "y", x_label="iter", y_label="obj")
        assert ">iter</text>" in svg
        assert ">obj</text>" in svg
        assert ">y</text>" in svg

    def test_deterministic_text(self):
        xs = np.linspace(0.0, 1.0, 9)
        first = line_chart_svg(xs, np.cos(xs), "cos", title="t")
        assert first == line_chart_svg(xs, np.cos(xs), "cos", title="t")
        assert "\r" not in first

    def test_validation(self):
        with pytest.raises(ValueError):
            line_chart_svg([0.0, 1.0], [0.0, 1.0, 2.0], "y")
        with pytest.raises(ValueError):
            line_chart_svg([], [], "y")
        with pytest.raises(ValueError):
            line_chart_svg([0.0, 1.0], [np.nan, np.nan], "y")


def test_write_svg_lf_endings(tmp_path):
    path = tmp_path / "chart.svg"
    write_svg(path, line_chart_svg([0.0, 1.0], [0.0, 1.0], "y"))
    raw = path.read_bytes()
    assert b"\r" not in raw
    assert raw.endswith(b"</svg>\n")
