"""SVG rendering checks: well-formedness, determinism, and value encoding."""

import xml.etree.ElementTree as ET

import numpy as np

from disentlab.plots import NAN_FILL, heatmap_svg, line_chart_svg, write_svg


def _parse(svg: str) -> ET.Element:
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    return root


class TestHeatmap:
    def test_well_formed_and_cell_count(self):
        svg = heatmap_svg([[0.0, 0.5, 1.0], [1.0, 0.25, 0.75], [0.5, 0.0, 1.0]], "abc", "t")
        _parse(svg)
        # one background rect plus one per cell
        assert svg.count("<rect ") == 1 + 9

    def test_extreme_cells_hit_ramp_anchors(self):
        svg = heatmap_svg([[0.0, 1.0], [1.0, 0.0]], "ab", "t")
        assert 'fill="#f7fbff"' in svg
        assert 'fill="#08306b"' in svg

    def test_cell_values_printed(self):
        svg = heatmap_svg([[0.125, 3.5], [3.5, 0.125]], "ab", "t")
        assert ">0.125</text>" in svg
        assert ">3.5</text>" in svg

    def test_nan_cells_gray_and_unlabeled(self):
        svg = heatmap_svg([[0.0, np.nan], [1.0, 0.5]], "ab", "t")
        assert svg.count(f'fill="{NAN_FILL}"') == 1
        assert "nan" not in svg

    def test_constant_matrix_uniform_color(self):
        svg = heatmap_svg([[2.0, 2.0], [2.0, 2.0]], "ab", "t")
        fills = [
            chunk.split('"')[0]
            for chunk in svg.split('fill="')[1:]
            if chunk.startswith("#")
        ]
        cell_fills = [f for f in fills if f != "#ffffff"]
        assert len(set(cell_fills)) <= 1
        _parse(svg)

    def test_deterministic_text(self):
        m = np.arange(16.0).reshape(4, 4)
        first = heatmap_svg(m, "wxyz", "demo")
        assert first == heatmap_svg(m, "wxyz", "demo")
        assert ">demo</text>" in first
        assert first.endswith("</svg>\n")
        assert "\r" not in first

    def test_labels_rendered_and_escaped(self):
        svg = heatmap_svg([[1.0, 0.5], [0.5, 1.0]], ["a<b&c", "x"], "t")
        # each label names its row and its column
        assert svg.count(">a&lt;b&amp;c</text>") == 2
        assert svg.count(">x</text>") == 2
        _parse(svg)


class TestLineChart:
    def test_one_polyline_over_the_iterations(self):
        svg = line_chart_svg([0.0, 1.0, 3.0, 4.0], "y")
        _parse(svg)
        assert svg.count("<polyline") == 1
        # x runs over iterations 0..3 on the 544-px plot width from x = 72
        assert 'points="72.00,352.00 253.33,' in svg
        assert " 616.00,36.00" in svg

    def test_single_point_becomes_marker(self):
        svg = line_chart_svg([5.0], "y")
        _parse(svg)
        assert '<circle cx="344.00" cy="194.00"' in svg
        assert "<polyline" not in svg

    def test_axis_titles(self):
        svg = line_chart_svg([0.0, 1.0], "y")
        assert ">objective ascent</text>" in svg
        assert ">iteration</text>" in svg
        assert ">objective</text>" in svg
        assert ">y</text>" in svg

    def test_deterministic_text(self):
        ys = np.cos(np.linspace(0.0, 1.0, 9))
        first = line_chart_svg(ys, "cos")
        assert first == line_chart_svg(ys, "cos")
        assert "\r" not in first


def test_write_svg_lf_endings(tmp_path):
    path = tmp_path / "chart.svg"
    write_svg(path, line_chart_svg([0.0, 1.0], "y"))
    raw = path.read_bytes()
    assert b"\r" not in raw
    assert raw.endswith(b"</svg>\n")
