"""Dependency-free SVG rendering for heat maps and an ascent's line chart.

Layout constants are fixed and every number is formatted explicitly, so a
given input always renders to byte-identical SVG text. That keeps report
artifacts diffable without pulling in a plotting package.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

CELL = 36  # heat-map cell edge, px
NAN_FILL = "#b0b0b0"
_LINE_COLOR = "#1f77b4"

_LOW = (247, 251, 255)  # near-white
_HIGH = (8, 48, 107)  # dark blue

_FONT = 'font-family="monospace"'


def _esc(text) -> str:
    return str(text).replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _fill(t: float) -> str:
    """Hex color on the linear near-white-to-blue ramp, t clipped to [0, 1]."""
    u = min(max(float(t), 0.0), 1.0)
    return "#%02x%02x%02x" % tuple(
        round(lo + (hi - lo) * u) for lo, hi in zip(_LOW, _HIGH)
    )


def heatmap_svg(values, labels, title: str) -> str:
    """Render a square matrix as a colored grid with the cell values printed.

    labels name both the rows and the columns. Color encodes the value on a
    linear ramp between the finite minimum and maximum; non-finite cells are
    drawn gray with no printed value.
    """
    m = np.asarray(values, dtype=float)
    finite = m[np.isfinite(m)]
    lo = float(finite.min()) if finite.size else 0.0
    span = float(finite.max()) - lo if finite.size else 0.0

    longest = max(len(v) for v in labels)
    left, top = 12 + 7 * longest, 30 + 7 * longest
    width = left + CELL * m.shape[1] + 16
    height = top + CELL * m.shape[0] + 16
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width // 2}" y="16" {_FONT} font-size="13" '
        f'text-anchor="middle">{_esc(title)}</text>',
    ]
    for j, name in enumerate(labels):
        x = left + CELL * j + CELL // 2
        out.append(
            f'<text x="{x}" y="{top - 6}" {_FONT} font-size="10" text-anchor="end" '
            f'transform="rotate(-45 {x} {top - 6})">{_esc(name)}</text>'
        )
    for i, name in enumerate(labels):
        y = top + CELL * i + CELL // 2 + 4
        out.append(
            f'<text x="{left - 6}" y="{y}" {_FONT} font-size="10" '
            f'text-anchor="end">{_esc(name)}</text>'
        )
    for i in range(m.shape[0]):
        for j in range(m.shape[1]):
            x, y = left + CELL * j, top + CELL * i
            v = m[i, j]
            if not math.isfinite(v):
                out.append(
                    f'<rect x="{x}" y="{y}" width="{CELL}" height="{CELL}" '
                    f'fill="{NAN_FILL}" stroke="white"/>'
                )
                continue
            t = (v - lo) / span if span > 0.0 else 0.5
            text_fill = "white" if t > 0.6 else "black"
            out.append(
                f'<rect x="{x}" y="{y}" width="{CELL}" height="{CELL}" '
                f'fill="{_fill(t)}" stroke="white"/>'
            )
            out.append(
                f'<text x="{x + CELL // 2}" y="{y + CELL // 2 + 3}" {_FONT} '
                f'font-size="9" text-anchor="middle" fill="{text_fill}">{v:.3g}</text>'
            )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def line_chart_svg(ys, label) -> str:
    """Render an objective's ascent, ys[i] at iteration i, as one labelled series.

    ys must be finite. A one-point series is drawn as a dot.
    """
    y = np.asarray(ys, dtype=float)
    x_lo, x_hi = 0.0, float(y.size - 1)
    y_lo, y_hi = float(y.min()), float(y.max())
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5

    width, height = 640, 400
    left, right, top, bottom = 72, 24, 36, 48
    plot_w, plot_h = width - left - right, height - top - bottom

    def px(v: float) -> float:
        return left + (v - x_lo) / (x_hi - x_lo) * plot_w

    def py(v: float) -> float:
        return top + (y_hi - v) / (y_hi - y_lo) * plot_h

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{left}" y="{top}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="black"/>',
        f'<text x="{width // 2}" y="20" {_FONT} font-size="13" '
        'text-anchor="middle">objective ascent</text>',
    ]
    for tick in np.linspace(x_lo, x_hi, 5):
        tx = px(tick)
        out.append(
            f'<line x1="{tx:.2f}" y1="{top + plot_h}" x2="{tx:.2f}" '
            f'y2="{top + plot_h + 5}" stroke="black"/>'
        )
        out.append(
            f'<text x="{tx:.2f}" y="{top + plot_h + 18}" {_FONT} font-size="10" '
            f'text-anchor="middle">{tick:.4g}</text>'
        )
    for tick in np.linspace(y_lo, y_hi, 5):
        ty = py(tick)
        out.append(
            f'<line x1="{left - 5}" y1="{ty:.2f}" x2="{left}" y2="{ty:.2f}" '
            f'stroke="black"/>'
        )
        out.append(
            f'<text x="{left - 8}" y="{ty:.2f}" {_FONT} font-size="10" '
            f'text-anchor="end">{tick:.4g}</text>'
        )
    out.append(
        f'<text x="{left + plot_w // 2}" y="{height - 10}" {_FONT} '
        'font-size="11" text-anchor="middle">iteration</text>'
    )
    out.append(
        f'<text x="16" y="{top + plot_h // 2}" {_FONT} font-size="11" '
        f'text-anchor="middle" transform="rotate(-90 16 {top + plot_h // 2})">'
        "objective</text>"
    )
    if y.size == 1:
        out.append(f'<circle cx="{px(0):.2f}" cy="{py(y[0]):.2f}" r="2.5" fill="{_LINE_COLOR}"/>')
    else:
        points = " ".join(f"{px(i):.2f},{py(v):.2f}" for i, v in enumerate(y))
        out.append(
            f'<polyline points="{points}" fill="none" '
            f'stroke="{_LINE_COLOR}" stroke-width="1.5"/>'
        )
    out.append(
        f'<line x1="{left + plot_w - 120}" y1="{top + 10}" x2="{left + plot_w - 100}" '
        f'y2="{top + 10}" stroke="{_LINE_COLOR}" stroke-width="1.5"/>'
    )
    out.append(
        f'<text x="{left + plot_w - 94}" y="{top + 14}" {_FONT} '
        f'font-size="10">{_esc(label)}</text>'
    )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def write_svg(path, svg: str) -> None:
    """Write SVG text as UTF-8 bytes, so its LF line endings stay on every platform."""
    Path(path).write_bytes(svg.encode())
