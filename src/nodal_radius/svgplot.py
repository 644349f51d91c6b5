"""Static SVG renderings of sign patterns (no plotting dependencies).

Three small writers: a 1D trace with its sign band, a 2D sign raster with
run-length-merged cells, and a Mollweide projection of signs sampled on the
2-sphere. Colors: positive regions blue, negative orange, near-zero grey.
"""

from __future__ import annotations

import math

import numpy as np

from .signsearch import _signs

_POS = "#4878cf"
_NEG = "#e1812c"
_ZERO = "#999999"


def _color(sign: int) -> str:
    if sign > 0:
        return _POS
    if sign < 0:
        return _NEG
    return _ZERO


def _svg_document(width: int, height: int, body: list) -> str:
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
    )
    return "\n".join([head, *body, "</svg>"])


def sign_trace_svg(xs, values, path, width: int = 900, height: int = 300):
    """1D trace of values over xs with a sign band along the bottom."""
    xs = np.asarray(xs, dtype=float)
    values = np.asarray(values, dtype=float)
    vmax = float(np.max(np.abs(values))) or 1.0
    margin = 10
    band_h = 18
    plot_h = height - band_h - 3 * margin
    x0, x1 = float(xs.min()), float(xs.max())

    def px(x):
        return margin + (x - x0) / (x1 - x0) * (width - 2 * margin)

    def py(v):
        return margin + (1.0 - (v / vmax + 1.0) / 2.0) * plot_h

    pts = " ".join(f"{px(x):.2f},{py(v):.2f}" for x, v in zip(xs, values))
    zero_y = py(0.0)
    body = [
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{zero_y:.2f}" x2="{width - margin}" y2="{zero_y:.2f}" '
        f'stroke="#cccccc" stroke-width="1"/>',
        f'<polyline points="{pts}" fill="none" stroke="#333333" stroke-width="1.2"/>',
    ]
    # run-length sign band
    signs = _signs(values)
    start = 0
    y_band = height - margin - band_h
    for i in range(1, len(signs) + 1):
        if i == len(signs) or signs[i] != signs[start]:
            body.append(
                f'<rect x="{px(xs[start]):.2f}" y="{y_band}" '
                f'width="{px(xs[i - 1]) - px(xs[start]) + 1:.2f}" height="{band_h}" '
                f'fill="{_color(int(signs[start]))}"/>'
            )
            start = i
    with open(path, "w") as fh:
        fh.write(_svg_document(width, height, body))


def sign_raster_svg(values2d, path, cell: int = 4, max_cells: int = 200):
    """2D sign raster; adjacent same-sign cells in a row are merged."""
    values2d = np.asarray(values2d, dtype=float)
    n0, n1 = values2d.shape
    step0 = max(1, n0 // max_cells)
    step1 = max(1, n1 // max_cells)
    signs = _signs(values2d[::step0, ::step1])
    rows, cols = signs.shape
    width, height = cols * cell, rows * cell
    body = [f'<rect width="{width}" height="{height}" fill="white"/>']
    for i in range(rows):
        j = 0
        while j < cols:
            j2 = j
            while j2 + 1 < cols and signs[i, j2 + 1] == signs[i, j]:
                j2 += 1
            body.append(
                f'<rect x="{j * cell}" y="{i * cell}" '
                f'width="{(j2 - j + 1) * cell}" height="{cell}" '
                f'fill="{_color(int(signs[i, j]))}"/>'
            )
            j = j2 + 1
    with open(path, "w") as fh:
        fh.write(_svg_document(width, height, body))


def _mollweide_theta(lat: float) -> float:
    # solve 2 theta + sin(2 theta) = pi sin(lat) by Newton iteration
    if abs(lat) >= 0.5 * math.pi - 1e-9:
        return math.copysign(0.5 * math.pi, lat)
    theta = lat
    for _ in range(20):
        f = 2.0 * theta + math.sin(2.0 * theta) - math.pi * math.sin(lat)
        fp = 2.0 + 2.0 * math.cos(2.0 * theta)
        if abs(fp) < 1e-12:
            break
        step = f / fp
        theta -= step
        if abs(step) < 1e-12:
            break
    return theta


def mollweide_svg(points, values, path, width: int = 800):
    """Mollweide projection of signs sampled at unit vectors ``points``."""
    points = np.asarray(points, dtype=float)
    values = np.asarray(values, dtype=float)
    height = width // 2
    cx, cy = width / 2.0, height / 2.0
    rx, ry = width / 2.0 - 4.0, height / 2.0 - 4.0
    body = [
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<ellipse cx="{cx}" cy="{cy}" rx="{rx}" ry="{ry}" fill="none" '
        f'stroke="#888888" stroke-width="1"/>',
    ]
    dot = max(1.5, 0.5 * math.sqrt(width * height / max(len(points), 1)))
    for p, sign in zip(points, _signs(values)):
        lon = math.atan2(p[1], p[0])
        lat = math.asin(max(-1.0, min(1.0, p[2])))
        theta = _mollweide_theta(lat)
        x = cx + rx * (lon / math.pi) * math.cos(theta)
        y = cy - ry * math.sin(theta)
        body.append(
            f'<circle cx="{x:.2f}" cy="{y:.2f}" r="{dot:.2f}" fill="{_color(int(sign))}"/>'
        )
    with open(path, "w") as fh:
        fh.write(_svg_document(width, height, body))
