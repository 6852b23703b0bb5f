"""Static SVG phase portraits.

The simplex is drawn in the classic planar projection: vertices 1, 2, 3
span an equilateral triangle and vertex 4 projects to the triangle's
centroid, so boundary faces stay readable while interior orbits wind
around the equilibrium segment.  Output is hand-built SVG 1.1 text with
fixed-precision coordinates; rendering twice gives identical bytes,
which keeps portraits diffable and the CLI deterministic.
"""

from __future__ import annotations

import numpy as np

#: planar images of the four vertices (rows)
VERTEX_IMAGES = np.array([
    [0.0, 0.0],
    [1.0, 0.0],
    [0.5, np.sqrt(3.0) / 2.0],
    [0.5, np.sqrt(3.0) / 6.0],
])

#: canvas width and margin in pixels; the simplex edge's length and the
#: height that fits the triangle
WIDTH, MARGIN = 640, 40
_SCALE = WIDTH - 2 * MARGIN
HEIGHT = int(round(2 * MARGIN + float(VERTEX_IMAGES[:, 1].max()) * _SCALE))

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd",
            "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f")


def project(xs) -> np.ndarray:
    """Map simplex points (rows) to the plane."""
    return np.asarray(xs, dtype=float) @ VERTEX_IMAGES


def _fmt(v: float) -> str:
    return f"{v:.3f}"


def _pt(p) -> str:
    """Canvas coordinates of a planar point, y pointing down."""
    x, y = MARGIN + p[0] * _SCALE, HEIGHT - MARGIN - p[1] * _SCALE
    return f"{_fmt(x)},{_fmt(y)}"


def render_portrait(trajectories, section=None) -> str:
    """Render trajectories (and optionally the segment K) as SVG text.

    Parameters
    ----------
    trajectories : sequence of (label, xs)
        Each ``xs`` is an (N, 4) array of simplex points along one
        trajectory; the label lands in an SVG ``<title>``.
    section : NullLineSection, optional
        Drawn as a dashed segment with dots at the endpoints.
    """
    out = []
    out.append('<?xml version="1.0" encoding="UTF-8"?>')
    out.append(f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
               f'width="{WIDTH}" height="{HEIGHT}" '
               f'viewBox="0 0 {WIDTH} {HEIGHT}">')
    out.append(f'<rect width="{WIDTH}" height="{HEIGHT}" '
               'fill="#ffffff"/>')

    verts = [_pt(VERTEX_IMAGES[i]) for i in range(4)]
    for i in range(4):
        for j in range(i + 1, 4):
            a, b = verts[i].split(","), verts[j].split(",")
            out.append(f'<line x1="{a[0]}" y1="{a[1]}" x2="{b[0]}" '
                       f'y2="{b[1]}" stroke="#c8c8c8" stroke-width="1"/>')
    offsets = ((-12, 14), (6, 14), (0, -8), (8, -4))
    for i, (dx, dy) in enumerate(offsets):
        x, y = (float(c) for c in verts[i].split(","))
        out.append(f'<text x="{_fmt(x + dx)}" y="{_fmt(y + dy)}" '
                   f'font-family="sans-serif" font-size="13" '
                   f'fill="#555555">{i + 1}</text>')

    if section is not None:
        ends = project(section.as_array())
        a, b = _pt(ends[0]).split(","), _pt(ends[1]).split(",")
        out.append(f'<line x1="{a[0]}" y1="{a[1]}" x2="{b[0]}" '
                   f'y2="{b[1]}" stroke="#d62728" stroke-width="2" '
                   'stroke-dasharray="6,4"/>')
        for p in (a, b):
            out.append(f'<circle cx="{p[0]}" cy="{p[1]}" r="3" '
                       'fill="#d62728"/>')

    for k, (label, xs) in enumerate(trajectories):
        color = _PALETTE[k % len(_PALETTE)]
        pts = " ".join(_pt(p) for p in project(xs))
        out.append(f'<polyline points="{pts}" fill="none" '
                   f'stroke="{color}" stroke-width="1.2">'
                   f'<title>{label}</title></polyline>')

    out.append("</svg>")
    return "\n".join(out) + "\n"
