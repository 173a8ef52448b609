"""SVG rendering of billiard orbits and Aubry diagrams.

Emits self-contained SVG 1.1 documents via ElementTree: the orbit figure
draws the billiard outline with the chord polygon and numbered impact points
(optionally overlaying the two symmetric Birkhoff branches in the usual
red/cyan pair), and the Aubry diagram plots the lift coordinates against
their index together with integer translates.  Output is deterministic.
"""

from __future__ import annotations

import math
from xml.etree import ElementTree as ET

import numpy as np

from .geometry import Boundary
from .sequences import PeriodicLift, aubry_vertices, symmetric_birkhoff

SVG_NS = "http://www.w3.org/2000/svg"

#: canvas size and inner margin in pixels
WIDTH = HEIGHT = 640
MARGIN = 48.0
#: points sampled along the table outline
BOUNDARY_SAMPLES = 720
BACKGROUND = "#ffffff"
BOUNDARY_STROKE = "#222222"
CHORD_STROKE = "#1f77b4"
GRID_STROKE = "#dddddd"
LABEL_FILL = "#333333"

#: colors of the two symmetric Birkhoff branches (even, odd)
BRANCH_COLORS = ("#d62728", "#17becf")
_TRANSLATE_COLORS = ("#9467bd", "#8c564b", "#e377c2", "#bcbd22",
                     "#2ca02c", "#ff7f0e")


def _fmt(v: float) -> str:
    return f"{float(v):.2f}"


def _fit(points: np.ndarray):
    """Affine map from data coordinates to pixels (aspect kept, y flipped)."""
    lo = points.min(axis=0)
    hi = points.max(axis=0)
    span = np.maximum(hi - lo, 1e-9)
    scale = min((WIDTH - 2 * MARGIN) / span[0], (HEIGHT - 2 * MARGIN) / span[1])
    center = 0.5 * (lo + hi)

    def to_px(xy):
        xy = np.asarray(xy, dtype=float)
        px = (xy[..., 0] - center[0]) * scale + WIDTH / 2.0
        py = HEIGHT / 2.0 - (xy[..., 1] - center[1]) * scale
        return np.stack([px, py], axis=-1)

    return to_px


def _path_d(pts: np.ndarray, closed: bool) -> str:
    parts = [f"M {_fmt(pts[0, 0])} {_fmt(pts[0, 1])}"]
    parts += [f"L {_fmt(x)} {_fmt(y)}" for x, y in pts[1:]]
    if closed:
        parts.append("Z")
    return " ".join(parts)


def _svg_root() -> ET.Element:
    root = ET.Element("svg", {
        "xmlns": SVG_NS,
        "version": "1.1",
        "width": str(WIDTH),
        "height": str(HEIGHT),
        "viewBox": f"0 0 {WIDTH} {HEIGHT}",
    })
    ET.SubElement(root, "rect", {
        "x": "0", "y": "0", "width": str(WIDTH),
        "height": str(HEIGHT), "fill": BACKGROUND,
    })
    return root


def _document(root: ET.Element) -> str:
    return ('<?xml version="1.0" encoding="UTF-8"?>\n'
            + ET.tostring(root, encoding="unicode"))


def _polyline(root: ET.Element, pts: np.ndarray, stroke: str,
              width: float, closed: bool = False, dashed: bool = False) -> None:
    attrs = {
        "d": _path_d(pts, closed),
        "fill": "none",
        "stroke": stroke,
        "stroke-width": _fmt(width),
        "stroke-linejoin": "round",
    }
    if dashed:
        attrs["stroke-dasharray"] = "6 4"
    ET.SubElement(root, "path", attrs)


def _text(root: ET.Element, x: float, y: float, content: str, fill: str,
          size: int = 12) -> None:
    el = ET.SubElement(root, "text", {
        "x": _fmt(x), "y": _fmt(y),
        "font-size": str(size), "font-family": "sans-serif",
        "fill": fill, "text-anchor": "middle",
        "dominant-baseline": "middle",
    })
    el.text = content


def render_orbit_figure(boundary: Boundary, lift: PeriodicLift,
                        overlay: tuple | None = None) -> str:
    """SVG of the billiard outline plus the orbit's chord polygon.

    Impact points are numbered 1..p in traversal order.  ``overlay=(n, m)``
    additionally draws the two symmetric Birkhoff branches dashed, even
    branch red and odd branch cyan.  The canvas is WIDTH x HEIGHT pixels.
    """
    def points(x):
        z = boundary.jet(x, 0)[0]
        return np.stack((z.real, z.imag), axis=-1)

    outline = points(np.arange(BOUNDARY_SAMPLES) / BOUNDARY_SAMPLES)
    to_px = _fit(outline)
    root = _svg_root()
    _polyline(root, to_px(outline), BOUNDARY_STROKE, 1.5, closed=True)

    if overlay is not None:
        n, m = overlay
        for branch, color in zip((0, 1), BRANCH_COLORS):
            ref = symmetric_birkhoff(n, m, branch)
            _polyline(root, to_px(points(ref.coords)), color, 1.0,
                      closed=True, dashed=True)

    verts = to_px(points(lift.coords))
    _polyline(root, verts, CHORD_STROKE, 1.2, closed=True)
    centroid = verts.mean(axis=0)
    for i, v in enumerate(verts):
        ET.SubElement(root, "circle", {
            "cx": _fmt(v[0]), "cy": _fmt(v[1]), "r": "3.0",
            "fill": CHORD_STROKE,
        })
        d = v - centroid
        norm = math.hypot(d[0], d[1])
        d = d / norm if norm > 1e-9 else np.array([0.0, -1.0])
        _text(root, v[0] + 14.0 * d[0], v[1] + 14.0 * d[1], str(i + 1),
              LABEL_FILL)
    return _document(root)


def render_aubry_diagram(lift: PeriodicLift, translates: int = 0) -> str:
    """SVG graph of (i, x_i) for i = 0..p with optional integer translates.

    Translate c draws the vertices (i, x_{i+c} + d) with d = -round(c q / p),
    which keeps each copy vertically close to the base curve; for a Birkhoff
    lift none of the copies cross the base polyline.
    """
    if translates < 0:
        raise ValueError("translates must be >= 0")
    polys = [aubry_vertices(lift)]
    for c in range(1, translates + 1):
        polys.append(aubry_vertices(lift, c, -int(round(c * lift.q / lift.p))))
    allpts = np.vstack(polys)
    to_px = _fit(allpts)
    root = _svg_root()

    y_lo = int(math.ceil(allpts[:, 1].min()))
    y_hi = int(math.floor(allpts[:, 1].max()))
    x_lo, x_hi = 0.0, float(lift.p)
    for yv in range(y_lo, y_hi + 1):
        seg = to_px(np.array([[x_lo, float(yv)], [x_hi, float(yv)]]))
        _polyline(root, seg, GRID_STROKE, 1.0)
        _text(root, seg[0, 0] - 16.0, seg[0, 1], str(yv), LABEL_FILL, 11)
    for i in range(lift.p + 1):
        seg = to_px(np.array([[float(i), allpts[:, 1].min()],
                              [float(i), allpts[:, 1].max()]]))
        _polyline(root, seg, GRID_STROKE, 0.5)
        _text(root, seg[1, 0], seg[1, 1] + 14.0, str(i), LABEL_FILL, 11)

    for idx, poly in enumerate(polys[1:]):
        color = _TRANSLATE_COLORS[idx % len(_TRANSLATE_COLORS)]
        _polyline(root, to_px(poly), color, 1.0)
    base = to_px(polys[0])
    _polyline(root, base, CHORD_STROKE, 2.0)
    for v in base:
        ET.SubElement(root, "circle", {
            "cx": _fmt(v[0]), "cy": _fmt(v[1]), "r": "2.5",
            "fill": CHORD_STROKE,
        })
    return _document(root)
