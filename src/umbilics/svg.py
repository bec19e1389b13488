"""Minimal SVG emitter for trace portraits and residual plots.

Fixed 800x800 canvas, viewBox fitted to the data with a 5% margin, one
polyline per curve.  No third-party plotting stack: the outputs are small,
diffable verification artifacts.
"""

from __future__ import annotations

CANVAS = 800.0
MARGIN_FRAC = 0.05

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


class SvgPlot:
    def __init__(self):
        self._curves = []       # (points, stroke)
        self._markers = []      # (x, y)

    def add_curve(self, points, stroke=None):
        """points: iterable of (x, y) in data coordinates."""
        pts = [(float(x), float(y)) for x, y in points]
        if len(pts) < 2:
            return
        if stroke is None:
            stroke = _PALETTE[len(self._curves) % len(_PALETTE)]
        self._curves.append((pts, stroke))

    def add_marker(self, x, y):
        self._markers.append((float(x), float(y)))

    def _bounds(self):
        xs = [x for pts, _ in self._curves for x, _ in pts]
        ys = [y for pts, _ in self._curves for _, y in pts]
        xs += [x for x, _ in self._markers]
        ys += [y for _, y in self._markers]
        if not xs:
            return 0.0, 0.0, 1.0, 1.0
        x0, x1 = min(xs), max(xs)
        y0, y1 = min(ys), max(ys)
        span = max(x1 - x0, y1 - y0, 1e-12)
        pad = MARGIN_FRAC * span
        return x0 - pad, y0 - pad, x1 + pad, y1 + pad

    def _project(self, x, y, box):
        x0, y0, x1, y1 = box
        scale = CANVAS / max(x1 - x0, y1 - y0)
        px = (x - x0) * scale
        py = CANVAS - (y - y0) * scale   # SVG y axis points down
        return px, py

    def write(self, path):
        box = self._bounds()
        lines = [
            '<?xml version="1.0" encoding="UTF-8"?>',
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{CANVAS:g}" '
            f'height="{CANVAS:g}" viewBox="0 0 {CANVAS:g} {CANVAS:g}">',
            f'<rect x="0" y="0" width="{CANVAS:g}" height="{CANVAS:g}" fill="#ffffff"/>',
        ]
        for pts, stroke in self._curves:
            coords = " ".join(
                "%.3f,%.3f" % self._project(x, y, box) for x, y in pts
            )
            lines.append(
                f'<polyline points="{coords}" fill="none" stroke="{stroke}" '
                'stroke-width="1.2"/>'
            )
        for x, y in self._markers:
            px, py = self._project(x, y, box)
            lines.append(f'<circle cx="{px:.3f}" cy="{py:.3f}" r="4" fill="#000000"/>')
        lines.append("</svg>")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
