"""SVG rendering of conic figures.

Every drawn element is a single <path>.  Lines, segments and parabolas
are polynomial curves c0 + c1 s + c2 s^2 in a parameter s, clipped to the
viewport in closed form: the parameters where the curve meets a border
are roots of quadratics.  A parabola arc is emitted as one exact
quadratic Bezier, a straight piece as one line.  Circles and horocycles
are exact two-arc ellipse paths.  World coordinates are mapped to SVG
pixels with the y axis flipped.
"""

from __future__ import annotations

import math

import numpy as np

from .horocycle import Horocycle
from .parabola import Parabola


def _roots(a: float, b: float, c: float) -> list[float]:
    """Real roots of a s^2 + b s + c = 0 (a may be 0), in the stable closed form."""
    if a == 0.0:
        return [-c / b] if b != 0.0 else []
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        return []
    q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
    return [q / a, c / q] if q != 0.0 else [0.0]


class SvgFigure:
    """Accumulates drawing elements over a rectangular world viewport."""

    def __init__(self, viewport=(-4.0, 4.0, -4.0, 4.0), width_px: int = 640):
        self.xmin, self.xmax, self.ymin, self.ymax = (float(v) for v in viewport)
        self.width_px = int(width_px)
        self.scale = self.width_px / (self.xmax - self.xmin)
        self.height_px = int(round((self.ymax - self.ymin) * self.scale))
        self.elements: list[str] = []

    # world -> pixel, y flipped
    def _map(self, pt):
        x, y = float(pt[0]), float(pt[1])
        return (x - self.xmin) * self.scale, (self.ymax - y) * self.scale

    def _fmt(self, v: float) -> str:
        return f"{v:.3f}"

    def _style(self, stroke, width, fill="none", dash=None):
        s = f'fill="{fill}" stroke="{stroke}" stroke-width="{self._fmt(width * self.scale)}"'
        if dash:
            s += f' stroke-dasharray="{self._fmt(dash * self.scale)}"'
        return s

    def _visible(self, c0, c1, c2, lo: float, hi: float) -> list[tuple[float, float]]:
        """Parameter intervals within [lo, hi] where c0 + c1 s + c2 s^2 lies in the viewport.

        The cuts are the roots of the four border equations x = xmin,
        xmax and y = ymin, ymax.  Between two consecutive cuts the curve
        is wholly inside or wholly outside, so the midpoint decides;
        adjacent kept intervals are merged.
        """
        # Python floats: an overflow far outside the viewport gives a quiet inf
        (x0, y0), (x1, y1), (x2, y2) = ((float(c[0]), float(c[1])) for c in (c0, c1, c2))
        cuts = [lo, hi]
        for c, b, a, bounds in ((x0, x1, x2, (self.xmin, self.xmax)),
                                (y0, y1, y2, (self.ymin, self.ymax))):
            for v in bounds:
                cuts += [s for s in _roots(a, b, c - v) if lo < s < hi]
        cuts.sort()
        kept: list[tuple[float, float]] = []
        for a, b in zip(cuts, cuts[1:]):
            if not (a < b and math.isfinite(a) and math.isfinite(b)):
                continue
            m = 0.5 * (a + b)
            x = x0 + m * (x1 + m * x2)
            y = y0 + m * (y1 + m * y2)
            if self.xmin <= x <= self.xmax and self.ymin <= y <= self.ymax:
                if kept and kept[-1][1] == a:
                    a = kept.pop()[0]
                kept.append((a, b))
        return kept

    def _arcs(self, c0, c1, c2, lo: float, hi: float) -> list[tuple[np.ndarray, ...]]:
        """World control points of the visible pieces.

        (P0, P2) for a straight curve (c2 = 0); otherwise the exact
        quadratic Bezier (P0, P1, P2) with P1 = at(a) + (b - a)/2 at'(a).
        """
        c0, c1, c2 = (np.asarray(c, float) for c in (c0, c1, c2))
        arcs = []
        for a, b in self._visible(c0, c1, c2, lo, hi):
            p0 = c0 + a * c1 + a * a * c2
            p2 = c0 + b * c1 + b * b * c2
            p1 = p0 + 0.5 * (b - a) * (c1 + 2.0 * a * c2)
            arcs.append((p0, p1, p2) if c2.any() else (p0, p2))
        return arcs

    def _add_curve(self, c0, c1, c2, lo, hi, stroke="black", width=0.015, dash=None):
        """One <path> of the visible pieces; nothing when the curve misses the viewport."""
        parts = []
        for arc in self._arcs(c0, c1, c2, lo, hi):
            p0, *rest = (" ".join(map(self._fmt, self._map(p))) for p in arc)
            parts.append(f"M {p0} {'L' if len(rest) == 1 else 'Q'} {' '.join(rest)}")
        if parts:
            d = " ".join(parts)
            self.elements.append(f'<path d="{d}" {self._style(stroke, width, dash=dash)} />')

    def add_ellipse_path(
        self, center, r_major: float, r_minor: float, major_angle: float,
        stroke="black", width=0.015, dash=None,
    ):
        """Exact ellipse as one <path> of two half arcs (angles in world frame)."""
        major = np.array([np.cos(major_angle), np.sin(major_angle)])
        p1 = np.asarray(center, float) + r_major * major
        p2 = np.asarray(center, float) - r_major * major
        x1, y1 = self._map(p1)
        x2, y2 = self._map(p2)
        # y flip: the svg-frame rotation of the major axis
        rot = np.degrees(np.arctan2(-major[1], major[0]))
        rx = self._fmt(r_major * self.scale)
        ry = self._fmt(r_minor * self.scale)
        d = (
            f"M {self._fmt(x1)} {self._fmt(y1)} "
            f"A {rx} {ry} {self._fmt(rot)} 0 1 {self._fmt(x2)} {self._fmt(y2)} "
            f"A {rx} {ry} {self._fmt(rot)} 0 1 {self._fmt(x1)} {self._fmt(y1)} Z"
        )
        self.elements.append(f'<path d="{d}" {self._style(stroke, width, dash=dash)} />')

    def add_circle_path(self, center, r: float, **kw):
        self.add_ellipse_path(center, r, r, 0.0, **kw)

    def add_horocycle(self, h: Horocycle, **kw):
        tangent_angle = h.theta + 0.5 * np.pi
        self.add_ellipse_path(h.center, h.a, h.a**2, tangent_angle, **kw)

    def add_parabola(self, para: Parabola, **kw):
        """Parabola clipped to the viewport, as exact quadratic Bezier arcs.

        In apex form the parabola is at(s) = apex + s ux + s^2/(2p) uy.
        """
        uy = np.array([np.cos(para.axis_angle), np.sin(para.axis_angle)])
        ux = np.array([uy[1], -uy[0]])
        self._add_curve(para.apex, ux, uy / (2.0 * para.parameter), -math.inf, math.inf, **kw)

    def add_line(self, normal, offset: float, **kw):
        """Boundary line {x : normal . x = offset}, clipped to the viewport."""
        n = np.asarray(normal, float)
        base = n * offset / (n @ n)
        self._add_curve(base, (-n[1], n[0]), (0.0, 0.0), -math.inf, math.inf, **kw)

    def add_segment(self, p1, p2, **kw):
        p1 = np.asarray(p1, float)
        self._add_curve(p1, np.asarray(p2, float) - p1, (0.0, 0.0), 0.0, 1.0, **kw)

    def add_point(self, pt, r: float = 0.03, fill="black"):
        x, y = self._map(pt)
        self.elements.append(
            f'<circle cx="{self._fmt(x)}" cy="{self._fmt(y)}" '
            f'r="{self._fmt(r * self.scale)}" fill="{fill}" />'
        )

    def add_label(self, pt, text: str, fill="black", dx=0.06, dy=0.06):
        x, y = self._map((pt[0] + dx, pt[1] + dy))
        self.elements.append(
            f'<text x="{self._fmt(x)}" y="{self._fmt(y)}" '
            f'font-size="{self._fmt(0.12 * self.scale)}" fill="{fill}">{text}</text>'
        )

    def to_xml(self) -> str:
        body = "\n  ".join(self.elements)
        return (
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{self.width_px}" height="{self.height_px}" '
            f'viewBox="0 0 {self.width_px} {self.height_px}">\n'
            f"  {body}\n</svg>\n"
        )

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_xml())
