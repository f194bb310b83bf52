"""Exact curve drawing: closed-form viewport clip and quadratic Bezier arcs."""

import math
import re
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conic_extrema import ConicMatrix, Parabola
from conic_extrema.svgfig import SvgFigure

SVG_NS = "{http://www.w3.org/2000/svg}"

coord = st.floats(-6.0, 6.0)
extent = st.floats(0.5, 8.0)
angle = st.one_of(
    st.sampled_from([0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi]),
    st.floats(0.0, 2.0 * math.pi),
)


@st.composite
def figures(draw):
    xmin, ymin = draw(coord), draw(coord)
    return SvgFigure(viewport=(xmin, xmin + draw(extent), ymin, ymin + draw(extent)))


@st.composite
def curves(draw):
    """(c0, c1, c2, lo, hi) of a parabola, a line or a segment."""
    kind = draw(st.sampled_from(["parabola", "line", "segment"]))
    if kind == "parabola":
        phi, p = draw(angle), draw(st.floats(0.01, 10.0))
        uy = np.array([math.cos(phi), math.sin(phi)])
        apex = np.array([draw(coord), draw(coord)])
        return apex, np.array([uy[1], -uy[0]]), uy / (2.0 * p), -math.inf, math.inf
    zero = np.zeros(2)
    if kind == "line":
        phi, d = draw(angle), draw(st.floats(-10.0, 10.0))
        n = np.array([math.cos(phi), math.sin(phi)])
        return n * d, np.array([-n[1], n[0]]), zero, -math.inf, math.inf
    p1 = np.array([draw(coord), draw(coord)])
    p2 = np.array([draw(coord), draw(coord)])
    return p1, p2 - p1, zero, 0.0, 1.0


def _at(c0, c1, c2, s):
    return c0 + s * c1 + s * s * c2


def _inside(fig, pt, margin):
    return (fig.xmin - margin <= pt[0] <= fig.xmax + margin
            and fig.ymin - margin <= pt[1] <= fig.ymax + margin)


def _border_distance(fig, pt):
    return min(abs(pt[0] - fig.xmin), abs(pt[0] - fig.xmax),
               abs(pt[1] - fig.ymin), abs(pt[1] - fig.ymax))


@settings(max_examples=300, deadline=None)
@given(fig=figures(), curve=curves())
def test_exact_clip_and_beziers(fig, curve):
    c0, c1, c2, lo, hi = curve
    size = max(fig.xmax - fig.xmin, fig.ymax - fig.ymin)
    tol = 1e-9 * size
    intervals = fig._visible(c0, c1, c2, lo, hi)

    # sorted, disjoint, bounded; every end is a segment end or on the border
    for (a, b), (a2, _) in zip(intervals, intervals[1:]):
        assert b < a2
    for a, b in intervals:
        assert lo <= a < b <= hi
        for s in (a, b):
            pt = _at(c0, c1, c2, s)
            assert _inside(fig, pt, tol)
            if s not in (lo, hi):
                assert _border_distance(fig, pt) <= tol

    # each Bezier's B(1/2) lies on the parabola x'^2 = 2 p y' of the curve
    arcs = fig._arcs(c0, c1, c2, lo, hi)
    assert len(arcs) == len(intervals)
    for arc, (a, b) in zip(arcs, intervals):
        assert np.array_equal(arc[0], _at(c0, c1, c2, a))
        assert np.array_equal(arc[-1], _at(c0, c1, c2, b))
        if c2.any():
            p0, p1, p2 = arc
            d = 0.25 * (p0 + 2.0 * p1 + p2) - c0
            twice_p = 1.0 / float(np.linalg.norm(c2))
            x, y = d @ c1, twice_p * (d @ c2)  # apex frame: x^2 = 2 p y
            big = max(float(np.abs(q).max()) for q in (c0, p0, p1, p2))  # rounding scale
            assert abs(x * x - twice_p * y) <= 1e-9 * (big * big + twice_p * big)
        else:
            assert len(arc) == 2

    # a dense sample: inside points are covered, covered points are inside
    if math.isinf(lo):
        reach = float(np.linalg.norm(c0)) + 2.0 * math.hypot(
            fig.xmax - fig.xmin, fig.ymax - fig.ymin) + 20.0
        ss = np.linspace(-reach, reach, 20001)
    else:
        ss = np.linspace(lo, hi, 2001)
    pts = c0 + ss[:, None] * c1 + (ss * ss)[:, None] * c2
    covered = np.zeros(ss.shape, bool)
    for a, b in intervals:
        covered |= (a <= ss) & (ss <= b)
    strictly_inside = ((fig.xmin + tol < pts[:, 0]) & (pts[:, 0] < fig.xmax - tol)
                       & (fig.ymin + tol < pts[:, 1]) & (pts[:, 1] < fig.ymax - tol))
    assert covered[strictly_inside].all()
    near = ((fig.xmin - tol <= pts[:, 0]) & (pts[:, 0] <= fig.xmax + tol)
            & (fig.ymin - tol <= pts[:, 1]) & (pts[:, 1] <= fig.ymax + tol))
    assert near[covered].all()


def _paths(fig):
    root = ET.fromstring(fig.to_xml())
    return [p.get("d") for p in root.iter(f"{SVG_NS}path")]


def _numbers(d):
    return [float(v) for v in re.findall(r"-?\d+\.\d+", d)]


def test_parabola_is_one_quadratic_bezier():
    # x^2 = 2y (p = 1) meets y = 2 at x = -2, 2; tangents cross at (0, -2)
    fig = SvgFigure(viewport=(-3.0, 3.0, -1.0, 2.0))
    fig.add_parabola(
        Parabola.from_conic(ConicMatrix([[0.0, 0.0, -1.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0]]))
    )
    (d,) = _paths(fig)
    assert d.startswith("M ") and d.count("M") == 1 and d.count("Q") == 1
    k = 640.0 / 6.0
    expect = [1.0 * k, 0.0, 3.0 * k, 4.0 * k, 5.0 * k, 0.0]
    assert _numbers(d) == pytest.approx(expect, abs=2e-3)


def test_line_and_segment_are_clipped_in_closed_form():
    fig = SvgFigure(viewport=(0.0, 4.0, 0.0, 2.0), width_px=400)
    fig.add_line((1.0, 1.0), 1.0)  # x + y = 1: (0, 1) to (1, 0)
    fig.add_segment((-1.0, 1.0), (5.0, 1.0))  # clipped to (0, 1) .. (4, 1)
    fig.add_segment((1.0, 0.5), (2.0, 1.5))  # wholly inside
    line, seg, inner = _paths(fig)
    ends = sorted(zip(_numbers(line)[::2], _numbers(line)[1::2]))
    assert ends == pytest.approx([(0.0, 100.0), (100.0, 200.0)], abs=1e-9)
    assert _numbers(seg) == pytest.approx([0.0, 100.0, 400.0, 100.0], abs=1e-9)
    assert _numbers(inner) == pytest.approx([100.0, 150.0, 200.0, 50.0], abs=1e-9)
    assert all(" L " in d and d.count("M") == 1 for d in (line, seg, inner))


def test_curves_missing_the_viewport_draw_nothing():
    fig = SvgFigure(viewport=(0.0, 1.0, 0.0, 1.0))
    fig.add_line((0.0, 1.0), 5.0)
    fig.add_segment((2.0, 2.0), (3.0, 5.0))
    # x^2 = 2 (y - 3): apex above the box, opening upward
    fig.add_parabola(
        Parabola.from_conic(ConicMatrix([[6.0, 0.0, -1.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0]]))
    )
    assert _paths(fig) == []


def test_parabola_crossing_the_box_four_times_is_one_path_of_subpaths():
    # y = x^2 / 2 - 1 enters and leaves the band |y| <= 0.5 on both branches
    fig = SvgFigure(viewport=(-3.0, 3.0, -0.5, 0.5))
    fig.add_parabola(
        Parabola.from_conic(ConicMatrix([[-2.0, 0.0, -1.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0]]))
    )
    (d,) = _paths(fig)
    assert d.count("M") == 2 and d.count("Q") == 2
