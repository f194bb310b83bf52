"""Shared generators for randomized geometry tests."""

import numpy as np
import pytest

from conic_extrema import (
    ConicMatrix,
    ConvexRegion,
    HalfPlane,
    Triangle,
    UnboundedParameter,
    exparabolas,
    halfplane_violation,
    triangle_region,
)
from conic_extrema.maxparabola import _unit_scale


def equal_up_to_scale(a, b, tol: float = 1e-9) -> bool:
    """Matrices (or ConicMatrix) equal up to a nonzero scale: both
    normalized to unit norm and compared up to sign."""
    a = np.asarray(getattr(a, "m", a), float)
    b = np.asarray(getattr(b, "m", b), float)
    a = a / np.linalg.norm(a)
    b = b / np.linalg.norm(b)
    return min(np.linalg.norm(a - b), np.linalg.norm(a + b)) <= tol


def random_triangle(rng, span: float = 3.0, min_ratio: float = 0.02) -> Triangle:
    """Random non-degenerate triangle with area/diameter^2 >= min_ratio."""
    while True:
        pts = rng.uniform(-span, span, (3, 2))
        d = max(np.linalg.norm(pts[i] - pts[j]) for i in range(3) for j in range(i))
        e1 = pts[1] - pts[0]
        e2 = pts[2] - pts[0]
        area2 = abs(e1[0] * e2[1] - e1[1] * e2[0])
        if area2 >= 2.0 * min_ratio * d * d and d >= 0.5:
            return Triangle(*pts)


def random_regular_conic(rng, margin: float = 1e-3) -> ConicMatrix:
    """Random symmetric conic with a conditioning margin on the determinant."""
    while True:
        m = rng.normal(0.0, 1.0, (3, 3))
        m = 0.5 * (m + m.T)
        if abs(np.linalg.det(m)) >= margin * np.linalg.norm(m) ** 3:
            return ConicMatrix(m)


def random_frame_params(rng):
    """(a1, b1, c2) of a random canonical frame, a1 < b1, c2 > 0."""
    a1 = rng.uniform(-4.0, 2.0)
    b1 = a1 + rng.uniform(0.2, 6.0)
    c2 = rng.uniform(0.2, 5.0)
    return a1, b1, c2


def random_pinned_region(rng, extra_max: int = 3, extra_min: int = 1):
    """Region with a finite pinned optimum: triangle region plus extras.

    Extra half-planes either keep the base exparabola feasible (offset
    pushed outward) or cut shallowly into it; either way a maximal
    pinned parabola survives.  An extra is rejected when it would leave
    fewer than two distinct region vertices (a wedge, whose parameter is
    unbounded).  Returns (region, base_parameter).
    """
    t = random_triangle(rng, min_ratio=0.06)
    opposite = rng.choice(["A", "B", "C"])
    region = triangle_region(t, opposite)
    base = next(r for r in exparabolas(t) if r.opposite_vertex == opposite)
    apex = base.parabola.apex
    angle = base.parabola.axis_angle
    p = base.parabola.parameter
    axis = np.array([np.cos(angle), np.sin(angle)])
    hps = list(region.halfplanes)
    n_extra = rng.integers(extra_min, extra_max + 1)
    tries = 0
    while n_extra > 0 and tries < 200:
        tries += 1
        ang = rng.uniform(0.0, 2.0 * np.pi)
        n = np.array([np.cos(ang), np.sin(ang)])
        if float(n @ axis) > -0.05:
            continue
        sup = halfplane_violation(apex, axis, p, n, 0.0)  # sup of n.x over base
        # either clearly contain the base exparabola or cut decisively
        if rng.uniform() < 0.5:
            u = rng.uniform(0.2, 1.0) * p
        else:
            u = -rng.uniform(0.15, 0.35) * p
        hp = HalfPlane(n, sup + u)
        cand = ConvexRegion(hps + [hp])
        # keep the region's direction arc alive
        angs = np.sort(np.arctan2(cand.normals[:, 1], cand.normals[:, 0]))
        gaps = np.diff(np.concatenate([angs, [angs[0] + 2 * np.pi]]))
        if gaps.max() <= np.pi + 1e-6:
            continue
        try:
            _unit_scale(cand.normals, cand.offsets)
        except UnboundedParameter:
            continue
        hps.append(hp)
        n_extra -= 1
    return ConvexRegion(hps), p


@pytest.fixture
def rng():
    return np.random.default_rng(20250809)
