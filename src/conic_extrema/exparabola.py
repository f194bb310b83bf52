"""Exparabolas of a triangle.

Each of the three side lines of a triangle carries a one-parameter dual
pencil of parabolas tangent to all three side lines.  In the canonical
frame that puts the chosen side on the x-axis (A = (a1, 0), B = (b1, 0))
and the opposite vertex on the positive y-axis (C = (0, c2)), the pencil
member tangent to the side at (lam, 0) has dual matrix

    D(lam) = [[0,            lam - a1 - b1,  c2      ],
              [lam - a1 - b1, -2 a1 b1,      c2 lam  ],
              [c2,            c2 lam,        0       ]]

and its squared parameter is the rational function

    p^2(lam) = 4 c2^4 (b1 - lam)^2 (a1 - lam)^2
               / ((lam - a1 - b1)^2 + c2^2)^3.

Critical points of p^2 are the roots of a monic cubic with exactly one
root in (a1, b1); that root is the exparabola lying in the negative
half-plane of the chosen side and the positive half-planes of the other
two sides.  The exparabola is the largest parabola tangent to all three
side lines within that region.

The solve path (``tangency_root``, then ``pencil_member`` in apex form)
builds and recognizes no matrix, so results scale linearly with the
triangle over the whole float range.  ``exparabolas`` runs it as one pass
over Python floats per side, through the private helpers that
``canonical_frame``, ``solve_cubic``, ``tangency_root`` and
``pencil_member`` wrap: from the vertex coordinates ``Triangle`` keeps
through the frame lengths and rigid motion, the cubic and its sorted
roots to the world apex, axis and tangency point (x = R^T (x_f - t)).  It
builds no ``CanonicalFrame``, 3x3 matrix or root array; its only arrays
are the apex and the tangency point, and a result's frame is built when
first read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateTriangle, NumericalRootFailure, SingularPencilMember
from .parabola import Parabola, apex_form
from .projective import ConicMatrix

# Triangles with area/diameter^2 below this are rejected outright.
MIN_AREA_RATIO = 1e-6


@dataclass(frozen=True)
class Triangle:
    """Three non-collinear points in the Euclidean plane."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    diameter: float
    area: float

    def __init__(self, A, B, C):
        xy = np.array((A, B, C), dtype=float).reshape(3, 2)
        xy.flags.writeable = False
        # the six coordinates as Python floats, read by _frame_floats
        (ax, ay), (bx, by), (cx, cy) = coords = xy.tolist()
        if not all(map(math.isfinite, (ax, ay, bx, by, cx, cy))):
            raise ValueError("triangle vertices must be finite")
        ex1, ey1 = bx - ax, by - ay
        ex2, ey2 = cx - ax, cy - ay
        ex3, ey3 = cx - bx, cy - by
        diameter = max(math.hypot(ex1, ey1), math.hypot(ex2, ey2), math.hypot(ex3, ey3))
        # twice area / diameter^2 from the edges over the diameter: no
        # underflow or overflow at any scale
        d = diameter or 1.0
        flatness = abs(ex1 / d * (ey2 / d) - ey1 / d * (ex2 / d))
        if flatness < 1e-9:
            raise DegenerateTriangle("triangle vertices are nearly collinear")
        object.__setattr__(self, "A", xy[0])
        object.__setattr__(self, "B", xy[1])
        object.__setattr__(self, "C", xy[2])
        object.__setattr__(self, "diameter", diameter)
        # an area beyond the float range is a quiet inf
        object.__setattr__(self, "area", 0.5 * flatness * diameter * diameter)
        object.__setattr__(self, "_xy", coords)


# (endpoint, endpoint, opposite vertex) of each side, as indices into (A, B, C) and Triangle._xy
_SIDE_INDEX = {"AB": (0, 1, 2), "BC": (1, 2, 0), "CA": (2, 0, 1)}
SIDES = tuple(_SIDE_INDEX)
# vertex opposite each side
OPPOSITE = {side: "ABC"[k] for side, (_, _, k) in _SIDE_INDEX.items()}


@dataclass(frozen=True)
class CanonicalFrame:
    """Distance-preserving frame with one triangle side on the x-axis.

    ``world_to_frame`` is the homogeneous matrix of the rigid motion
    (possibly including a reflection) that maps the two side endpoints to
    (a1, 0), (b1, 0) with a1 < b1 and the opposite vertex to (0, c2) with
    c2 > 0; the origin is the foot of the altitude from the opposite
    vertex.
    """

    a1: float
    b1: float
    c2: float
    world_to_frame: np.ndarray

    @property
    def frame_to_world(self) -> np.ndarray:
        # inverse of [[1,0],[t,R]] is [[1,0],[-R^T t, R^T]]
        h = self.world_to_frame
        rot = h[1:, 1:]
        t = h[1:, 0]
        inv = np.eye(3)
        inv[1:, 1:] = rot.T
        inv[1:, 0] = -rot.T @ t
        return inv

    def to_frame(self, pt) -> np.ndarray:
        v = self.world_to_frame @ np.array([1.0, *np.asarray(pt, float)])
        return v[1:]

    def to_world(self, pt) -> np.ndarray:
        v = self.frame_to_world @ np.array([1.0, *np.asarray(pt, float)])
        return v[1:]

    @property
    def scale(self) -> float:
        return max(abs(self.a1), abs(self.b1), self.c2)


def _frame_floats(xy, diameter: float, side: str):
    """(a1, b1, c2, motion) of :func:`canonical_frame` from the vertex
    floats ``xy``, with motion = (tx, r00, r01, ty, r10, r11) the lower two
    rows of its ``world_to_frame`` matrix."""
    i, j, k = _SIDE_INDEX[side]
    (pax, pay), (pbx, pby), (pcx, pcy) = xy[i], xy[j], xy[k]
    ux, uy = pbx - pax, pby - pay
    un = math.hypot(ux, uy)
    ux, uy = ux / un, uy / un
    proj = (pcx - pax) * ux + (pcy - pay) * uy
    fx, fy = pax + proj * ux, pay + proj * uy
    wx, wy = pcx - fx, pcy - fy
    c2 = math.hypot(wx, wy)
    wx, wy = wx / c2, wy / c2
    a1 = (pax - fx) * ux + (pay - fy) * uy
    b1 = (pbx - fx) * ux + (pby - fy) * uy
    # area / diameter^2 from the frame lengths, free of under- and overflow
    if 0.5 * (c2 / diameter) * ((b1 - a1) / diameter) < MIN_AREA_RATIO:
        raise DegenerateTriangle("triangle too flat for stable computation")
    # world -> frame: x_f = [u w]^T (x - foot)
    return a1, b1, c2, (-(ux * fx + uy * fy), ux, uy, -(wx * fx + wy * fy), wx, wy)


def canonical_frame(t: Triangle, side: str) -> CanonicalFrame:
    """Canonical frame for one side of the triangle.

    The frame is invariant under rigid motions of the input triangle: a
    rotated or translated copy yields identical (a1, b1, c2).
    """
    if side not in SIDES:
        raise ValueError(f"side must be one of {SIDES}")
    a1, b1, c2, (tx, r00, r01, ty, r10, r11) = _frame_floats(t._xy, t.diameter, side)
    h = np.array([[1.0, 0.0, 0.0], [tx, r00, r01], [ty, r10, r11]])
    return CanonicalFrame(a1=a1, b1=b1, c2=c2, world_to_frame=h)


def dual_pencil(frame: CanonicalFrame, lam: float) -> ConicMatrix:
    """Dual conic of the pencil member tangent to the side at (lam, 0).

    The three side lines of the frame triangle and the line at infinity
    all satisfy u^T D(lam) u = 0.
    """
    a1, b1, c2 = frame.a1, frame.b1, frame.c2
    m = lam - a1 - b1
    return ConicMatrix(
        [[0.0, m, c2], [m, -2.0 * a1 * b1, c2 * lam], [c2, c2 * lam, 0.0]]
    )


def pencil_parabola(frame: CanonicalFrame, lam: float) -> Parabola:
    """Primal parabola of the pencil, in frame coordinates: the apex form
    that :func:`apex_form` reads off the primal matrix adj D(lam) / c2.

    Tangent to the three frame side lines, touching the x-axis side at
    (lam, 0).  The members lam = a1 and lam = b1 are singular (double
    lines) and are rejected; a member close to them can have a matrix
    that rounding leaves singular, and raises NotAParabola.  No solver
    calls it; it is the matrix-side oracle for :func:`pencil_member`.
    """
    a1, b1, c2 = frame.a1, frame.b1, frame.c2
    s = frame.scale
    if abs((lam - a1) * (lam - b1)) <= 1e-12 * s * s:
        raise SingularPencilMember("pencil member degenerates at lam in {a1, b1}")
    q = lam**2 - (a1 + b1) * lam + 2.0 * a1 * b1
    m = lam - a1 - b1
    primal = [[-c2 * lam**2, c2 * lam, q], [c2 * lam, -c2, m], [q, m, -(m**2) / c2]]
    return Parabola(*apex_form(ConicMatrix(primal)))


def squared_parameter(frame: CanonicalFrame, lam) -> float | np.ndarray:
    """Squared parameter of the pencil parabola, as a rational function.

    Well defined for every real lam; the denominator equals
    ((lam - a1 - b1)^2 + c2^2)^3 > 0.  Vanishes at lam in {a1, b1} and in
    the limit lam -> +-inf (the three singular pencil members).
    """
    a1, b1, c2 = frame.a1, frame.b1, frame.c2
    lam = np.asarray(lam, dtype=float)
    den = ((lam - a1 - b1) ** 2 + c2**2) ** 3
    out = 4.0 * c2**4 * (b1 - lam) ** 2 * (a1 - lam) ** 2 / den
    return float(out) if out.ndim == 0 else out


def tangency_cubic(frame: CanonicalFrame) -> np.ndarray:
    """Monic cubic whose roots are the critical tangency abscissas.

    Returns the coefficients [1, e2, e1, e0] of

        lam^3 - (a1+b1) lam^2 + (-a1^2 + a1 b1 - b1^2 - 2 c2^2) lam
              + a1 (a1^2 + c2^2) + b1 (b1^2 + c2^2),

    which carries the critical points of the squared parameter.  The
    values at the side endpoints satisfy the sign identity

        E(a1) E(b1) = -(b1^2 + c2^2) (a1 - b1)^2 (a1^2 + c2^2) < 0,

    so exactly one root lies in (a1, b1).  Raises NumericalRootFailure
    when a coefficient overflows.
    """
    return np.array(_tangency_coefficients(frame.a1, frame.b1, frame.c2))


def _tangency_coefficients(a1: float, b1: float, c2: float) -> tuple:
    """The coefficients of :func:`tangency_cubic` as a tuple of floats."""
    try:
        return (
            1.0,
            -(a1 + b1),
            -(a1**2) + a1 * b1 - b1**2 - 2.0 * c2**2,
            a1 * (a1**2 + c2**2) + b1 * (b1**2 + c2**2),
        )
    except OverflowError as exc:  # a Python-float power
        raise NumericalRootFailure("tangency cubic coefficients overflow") from exc


def solve_cubic(coeffs) -> np.ndarray:
    """All three real roots of a monic cubic with positive discriminant.

    Uses the trigonometric form (stable for three real roots) followed by
    one Newton polish step.  Raises NumericalRootFailure if the cubic does
    not have three real roots within tolerance.
    """
    _, b, c, d = map(float, coeffs)
    return np.array(_cubic_roots(b, c, d))


def _cubic_roots(b: float, c: float, d: float) -> list:
    """The roots of :func:`solve_cubic` for x^3 + b x^2 + c x + d, as a
    sorted list of floats."""
    p = c - b * b / 3.0
    try:
        q = d - b * c / 3.0 + 2.0 * b**3 / 27.0
    except OverflowError as exc:  # a Python-float power
        raise NumericalRootFailure("cubic coefficients underflow or overflow") from exc
    scale = max(abs(p), abs(q) ** (2.0 / 3.0), 1e-300)
    if p >= -1e-13 * scale:
        raise NumericalRootFailure("cubic does not have three separated real roots")
    m = 2.0 * math.sqrt(-p / 3.0)
    pm = p * m
    if pm == 0.0 or not math.isfinite(pm):
        raise NumericalRootFailure("cubic coefficients underflow or overflow")
    arg = 3.0 * q / pm
    if abs(arg) > 1.0 + 1e-9:
        raise NumericalRootFailure("trigonometric form out of range")
    phi = math.acos(min(1.0, max(-1.0, arg))) / 3.0
    third = 2.0 * math.pi / 3.0
    roots = []
    for k in (0.0, 1.0, 2.0):
        x = m * math.cos(phi - third * k) - b / 3.0
        # one Newton step on the original cubic
        f = ((x + b) * x + c) * x + d
        df = (3.0 * x + 2.0 * b) * x + c
        if abs(df) > 1e-300:
            x -= f / df
        roots.append(x)
    roots.sort()
    return roots


def tangency_root(frame: CanonicalFrame) -> float:
    """The exparabola's tangency abscissa: the cubic root in (a1, b1).

    Solved on the frame divided by 2^k, k the binary exponent of its
    scale: exact, so the root is the unscaled cubic's, but the cubed
    lengths never underflow or overflow.  Raises NumericalRootFailure
    unless exactly one root lies in (a1, b1).
    """
    return _root_in_side(frame.a1, frame.b1, frame.c2)


def _root_in_side(a1: float, b1: float, c2: float) -> float:
    """:func:`tangency_root` of the frame (a1, b1, c2)."""
    k = math.frexp(max(abs(a1), abs(b1), c2))[1]
    a1, b1, c2 = math.ldexp(a1, -k), math.ldexp(b1, -k), math.ldexp(c2, -k)
    _, b, c, d = _tangency_coefficients(a1, b1, c2)
    inside = [r for r in _cubic_roots(b, c, d) if a1 < r < b1]
    if len(inside) != 1:
        raise NumericalRootFailure(f"expected one root in (a1, b1), found {len(inside)}")
    return math.ldexp(inside[0], k)


def pencil_member(frame: CanonicalFrame, lam: float) -> Parabola:
    """The pencil parabola touching the side at (lam, 0), in world coordinates.

    With m = lam - a1 - b1 and r = hypot(m, c2) it opens along
    u = -(m, c2)/r and p = 2 c2 (c2/r) ((lam - a1)/r) ((b1 - lam)/r), the
    root of p^2(lam) in ratios that cannot overflow.  The curve
    apex + X v + X^2/(2p) u, v = (u_y, -u_x), runs parallel to the side at
    X = p m / c2, through (lam, 0).  Raises SingularPencilMember unless
    a1 < lam < b1.
    """
    motion = frame.world_to_frame[1:].ravel().tolist()  # (tx, r00, r01, ty, r10, r11)
    return Parabola(*_member_floats(frame.a1, frame.b1, frame.c2, lam, motion))


def _member_floats(a1: float, b1: float, c2: float, lam: float, motion) -> tuple:
    """(apex, axis_angle, p) of :func:`pencil_member`, ``motion`` as
    :func:`_frame_floats` returns it."""
    m = lam - a1 - b1
    r = math.hypot(m, c2)
    p = 2.0 * c2 * (c2 / r) * ((lam - a1) / r) * ((b1 - lam) / r)
    if not p > 0.0:
        raise SingularPencilMember("pencil members at and beyond a1, b1 are singular")
    ux, uy = -m / r, -c2 / r
    x = p * (m / c2)
    drop = 0.5 * x * (m / c2)  # X^2 / (2p) without squaring X
    # frame -> world: x = R^T (x_f - t) for world_to_frame [[1, 0], [t, R]]
    tx, r00, r01, ty, r10, r11 = motion
    ax, ay = lam - x * uy - drop * ux - tx, x * ux - drop * uy - ty
    apex = (r00 * ax + r10 * ay, r01 * ax + r11 * ay)
    return apex, math.atan2(r01 * ux + r11 * uy, r00 * ux + r10 * uy), p


@dataclass(frozen=True)
class ExparabolaResult:
    """One exparabola: the side it touches internally and its data.

    ``frame``, the side's canonical frame, is built on first read.
    """

    opposite_vertex: str  # "A", "B" or "C"
    side: str  # the side whose negative half-plane contains the parabola
    lam: float  # tangency abscissa in the side's canonical frame
    parabola: Parabola  # in world coordinates
    tangency: np.ndarray  # tangency point with the side line, world coords
    triangle: Triangle  # the triangle it belongs to

    @cached_property
    def frame(self) -> CanonicalFrame:
        return canonical_frame(self.triangle, self.side)


def exparabolas(t: Triangle) -> list[ExparabolaResult]:
    """The three exparabolas of a triangle, one per side.

    Each result is the parabola of maximal parameter among all parabolas
    tangent to the three side lines and contained in the negative
    half-plane of its side (and the positive half-planes of the other
    two).  The tangency abscissa is the unique cubic root in (a1, b1) of
    that side's canonical frame (``tangency_root``), and the parabola is
    that pencil member in closed form (``pencil_member``); both run here
    on the frame's floats, without building the frame.
    """
    out = []
    for side in SIDES:
        a1, b1, c2, motion = _frame_floats(t._xy, t.diameter, side)
        lam = _root_in_side(a1, b1, c2)
        # R^T ((lam, 0) - t), as in _member_floats
        tx, r00, r01, ty, r10, r11 = motion
        tangency = np.array([r00 * (lam - tx) - r10 * ty, r01 * (lam - tx) - r11 * ty])
        para = Parabola(*_member_floats(a1, b1, c2, lam, motion))
        out.append(ExparabolaResult(OPPOSITE[side], side, lam, para, tangency, t))
    return out
