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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateTriangle, NumericalRootFailure, SingularPencilMember
from .parabola import Parabola
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
        A = np.asarray(A, float).reshape(2).copy()
        B = np.asarray(B, float).reshape(2).copy()
        C = np.asarray(C, float).reshape(2).copy()
        for v in (A, B, C):
            if not np.isfinite(v).all():
                raise ValueError("triangle vertices must be finite")
            v.flags.writeable = False
        ex1, ey1 = B[0] - A[0], B[1] - A[1]
        ex2, ey2 = C[0] - A[0], C[1] - A[1]
        ex3, ey3 = C[0] - B[0], C[1] - B[1]
        diameter = max(
            math.hypot(ex1, ey1), math.hypot(ex2, ey2), math.hypot(ex3, ey3)
        )
        twice_area = abs(ex1 * ey2 - ey1 * ex2)
        # divide twice, never square the diameter: no overflow at any scale
        if diameter == 0.0 or twice_area / diameter / diameter < 1e-9:
            raise DegenerateTriangle("triangle vertices are nearly collinear")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "diameter", diameter)
        object.__setattr__(self, "area", 0.5 * twice_area)

    def vertex(self, name: str) -> np.ndarray:
        return {"A": self.A, "B": self.B, "C": self.C}[name]


SIDES = ("AB", "BC", "CA")
# vertex opposite each side
OPPOSITE = {"AB": "C", "BC": "A", "CA": "B"}
_SIDE_VERTICES = {"AB": ("A", "B"), "BC": ("B", "C"), "CA": ("C", "A")}


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


def canonical_frame(t: Triangle, side: str) -> CanonicalFrame:
    """Canonical frame for one side of the triangle.

    The frame is invariant under rigid motions of the input triangle: a
    rotated or translated copy yields identical (a1, b1, c2).
    """
    if t.area / t.diameter / t.diameter < MIN_AREA_RATIO:
        raise DegenerateTriangle("triangle too flat for stable computation")
    if side not in SIDES:
        raise ValueError(f"side must be one of {SIDES}")
    pa, pb = (t.vertex(v) for v in _SIDE_VERTICES[side])
    pc = t.vertex(OPPOSITE[side])
    ux, uy = pb[0] - pa[0], pb[1] - pa[1]
    un = math.hypot(ux, uy)
    ux, uy = ux / un, uy / un
    proj = (pc[0] - pa[0]) * ux + (pc[1] - pa[1]) * uy
    fx, fy = pa[0] + proj * ux, pa[1] + proj * uy
    wx, wy = pc[0] - fx, pc[1] - fy
    c2 = math.hypot(wx, wy)
    wx, wy = wx / c2, wy / c2
    a1 = (pa[0] - fx) * ux + (pa[1] - fy) * uy
    b1 = (pb[0] - fx) * ux + (pb[1] - fy) * uy
    # world -> frame: x_f = [u w]^T (x - foot)
    h = np.array(
        [
            [1.0, 0.0, 0.0],
            [-(ux * fx + uy * fy), ux, uy],
            [-(wx * fx + wy * fy), wx, wy],
        ]
    )
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


def _primal_matrix(frame: CanonicalFrame, lam: float) -> np.ndarray:
    a1, b1, c2 = frame.a1, frame.b1, frame.c2
    q = lam**2 - (a1 + b1) * lam + 2.0 * a1 * b1
    m = lam - a1 - b1
    return np.array(
        [
            [-c2 * lam**2, c2 * lam, q],
            [c2 * lam, -c2, m],
            [q, m, -(m**2) / c2],
        ]
    )


def pencil_parabola(frame: CanonicalFrame, lam: float) -> Parabola:
    """Primal parabola of the pencil, in frame coordinates.

    Tangent to the three frame side lines, touching the x-axis side at
    (lam, 0).  The members lam = a1 and lam = b1 are singular (double
    lines) and are rejected.
    """
    a1, b1 = frame.a1, frame.b1
    s = frame.scale
    if abs((lam - a1) * (lam - b1)) <= 1e-12 * s * s:
        raise SingularPencilMember("pencil member degenerates at lam in {a1, b1}")
    return Parabola.from_conic(ConicMatrix(_primal_matrix(frame, lam)))


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
    a1, b1, c2 = frame.a1, frame.b1, frame.c2
    try:
        return np.array(
            [
                1.0,
                -(a1 + b1),
                -(a1**2) + a1 * b1 - b1**2 - 2.0 * c2**2,
                a1 * (a1**2 + c2**2) + b1 * (b1**2 + c2**2),
            ]
        )
    except OverflowError as exc:  # a Python-float power
        raise NumericalRootFailure("tangency cubic coefficients overflow") from exc


def solve_cubic(coeffs) -> np.ndarray:
    """All three real roots of a monic cubic with positive discriminant.

    Uses the trigonometric form (stable for three real roots) followed by
    one Newton polish step.  Raises NumericalRootFailure if the cubic does
    not have three real roots within tolerance.
    """
    _, b, c, d = (float(x) for x in coeffs)
    p = c - b * b / 3.0
    q = d - b * c / 3.0 + 2.0 * b**3 / 27.0
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
    return np.sort(np.array(roots))


@dataclass(frozen=True)
class ExparabolaResult:
    """One exparabola: the side it touches internally and its data."""

    opposite_vertex: str  # "A", "B" or "C"
    side: str  # the side whose negative half-plane contains the parabola
    lam: float  # tangency abscissa in the side's canonical frame
    parabola: Parabola  # in world coordinates
    tangency: np.ndarray  # tangency point with the side line, world coords
    frame: CanonicalFrame


def exparabolas(t: Triangle) -> list[ExparabolaResult]:
    """The three exparabolas of a triangle, one per side.

    Each result is the parabola of maximal parameter among all parabolas
    tangent to the three side lines and contained in the negative
    half-plane of its side (and the positive half-planes of the other
    two).  The tangency abscissa is the unique cubic root in (a1, b1) of
    that side's canonical frame.
    """
    out = []
    for side in SIDES:
        frame = canonical_frame(t, side)
        roots = solve_cubic(tangency_cubic(frame))
        inside = roots[(roots > frame.a1) & (roots < frame.b1)]
        if inside.size != 1:
            raise NumericalRootFailure(
                f"expected exactly one root in (a1, b1), found {inside.size}"
            )
        lam = float(inside[0])
        h = frame.world_to_frame
        pf = _primal_matrix(frame, lam)
        conic_world = ConicMatrix(h.T @ pf @ h)
        tangency = frame.to_world([lam, 0.0])
        # seed the recentering cache: the tangency point anchors the
        # world conic, and the congruence through the frame rotation is
        # both cheaper and better conditioned than re-deriving it
        g = h.copy()
        g[1, 0] = lam
        g[2, 0] = 0.0
        object.__setattr__(conic_world, "_recenter_cache", (g.T @ pf @ g, tangency))
        # constructing the Parabola validates the closed-form parameter
        # against the size functional of the world conic
        para_world = Parabola(
            conic=conic_world, parameter=float(np.sqrt(squared_parameter(frame, lam)))
        )
        out.append(
            ExparabolaResult(
                opposite_vertex=OPPOSITE[side],
                side=side,
                lam=lam,
                parabola=para_world,
                tangency=tangency,
                frame=frame,
            )
        )
    return out
