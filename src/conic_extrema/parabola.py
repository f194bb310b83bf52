"""Parabolas in apex form, matrix recognition and the size functional.

A ``Parabola`` is its apex form (apex, opening direction, parameter);
its matrix is derived on demand.  Recognizing a matrix (``is_parabola``,
``apex_form``, ``Parabola.from_conic``) uses a regularity test that
depends on the length unit, so no solver does it.

A regular conic is a parabola iff it is tangent to the line at infinity,
which in matrix coefficients reads p11 p22 - p12^2 = 0.  The size of a
parabola is measured by its parameter: the distance between focus and
directrix, the single invariant of parabolas under Euclidean congruence.
In coefficients, with the matrix oriented so that p11 + p22 > 0,

    parameter = |p01 p12 - p02 p11| / ((p11 + p22) sqrt(p11^2 + p12^2)).

The squared variant avoids the absolute value and the square root and is
used internally for algebraic identities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NonFiniteResult, NonpositiveParameter, NotAParabola
from .projective import ConicMatrix, pullback, rotation_h, translation_h

PARABOLA_TOL = 1e-9


def is_parabola(c: ConicMatrix, tol: float = PARABOLA_TOL) -> bool:
    """True iff ``c`` is regular and tangent to the line at infinity.

    The test runs on the matrix recentered near its own geometry, so it
    stays meaningful for conics far from the coordinate origin, whose
    raw homogeneous entries dwarf the affine block.
    """
    if not c.is_regular():
        return False
    m, _ = c.recentered()
    scale = np.abs(m).max() ** 2
    return abs(m[1, 1] * m[2, 2] - m[1, 2] ** 2) <= tol * scale


def _oriented(m: np.ndarray) -> np.ndarray:
    """Rescale so the trace of the affine part is positive.

    For a genuine parabola p11 + p22 = 0 would force p11 = p12 = 0 and a
    singular matrix, so the sign is always decidable.
    """
    tr = m[1, 1] + m[2, 2]
    if tr == 0.0:
        raise NotAParabola("affine trace vanishes; not a regular parabola")
    return m if tr > 0.0 else -m


def parameter_squared(c: ConicMatrix) -> float:
    """Squared parameter, rational in the matrix entries.

    Evaluated on the recentered matrix; the value is invariant under the
    translation but the floating-point cancellation is not.
    """
    if not is_parabola(c):
        raise NotAParabola("conic is not a regular parabola")
    m = _oriented(c.recentered()[0])
    num = (m[0, 1] * m[1, 2] - m[0, 2] * m[1, 1]) ** 2
    den = (m[1, 1] + m[2, 2]) ** 2 * (m[1, 1] ** 2 + m[1, 2] ** 2)
    return num / den


def parameter(c: ConicMatrix) -> float:
    """Focus-directrix distance of the parabola ``c``.

    Invariant under rescaling of the matrix and under Euclidean isometries;
    scales linearly under uniform scaling of the plane.
    """
    return float(np.sqrt(parameter_squared(c)))


def compare_size(p1: "Parabola", p2: "Parabola") -> int:
    """Order two parabolas by parameter: -1, 0, or +1.

    Parameters within 1e-9 * max(p1, p2) of each other compare equal; a
    smaller parabola fits inside the larger one under a Euclidean motion.
    """
    a, b = p1.parameter, p2.parameter
    if abs(a - b) <= 1e-9 * max(a, b):
        return 0
    return -1 if a < b else 1


@dataclass(frozen=True)
class Parabola:
    """A parabola in apex form.

    It opens toward ``axis_angle`` (radians, in [0, 2 pi)); in its own
    frame, apex at the origin and opening toward +y, it is x^2 = 2 p y
    with p = ``parameter``.
    """

    apex: np.ndarray
    axis_angle: float
    parameter: float

    def __init__(self, apex, axis_angle: float, parameter: float):
        apex = np.asarray(apex, dtype=float).reshape(2).copy()
        axis_angle, parameter = float(axis_angle), float(parameter)
        if not all(map(math.isfinite, (*apex.tolist(), axis_angle, parameter))):
            raise ValueError("parabola apex, axis angle and parameter must be finite")
        if not parameter > 0.0:
            raise NonpositiveParameter("parabola parameter must be positive")
        apex.flags.writeable = False
        object.__setattr__(self, "apex", apex)
        object.__setattr__(self, "axis_angle", axis_angle % (2.0 * np.pi))
        object.__setattr__(self, "parameter", parameter)

    @classmethod
    def from_conic(cls, c: ConicMatrix) -> "Parabola":
        """The parabola of a matrix, reduced by :func:`apex_form`; keeps ``c``."""
        para = cls(*apex_form(c))
        para.__dict__["conic"] = c
        return para

    @cached_property
    def conic(self) -> ConicMatrix:
        """x^2 / p = 2 y pulled back to world coordinates.

        Dividing by p makes the entries |apex|^2 / p, |apex| / p and 1 / p;
        NonFiniteResult when one of them overflows (p below about 1e-307).
        """
        phi = self.axis_angle - np.pi / 2.0
        # world -> canonical: undo the translation, then the rotation
        world_to_canon = rotation_h(-phi) @ translation_h(-self.apex)
        canon = np.array([[0.0, 0.0, -1.0], [0.0, 1.0 / self.parameter, 0.0], [-1.0, 0.0, 0.0]])
        try:
            return pullback(ConicMatrix(canon), world_to_canon)
        except ValueError as exc:  # an entry left the float range
            raise NonFiniteResult("parabola matrix entries are not finite") from exc


def apex_form(c: ConicMatrix):
    """Extract (apex, axis_angle, parameter) from a parabola matrix.

    The axis direction is the ideal point of the conic, i.e. the kernel of
    the affine 2x2 block; the opening sign is fixed by requiring the
    rotated matrix to describe a parabola opening toward +y.
    """
    if not is_parabola(c):
        raise NotAParabola("conic is not a regular parabola")
    m, anchor = c.recentered()
    m = _oriented(m)
    scale = np.abs(m).max()
    d = np.array([-m[1, 2], m[1, 1]])
    if np.linalg.norm(d) < 1e-13 * scale:
        d = np.array([-m[2, 2], m[1, 2]])
    d = d / np.linalg.norm(d)
    angle = float(np.arctan2(d[1], d[0]))
    for _ in range(2):
        phi = angle - np.pi / 2.0
        rot = rotation_h(phi)  # canonical -> world on points
        mc = rot.T @ m @ rot  # matrix in canonical-frame coordinates
        if abs(mc[1, 1]) > 1e-12 * np.abs(mc).max():
            mc = mc / mc[1, 1]
            if mc[0, 2] < 0.0:
                p = -mc[0, 2]
                ax = -mc[0, 1]
                ay = (mc[0, 1] ** 2 - mc[0, 0]) / (2.0 * mc[0, 2])
                cphi, sphi = np.cos(phi), np.sin(phi)
                rot2 = np.array([[cphi, -sphi], [sphi, cphi]])
                apex = anchor + rot2 @ np.array([ax, ay])
                return apex, angle % (2.0 * np.pi), float(p)
        angle += np.pi
    raise NotAParabola("could not reduce the conic to apex form")
