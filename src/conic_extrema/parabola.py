"""Parabolas in apex form, matrix recognition and the size functional.

A ``Parabola`` is its apex form (apex, opening direction, parameter);
its matrix is only ever derived from it.  ``apex_form`` is the one
recognizer: it reads the apex form off a matrix in closed form, after a
regularity test that depends on neither the projective scale nor the
length unit, and raises NotAParabola for any other conic.  Only tests
and the ``pencil_parabola`` oracle call it; no solver does, because a
flat parabola far from the origin has a matrix whose determinant is
lost in rounding.

A regular conic is a parabola iff it is tangent to the line at infinity,
which in matrix coefficients reads p11 p22 - p12^2 = 0.  The size of a
parabola is measured by its parameter: the distance between focus and
directrix, the single invariant of parabolas under Euclidean congruence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NonFiniteResult, NonpositiveParameter, NotAParabola
from .projective import ConicMatrix, pullback, rotation_h, translation_h

PARABOLA_TOL = 1e-9


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
        apex = np.array(apex, dtype=float)
        if apex.shape != (2,):
            apex = apex.reshape(2)
        axis_angle, parameter = float(axis_angle), float(parameter)
        x, y = apex.tolist()
        isfinite = math.isfinite
        if not (isfinite(x) and isfinite(y) and isfinite(axis_angle) and isfinite(parameter)):
            raise ValueError("parabola apex, axis angle and parameter must be finite")
        if not parameter > 0.0:
            raise NonpositiveParameter("parabola parameter must be positive")
        apex.setflags(write=False)
        object.__setattr__(self, "apex", apex)
        object.__setattr__(self, "axis_angle", axis_angle % (2.0 * np.pi))
        object.__setattr__(self, "parameter", parameter)

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
    """(apex, axis_angle, parameter) of a parabola matrix; NotAParabola
    unless ``c`` is regular and tangent to the line at infinity.

    With the matrix oriented so that t = tr A > 0 (A the affine block, b
    the linear part), the conic is tangent to the line at infinity when
    |det(A / t)| <= ``PARABOLA_TOL``.  Then A = t v v^T with v the
    normalized larger row w of A, the axis is d = (-v_y, v_x), and in the
    coordinates x = s v + r d the conic reads t (s - s0)^2 = -2 beta (r - r0)
    with alpha = b.v, beta = b.d, s0 = -alpha / t and
    r0 = -(m00 + alpha s0) / (2 beta): apex s0 v + r0 d, parameter
    |beta| / t, opening along -sign(beta) d.  A translation leaves t and
    beta unchanged and moves the apex with it, so nothing is recentered.

    The apex is rational in the entries (s0 v and r0 d need only |w|^2),
    so it is evaluated exactly, on the entries as integers over one
    power-of-two denominator, and rounded once: m00 + alpha s0 is the
    difference of two terms of order |apex|^2 / p, and float evaluation
    would add its own rounding to the matrix's on flat, distant parabolas.
    """
    if not c.is_regular():
        raise NotAParabola("conic is not a regular parabola")
    (m00, b0, b1), (_, a11, a12), (_, _, a22) = c.m.tolist()
    t = a11 + a22
    if t < 0.0:
        m00, b0, b1, a11, a12, a22, t = -m00, -b0, -b1, -a11, -a12, -a22, -t
    # divide before multiplying: products of small entries would underflow
    if not t > 0.0 or abs((a11 / t) * (a22 / t) - (a12 / t) ** 2) > PARABOLA_TOL:
        raise NotAParabola("conic is not a regular parabola")
    wx, wy = (a11, a12) if abs(a11) >= abs(a22) else (a12, a22)
    ratios = [x.as_integer_ratio() for x in (m00, b0, b1, wx, wy, t)]
    den = max(d for _, d in ratios)  # every d is a power of two
    m00, b0, b1, ix, iy, it = (num * (den // d) for num, d in ratios)
    # up to powers of den: bw = |w| alpha, bd = |w| beta, q = (m00 + alpha s0) |w|^2 t
    bw, bd = b0 * ix + b1 * iy, b1 * ix - b0 * iy
    if bd == 0:
        raise NotAParabola("conic is not a regular parabola")
    wwt = (ix * ix + iy * iy) * it
    q = m00 * wwt - bw * bw
    # apex = (s0 / |w|) w + (r0 / |w|) (-w_y, w_x), over one denominator
    div = 2 * bd * wwt
    apex = np.array([(q * iy - 2 * bd * bw * ix) / div, (-q * ix - 2 * bd * bw * iy) / div])
    n = math.hypot(wx, wy)
    sign = 1.0 if bd < 0 else -1.0  # the axis angle is that of -sign(beta) d
    angle = math.atan2(sign * wx / n, -sign * wy / n) % (2.0 * np.pi)
    return apex, angle, abs(bd) / (it * den) / n
