"""Homogeneous-coordinate conic arithmetic.

Conics in the real projective plane are represented by 3x3 real symmetric
matrices defined up to a nonzero scale factor.  Homogeneous point
coordinates are ordered [x0, x1, x2] with the affine chart x = x1/x0,
y = x2/x0, so that x0 = 0 is the line at infinity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import SingularConic, WitnessOnConic, ZeroBlend

# |det| at most this fraction of its rounding bound means "singular".
SINGULAR_DET_TOL = 1e-10
# Maximum relative asymmetry accepted at construction time.
SYMMETRY_TOL = 1e-12
# Degree in length of each matrix entry: constant, linear, quadratic.
_DEGREE = np.array([[0, 1, 1], [1, 2, 2], [1, 2, 2]])


@dataclass(frozen=True)
class HomPoint:
    """Point of P^2(R), coordinates defined up to nonzero scale."""

    coords: np.ndarray

    def __init__(self, coords):
        v = np.array(coords, dtype=float).reshape(3)
        if not np.isfinite(v).all():
            raise ValueError("homogeneous coordinates must be finite")
        if not np.any(v != 0.0):
            raise ValueError("homogeneous coordinates must not all be zero")
        v.flags.writeable = False
        object.__setattr__(self, "coords", v)


@dataclass(frozen=True)
class ConicMatrix:
    """A conic, stored as an unnormalized 3x3 real symmetric matrix.

    The matrix is symmetrized on construction after checking that the
    asymmetry is within ``SYMMETRY_TOL`` relative to the largest entry.
    Entries must be finite.  The checks and the symmetrization run on
    the nine entries as Python floats, each entry 0.5 (m_ij + m_ji).
    """

    m: np.ndarray = field(repr=False)

    def __init__(self, m):
        (a, b, c), (d, e, f), (g, h, i) = np.asarray(m, dtype=float).reshape(3, 3).tolist()
        if not all(map(math.isfinite, (a, b, c, d, e, f, g, h, i))):
            raise ValueError("conic matrix entries must be finite")
        size = max(map(abs, (a, b, c, d, e, f, g, h, i)))  # not a norm: no overflow
        if size == 0.0:
            raise ValueError("the zero matrix does not represent a conic")
        if max(abs(b - d), abs(c - g), abs(f - h)) > SYMMETRY_TOL * size:
            raise ValueError("conic matrix must be symmetric")
        b, c, f = 0.5 * (b + d), 0.5 * (c + g), 0.5 * (f + h)
        m = np.array([[0.5 * (a + a), b, c], [b, 0.5 * (e + e), f], [c, f, 0.5 * (i + i)]])
        m.flags.writeable = False
        object.__setattr__(self, "m", m)

    def form(self, p: HomPoint | np.ndarray) -> float:
        """Value of the quadratic form p^T m p."""
        v = p.coords if isinstance(p, HomPoint) else np.asarray(p, float)
        return float(v @ self.m @ v)

    def is_regular(self) -> bool:
        """|det m| > ``SINGULAR_DET_TOL`` times det m's own rounding bound.

        The bound is the sum of the absolute terms of the cofactor
        expansion, sum_i |m0i| (|m1j m2k| + |m1k m2j|).  Rescaling m by l
        multiplies both sides by l^3, and rescaling the plane by s
        (m -> diag(1, s, s) m diag(1, s, s)) multiplies them by s^4, so
        the test depends on neither the projective scale nor the length
        unit.  Both sides are evaluated on m rescaled exactly by powers of
        two, which changes neither: the plane by 2^k, the conic's own
        length taken from the ratios of its linear and constant entries to
        its quadratic ones, then the matrix by its largest entry.  That
        keeps the products clear of underflow and overflow at any scale.
        """
        mag = np.abs(self.m)
        # (binary exponent, degree in length) of the largest entry of each
        # nonzero part: constant, linear, quadratic
        parts = [
            (math.frexp(x)[1], w)
            for x, w in ((mag[0, 0], 0), (mag[0, 1:].max(), 1), (mag[1:, 1:].max(), 2))
            if x
        ]
        if len(parts) < 2 or parts[-1][1] != 2:
            return False  # det m is exactly zero
        # 2^k ~ (entry / quadratic entry)^(1 / (2 - degree)), a length
        k = max((e - parts[-1][0]) // (2 - w) for e, w in parts[:-1])
        top = max(e + w * k for e, w in parts)
        (a, b, c), (_, d, f), (_, _, i) = np.ldexp(self.m, _DEGREE * k - top).tolist()
        det = a * (d * i - f * f) - b * (b * i - f * c) + c * (b * f - d * c)
        bound = (
            abs(a) * (abs(d * i) + f * f)
            + abs(b) * (abs(b * i) + abs(f * c))
            + abs(c) * (abs(b * f) + abs(d * c))
        )
        return abs(det) > SINGULAR_DET_TOL * bound


def adjugate(m: np.ndarray) -> np.ndarray:
    """Adjugate of a 3x3 matrix, computed as the cofactor transpose.

    Polynomial in the entries (no division), so it is valid up to scale
    even close to singularity and exactly satisfies m @ adj(m) = det(m) I.
    """
    m = np.asarray(m, dtype=float)
    a, b, c = m[0]
    d, e, f = m[1]
    g, h, i = m[2]
    return np.array(
        [
            [e * i - f * h, c * h - b * i, b * f - c * e],
            [f * g - d * i, a * i - c * g, c * d - a * f],
            [d * h - e * g, b * g - a * h, a * e - b * d],
        ]
    )


def dualize(c: ConicMatrix) -> ConicMatrix:
    """Dual conic (the conic of tangent lines), proportional to c^-1."""
    if not c.is_regular():
        raise SingularConic("conic matrix is singular within tolerance")
    return ConicMatrix(adjugate(c.m))


def normalize_interior(c: ConicMatrix, witness: HomPoint) -> ConicMatrix:
    """Orient the matrix sign so the quadratic form is negative at ``witness``.

    After normalization the conic interior is exactly the negative set of
    the form.
    """
    v = c.form(witness)
    scale = np.linalg.norm(c.m) * float(witness.coords @ witness.coords)
    if abs(v) <= 1e-10 * scale:
        raise WitnessOnConic("witness point lies on the conic")
    return c if v < 0.0 else ConicMatrix(-c.m)


def pencil_blend(c0: ConicMatrix, c1: ConicMatrix, t: float) -> ConicMatrix:
    """Convex combination (1-t) c0 + t c1 of two conic matrices.

    With both inputs normalized against a common interior witness, every
    common interior point stays interior for all t in [0, 1].  The same
    construction applies verbatim to dual conics, where common "missing"
    lines stay missing.
    """
    m = (1.0 - t) * c0.m + t * c1.m
    ref = max(np.linalg.norm(c0.m), np.linalg.norm(c1.m))
    if np.linalg.norm(m) <= 1e-14 * ref:
        raise ZeroBlend("pencil combination is the zero matrix")
    return ConicMatrix(m)


# -- Euclidean motions in homogeneous coordinates --------------------------


def rotation_h(angle: float) -> np.ndarray:
    """Homogeneous matrix of a rotation by ``angle`` about the origin."""
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def translation_h(vec) -> np.ndarray:
    """Homogeneous matrix of a translation by ``vec``."""
    t = np.asarray(vec, dtype=float).reshape(2)
    return np.array([[1.0, 0.0, 0.0], [t[0], 1.0, 0.0], [t[1], 0.0, 1.0]])


def pullback(c: ConicMatrix, h: np.ndarray) -> ConicMatrix:
    """Conic with form x -> form_c(h @ x).

    If ``h`` maps world coordinates to local coordinates and ``c`` is the
    conic in local coordinates, the result is the same conic expressed in
    world coordinates.
    """
    return ConicMatrix(h.T @ c.m @ h)
