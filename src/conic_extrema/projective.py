"""Homogeneous-coordinate conic arithmetic.

Conics in the real projective plane are represented by 3x3 real symmetric
matrices defined up to a nonzero scale factor.  Homogeneous point
coordinates are ordered [x0, x1, x2] with the affine chart x = x1/x0,
y = x2/x0, so that x0 = 0 is the line at infinity.

All comparisons between projective objects are scale invariant: matrices
and coordinate vectors are normalized to unit Frobenius/Euclidean norm and
compared up to a common sign.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import SingularConic, WitnessOnConic, ZeroBlend

# |det| / ||m||_F^3 below this means "singular" (scale invariant).
SINGULAR_DET_TOL = 1e-10
# Maximum relative asymmetry accepted at construction time.
SYMMETRY_TOL = 1e-12


def _as_vec3(coords) -> np.ndarray:
    v = np.asarray(coords, dtype=float).reshape(3)
    if not np.isfinite(v).all():
        raise ValueError("homogeneous coordinates must be finite")
    if not np.any(v != 0.0):
        raise ValueError("homogeneous coordinates must not all be zero")
    v = v.copy()
    v.flags.writeable = False
    return v


@dataclass(frozen=True)
class HomPoint:
    """Point of P^2(R), coordinates defined up to nonzero scale."""

    coords: np.ndarray

    def __init__(self, coords):
        object.__setattr__(self, "coords", _as_vec3(coords))


@dataclass(frozen=True)
class HomLine:
    """Line of P^2(R), coordinates defined up to nonzero scale.

    A point p lies on the line u iff u . p = 0.
    """

    coords: np.ndarray

    def __init__(self, coords):
        object.__setattr__(self, "coords", _as_vec3(coords))


LINE_AT_INFINITY = HomLine([1.0, 0.0, 0.0])


@dataclass(frozen=True)
class ConicMatrix:
    """A conic, stored as an unnormalized 3x3 real symmetric matrix.

    The matrix is symmetrized on construction after checking that the
    asymmetry is within ``SYMMETRY_TOL`` relative to the largest entry.
    Entries must be finite.
    """

    m: np.ndarray = field(repr=False)

    def __init__(self, m):
        m = np.asarray(m, dtype=float).reshape(3, 3)
        if not np.isfinite(m).all():
            raise ValueError("conic matrix entries must be finite")
        size = np.abs(m).max()  # not a norm: no overflow near the float limit
        if size == 0.0:
            raise ValueError("the zero matrix does not represent a conic")
        if np.abs(m - m.T).max() > SYMMETRY_TOL * size:
            raise ValueError("conic matrix must be symmetric")
        m = 0.5 * (m + m.T)
        m.flags.writeable = False
        object.__setattr__(self, "m", m)

    def form(self, p: HomPoint | np.ndarray) -> float:
        """Value of the quadratic form p^T m p."""
        v = p.coords if isinstance(p, HomPoint) else np.asarray(p, float)
        return float(v @ self.m @ v)

    def recentered(self):
        """Cached (matrix, anchor) pair from :func:`recenter`; safe to
        cache because instances are immutable."""
        cache = getattr(self, "_recenter_cache", None)
        if cache is None:
            cache = recenter(self.m)
            object.__setattr__(self, "_recenter_cache", cache)
        return cache

    def is_regular(self) -> bool:
        mc, _ = self.recentered()
        norm = np.linalg.norm(mc)
        return abs(np.linalg.det(mc)) / norm**3 >= SINGULAR_DET_TOL


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


def _require_regular(c: ConicMatrix) -> None:
    if not c.is_regular():
        raise SingularConic("conic matrix is singular within tolerance")


def polar(c: ConicMatrix, p: HomPoint) -> HomLine:
    """Polar line of the point ``p`` with respect to a regular conic."""
    _require_regular(c)
    return HomLine(c.m @ p.coords)


def pole(c: ConicMatrix, u: HomLine) -> HomPoint:
    """Pole of the line ``u``: the inverse image of polarity.

    Computed via the adjugate, which is proportional to the inverse, so no
    explicit matrix inversion is performed.
    """
    _require_regular(c)
    return HomPoint(adjugate(c.m) @ u.coords)


def dualize(c: ConicMatrix) -> ConicMatrix:
    """Dual conic (the conic of tangent lines), proportional to c^-1."""
    _require_regular(c)
    return ConicMatrix(adjugate(c.m))


def normalize_interior(c: ConicMatrix, witness: HomPoint) -> ConicMatrix:
    """Orient the matrix sign so the quadratic form is negative at ``witness``.

    After normalization the conic interior is exactly the negative set of
    the form, so :func:`is_interior` applies.
    """
    v = c.form(witness)
    scale = np.linalg.norm(c.m) * float(witness.coords @ witness.coords)
    if abs(v) <= 1e-10 * scale:
        raise WitnessOnConic("witness point lies on the conic")
    return c if v < 0.0 else ConicMatrix(-c.m)


def is_interior(c: ConicMatrix, p: HomPoint) -> bool:
    """Strict interior test; ``c`` must be interior-normalized."""
    return c.form(p) < 0.0


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


def proj_equal(a, b, tol: float = 1e-9) -> bool:
    """Scale-invariant equality of matrices or coordinate vectors.

    Both arguments are normalized to unit norm and compared up to sign.
    """
    a = a.m if isinstance(a, ConicMatrix) else getattr(a, "coords", a)
    b = b.m if isinstance(b, ConicMatrix) else getattr(b, "coords", b)
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    a = a / np.linalg.norm(a)
    b = b / np.linalg.norm(b)
    return min(np.linalg.norm(a - b), np.linalg.norm(a + b)) <= tol


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


def recenter(m: np.ndarray):
    """Translate a conic matrix to a well-conditioned anchor point.

    Homogeneous entries grow quadratically with the distance of the
    geometry from the origin, which wrecks scale-relative determinant
    and tangency tests even though the conic itself is perfectly
    regular.  Translating to the conic's own center (or, for parabolas,
    to a point on the curve along the axis) restores entries of the
    order of the local geometry.  Returns (recentered matrix, anchor);
    every projective predicate is invariant under the translation.
    """
    a = m[1:, 1:]
    b = m[1:, 0]
    scale = np.abs(a).max()
    if scale == 0.0:
        return m, np.zeros(2)
    deta = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
    if abs(deta) > 1e-10 * scale * scale:
        anchor = -np.linalg.solve(a, b)  # central conic: its center
    else:
        # near-parabolic: null direction of the affine block
        u = np.array([-a[0, 1], a[0, 0]])
        if np.linalg.norm(u) < 1e-13 * scale:
            u = np.array([-a[1, 1], a[0, 1]])
        u = u / np.linalg.norm(u)
        v = np.array([u[1], -u[0]])
        sigma = float(v @ a @ v)
        anchor = -(float(v @ b) / sigma) * v if sigma != 0.0 else np.zeros(2)
        m1 = translation_h(anchor).T @ m @ translation_h(anchor)
        denom = 2.0 * float(m1[1:, 0] @ u)
        if abs(denom) > 1e-13 * max(np.abs(m1).max(), 1.0):
            anchor = anchor - (m1[0, 0] / denom) * u  # point on the curve
    if not np.all(np.isfinite(anchor)):
        return m, np.zeros(2)
    t = translation_h(anchor)
    return t.T @ m @ t, anchor
