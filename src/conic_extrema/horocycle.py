"""Horocycles in the Cayley-Klein disk model.

Hyperbolic points are the interior points of the absolute circle
N: x^2 + y^2 = 1.  A horocycle is a regular conic with all but one point
interior to N; as a Euclidean ellipse it has semi-axes (a, a^2) and
hyperosculates N at its ideal point.  Its size is the semi-major axis
a in (0, 1); congruence classes under Euclidean symmetries of N are
parametrized by (theta, a) where theta locates the ideal point
(cos theta, sin theta) on N.

With the ideal point at (0, 1) the horocycle of size a has matrix

    E(a) = [[1 - 2 a^2, 0,     a^2 - 1],
            [0,         a^2,   0      ],
            [a^2 - 1,   0,     1      ]],

normalized so interior points give negative form values; general theta
follows by rotation conjugation.

Two horocycles of equal size a with ideal angles pi/2 +- omega intersect
(when their interiors overlap) in two points L = (0, l), U = (0, u) on
the symmetry axis:

    l, u = ((1 - a^2) cos w -+ a sqrt(rad)) / (a^2 sin^2 w + cos^2 w),
    rad  = 2 a^2 - a^2 cos^2 w - sin^2 w.

The horocycle tangent to N at (0, 1) through L covers the common
interior; for a < 2^{-1/2} it is strictly smaller than a, which is the
engine of the minimal-enclosing-horocycle uniqueness argument.  At
a = 2^{-1/2} all horocycles through the disk center have equal size, and
above the bound the covering horocycle comes out strictly larger, so the
bound is sharp.

The matrix E(a) is the definition, and ``Horocycle.matrix`` rotates it
to any theta; no containment test evaluates it.
For the ideal direction u = (cos theta, sin theta), the form at a point
p inside N is negative exactly when a^2 exceeds the point's minimal
size squared, the paper's a^2 / (1 - a^2) = (s / w)^2 solved for a^2:

    a(p)^2 = s^2 / (s^2 + w^2),   s = 1 - p.u,   w^2 = 1 - |p|^2.

Only s depends on the angle, and s >= 1 - |p| = w^2 / (1 + |p|) >= w^2 / 2,
so the kernel ``_squared_sizes`` keeps s at or above w^2 / 2: rounding
near the ideal point cannot take it to zero, and the denominator is at
least w^2 > 0.  Through :func:`min_sizes_for_points` that one kernel
decides ``Horocycle.contains`` and, through ``minhorocycle``, every
profile value; the lens sampler and the cover check run it on the terms
of the samples they drew.  A valid point is an (x, y) pair with
w^2 > 0: finite and strictly inside N.  ``_disk_points`` alone checks
that rule, for the callers above and ``minhorocycle.as_point_set``; the
samplers keep w^2 > 0 candidates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoCommonInterior, PreconditionViolation, check_count
from .projective import ConicMatrix, rotation_h

INV_SQRT2 = 2.0 ** (-0.5)
MAX_SAMPLES = 1_000_000  # samples per cover check or lens sample, checked before any draw


def _check_size(a: float) -> None:
    if not 0.0 < a < 1.0:
        raise ValueError("horocycle size must lie strictly between 0 and 1")


def _base_matrix(a: float) -> np.ndarray:
    a2 = a * a
    return np.array(
        [
            [1.0 - 2.0 * a2, 0.0, a2 - 1.0],
            [0.0, a2, 0.0],
            [a2 - 1.0, 0.0, 1.0],
        ]
    )


@dataclass(frozen=True)
class Horocycle:
    """Horocycle given by ideal-point angle and Euclidean semi-major axis."""

    theta: float
    a: float

    def __post_init__(self):
        if not np.isfinite(self.theta):
            raise ValueError("horocycle angle must be finite")
        _check_size(self.a)

    @property
    def ideal_point(self) -> np.ndarray:
        return np.array([np.cos(self.theta), np.sin(self.theta)])

    @property
    def center(self) -> np.ndarray:
        """Euclidean center of the horocycle viewed as an ellipse."""
        return (1.0 - self.a**2) * self.ideal_point

    def matrix(self) -> ConicMatrix:
        """Interior-normalized matrix: E(a) rotated to put the ideal point at theta."""
        r = rotation_h(self.theta - 0.5 * np.pi)
        return ConicMatrix(r @ _base_matrix(self.a) @ r.T)

    def contains(self, p) -> bool:
        """Strict interior test: the point's minimal size is below a.

        False for an invalid point (see the module text); a point on the
        horocycle itself is decided by the rounding of its size."""
        try:
            x, y = (float(c) for c in p)
            return min_size_for_point(self.theta, (x, y)) < self.a
        except (TypeError, ValueError):
            return False


def _point_terms(pts: np.ndarray):
    """The kernel's per-point terms (x, y, w^2) of (n, 2) points."""
    x, y = pts[:, 0], pts[:, 1]
    return x, y, 1.0 - (x * x + y * y)


def _disk_points(points):
    """``points`` as an (n, 2) array, n >= 0, and its ``_point_terms``;
    ValueError for another shape or an invalid point.  |x|, |y| < 1 comes
    first, so NaN, infinite and huge coordinates fail before squaring."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    ok = pts.ndim == 2 and pts.shape[1] == 2 and np.all(np.abs(pts) < 1.0)
    terms = _point_terms(pts) if ok else None
    if terms is None or not np.all(terms[2] > 0.0):
        raise ValueError("points must be finite (x, y) pairs strictly inside the unit disk")
    return pts, terms


def _squared_sizes(thetas: np.ndarray, terms) -> np.ndarray:
    """Squared minimal sizes, (m,) angles x ``_point_terms`` of n points -> (m, n).

    s^2 / (s^2 + w^2), s = 1 - (x cos theta + y sin theta) kept at or
    above its lower bound w^2 / 2: in (0, 1] for points inside the disk.
    """
    x, y, w2 = terms
    col = thetas[:, None]
    s = x * np.cos(col)
    tmp = y * np.sin(col)
    s += tmp
    np.subtract(1.0, s, out=s)
    np.maximum(s, 0.5 * w2, out=s)
    s *= s
    s /= np.add(s, w2, out=tmp)
    return s


def min_size_for_point(theta: float, p) -> float:
    """Infimum size a such that the horocycle (theta, a) covers the point.

    The square root of ``_squared_sizes``.  Containment is monotone in
    a: the horocycle (theta, a) contains p exactly when a exceeds this
    value.  Raises ValueError unless p is a valid point (see the module
    text): no horocycle covers any other.
    """
    return float(min_sizes_for_points(theta, p)[0, 0])


def min_sizes_for_points(thetas, pts) -> np.ndarray:
    """Vectorized :func:`min_size_for_point`: (m,) angles x (n, 2) points -> (m, n)."""
    thetas = np.atleast_1d(np.asarray(thetas, float))
    sizes = _squared_sizes(thetas, _disk_points(pts)[1])
    return np.sqrt(sizes, out=sizes)


def intersection_radicand(a: float, omega: float) -> float:
    c, s = np.cos(omega), np.sin(omega)
    return 2.0 * a * a - a * a * c * c - s * s


def intersection_points(a: float, omega: float):
    """Intersection points L = (0, l), U = (0, u) of the symmetric pair.

    The pair consists of the two horocycles of size ``a`` with ideal
    angles pi/2 +- omega.  Raises ValueError unless 0 < a < 1, and
    NoCommonInterior when the radicand 2 a^2 - a^2 cos^2 w - sin^2 w is
    not positive (interiors disjoint or merely tangent).
    """
    _check_size(a)
    rad = intersection_radicand(a, omega)
    if rad <= 0.0:
        raise NoCommonInterior("horocycle pair has no common interior points")
    c, s = np.cos(omega), np.sin(omega)
    den = a * a * s * s + c * c
    root = a * np.sqrt(rad)
    ell = ((1.0 - a * a) * c - root) / den
    u = ((1.0 - a * a) * c + root) / den
    return np.array([0.0, ell]), np.array([0.0, u])


def common_cover_unchecked(a: float, omega: float) -> Horocycle:
    """Horocycle tangent to N at (0, 1) through the lower intersection point.

    Always covers the common interior of the symmetric pair; its size is
    smaller than ``a`` exactly when a < 2^{-1/2} (equal at the bound,
    larger above it).  The bound is not enforced here.
    """
    ell = intersection_points(a, omega)[0][1]
    return Horocycle(theta=0.5 * np.pi, a=float(np.sqrt((1.0 - ell) / 2.0)))


def common_cover(a: float, omega: float) -> Horocycle:
    """Strictly smaller horocycle covering the common interior of the pair.

    Requires a < 2^{-1/2}; under that bound the result both covers
    int H0 intersect int H1 and satisfies size < a.
    """
    if not 0.0 < a < INV_SQRT2:
        raise PreconditionViolation(
            "size reduction is guaranteed only for a < 2^(-1/2)"
        )
    return common_cover_unchecked(a, omega)


# -- algebraic identities behind the size reduction ---------------------------


def _q_poly(a: float, t: float) -> float:
    return (t**4 + 6.0 * t**2 + 1.0) * a * a - 4.0 * t * t


@dataclass(frozen=True)
class SizeIdentityReport:
    """Checked identities for the size-reduction inequality at one (a, t)."""

    rhs_positive: bool  # R = 2 - 3 a^2 - a^2 t^4 - 2 (2 a^2 - 1)^2 t^2 > 0
    rhs_at_t1: float
    rhs_at_t1_identity_error: float  # relative, vs 4 a^2 (1 - 2 a^2)
    rhs_monotone_decreasing: bool
    lhs_squared_minus_rhs_squared: float | None
    factorization_rel_error: float | None
    size_inequality_holds: bool | None  # L < R, i.e. the cover is smaller

    @property
    def passed(self) -> bool:
        ok = (
            self.rhs_positive
            and self.rhs_at_t1_identity_error <= 1e-12
            and self.rhs_monotone_decreasing
        )
        if self.factorization_rel_error is not None:
            ok = ok and self.factorization_rel_error <= 1e-10
            ok = ok and self.lhs_squared_minus_rhs_squared < 0.0
        return ok


def _rhs(a: float, t) -> np.ndarray:
    return 2.0 - 3.0 * a * a - a * a * np.asarray(t) ** 4 - 2.0 * (2.0 * a * a - 1.0) ** 2 * np.asarray(t) ** 2


def check_size_reduction_identities(a: float, t: float) -> SizeIdentityReport:
    """Verify the algebra that makes the covering horocycle smaller.

    Under the substitution omega = 2 arctan(t), the inequality
    "cover smaller than a" is equivalent to L < R with
    L = a (t^2 + 1) sqrt(q) and R as above, and

        L^2 - R^2 = 4 (1 - a^2) (2 a^2 t^2 + 1)
                    (4 a^2 t^2 + (t^2 - 1)^2) (2 a^2 - 1) < 0

    for 0 < t < 1 and a < 2^{-1/2}.  At t = 1 only the endpoint identity
    R|_{t=1} = 4 a^2 (1 - 2 a^2) is meaningful (q is negative there), so
    the square-root comparison fields are None.
    """
    if not 0.0 < a < INV_SQRT2:
        raise PreconditionViolation("requires 0 < a < 2^(-1/2)")
    if not 0.0 < t <= 1.0:
        raise PreconditionViolation("requires 0 < t <= 1")
    q = _q_poly(a, t)
    at_one = float(_rhs(a, 1.0))
    identity = 4.0 * a * a * (1.0 - 2.0 * a * a)
    at_one_err = abs(at_one - identity) / abs(identity)
    rhs = float(_rhs(a, t))
    tgrid = np.linspace(1e-3, 1.0, 41)
    monotone = bool(np.all(np.diff(_rhs(a, tgrid)) < 0.0))
    diff = rel = holds = None
    if t < 1.0:
        if q <= 0.0:
            raise PreconditionViolation("q <= 0: the pair has no common interior")
        lhs = a * (t * t + 1.0) * np.sqrt(q)
        diff = float(lhs * lhs - rhs * rhs)
        factored = float(
            4.0
            * (1.0 - a * a)
            * (2.0 * a * a * t * t + 1.0)
            * (4.0 * a * a * t * t + (t * t - 1.0) ** 2)
            * (2.0 * a * a - 1.0)
        )
        rel = float(abs(diff - factored) / max(abs(factored), 1e-300))
        holds = bool(lhs < rhs)
    return SizeIdentityReport(
        rhs_positive=rhs > 0.0,
        rhs_at_t1=at_one,
        rhs_at_t1_identity_error=at_one_err,
        rhs_monotone_decreasing=monotone,
        lhs_squared_minus_rhs_squared=diff,
        factorization_rel_error=rel,
        size_inequality_holds=holds,
    )


# -- sampled containment implication ------------------------------------------


def _k_poly(x, y, a: float, t: float):
    """Certificate polynomial: k > 0 forces membership in the cover.

    Squaring the cover-membership inequality against sqrt(q) reduces it
    to -4 (4 a^2 t^2 + (t^2 - 1)^2) k < 0.
    """
    t2 = t * t
    r2 = x * x + y * y - 1.0
    return (
        r2 * ((x * x + 2.0 * y - 2.0) * a * a - x * x - y * y + 1.0) * t2 * t2
        - 4.0 * r2 * (y - 1.0) ** 2 * (a * a - 0.5) * t2
        - (y - 1.0) ** 2
        * (y * y + (2.0 * a * a - 2.0) * y + 1.0 + (x * x - 2.0) * a * a)
    )


@dataclass(frozen=True)
class CoverContainmentReport:
    """Sampled check that the common interior lies inside the cover."""

    a: float
    t: float
    samples: int
    common_interior_points: int
    k_violations: int
    containment_violations: int
    min_k: float | None
    cover_size: float | None
    size_reduced: bool | None  # cover strictly smaller than a

    @property
    def passed(self) -> bool:
        return self.k_violations == 0 and self.containment_violations == 0


def _lens_box(a: float, angles: np.ndarray):
    """Bounds (lo, hi) of the lens of the horocycles of size ``a`` at the two
    ideal ``angles``: the intersection of their ellipse bounding boxes,
    clipped to the unit square.  Empty when some lo >= hi."""
    lo = np.full(2, -1.0)
    hi = np.full(2, 1.0)
    for ang in angles:
        radial = np.array([np.cos(ang), np.sin(ang)])
        center = (1.0 - a * a) * radial
        ext = np.sqrt((a * radial[::-1]) ** 2 + (a * a * radial) ** 2)
        lo = np.maximum(lo, center - ext)
        hi = np.minimum(hi, center + ext)
    return lo, hi


def check_cover_containment(
    a: float, t: float, samples: int = 100_000, seed: int = 0
) -> CoverContainmentReport:
    """Sampled replacement for the quantifier-elimination step.

    Draws points uniformly in the unit disk; for each point strictly
    inside both horocycles of the pair (its minimal sizes at their ideal
    angles pi/2 +- 2 arctan(t) below ``a``), asserts the certificate
    k > 0 (which implies membership in the covering horocycle) and checks
    membership directly: a point is outside the cover when its minimal
    size at the cover's ideal angle pi/2 is at least the cover size.
    Only the samples inside the lens box, padded by 1e-9, reach the
    kernel; every other sample is outside the lens.
    For a < 2^{-1/2} the violation counts must be zero; above the bound
    the cover is strictly larger than a, which is reported through
    ``size_reduced``.  Raises ValueError for a non-finite ``a`` or ``t``,
    unless 0 < a < 1, and unless ``samples`` is a count in [1, MAX_SAMPLES].
    """
    if not (np.isfinite(a) and np.isfinite(t)):
        raise ValueError("a and t must be finite")
    _check_size(a)
    samples = check_count("samples", samples, MAX_SAMPLES)
    rng = np.random.default_rng(seed)
    pts = np.empty((0, 2))
    while len(pts) < samples:
        batch = rng.uniform(-1.0, 1.0, (2 * (samples - len(pts)) + 16, 2))
        pts = np.vstack([pts, batch.compress(_point_terms(batch)[2] > 0.0, axis=0)])
    pts = pts[:samples]
    omega = 2.0 * np.arctan(t)
    pair = np.array([0.5 * np.pi + omega, 0.5 * np.pi - omega])
    lo, hi = _lens_box(a, pair)
    (x0, y0), (x1, y1) = (lo - 1e-9).tolist(), (hi + 1e-9).tolist()
    x, y = pts[:, 0], pts[:, 1]
    boxed = pts.compress((x >= x0) & (x <= x1) & (y >= y0) & (y <= y1), axis=0)
    sizes = np.sqrt(_squared_sizes(pair, _point_terms(boxed)))
    lens = boxed.compress((sizes < a).all(axis=0), axis=0)
    cover = common_cover_unchecked(a, omega) if intersection_radicand(a, omega) > 0.0 else None
    k_viol = cont_viol = 0
    min_k = None
    if len(lens):
        k = _k_poly(lens[:, 0], lens[:, 1], a, t)
        k_viol = int((k <= 0.0).sum())
        min_k = float(k.min())
        if cover is not None:
            cover_sizes = np.sqrt(_squared_sizes(np.array([cover.theta]), _point_terms(lens)))
            cont_viol = int(np.count_nonzero(cover_sizes >= cover.a))
    return CoverContainmentReport(
        a=a,
        t=t,
        samples=samples,
        common_interior_points=len(lens),
        k_violations=k_viol,
        containment_violations=cont_viol,
        min_k=min_k,
        cover_size=None if cover is None else cover.a,
        size_reduced=None if cover is None else bool(cover.a < a),
    )


def sample_common_interior(a: float, omega: float, n: int, seed: int = 0) -> np.ndarray:
    """Points of int H0 intersect int H1, by rejection in the lens box.

    The bounding box is the intersection of the two ellipse bounding
    boxes clipped to the unit square; sampling is reproducible via the
    explicit seed.  A candidate in the open disk is kept when its
    minimal sizes at both ideal angles pi/2 +- omega are below ``a``.
    Raises ValueError unless 0 < a < 1, omega is finite and n is a count
    in [0, MAX_SAMPLES].
    """
    _check_size(a)
    if not np.isfinite(omega):
        raise ValueError("omega must be finite")
    n = check_count("n", n, MAX_SAMPLES, least=0)
    angles = np.array([0.5 * np.pi + omega, 0.5 * np.pi - omega])
    lo, hi = _lens_box(a, angles)
    if np.any(hi <= lo):
        raise NoCommonInterior("lens bounding box is empty")
    rng = np.random.default_rng(seed)
    out = np.empty((0, 2))
    attempts = 0
    while len(out) < n and attempts < 400:
        attempts += 1
        cand = rng.uniform(lo, hi, (max(4 * (n - len(out)), 256), 2))
        cand = cand.compress(_point_terms(cand)[2] > 0.0, axis=0)
        inside = (np.sqrt(_squared_sizes(angles, _point_terms(cand))) < a).all(axis=0)
        out = np.vstack([out, cand.compress(inside, axis=0)])
    if len(out) < n:
        raise NoCommonInterior("could not sample the common interior")
    return out[:n]
