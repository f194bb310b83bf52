"""Minimal enclosing horocycle of a finite point set.

For a fixed ideal angle theta, the smallest horocycle with that ideal
point enclosing the set has the closed-form size (see ``horocycle``)

    a(theta)^2 = max_i s_i^2 / (s_i^2 + w_i^2),   s_i = 1 - p_i.u,

u = (cos theta, sin theta), w_i^2 = 1 - |p_i|^2, so the problem reduces
to minimizing the continuous, piecewise-smooth profile a(theta) over the
circle.  Rearranged, a^2 / (1 - a^2) = max_i t_i(u)^2 with the affine
t_i(u) = c_i - q_i.u, c_i = 1 / w_i, q_i = p_i / w_i.  Every point must
be valid (w_i^2 > 0, see ``horocycle``); ``as_point_set`` checks them.

Two exact paths:

- The disk center strictly outside the hull (no point at the center and
  the points' directions inside an open half-circle): then some v has
  q_i.v > 0 for every i, so the convex F(u) = max_i t_i(u) has no
  minimum inside the disk; its minimum over the disk lies on the circle
  and is unique.  The basis solve finds it as an LP-type problem whose
  optimum at most two constraints fix (``_exact_minimizer``).
- Every other set, and a basis solve that has not converged after
  EXACT_PASSES passes: the level sweep (``_Arcs``).  On the circle
  t_i = c_i - r_i cos(theta - phi_i), r_i = |q_i| and phi_i the angle of
  p_i, so at level t each point fits on one arc of angles, and min F is
  the least level at which all the arcs meet (``_arc_minimum``).  With
  the center in the hull, every direction has a point with p_i.u <= 0,
  so a* >= 2^{-1/2}: at that size the center fits everywhere and another
  point on an arc of half-width below pi/2, so arcs of a set holding the
  center meet in one arc, all of it minimal, or not at all.  (A center
  the hull filter drops lies strictly inside, where a* > 2^{-1/2}.)

So a* < 2^{-1/2} puts the center outside the hull, where the minimizer
is unique: that bound alone is the ``unique`` flag, on every path.

Every horocycle interior is a Euclidean ellipse interior, hence convex,
so the profile over any superset of the convex-hull vertices is the
profile over all points.  The path test, both solves and both optimality
tests of :func:`verify_solution` run on the points an Akl-Toussaint
extreme-point filter keeps (``hull``); the boundary ``support`` and its
enclosure check use every point.  Each profile value is computed per
point, so the kept points' values are the full computation's bit for
bit, and a max over a subset can only be lower: a wrong ``hull`` can
only make either test stricter.

A point with |x| + |y| <= CENTER_RADIUS (``_at_center``) has the
center's profile term exactly, 2^{-1/2} at every angle, so the path
test, the sweep and the certificates all count it as the center.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import VerificationFailure, check_count
from .horocycle import INV_SQRT2, Horocycle, _disk_points, _point_terms, _squared_sizes
from .horocycle import min_sizes_for_points  # noqa: F401  (re-exported)
from .maxparabola import _feasible_direction_arc

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

UNIQUE_SIZE_MARGIN = 1e-9  # below 2^{-1/2} required to certify uniqueness
UNIQUE_VALUE_TOL = 1e-7  # minima within this of the best are "ties"
ACTIVE_TOL = 1e-12  # relative: a point needing a*(1 - ACTIVE_TOL) or more is active
CONE_TOL = 1e-12  # radians: how far u* may miss the cone of the active points
CENTER_RADIUS = 2.0**-54  # |x| + |y| at most this: the kernel's term is the center's

PRUNE_DIRECTIONS = 64  # extreme-point directions of the hull prefilter
PRUNE_MARGIN = 1e-12  # relative depth inside the polygon a dropped point needs

PROFILE_BLOCK = 1 << 15  # angle x point elements per block of the profile kernel
MAX_GRID = 100_000  # profile angles per solve, checked before any work
START_ANGLES = 8  # evenly spaced angles the level sweep descends from

EXACT_PASSES = 32  # most-violated passes of the exact solve before the sweep takes over
EXACT_TOL = 1e-14  # violation, relative to c_i + |q_i|_1, the exact solve leaves alone


def _point_set(points):
    """``as_point_set`` and the kernel terms of its points, from one check."""
    pts, terms = _disk_points(points)
    if not len(pts):
        raise ValueError("point set must be a nonempty list of (x, y) pairs")
    return pts, terms


def as_point_set(points) -> np.ndarray:
    """The nonempty (n, 2) array of valid points (see ``horocycle``)."""
    return _point_set(points)[0]


def _sizes_at(theta: float, terms) -> np.ndarray:
    """``min_sizes_for_points``'s row at one angle, bit for bit, on checked terms."""
    return np.sqrt(_squared_sizes(np.array([theta], dtype=float), terms)[0])


def size_profile(points, theta) -> float | np.ndarray:
    """Smallest enclosing size with the ideal point fixed at angle theta;
    ValueError for a non-finite angle, as for invalid points."""
    pts = as_point_set(points)
    thetas = np.atleast_1d(np.asarray(theta, dtype=float))
    if not np.all(np.isfinite(thetas)):
        raise ValueError("theta must be finite")
    prof = _profile_of(pts)(thetas)
    return float(prof[0]) if np.ndim(theta) == 0 else prof


@dataclass(frozen=True)
class ProfileDiagnostics:
    thetas: np.ndarray
    # [theta*] if exact; the plateau's two ends (or [0.0] when every point
    # is at the center); else theta* and the other gaps' best points
    tied_minimizers: np.ndarray
    points: np.ndarray = field(repr=False)  # the kept points the solve ran on

    @cached_property
    def values(self) -> np.ndarray:
        """The profile at ``thetas``, evaluated on first read."""
        return _profile_of(self.points)(self.thetas)


@dataclass(frozen=True)
class MinHorocycleSolution:
    horocycle: Horocycle
    support: tuple  # indices of points on the boundary (within 1e-8)
    hull: np.ndarray  # sorted indices of the points the solve ran on (read-only)
    unique: bool
    profile: ProfileDiagnostics


def _profile_of(pts: np.ndarray):
    """The profile of ``pts`` as a function of an angle array:
    ``min_sizes_for_points(thetas, pts).max(axis=1)``, bit for bit.  Each
    call takes the max of ``_squared_sizes`` over the points and one sqrt
    after it (monotone, correctly rounded), in blocks of whole angle rows
    of about PROFILE_BLOCK elements, so the temporaries stay in cache."""
    terms = _point_terms(pts)
    rows = -(-PROFILE_BLOCK // len(pts))

    def profile(thetas: np.ndarray) -> np.ndarray:
        out = np.empty(len(thetas))
        for i in range(0, len(thetas), rows):
            block = _squared_sizes(thetas[i : i + rows], terms)
            np.maximum.reduce(block, axis=1, out=out[i : i + rows])
        return np.sqrt(out, out=out)

    return profile


def _golden_minimize(fun, lo: np.ndarray, hi: np.ndarray, tol: float):
    """Golden-section minima of ``fun`` on every bracket [lo[k], hi[k]].

    The brackets are refined in lockstep: ``fun`` maps an array of angles
    to their values, one call per step for the new probes of all brackets
    wider than ``tol``.  Each bracket takes exactly the steps of its own
    scalar search, so its minimum does not depend on the others; it also
    stops when a step no longer narrows it, once ``tol`` is below the
    float spacing there.  Returns the final brackets' midpoints and their
    values, as lists.  No solve calls it.
    """
    g = GOLDEN
    # one [lo, hi, x1, x2, f1, f2] list of Python floats per bracket
    state = [[l, h, h - g * (h - l), l + g * (h - l)] for l, h in zip(lo.tolist(), hi.tolist())]
    f = fun(np.array([b[2] for b in state] + [b[3] for b in state])).tolist()
    for b, f1, f2 in zip(state, f, f[len(state) :]):
        b += (f1, f2)
    active = [b for b in state if b[1] - b[0] > tol]
    while active:
        slots, probes, narrowed = [], [], []
        for b in active:
            l, h, x1, x2, f1, f2 = b
            if f1 <= f2:  # keep [l, x2]; x1 moves to x2, probe a new x1
                p = x2 - g * (x2 - l)
                b[1], b[2], b[3], b[5] = x2, p, x1, f1
                slots.append(4)
            else:  # keep [x1, h]; x2 moves to x1, probe a new x2
                p = x1 + g * (h - x1)
                b[0], b[2], b[3], b[4] = x1, x2, p, f2
                slots.append(5)
            probes.append(p)
            if tol < b[1] - b[0] < h - l:
                narrowed.append(b)
        for b, j, v in zip(active, slots, fun(np.array(probes)).tolist()):
            b[j] = v
        active = narrowed
    xm = [0.5 * (b[0] + b[1]) for b in state]
    return xm, fun(np.array(xm)).tolist()


def _hull_superset(pts: np.ndarray) -> np.ndarray:
    """Sorted indices of a superset of the convex-hull vertices of ``pts``.

    Akl-Toussaint filter: the extreme points in PRUNE_DIRECTIONS evenly
    spaced directions form a convex polygon of hull points, in
    counter-clockwise order.  Only points deep inside every edge, by far
    more than rounding, are dropped; they are no hull vertices.  Two
    stages keep every temporary small: the octagon of every eighth
    direction first drops the deep interior, then the full polygon tests
    the survivors.  The octagon lies inside the polygon, so the result is
    the polygon test's on all points.
    """
    n = len(pts)
    if n <= PRUNE_DIRECTIONS:
        return np.arange(n)
    phi = np.linspace(0.0, 2.0 * np.pi, PRUNE_DIRECTIONS, endpoint=False)
    dirs = np.stack([np.cos(phi), np.sin(phi)], axis=1)
    margin = PRUNE_MARGIN * float(np.abs(pts).max())
    keep = np.nonzero(_not_deep_inside(pts, dirs[:: PRUNE_DIRECTIONS // 8], margin))[0]
    return keep[_not_deep_inside(pts[keep], dirs, margin)]


def _not_deep_inside(pts: np.ndarray, dirs: np.ndarray, margin: float) -> np.ndarray:
    """Mask of the points at most ``margin`` inside the polygon of the
    extreme points of ``pts`` in the unit directions ``dirs`` (counter-
    clockwise); all points when the polygon is degenerate.  Two copies of
    one point can each win a direction (the matrix product rounds a column
    by its place); the polygon merges them by coordinates."""
    poly = pts[(dirs @ pts.T).argmax(axis=1)]
    poly = poly[(poly != np.roll(poly, 1, axis=0)).any(axis=1)]
    if len(poly) < 3:
        return np.ones(len(pts), dtype=bool)
    edge = np.roll(poly, -1, axis=0) - poly
    normals = np.stack([edge[:, 1], -edge[:, 0]], axis=1)  # outward
    # an edge whose squared length underflows keeps a finite normal
    normals /= np.linalg.norm(normals, axis=1, keepdims=True).clip(min=np.finfo(float).tiny)
    depth = normals @ pts.T
    np.subtract((poly * normals).sum(axis=1)[:, None], depth, out=depth)
    return depth.min(axis=0) <= margin


def _at_center(pts: np.ndarray) -> np.ndarray:
    """Mask of the points whose profile term is the center's, 2^{-1/2} at
    every angle: |x| + |y| <= CENTER_RADIUS bounds the kernel's rounded
    p.u by 2^{-54}, so s = 1 - p.u rounds to 1, and w^2 rounds to 1."""
    return np.abs(pts).sum(axis=1) <= CENTER_RADIUS


def _center_outside_hull(pts: np.ndarray) -> bool:
    """Whether the disk center lies strictly outside the hull of ``pts``:
    no point at the center (``_at_center``), and the points' directions
    in an open half-circle, by the test that
    ``maxparabola._feasible_direction_arc`` runs on normals."""
    return not _at_center(pts).any() and _feasible_direction_arc(pts) is not None


def _circle_optimum(c: list, q: list, basis: tuple):
    """Minimum of max_{i in basis} c_i - q_i.u over the unit circle: at a
    term's own optimum q_i / |q_i|, or where two terms cross, on the line
    (q_i - q_j).u = c_i - c_j.  Returns the best candidate u and the one
    or two constraints that define it."""
    cands = []
    for i in basis:
        r = math.hypot(*q[i])
        cands.append(((q[i][0] / r, q[i][1] / r), (i,)))
    for i, j in itertools.combinations(basis, 2):
        dx, dy = q[i][0] - q[j][0], q[i][1] - q[j][1]
        e = c[i] - c[j]
        d2 = dx * dx + dy * dy
        if not d2 > e * e:
            continue
        h = math.sqrt(d2 - e * e)
        for g in (h, -h):
            cands.append((((e * dx - g * dy) / d2, (e * dy + g * dx) / d2), (i, j)))

    def envelope(cand):
        (ux, uy), _ = cand
        return max(c[k] - q[k][0] * ux - q[k][1] * uy for k in basis)

    return min(cands, key=envelope)


def _exact_minimizer(pts: np.ndarray) -> float | None:
    """Angle of the unique minimizer of F(u) = max_i c_i - q_i.u on the
    circle, for points whose hull misses the center (module text).

    The basis starts at the point nearest the center, whose own optimum
    c_i - |q_i| is the largest.  Each pass re-solves the basis and the
    most violated constraint in closed form.  The solve stops when no t_i
    exceeds F by more than EXACT_TOL (c_i + |q_i|_1), or when the violator
    is in the basis (only rounding is left, and re-solving could cycle).
    Returns None after EXACT_PASSES passes without convergence.
    """
    w = np.sqrt(_point_terms(pts)[2])
    c = 1.0 / w
    q = pts * c[:, None]
    tol = EXACT_TOL * (c + np.abs(q).sum(axis=1))
    cl, ql = c.tolist(), q.tolist()
    u, basis = _circle_optimum(cl, ql, (int(np.argmax(w)),))
    for _ in range(EXACT_PASSES):
        t = c - q @ u
        excess = t - tol - t[list(basis)].max()
        k = int(np.argmax(excess))
        if excess[k] <= 0.0 or k in basis:
            return math.atan2(u[1], u[0]) % (2.0 * np.pi)
        u, basis = _circle_optimum(cl, ql, basis + (k,))
    return None


def _level(a: float) -> float:
    """The level t = a / sqrt(1 - a^2) of size a, from (1 - a)(1 + a)."""
    return a / math.sqrt((1.0 - a) * (1.0 + a)) if a < 1.0 else math.inf


class _Arcs:
    """The points' arcs of fitting angles.  At level t the point i off the
    center fits at |theta - phi_i| <= arccos(rho_i), rho_i = (c_i - t) /
    r_i = |p_i| / (1 + w_i) + (1 - t) w_i / |p_i| (without cancellation);
    a center point fits everywhere exactly when t >= 1.  Angles are d_i in
    [-pi, pi) from ``ref`` = phi_0, so one point must be off the center."""

    def __init__(self, pts: np.ndarray):
        at = _at_center(pts)
        self.center = bool(at.any())
        x, y, w2 = _point_terms(pts[~at])
        r, w = np.hypot(x, y), np.sqrt(w2)
        self.phi = np.arctan2(y, x)
        self.ref = float(self.phi[0])
        self.d = (self.phi - self.ref + np.pi) % (2.0 * np.pi) - np.pi
        self.alpha, self.beta, self.c = r / (1.0 + w), w / r, 1.0 / w
        self.qx, self.qy = x * self.c, y * self.c

    def sweep(self, t: float):
        """The gaps at level t, where every point fits: their ends lo < hi
        from ``ref``, the points whose arcs bound them on the left and the
        right, and the least overlap of consecutive arcs where a point does
        not fit (below 0 with a gap, pi when one point fits nowhere).  Those
        arcs, d_i + h_i to d_i - h_i + 2 pi, are sorted by start and swept
        over two laps with a running max of their ends: on the second lap
        every arc starting before an angle has been seen."""
        rho = self.alpha + (1.0 - t) * self.beta
        if (self.center and t < 1.0) or (rho > 1.0).any():
            return (np.empty(0, dtype=int),) * 4 + (math.pi,)
        h = np.arccos(np.maximum(rho, -1.0))
        start = (self.d + h) % (2.0 * np.pi)
        order = np.argsort(start)
        m = len(order)
        s = np.concatenate([start[order], start[order] + 2.0 * np.pi])
        e = s + np.tile(2.0 * np.pi - 2.0 * h[order], 2)
        reach = np.maximum.accumulate(e)
        last = np.maximum.accumulate(np.where(e == reach, np.arange(2 * m), 0))
        overlap = reach[m - 1 : -1] - s[m:]
        k = np.nonzero(overlap < 0.0)[0] + m - 1
        return reach[k], s[k + 1], order[last[k] % m], order[(k + 1) % m], float(overlap.min())

    def candidates(self, lo, hi, i, j):
        """Two angles per gap, and max(t_i, t_j) there, below F, for its
        bounding points i and j.  t_i - t_j changes sign across the gap, so
        first their crossing nearest its midpoint (``_circle_optimum``'s
        formula), or i's own optimum if none, as when i bounds both ends;
        then the midpoint."""
        mid = self.ref + 0.5 * (lo + hi)
        ex, ey = self.qx[i] - self.qx[j], self.qy[i] - self.qy[j]
        e, d2 = self.c[i] - self.c[j], ex * ex + ey * ey
        g = np.sqrt(np.maximum(d2 - e * e, 0.0))
        one, two = (np.arctan2(e * ey + sg * ex, e * ex - sg * ey) for sg in (g, -g))
        near = np.where(np.cos(one - mid) >= np.cos(two - mid), one, two)
        cands = np.concatenate([np.where(d2 > e * e, near, self.phi[i]), mid])
        i, j = np.tile(i, 2), np.tile(j, 2)
        ux, uy = np.cos(cands), np.sin(cands)
        t_i = self.c[i] - self.qx[i] * ux - self.qy[i] * uy
        return cands, np.maximum(t_i, self.c[j] - self.qx[j] * ux - self.qy[j] * uy)


def _least(profile, cands: np.ndarray, bounds: np.ndarray):
    """The least profile value at ``cands`` and its angle, (inf, None) for
    none: evaluated in chunks of START_ANGLES, doubling, in rising order of
    the levels ``bounds`` below F there, until no bound left is below the
    best level (less ACTIVE_TOL of it, for rounding)."""
    order = np.argsort(bounds, kind="stable")
    best, at, k, size = math.inf, None, 0, START_ANGLES
    while k < len(order) and bounds[order[k]] < _level(best) * (1.0 - ACTIVE_TOL):
        chunk = order[k : k + size]
        vals = profile(cands[chunk])
        j = int(np.argmin(vals))
        if vals[j] < best:
            best, at = float(vals[j]), float(cands[chunk[j]])
        k, size = k + size, 2 * size
    return best, at


def _arc_minimum(hull: np.ndarray, profile):
    """(a*, theta*, tied minimizers) by the level sweep (see the solver).
    From the best of START_ANGLES angles, each round sweeps at its level,
    and the best candidate of all gaps sets the next while it is lower."""
    if _at_center(hull).all():
        return float(profile(np.zeros(1))[0]), 0.0, np.array([0.0])
    arcs, tau = _Arcs(hull), 2.0 * np.pi
    if arcs.center:
        lo, hi, i, j, _ = arcs.sweep(1.0)
        if len(lo):  # one meet: every arc's half-width is below pi/2
            lo = float(arcs.d[i[0]] - np.arccos(arcs.alpha[i[0]]))
            hi = float(arcs.d[j[0]] + np.arccos(arcs.alpha[j[0]]))
            th = (arcs.ref + 0.5 * (lo + hi)) % tau
            if float(profile(np.array([th]))[0]) == INV_SQRT2:
                return INV_SQRT2, th, np.array([(arcs.ref + lo) % tau, (arcs.ref + hi) % tau])
    start = np.linspace(0.0, tau, START_ANGLES, endpoint=False)
    a, th = _least(profile, start, np.zeros(START_ANGLES))
    while True:
        best, at = _least(profile, *arcs.candidates(*arcs.sweep(_level(a))[:4]))
        if best <= a:  # a tie ends the descent at the formula point of its last pair
            th = at
        if not best < a:
            break
        a = best
    th %= tau

    lo, hi, i, j, _ = arcs.sweep(_level(a + UNIQUE_VALUE_TOL))
    cands, bounds = arcs.candidates(lo, hi, i, j)
    other = np.nonzero(np.cos(th - arcs.ref - 0.5 * (lo + hi)) < np.cos(0.5 * (hi - lo)))[0]
    return a, th, np.concatenate([[th], cands[other[np.argsort(bounds[other])]] % tau])


def solve_min_horocycle(points, grid: int = 720) -> MinHorocycleSolution:
    """Globally minimal enclosing horocycle of the point set.

    With the disk center strictly outside the points' hull, theta* is
    solved exactly (``_exact_minimizer``) and ``tied_minimizers`` is
    ``[theta*]``.  Every other set, and a basis solve that has not
    converged, takes the level sweep (``_arc_minimum``).  A point at the
    center and arcs that meet at size 2^{-1/2}: a* = 2^{-1/2} at the
    meet's midpoint theta* (the profile must be 2^{-1/2} exactly there),
    and ``tied_minimizers`` holds the meet's two ends, or ``[0.0]`` with
    theta* = 0 when every point is at the center.  Else a descent finds
    the least level at which the arcs meet; ``tied_minimizers`` holds
    theta* and the best pair point of each other gap at level a* +
    UNIQUE_VALUE_TOL.  a* is the blocked profile's own value at theta*.

    ``unique`` is the paper's criterion, a* < 2^{-1/2} -
    UNIQUE_SIZE_MARGIN: the center lies outside the hull below it (on the
    exact path the minimizer is unique at every size, but only this is
    flagged).  ``hull`` holds the indices of the kept points (module
    text), ``support`` those of every point on the boundary.  ``profile``
    holds ``grid`` evenly spaced angles from 0, whose ``values`` are
    evaluated on first read.  Raises ValueError for an invalid point, or
    unless ``grid`` is a count in [1, MAX_GRID].
    """
    grid = check_count("grid", grid, MAX_GRID)
    pts, terms = _point_set(points)
    kept = _hull_superset(pts)
    kept.flags.writeable = False
    hull = pts[kept]
    profile = _profile_of(hull)

    th_star = _exact_minimizer(hull) if _center_outside_hull(hull) else None
    if th_star is None:
        a_star, th_star, ties = _arc_minimum(hull, profile)
    else:
        a_star, ties = float(profile(np.array([th_star]))[0]), np.array([th_star])
    needs = _sizes_at(th_star, terms)
    support = tuple(int(i) for i in np.nonzero(needs >= a_star - 1e-8)[0])
    thetas = np.linspace(0.0, 2.0 * np.pi, grid, endpoint=False)
    return MinHorocycleSolution(
        horocycle=Horocycle(theta=th_star, a=a_star),
        support=support,
        hull=kept,
        unique=a_star < INV_SQRT2 - UNIQUE_SIZE_MARGIN,
        profile=ProfileDiagnostics(thetas=thetas, tied_minimizers=ties, points=hull),
    )


def _cone_margin(active: np.ndarray, theta: float) -> float:
    """Signed angle from u = (cos theta, sin theta) to the edge of the
    closed cone of the points ``active``; see :func:`verify_solution`.

    The cone holds every direction, and the margin is pi, when 0 is in
    the points' hull: a point at the center (``_at_center``), or no open
    half-circle holding their directions.  Otherwise it is the arc, below
    pi wide, left by the largest gap between the points' angles from u;
    the margin is u's distance to its nearer end, positive inside and
    negative outside.  No point: -pi.
    """
    if not len(active):
        return -math.pi
    if _at_center(active).any():
        return math.pi
    ux, uy = math.cos(theta), math.sin(theta)
    d = np.sort(np.arctan2(ux * active[:, 1] - uy * active[:, 0], active @ np.array([ux, uy])))
    gaps = np.diff(d, append=d[0] + 2.0 * np.pi)
    k = int(np.argmax(gaps))
    if gaps[k] <= np.pi:
        return math.pi
    lo, hi = float(d[(k + 1) % len(d)]), float(d[k])
    if lo <= 0.0 <= hi:
        return min(-lo, hi)
    return -min(lo % (2.0 * np.pi), -hi % (2.0 * np.pi))


def verify_solution(points, sol: MinHorocycleSolution) -> dict:
    """Independent checks of a proposed solution; raises on failure.

    Checks enclosure of every input point (closed interior), then
    optimality, and, when the solution claims uniqueness, that a* lies
    below 2^{-1/2} - UNIQUE_SIZE_MARGIN.

    Optimality is decided exactly.  G(u) = max_i c_i - q_i.u is convex
    on the disk (module text), and its active points at u* = (cos theta*,
    sin theta*) are the kept points that need a*(1 - ACTIVE_TOL) or more.

    - ``"cone"``: u* lies within CONE_TOL radians of the cone of the
      active points, or 0 is in their hull (``_cone_margin``): the KKT
      conditions of min G over |u| <= 1, so theta* is a global minimum.
      A solution flagged unique, or whose kept hull misses the center
      (``_center_outside_hull``: one minimizer) or is only the center,
      must pass this test, or fail "local optimality".
    - ``"arcs"``, for any other solution: the kept points' arcs where they
      do not fit at a*(1 - ACTIVE_TOL) cover the circle (``_Arcs.sweep``),
      or it fails "global optimality", naming the best angle of a gap.

    Both run on the points ``sol.hull`` names (module text): fewer points
    span a smaller cone and leave more gaps, so a wrong ``hull`` can only
    make either stricter; one that is not an index array fails.  The
    report names the test and its margin: the signed angle of
    ``_cone_margin``, or the thinnest overlap of the arcs in radians (pi
    when one point, such as the center below 2^{-1/2}, fits nowhere).
    """
    pts, terms = _point_set(points)
    a_star = sol.horocycle.a
    th_star = sol.horocycle.theta
    needs = _sizes_at(th_star, terms)
    worst = float((needs - a_star).max())
    if worst > 1e-10:
        raise VerificationFailure(
            f"enclosure: a point needs size {a_star + worst:.17g} > a* = {a_star:.17g}"
        )

    hull = np.asarray(sol.hull)
    valid = hull.ndim == 1 and hull.dtype.kind in "iu" and len(hull) > 0
    if not (valid and 0 <= hull.min() and hull.max() < len(pts)):
        raise VerificationFailure("hull: not a nonempty array of indices into the points")
    if sol.unique and not a_star < INV_SQRT2 - UNIQUE_SIZE_MARGIN:
        raise VerificationFailure(
            f"uniqueness: a* = {a_star:.17g} is not below 2^(-1/2) - {UNIQUE_SIZE_MARGIN:g}"
        )

    active = pts[hull[needs[hull] >= a_star * (1.0 - ACTIVE_TOL)]]
    margin = _cone_margin(active, th_star)
    if margin >= -CONE_TOL:
        certificate = "cone"
    elif sol.unique or _center_outside_hull(pts[hull]) or _at_center(pts[hull]).all():
        raise VerificationFailure(
            f"local optimality: theta* misses the cone of the active points by {-margin:.3g} rad"
        )
    else:
        arcs = _Arcs(pts[hull])
        lo, hi, i, j, margin = arcs.sweep(_level(a_star * (1.0 - ACTIVE_TOL)))
        certificate = "arcs"
        if len(lo):
            best, at = _least(_profile_of(pts[hull]), *arcs.candidates(lo, hi, i, j))
            raise VerificationFailure(
                f"global optimality: a gap at a*(1 - {ACTIVE_TOL:g}); theta = "
                f"{at % (2.0 * np.pi):.17g} needs {best:.17g}, a* = {a_star:.17g}"
            )

    return {
        "enclosure_margin": -worst,
        "certificate": certificate,
        "certificate_margin": margin,
        "support": sol.support,
        "unique": sol.unique,
    }
