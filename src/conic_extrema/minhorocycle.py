"""Minimal enclosing horocycle of a finite point set.

For a fixed ideal angle theta, the smallest horocycle with that ideal
point enclosing the set has the closed-form size (see ``horocycle``)

    a(theta)^2 = max_i s_i^2 / (s_i^2 + w_i^2),   s_i = 1 - p_i.u,

u = (cos theta, sin theta), w_i^2 = 1 - |p_i|^2, so the problem reduces
to minimizing the continuous, piecewise-smooth profile a(theta) over the
circle.  Rearranged, a^2 / (1 - a^2) = max_i t_i(u)^2 with the affine
t_i(u) = c_i - q_i.u, c_i = 1 / w_i, q_i = p_i / w_i.  Every point must
be valid (w_i^2 > 0, see ``horocycle``); ``as_point_set`` checks them.

Which sets take which path:

- The disk center strictly outside the hull (no point at the center,
  see the last paragraph, and the points' directions inside an open
  half-circle): then some v has q_i.v > 0 for every i, so the convex
  F(u) = max_i t_i(u) has no minimum inside the disk, its minimum over
  the disk lies on the circle and is unique.  The solver finds it
  exactly, as an LP-type problem whose optimum at most two constraints
  fix (``_exact_minimizer``), whatever the size.
- The center in the hull or on its boundary: every direction has a
  point with p_i.u <= 0, so a* >= 2^{-1/2}.  Of these, a set holding
  the center itself is solved in closed form: the center's size is 2^{-1/2}
  at every angle, and a point p with w = sqrt(1 - |p|^2) fits in the
  horocycle of that size at angle theta exactly when
  cos(theta - phi) >= |p| / (1 + w), phi being p's own angle.  Each such
  set of angles is an arc of half-width below pi/2, so the arcs meet in
  one arc or not at all, and one pass over the kept points finds it
  (``_plateau``).  When they meet, a* = 2^{-1/2} and every angle of the
  arc is a minimizer: the solver returns the arc's midpoint, or
  theta* = 0 when every point is at the center.  (A center the hull
  filter drops lies strictly inside the hull, where a* > 2^{-1/2}.)
- The grid path takes the rest: the center in the hull but not among
  the points, arcs that do not meet, a basis solve that has not
  converged after EXACT_PASSES passes, and a plateau midpoint where the
  profile is not exactly 2^{-1/2}.  The solver scans a dense theta
  grid, refines every bracketed local minimum by golden-section search,
  and returns the global minimum.

So a* < 2^{-1/2} puts the center outside the hull, where the minimizer
is unique: that bound alone is the ``unique`` flag, on every path.

Every horocycle interior is a Euclidean ellipse interior, hence convex,
so a horocycle encloses the set exactly when it encloses the set's
convex-hull vertices, and the profile over any superset of those
vertices is the profile over all points.  The path test, the basis
solve, the grid scan and the refine therefore run on the points an
Akl-Toussaint extreme-point filter keeps, and their cost follows the
number of extreme points, not n.  The solution names the kept points
(``hull``), and both optimality tests of :func:`verify_solution` run
on them, while the boundary ``support`` and its enclosure check use
every input point.  Each profile value is computed
per point, so the kept points' values are the full computation's bit
for bit, and a max over any subset can only be lower, with fewer active
points: a wrong ``hull`` can only make either test stricter than over
all points.

A point with |x| + |y| <= CENTER_RADIUS (``_at_center``) has the
center's profile term exactly, 2^{-1/2} at every angle, so the path
test, the plateau and the certificate all count it as the center.
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
REFINE_TOL = 1e-12  # radians: golden-section refine stops below this bracket width
MAX_GRID = 100_000  # profile angles per solve, checked before any work

EXACT_PASSES = 32  # most-violated passes of the exact solve before the grid takes over
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
    """Every point's minimal size at one angle: ``min_sizes_for_points``'s
    row, bit for bit, on terms already checked."""
    return np.sqrt(_squared_sizes(np.array([theta], dtype=float), terms)[0])


def size_profile(points, theta) -> float | np.ndarray:
    """Smallest enclosing size with the ideal point fixed at angle theta.

    Raises ValueError for a non-finite angle, as for invalid points.
    """
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
    # is at the center); else the refined minimizers near the best value
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
    ``min_sizes_for_points(thetas, pts).max(axis=1)``, bit for bit.

    Forms the kernel's per-point terms once.  Each call takes the max of
    ``_squared_sizes`` over the points and one sqrt after it (monotone
    and correctly rounded), in blocks of whole angle rows of about
    PROFILE_BLOCK elements, so the block temporaries stay in cache.
    """
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
    to their profile values, and each step makes one call for the new
    probes of all brackets still wider than ``tol``.  Each bracket takes
    exactly the steps of its own scalar golden-section search, so its
    minimum does not depend on the other brackets.  A bracket also stops
    when a step no longer narrows it, which only happens once ``tol`` is
    below the spacing of floats near the bracket.  Returns the midpoints
    of the final brackets and their values, as lists.
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
    spaced directions, taken in direction order, form a convex polygon in
    counter-clockwise order whose vertices are hull points.  Only points
    strictly inside every edge, by far more than rounding, are dropped;
    such a point lies inside the hull and is never one of its vertices.

    Two stages keep every temporary small: the octagon of extreme points
    in every eighth direction first drops the deep interior, then the
    full polygon is built and tested on the survivors alone.  A dropped
    point is no extreme point, and the octagon lies inside the polygon,
    so the result is the index set the polygon test gives on all points.
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
    extreme points of ``pts`` in the unit directions ``dirs``, taken in
    counter-clockwise order; all points when the polygon is degenerate.

    Two copies of one point can each win a direction, since the matrix
    product rounds a column by where it sits in the array; the polygon
    merges them by coordinates, so which copy wins changes nothing.
    """
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
    """Whether the disk center lies strictly outside the hull of ``pts``.

    It does when no point is at the center (``_at_center``) and the
    points' directions fit in an open half-circle: the largest circular
    gap between their angles exceeds pi by more than rounding, the test
    ``maxparabola._feasible_direction_arc`` runs on normals.
    """
    return not _at_center(pts).any() and _feasible_direction_arc(pts) is not None


def _circle_optimum(c: list, q: list, basis: tuple):
    """Minimum of max_{i in basis} c_i - q_i.u over the unit circle.

    On the circle each term is c_i - |q_i| cos(theta - phi_i), so the
    envelope of at most three of them is least at a term's own optimum
    q_i / |q_i| or where two terms cross: on the circle's meeting points
    with the line (q_i - q_j).u = c_i - c_j.  Returns the best candidate
    u and the one or two constraints that define it.
    """
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
    circle, for points whose hull misses the center (see the module text).

    The basis starts at the point nearest the center, whose own optimum
    c_i - |q_i| is the largest.  Each pass finds the most violated
    constraint in one array pass and re-solves it with the basis in
    closed form.  The solve stops when no t_i exceeds F by more than
    EXACT_TOL (c_i + |q_i|_1), or when the violator is already in the
    basis: the basis is tight at u, so only rounding is left there, and
    re-solving could cycle.  Returns None after EXACT_PASSES passes
    without convergence.
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


def _plateau(pts: np.ndarray):
    """theta* and the ends of the arc of angles where every point of
    ``pts`` fits in the horocycle of size 2^{-1/2} (see the module text),
    mod 2 pi; (0.0, [0.0]) when every point is at the center
    (``_at_center``), None when the arcs do not meet.

    Each point off the center gives the arc phi +- arccos(|p| / (1 + w))
    of half-width below pi/2, so the meet, if any, lies in the first
    arc.  Measured from that arc's center, every other arc is the one
    interval [d - h, d + h] with d in [-pi, pi]: its copies 2 pi away lie
    beyond +- pi/2.  The meet is the largest lower end to the smallest
    upper end, and theta* its midpoint.
    """
    off = pts[~_at_center(pts)]
    if not len(off):
        return 0.0, np.array([0.0])
    x, y, w2 = _point_terms(off)
    phi = np.arctan2(y, x)
    half = np.arccos(np.hypot(x, y) / (1.0 + np.sqrt(w2)))
    d = (phi - phi[0] + np.pi) % (2.0 * np.pi) - np.pi
    lo, hi = float((d - half).max()), float((d + half).min())
    if lo > hi:
        return None
    phi0, tau = float(phi[0]), 2.0 * np.pi
    return (phi0 + 0.5 * (lo + hi)) % tau, np.array([(phi0 + lo) % tau, (phi0 + hi) % tau])


def _closed_form(hull: np.ndarray, profile):
    """(a*, theta*, tied minimizers) of a set solved without the grid, or
    None: the exact solve when the center lies outside the hull, the
    plateau when a kept point is at the center (``_at_center``) and the
    profile at theta* is exactly 2^{-1/2}.  a* is the profile's own value
    at theta*."""
    if _center_outside_hull(hull):
        th = _exact_minimizer(hull)
        return None if th is None else (float(profile(np.array([th]))[0]), th, np.array([th]))
    found = _plateau(hull) if _at_center(hull).any() else None
    if found is None:
        return None
    a = float(profile(np.array([found[0]]))[0])
    return (a, *found) if a == INV_SQRT2 else None


def solve_min_horocycle(points, grid: int = 720) -> MinHorocycleSolution:
    """Globally minimal enclosing horocycle of the point set.

    ``profile`` reports the profile on ``grid`` evenly spaced ideal
    angles from 0; the grid path reads it for its brackets, and a closed
    form solve leaves it to be evaluated on first read of ``values``.

    When the disk center lies strictly outside the points' hull, the
    minimizer theta* is solved exactly (``_exact_minimizer``); ``grid``
    then only shapes the diagnostic grid, and ``tied_minimizers`` is
    ``[theta*]``.  When a point is at the center and some angles fit
    every point in a horocycle of size 2^{-1/2}, those angles form one
    arc, found in one pass (``_plateau``): theta* is its midpoint,
    a* = 2^{-1/2}, and ``tied_minimizers`` holds the arc's two ends, or
    ``[0.0]`` with theta* = 0 when every point is at the center.
    Otherwise, or if the basis solve does not converge, every bracketed
    local minimum of the grid is golden-section refined down to
    REFINE_TOL radians (all brackets in lockstep, one vectorized profile
    call per step), the best is taken, and ``tied_minimizers`` holds the
    refined minimizers within UNIQUE_VALUE_TOL of it.  On every path a*
    is the blocked profile's own value at theta*, the value the
    enclosure check recomputes; the plateau is used only when that value
    is 2^{-1/2} exactly.

    ``unique`` is the paper's criterion: a* < 2^{-1/2} -
    UNIQUE_SIZE_MARGIN, below which the center lies outside the hull and
    the minimizer is unique (module text).  (On the exact path the
    minimizer is unique at every size, but a size at or above the bound
    is not flagged.)

    The path test and the solve see only a superset of the convex-hull
    vertices: horocycle interiors are convex, so the profile over those
    points is the profile over all of them.  ``hull`` holds their
    indices into ``points``, ``support`` those of every input point on
    the boundary.  Raises ValueError for an invalid point, or unless
    ``grid`` is a count in [1, MAX_GRID].
    """
    grid = check_count("grid", grid, MAX_GRID)
    pts, terms = _point_set(points)
    kept = _hull_superset(pts)
    kept.flags.writeable = False
    hull = pts[kept]
    thetas = np.linspace(0.0, 2.0 * np.pi, grid, endpoint=False)
    profile = _profile_of(hull)

    found = _closed_form(hull, profile)
    if found is not None:
        a_star, th_star, ties = found
    else:
        values = profile(thetas)
        idx = np.nonzero((values <= np.roll(values, 1)) & (values <= np.roll(values, -1)))[0]
        # grid angle i is bracketed by its neighbours wrapped[i] and wrapped[i + 2]
        wrapped = np.concatenate([[thetas[-1] - 2.0 * np.pi], thetas, [thetas[0] + 2.0 * np.pi]])
        xs, vals = _golden_minimize(profile, wrapped[idx], wrapped[idx + 2], REFINE_TOL)
        minima = sorted((val, th % (2.0 * np.pi)) for th, val in zip(xs, vals))
        a_star, th_star = minima[0]
        ties = np.array([th for val, th in minima if val <= a_star + UNIQUE_VALUE_TOL])
    unique = a_star < INV_SQRT2 - UNIQUE_SIZE_MARGIN

    needs = _sizes_at(th_star, terms)
    support = tuple(int(i) for i in np.nonzero(needs >= a_star - 1e-8)[0])
    diagnostics = ProfileDiagnostics(thetas=thetas, tied_minimizers=ties, points=hull)
    if found is None:  # the grid path has the values already: fill the cache
        object.__setattr__(diagnostics, "values", values)
    return MinHorocycleSolution(
        horocycle=Horocycle(theta=th_star, a=a_star),
        support=support,
        hull=kept,
        unique=unique,
        profile=diagnostics,
    )


def _cone_margin(active: np.ndarray, theta: float) -> float:
    """Signed angle from u = (cos theta, sin theta) to the edge of the
    closed cone of the points ``active``; see :func:`verify_solution`.

    The cone holds every direction, and the margin is pi, when 0 is in
    the points' convex hull: when a point is at the center
    (``_at_center``) or when no open half-circle holds their directions.
    Otherwise the cone is the arc, of width below pi, left by the largest
    circular gap between the points' angles measured from u, and the
    margin is positive when u lies inside that arc, by its distance to
    the nearer end, and negative, by the same distance, when it lies
    outside.  No point: -pi.
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

    Optimality is decided exactly, to first order.  G(u) = max_i c_i -
    q_i.u is convex on the disk (module text), and at u* = (cos theta*,
    sin theta*) its active points are the kept points that need a*(1 -
    ACTIVE_TOL) or more; their q_i = p_i / w_i span the cone of the p_i,
    and a point at the center gives q_i = 0.  On the circle theta* is
    critical when a nonnegative combination of the active q_i is mu u*,
    for a mu of either sign, which ``_cone_margin`` tests:

    - ``"cone"``, mu >= 0: u* lies within CONE_TOL radians of the cone of
      the active points, or 0 is in their hull: the KKT conditions of min
      G over |u| <= 1, so theta* is a global minimum.  A solution flagged
      unique, or whose kept hull misses the center
      (``_center_outside_hull``), has a unique minimizer (module text)
      and must pass this test.
    - ``"circle"``, mu < 0, for any other solution: -u* lies more than
      CONE_TOL radians inside the cone, so the active slopes -q_i.u*'
      have both signs and theta* is a kink, a strict local minimum (on
      the cone's edge an active term is at its own maximum).  With the
      center in the kept hull, G >= 1 on the circle (every direction has
      a point with p.u <= 0), and a lone term's least value there,
      (1 - |p|) / w, is below 1: every minimum is such a kink, or has
      the center's term active, which the cone certifies.  The test is
      local: it does not tell a global minimum from another one.

    A solution that fails its test fails "local optimality".  Both tests
    run on the points ``sol.hull`` names, the hull superset the solver
    ran on.  Their values are those of the same points among all of
    them, bit for bit, so a max over them is at most the all-points max,
    and fewer active points span a smaller cone: a wrong ``hull`` can
    only make either test stricter.  A ``hull`` that is not an index
    array fails.  The report names the deciding test and its margin, the
    signed angle of ``_cone_margin``: at least -CONE_TOL at u*, above
    CONE_TOL at -u*.
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
    elif sol.unique or _center_outside_hull(pts[hull]):
        raise VerificationFailure(
            f"local optimality: theta* misses the cone of the active points by {-margin:.3g} rad"
        )
    else:
        certificate, margin = "circle", _cone_margin(active, th_star + math.pi)
        if not margin > CONE_TOL:
            raise VerificationFailure(
                f"local optimality: theta* is no kink: -u* lies {margin:.3g} rad inside the cone"
            )

    return {
        "enclosure_margin": -worst,
        "certificate": certificate,
        "certificate_margin": margin,
        "support": sol.support,
        "unique": sol.unique,
    }
