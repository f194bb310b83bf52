"""Maximal parabola inscribed in an intersection of half-planes.

A parabola (curve plus convex interior) lies in a closed half-plane
n.x <= d iff the half-plane normal has negative component along the
parabola's opening direction and the supremum of n.x over the parabola
does not exceed d.  In the apex frame the supremum is available in closed
form, which gives an exact signed containment residual in length units:

    sup_{x in P} n.x - d = -npx^2 p / (2 npy) - (d - n.apex),

with npy = n . axis_dir < 0 and npx^2 = 1 - npy^2.

For any region of half-planes that admits one inscribed parabola at all,
the supremum of the parameter under containment alone is infinite: push
the apex along the opening direction u (strictly interior to the region's
recession cone) and every slack grows linearly, so the parameter bound
min_i slack_i / c_i(u) grows without bound.  A parabola of locally
maximal size must therefore be pinned by boundary tangencies; with fewer
than three active constraints there is always room to translate, rotate a
little and enlarge.  This solver accordingly maximizes the parameter over
parabolas tangent to (at least) three boundary lines and contained in the
region.  For a region bounded by the three side lines of a triangle that
maximum is exactly the corresponding exparabola.

The maximum itself is exact.  Only edge lines, the boundary lines
through a region vertex, can touch a contained parabola: a line that
meets the region in one point or none could touch it only at a corner.
For every triple of edge lines, the dual pencil D(lam) of parabolas
tangent to the triple is linear in the tangency abscissa lam, so every
other half-plane admits a lam-interval cut out by two linear conditions;
the squared parameter is unimodal along the pencil, so the triple's
constrained maximum is its cubic root clipped to that interval, a member
written in apex form (``pencil_member``), with no matrix.  The largest
of these over all triples is the solution.  Independently, a multi-start
derivative-free pattern search over (apex_x, apex_y, axis_angle, p),
with an exact penalty on the three smallest containment slacks pulling
iterates onto the pinned set, is run once from seeded starts;
``Convergence.agreeing_starts`` counts the starts whose nearest pinned
member, where they stopped, is the maximum.  That count witnesses
neither the maximum nor its uniqueness: starts often stop well below it.

The only length is the region's own.  Its vertices (the feasible
pairwise intersections of the boundary lines) span some length; the
solver divides the offsets by 2^k, k the binary exponent of that span,
which is exact, solves on this unit region and scales apex, parameter
and spread back.  Results are therefore exactly covariant under scaling
by powers of two, every tolerance is relative to the vertex span, and
translating the region translates the solution and, with the seeds,
the start counts.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateTriangle, NoInscribedParabola, NumericalRootFailure, UnboundedParameter, check_count
from .exparabola import _SIDE_INDEX, OPPOSITE, SIDES, Triangle, canonical_frame, pencil_member, tangency_root
from .parabola import Parabola

DIRECTION_TOL = 1e-9
MAX_STARTS = 4096  # pattern searches per solve, checked before any work


@dataclass(frozen=True)
class HalfPlane:
    """Closed half-plane {x : normal . x <= offset} with unit normal."""

    normal: np.ndarray
    offset: float

    def __init__(self, normal, offset: float):
        n = np.asarray(normal, dtype=float).reshape(2).copy()
        offset = float(offset)
        if not (np.isfinite(n).all() and np.isfinite(offset)):
            raise ValueError("half-plane normal and offset must be finite")
        nn = np.linalg.norm(n)
        if abs(nn - 1.0) > 1e-12:
            raise ValueError("half-plane normal must be a unit vector")
        n.flags.writeable = False
        object.__setattr__(self, "normal", n)
        object.__setattr__(self, "offset", offset)

    @staticmethod
    def from_direction(direction, offset: float) -> "HalfPlane":
        d = np.asarray(direction, dtype=float).reshape(2)
        return HalfPlane(d / np.linalg.norm(d), offset)


@dataclass(frozen=True)
class ConvexRegion:
    """Intersection of closed half-planes; may be (and usually is) unbounded.

    ``normals`` (m, 2) and ``offsets`` (m,) are read-only arrays built once.
    """

    halfplanes: tuple

    def __init__(self, halfplanes):
        hps = tuple(halfplanes)
        if not hps:
            raise ValueError("region needs at least one half-plane")
        object.__setattr__(self, "halfplanes", hps)
        normals = np.array([h.normal for h in hps])
        offsets = np.array([h.offset for h in hps])
        lines = np.column_stack([-offsets, normals])  # rows (-d, n) of n.x = d
        for name, arr in (("normals", normals), ("offsets", offsets), ("_lines", lines)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class Convergence:
    starts: int
    agreeing_starts: int
    spread: float


@dataclass(frozen=True)
class MaxParabolaSolution:
    parabola: Parabola
    active_constraints: tuple
    convergence: Convergence

    @property
    def apex(self) -> np.ndarray:
        return self.parabola.apex

    @property
    def axis_angle(self) -> float:
        return self.parabola.axis_angle


def halfplane_violation(apex, axis_dir, p: float, normal, offset):
    """Signed containment residual of a parabola against half-planes.

    Positive means the parabola sticks out by that Euclidean distance;
    +inf when the opening direction escapes (n . axis_dir >= -1e-14; no
    translation can help).  One normal gives a float; rows (k, 2) with k
    offsets give an array, each entry bitwise the one-normal value.
    """
    n = np.asarray(normal, dtype=float)
    (ux, uy), (ax, ay) = axis_dir, apex
    npy = n[..., 0] * ux + n[..., 1] * uy
    e = offset - (n[..., 0] * ax + n[..., 1] * ay)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # masked by the where
        out = -np.maximum(0.0, 1.0 - npy * npy) * p / (2.0 * npy) - e
    out = np.where(npy < -1e-14, out, np.inf)
    return float(out) if out.ndim == 0 else out


def triangle_region(t: Triangle, opposite: str) -> ConvexRegion:
    """Half-plane region hosting the exparabola opposite the given vertex.

    The negative half-plane of the side opposite ``opposite`` plus the
    positive half-planes of the two remaining sides.
    """
    hps = []
    xy = (t.A, t.B, t.C)
    for side in SIDES:  # half-planes in the order AB, BC, CA
        p1, p2, pv = (xy[i] for i in _SIDE_INDEX[side])
        edge = p2 - p1
        n = np.array([-edge[1], edge[0]])
        n = n / np.linalg.norm(n)
        d = float(n @ p1)
        if float(n @ pv) > d:  # orient positive: opposite vertex inside
            n, d = -n, -d
        if OPPOSITE[side] == opposite:  # chosen side gets its negative half-plane
            n, d = -n, -d
        hps.append(HalfPlane(n, d))
    return ConvexRegion(hps)


# -- feasible axis directions ------------------------------------------------


def _feasible_direction_arc(normals: np.ndarray):
    """Open arc of axis angles with n . u < 0 for every normal.

    Exists iff all normals fit strictly inside an open half-circle, i.e.
    the largest circular gap between consecutive normal angles exceeds
    pi.  With the normals spanning [first, last] (unwrapped, width
    2 pi - gap), the feasible axis angles form (last + pi/2,
    first + 3 pi/2) of length gap - pi.  Returns (lo, hi) or None.
    """
    ang = np.sort(np.arctan2(normals[:, 1], normals[:, 0]))
    m = len(ang)
    gaps = np.diff(np.concatenate([ang, [ang[0] + 2.0 * np.pi]]))
    k = int(np.argmax(gaps))
    if gaps[k] <= np.pi + DIRECTION_TOL:
        return None
    first = ang[(k + 1) % m] + (2.0 * np.pi if k == m - 1 else 0.0)
    last = ang[k] + 2.0 * np.pi
    return last + 0.5 * np.pi, first + 1.5 * np.pi


def _chebyshev_point(normals, offsets, arc, center, gscale: float):
    """Point on the ray from ``center`` along the mid-arc axis direction u
    where the smallest slack first reaches ``gscale``; every n . u < 0, so
    all slacks grow along the ray.  Returns (point, smallest slack)."""
    mid = 0.5 * (arc[0] + arc[1])
    u = np.array([np.cos(mid), np.sin(mid)])
    t = float(((gscale - (offsets - normals @ center)) / -(normals @ u)).max())
    x = center + max(0.0, t) * u
    return x, float((offsets - normals @ x).min())


# -- exact polish along the dual pencil of a tangent triple ------------------


def _corners(normals, offsets, i, j):
    """Meeting points, by Cramer's rule, of the lines n.x = d numbered i[r]
    and j[r] with |det| > 1e-12; returns (points, mask of those rows)."""
    (a, b), (c, e) = normals[i].T, normals[j].T
    det = a * e - b * c
    ok = np.abs(det) > 1e-12
    num = np.column_stack([offsets[i] * e - offsets[j] * b, offsets[j] * a - offsets[i] * c])
    return num[ok] / det[ok, None], ok


def _pencil_world(frame, lam: float):
    """(apex, axis_dir, p, parabola) of a pencil member in world coords."""
    para = pencil_member(frame, lam)
    axis_dir = np.array([np.cos(para.axis_angle), np.sin(para.axis_angle)])
    return para.apex, axis_dir, para.parameter, para


def _polish_triple(region: ConvexRegion, triple):
    """Maximize the parameter along one tangent triple's pencil.

    Returns (p, apex, axis_angle, parabola, lam, frame) or None.  The
    three lines must be pairwise non-parallel and not meet in one point
    (corners within 1e-12 max(1, |corner|)_inf), and the region must put
    exactly one of them on the negative side of the triangle they span
    (parabolas tangent to three lines live in the one-negative-two-positive
    cells only).  In the triple's canonical frame (the triangle's side
    opposite the negative corner on the x-axis) the dual pencil D(lam) is
    linear in lam, so every remaining half-plane n.x <= d, whose line
    u = (-d, n) maps to frame coordinates u_f = F^T u (F = frame_to_world),
    admits the members satisfying two linear conditions in lam:

    (i)  u_f^T D(lam) u_f <= 0: the line misses the member (the line
         y = eps gives -2 eps c2 < 0, which fixes the sign);
    (ii) n_f . (lam - a1 - b1, c2) >= 0: the member opens into the
         half-plane, its axis pointing along -(lam - a1 - b1, c2).

    The squared parameter is unimodal on (a1, b1) with its maximum at the
    in-interval cubic root, so the constrained maximum is that root
    clipped to the intersection of the admissible intervals.  A line
    that is tangent to every member (a copy of one of the triple's own
    lines) makes (i) vanish identically up to rounding and does not clip.
    A clip onto a1 or b1 leaves a singular member: None.
    """
    i, j, k = triple
    lines = list(triple)
    # row r: the corner opposite line triple[r]
    corners, ok = _corners(region.normals, region.offsets, [j, i, i], [k, k, j])
    if not ok.all():
        return None
    outside = (region.normals[lines] * corners).sum(axis=1) > region.offsets[lines]
    if outside.sum() != 1:
        return None
    # three lines through one point: corners apart by rounding only
    (x0, y0), (x1, y1), (x2, y2) = corners.tolist()
    gap = max(abs(x1 - x0), abs(x2 - x0), abs(y1 - y0), abs(y2 - y0))
    if gap <= 1e-12 * max(1.0, abs(x0), abs(y0)):
        return None
    neg = int(np.argmax(outside))
    r1, r2 = (r for r in range(3) if r != neg)
    try:
        frame = canonical_frame(Triangle(A=corners[r1], B=corners[r2], C=corners[neg]), "AB")
    except DegenerateTriangle:
        return None
    a1, b1, c2 = frame.a1, frame.b1, frame.c2
    lam_star = tangency_root(frame)
    # the other half-planes (none when m = 3: the clip keeps (a1, b1))
    u = np.delete(region._lines, triple, axis=0) @ frame.frame_to_world
    u0, u1, u2 = u.T
    # u^T D(lam) u = slope * lam + icept <= 0, from the entries of D(lam)
    slope_i = 2.0 * u1 * (u0 + c2 * u2)
    icept_i = 2.0 * u0 * (c2 * u2 - (a1 + b1) * u1) - 2.0 * a1 * b1 * u1 * u1
    s = frame.scale
    tangent_to_all = np.abs(slope_i) * s + np.abs(icept_i) <= 1e-13 * s * (np.abs(u0) + s)
    slope = np.concatenate([slope_i[~tangent_to_all], -u1])
    icept = np.concatenate([icept_i[~tangent_to_all], u1 * (a1 + b1) - u2 * c2])
    if (icept[slope == 0.0] > 0.0).any():
        return None
    up, down = slope > 0.0, slope < 0.0
    hi = float((-icept[up] / slope[up]).min(initial=b1))
    lo = float((-icept[down] / slope[down]).max(initial=a1))
    if lo > hi:
        return None
    lam = min(max(lam_star, lo), hi)
    if not a1 < lam < b1:
        return None
    apex, _, p, para = _pencil_world(frame, lam)
    return p, apex, para.axis_angle, para, lam, frame


# -- coarse multi-start pattern search ---------------------------------------


def _unit_scale(normals, offsets):
    """(k, span / 2^k, centre / 2^k, edges) of the region's vertices.

    The vertices are the pairwise boundary-line intersections
    (``_corners``) that satisfy every half-plane to 1e-9 max(|vertex|_inf,
    max |offset|); span is the largest coordinate range among them, centre
    their mean, and k = frexp(span)[1], so span / 2^k lies in [0.5, 1).
    They are found on the offsets divided by a power of two near their
    largest, so nothing overflows.  Fewer than two distinct vertices leave
    a wedge or a cone, whose parameter is unbounded.  With two or more,
    each edge is a segment or a ray ending at a vertex, so ``edges``, the
    sorted indices of the lines through a vertex, holds every line that
    bounds the region along more than a point.
    """
    k = math.frexp(float(np.abs(offsets).max()))[1]
    ds = np.ldexp(offsets, -k)
    i, j = np.triu_indices(len(ds), 1)
    verts, ok = _corners(normals, ds, i, j)
    slack = ds - verts @ normals.T
    tol = 1e-9 * np.maximum(np.abs(verts).max(axis=1), np.abs(ds).max())
    inside = (slack >= -tol[:, None]).all(axis=1)
    verts = verts[inside]
    span = float(np.ptp(verts, axis=0).max()) if len(verts) > 1 else 0.0
    if not span > 0.0:
        raise UnboundedParameter(
            "the boundary lines meet in fewer than two region vertices; "
            "the parameter is unbounded"
        )
    k2 = math.frexp(span)[1]
    edges = np.unique(np.concatenate([i[ok][inside], j[ok][inside]])).tolist()
    return k + k2, math.ldexp(span, -k2), np.ldexp(verts.mean(axis=0), -k2), edges


def _coarse_search(normals, offsets, seeds, gscale):
    """Vectorized compass search maximizing p - 8 * (3 smallest slacks).

    States are (apex_x, apex_y, axis_angle, p); infeasible states score
    -inf.  One round at the penalty weight 8 from every seed; returns the
    final states, one row per seed.  Seeds hold p <= 1e3 * gscale and a
    step moves p by at most 0.5 * gscale, so no start can run away.
    """
    ns, ds = normals, offsets
    m = len(ns)
    nsmall = min(3, m)
    z = seeds
    s = len(z)

    def objective(zz):
        ap = zz[..., :2]
        th = zz[..., 2]
        p = zz[..., 3]
        u = np.stack([np.cos(th), np.sin(th)], axis=-1)
        npy = u @ ns.T
        ok_dir = (npy < -1e-12).all(axis=-1) & (p > 0)
        npy_safe = np.where(npy < 0, npy, -1.0)
        cmat = (1.0 - npy_safe**2) / (-2.0 * npy_safe)
        slack = ds - ap @ ns.T - cmat * p[..., None]
        feas = ok_dir & (slack >= 0.0).all(axis=-1)
        pen = np.sort(slack, axis=-1)[..., :nsmall].sum(axis=-1)
        val = p - 8.0 * pen
        return np.where(feas, val, -np.inf)

    f = objective(z)
    step = np.full(s, 0.1 * gscale)
    dirs = np.zeros((8, 4))
    for i in range(4):
        dirs[2 * i, i] = 1.0
        dirs[2 * i + 1, i] = -1.0
    weights = np.array([1.0, 1.0, 1.0 / gscale, 1.0])
    stop = 1e-8 * gscale
    for _ in range(600):
        if (step <= stop).all():
            break
        cand = z[None, :, :] + dirs[:, None, :] * (
            step[None, :, None] * weights[None, None, :]
        )
        fc = objective(cand)
        arg = fc.argmax(axis=0)
        best = fc[arg, np.arange(s)]
        improve = best > f
        z = np.where(improve[:, None], cand[arg, np.arange(s)], z)
        f = np.where(improve, best, f)
        step = np.where(improve, np.minimum(step * 1.7, 0.5 * gscale), step * 0.5)
    return z


def _make_seeds(region, arc, gscale, center, starts, rng):
    """Seed states: pairwise inward-normal bisector directions plus random
    feasible directions, apexes from interior samples.  The first apex is
    ``_chebyshev_point``, so the apex pool is never empty."""
    ns, ds = region.normals, region.offsets
    m = len(ns)
    lo, hi = arc
    span = hi - lo
    margin = 0.02 * span
    thetas = []
    for i in range(m):
        for j in range(i, m):
            v = -(ns[i] + ns[j])
            v = v / np.linalg.norm(v)
            if (ns @ v).max() < -DIRECTION_TOL:
                thetas.append(float(np.arctan2(v[1], v[0])))
    need = max(0, starts - len(thetas))
    thetas.extend(rng.uniform(lo + margin, hi - margin, need))
    thetas = np.array(thetas[:starts])
    rng.shuffle(thetas)

    apex0, _ = _chebyshev_point(ns, ds, arc, center, gscale)
    samples = center + rng.uniform(-2.0 * gscale, 2.0 * gscale, (4096, 2))
    slack = ds[None, :] - samples @ ns.T
    good = samples[slack.min(axis=1) > 0]
    pool = np.vstack([apex0[None, :], good])
    apexes = pool[rng.integers(0, len(pool), starts)]
    apexes[0] = apex0

    u = np.column_stack([np.cos(thetas), np.sin(thetas)])
    npy = u @ ns.T
    npy_safe = np.minimum(npy, -1e-12)
    cmat = (1.0 - npy_safe**2) / (-2.0 * npy_safe)
    e = ds[None, :] - apexes @ ns.T
    with np.errstate(divide="ignore", over="ignore"):  # masked by the where
        pmax = np.where(cmat > 1e-300, e / np.maximum(cmat, 1e-300), np.inf).min(axis=1)
    p0 = 0.5 * np.where(np.isfinite(pmax), pmax, 0.1 * gscale)
    p0 = np.clip(p0, 1e-9 * gscale, 1e3 * gscale)
    return np.column_stack([apexes, thetas, p0])


def solve_max_parabola(region: ConvexRegion, starts: int = 64, seed: int = 0) -> MaxParabolaSolution:
    """Largest parabola pinned by three boundary tangencies in the region.

    Enumerates the triples of edge lines (``_unit_scale``), clips each
    by every half-plane and takes the largest exact pinned member (see
    ``_polish_triple``).  ``starts`` independent pattern searches from
    seeded apexes and axis directions, one round at the penalty weight 8
    (``_coarse_search``), are each assigned to the pinned member nearest
    to where they stopped, the first on ties; ``convergence`` counts
    every start assigned to the maximum, not how close it came to it.
    Everything runs on the region divided by 2^k, k the binary exponent
    of its vertex span (``_unit_scale``), so tolerances are relative to
    that span and scaling by 2^j scales apex, parameter and spread
    exactly.  Translating the region translates the solution and the
    seeds.  A half-plane is active when its violation is
    >= -1e-7 max(span, |offset|, |apex|_inf, p) in those units.

    Raises NoInscribedParabola when no parabola fits at all (parallel or
    surrounding boundary normals) and UnboundedParameter when parabolas
    fit but their size is unbounded (e.g. a two-line wedge), or
    NumericalRootFailure when an unsolved triple might have pinned one.
    Raises ValueError unless ``starts`` is a count in [1, MAX_STARTS].
    """
    starts = check_count("starts", starts, MAX_STARTS)
    arc = _feasible_direction_arc(region.normals)
    if arc is None:
        raise NoInscribedParabola(
            "no axis direction is compatible with every half-plane"
        )
    k, gscale, center, edges = _unit_scale(region.normals, region.offsets)
    unit = ConvexRegion(HalfPlane(h.normal, math.ldexp(h.offset, -k)) for h in region.halfplanes)
    ns, ds = unit.normals, unit.offsets

    solutions, failure = [], None
    for t in itertools.combinations(edges, 3):
        try:
            r = _polish_triple(unit, t)
        except NumericalRootFailure as exc:
            failure = exc
            continue
        if r is not None:
            solutions.append(r)
    if not solutions:
        if failure is not None:  # the unsolved triple may pin one
            raise failure
        raise UnboundedParameter(
            "region admits parabolas but no tangent triple pins one; "
            "the parameter is unbounded"
        )

    seeds = _make_seeds(unit, arc, gscale, center, starts, np.random.default_rng(seed))
    states = _coarse_search(ns, ds, seeds, gscale)

    # assign each start to the nearest pinned solution in the scaled
    # state space (which basin did it converge to), first minimum on ties
    sol_states = np.array([[*r[1], r[2], r[0]] for r in solutions])  # apex, angle, p
    diff = sol_states[None, :, :] - states[:, None, :]
    dpos = np.abs(diff[..., :2]).max(axis=2)
    dth = np.abs((diff[..., 2] + np.pi) % (2.0 * np.pi) - np.pi)
    dist = np.maximum(dpos, np.maximum(dth * gscale, np.abs(diff[..., 3])))
    nearest = dist.argmin(axis=1)

    p_best, apex_best, angle_best = max(solutions, key=lambda r: r[0])[:3]
    agree_tol = max(1e-9 * gscale, 1e-7 * p_best)
    gap_p = np.abs(sol_states[:, 3] - p_best)
    gap_th = np.abs((sol_states[:, 2] - angle_best + np.pi) % (2.0 * np.pi) - np.pi)
    gap = np.maximum(
        np.maximum(np.abs(sol_states[:, :2] - apex_best).max(axis=1), gap_p),
        gap_th * gscale / (2.0 * np.pi),
    )
    agreeing = nearest[gap_p[nearest] <= agree_tol]
    spread = float(gap[agreeing].max(initial=0.0))

    axis_dir = (np.cos(angle_best), np.sin(angle_best))
    viol = halfplane_violation(apex_best, axis_dir, p_best, ns, ds)
    tol = 1e-7 * np.maximum(max(gscale, float(np.abs(apex_best).max()), p_best), np.abs(ds))
    with np.errstate(over="ignore"):  # beyond the float range: Parabola's ValueError
        parabola = Parabola(np.ldexp(apex_best, k), angle_best, np.ldexp(p_best, k))
        spread = float(np.ldexp(spread, k))
    return MaxParabolaSolution(
        parabola=parabola,
        active_constraints=tuple(int(i) for i in np.nonzero(viol >= -tol)[0]),
        convergence=Convergence(
            starts=len(seeds), agreeing_starts=len(agreeing), spread=spread
        ),
    )
