"""Seeded benchmark inputs, made with numpy alone.

Nothing here imports ``conic_extrema``: the inputs (and the closed-form
oracles used to place them) cannot change when the program changes.
Every generator takes a ``numpy.random.Generator`` and returns plain
arrays and dicts; the same seed always gives the same inputs.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math

import numpy as np

WORKLOADS = ("cli-cold", "sampled-checks", "regions", "point-sets")

# Flattest triangle shape (area / diameter^2) in the exparabola batches.
# canonical_frame only rejects shapes below 1e-6, but exparabolas raises
# NotAParabola on shapes well above that once the triangle is small (see
# README.md, "Known failures"); the batches stay where it does not, so
# that every op of a run can pass its check.
BATCH_MIN_RATIO = 0.1
# canonical_frame rejects triangles with area / diameter^2 below 1e-6
FLATNESS_LIMIT = 1e-6
INV_SQRT2 = 2.0 ** (-0.5)


def rng_for(workload: str, seed: int, stream: int = 0) -> np.random.Generator:
    """The generator of one workload and seed; ``stream`` > 0 gives independent side streams."""
    key = [int(seed), WORKLOADS.index(workload)]
    return np.random.default_rng(key + [stream] if stream else key)


# -- closed-form exparabola of one side ----------------------------------------


def _side_frame(A, B, C):
    """Frame with side AB on the x-axis and C = (0, c2), c2 > 0.

    Returns (a1, b1, c2, foot, ex, ey); world = foot + x ex + y ey.
    """
    ex = (B - A) / math.hypot(*(B - A))
    foot = A + float((C - A) @ ex) * ex
    c2 = math.hypot(*(C - foot))
    ey = (C - foot) / c2
    return float((A - foot) @ ex), float((B - foot) @ ex), c2, foot, ex, ey


def exparabola_ab(A, B, C):
    """The exparabola touching side AB, from the paper's closed form.

    The tangency abscissa is the root in (a1, b1) of the monic cubic
    lam^3 - (a1+b1) lam^2 + (-a1^2 + a1 b1 - b1^2 - 2 c2^2) lam
    + a1 (a1^2 + c2^2) + b1 (b1^2 + c2^2), found by bisection; the
    parameter is the square root of the rational
    p^2 = 4 c2^4 (b1-lam)^2 (a1-lam)^2 / ((lam-a1-b1)^2 + c2^2)^3.
    Returns (p, apex, opening direction, tangency point), world coords.
    """
    A, B, C = (np.asarray(v, float) for v in (A, B, C))
    a1, b1, c2, foot, ex, ey = _side_frame(A, B, C)
    e2 = -(a1 + b1)
    e1 = -a1 * a1 + a1 * b1 - b1 * b1 - 2.0 * c2 * c2
    e0 = a1 * (a1 * a1 + c2 * c2) + b1 * (b1 * b1 + c2 * c2)

    def cubic(x):
        return ((x + e2) * x + e1) * x + e0

    lo, hi = a1, b1
    f_lo = cubic(lo)
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if (cubic(mid) > 0.0) == (f_lo > 0.0):
            lo = mid
        else:
            hi = mid
    lam = 0.5 * (lo + hi)
    m = lam - a1 - b1
    p = 2.0 * c2 * c2 * abs((b1 - lam) * (a1 - lam)) / (m * m + c2 * c2) ** 1.5
    # the pole of the line at infinity is (m, c2); the parabola opens away
    # from the opposite vertex, into y < 0
    u = -np.array([m, c2]) / math.hypot(m, c2)
    v = np.array([u[1], -u[0]])
    # x^2 = 2 p y in the (v, u) frame; the side line y = 0 has direction
    # (1, 0), whose slope there gives the tangency abscissa X
    X = p * u[0] / v[0]
    apex_f = np.array([lam, 0.0]) - X * v - (X * X / (2.0 * p)) * u
    to_world = np.column_stack([ex, ey])
    apex = foot + to_world @ apex_f
    axis = to_world @ u
    return p, apex, axis, foot + lam * ex


def support(normal, apex, axis, p) -> float:
    """sup of normal . x over the parabola (curve plus interior).

    Finite iff normal . axis < 0; with npy = normal . axis the maximum of
    npx X + npy X^2 / (2 p) is -npx^2 p / (2 npy).
    """
    npy = float(normal @ axis)
    if npy >= 0.0:
        return math.inf
    return float(normal @ apex) - (1.0 - npy * npy) * p / (2.0 * npy)


def side_region(A, B, C):
    """Half-planes hosting the exparabola of side AB: normals (3, 2), offsets (3,).

    The negative half-plane of AB plus the positive half-planes of BC and
    CA, where "positive" contains the opposite vertex.
    """
    ns, ds = [], []
    for P, Q, V, own in ((A, B, C, True), (B, C, A, False), (C, A, B, False)):
        e = Q - P
        n = np.array([-e[1], e[0]]) / math.hypot(*e)
        d = float(n @ P)
        if float(n @ V) > d:
            n, d = -n, -d
        if own:
            n, d = -n, -d
        ns.append(n)
        ds.append(d)
    return np.array(ns), np.array(ds)


def direction_gap(normals) -> float:
    """Largest circular gap between normal angles; > pi iff some axis fits."""
    ang = np.sort(np.arctan2(normals[:, 1], normals[:, 0]))
    return float(np.diff(np.concatenate([ang, [ang[0] + 2.0 * np.pi]])).max())


def edge_lines(normals, offsets) -> list:
    """Indices of the half-planes whose line bounds the region along more
    than a point (unit normals); the others are redundant."""
    out = []
    for i, (n, d) in enumerate(zip(normals, offsets)):
        t, x0 = np.array([-n[1], n[0]]), d * n
        lo, hi = -math.inf, math.inf
        for j, (nj, dj) in enumerate(zip(normals, offsets)):
            a, b = float(nj @ t), float(dj - nj @ x0)
            if j == i or abs(a) < 1e-12:
                if j != i and b < 0.0:
                    lo = math.inf
                continue
            if a > 0.0:
                hi = min(hi, b / a)
            else:
                lo = max(lo, b / a)
        if hi - lo > 1e-9 * max(1.0, abs(d)):
            out.append(i)
    return out


def _meet(n1, d1, n2, d2):
    det = n1[0] * n2[1] - n1[1] * n2[0]
    if abs(det) < 1e-9:
        return None
    return np.array([d1 * n2[1] - d2 * n1[1], n1[0] * d2 - n2[0] * d1]) / det


def pinning_triple(normals, offsets):
    """Three half-planes whose closed-form exparabola lies in all of them, or None.

    A triple qualifies when the three half-planes are exactly the side
    region of the triangle their lines form (``side_region``).  Such a
    triple certifies that some parabola tangent to three of the lines
    fits, so ``solve_max_parabola`` must not report the size unbounded;
    a region bounded by two lines only (a wedge) has no such triple.
    """
    for tri in itertools.combinations(edge_lines(normals, offsets), 3):
        for own in tri:
            o1, o2 = (k for k in tri if k != own)
            A = _meet(normals[own], offsets[own], normals[o1], offsets[o1])
            B = _meet(normals[own], offsets[own], normals[o2], offsets[o2])
            C = _meet(normals[o1], offsets[o1], normals[o2], offsets[o2])
            if A is None or B is None or C is None:
                continue
            ns, _ = side_region(A, B, C)  # lines AB = own, BC = o2, CA = o1
            if min(float(ns[r] @ normals[k]) for r, k in enumerate((own, o2, o1))) < 1.0 - 1e-9:
                continue
            p, apex, axis, _ = exparabola_ab(A, B, C)
            size = max(1.0, float(np.abs(apex).max()), p)
            if all(support(n, apex, axis, p) - d <= 1e-9 * max(size, abs(d))
                   for n, d in zip(normals, offsets)):
                return own, o2, o1
    return None


# -- triangles ----------------------------------------------------------------


def triangle(rng, ratio: float, scale: float, shift: float = 5.0) -> np.ndarray:
    """Vertices (3, 2) with area / diameter^2 close to ``ratio``.

    Built on the unit base (0,0)-(1,0) with the apex over it, then
    rotated, scaled and moved by up to ``shift`` diameters.
    """
    x = rng.uniform(0.05, 0.95)
    h = 2.0 * ratio
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [x, h]])
    ang = rng.uniform(0.0, 2.0 * np.pi)
    c, s = math.cos(ang), math.sin(ang)
    rot = np.array([[c, -s], [s, c]])
    pts = scale * (pts @ rot.T) + scale * rng.uniform(-shift, shift, 2)
    return pts[rng.permutation(3)]


def triangle_batch(rng, count: int, lo_ratio: float = BATCH_MIN_RATIO,
                   hi_ratio: float = 0.43) -> np.ndarray:
    """Triangles (count, 3, 2) mixing shapes and scales.

    area / diameter^2 is log-uniform from ``lo_ratio`` to ``hi_ratio``
    (by default up to the equilateral 0.433); scales are log-uniform over
    1e-3 .. 1e3.  Both are stratified (a Latin hypercube: one draw in
    each of ``count`` equal slices of each range), so every batch covers
    the whole mix alike.
    """
    lo, hi = math.log(lo_ratio), math.log(hi_ratio)
    u_ratio = (rng.permutation(count) + rng.uniform(size=count)) / count
    u_scale = (rng.permutation(count) + rng.uniform(size=count)) / count
    out = np.empty((count, 3, 2))
    for k in range(count):
        ratio = math.exp(lo + (hi - lo) * u_ratio[k])
        scale = 10.0 ** (-3.0 + 6.0 * u_scale[k])
        out[k] = triangle(rng, ratio, scale)
    return out


# -- regions ------------------------------------------------------------------


def pinned_region(rng, m: int) -> dict:
    """A triangle side region plus m - 3 extra half-planes.

    The extras alternate between clearing the base exparabola (offset
    above its support by 0.2..1.0 p) and cutting into it (0.15..0.35 p
    below), and keep a feasible axis direction.  A cut can leave a
    region with no pinned parabola at all (a wedge, whose size is
    unbounded), so a region is kept only if ``pinning_triple`` finds one.
    Alternating, rather than tossing a coin per extra, keeps the polish
    work of regions with the same m alike.  For
    m = 3 the region is the bare side region and ``oracle`` holds the
    closed-form exparabola (p, apex).
    """
    while True:
        tri = triangle(rng, math.exp(rng.uniform(math.log(0.06), math.log(0.43))),
                       10.0 ** rng.uniform(-0.3, 0.7), shift=1.0)
        ns, ds = side_region(*tri)
        p, apex, axis, _ = exparabola_ab(*tri)
        ns, ds = list(ns), list(ds)
        cut = rng.uniform() < 0.5
        tries = 0
        while len(ns) < m and tries < 400:
            tries += 1
            ang = rng.uniform(0.0, 2.0 * np.pi)
            n = np.array([math.cos(ang), math.sin(ang)])
            if float(n @ axis) > -0.05:
                continue
            sup = support(n, apex, axis, p)
            if cut:
                d = sup - rng.uniform(0.15, 0.35) * p
            else:
                d = sup + rng.uniform(0.2, 1.0) * p
            if direction_gap(np.array(ns + [n])) <= np.pi + 1e-6:
                continue
            ns.append(n)
            ds.append(d)
            cut = not cut
        if len(ns) == m and pinning_triple(np.array(ns), np.array(ds)) is not None:
            break
    order = rng.permutation(m)
    region = {"normals": np.array(ns)[order], "offsets": np.array(ds)[order]}
    if m == 3:
        region["oracle"] = {"p": p, "apex": apex}
    return region


def wedge(rng) -> dict:
    """Two non-parallel half-planes: parabolas fit, the size is unbounded."""
    phi = rng.uniform(0.0, 2.0 * np.pi)
    alpha = rng.uniform(0.3, 2.5)
    ns = np.array([[math.cos(phi), math.sin(phi)],
                   [math.cos(phi + alpha), math.sin(phi + alpha)]])
    return {"normals": ns, "offsets": rng.uniform(-1.0, 1.0, 2), "raises": "UnboundedParameter"}


def strip(rng) -> dict:
    """Two opposite half-planes: no axis direction fits at all."""
    phi = rng.uniform(0.0, 2.0 * np.pi)
    n = np.array([math.cos(phi), math.sin(phi)])
    width = rng.uniform(0.2, 3.0)
    d = rng.uniform(-1.0, 1.0)
    return {"normals": np.array([n, -n]), "offsets": np.array([d, width - d]),
            "raises": "NoInscribedParabola"}


def region_pass(rng, tiny: bool = False) -> list:
    """One pass of the regions workload, in shuffled order.

    24 triangles (m = 3), 12 pinned regions: m = 4..12 on the
    exhaustive C(m, 3) triple path and m = 13..24 on the binding-triple
    path, and 6 wedges and 6 strips that must raise.  The raising ops
    are cheaper than a triangle and the pinned ones dearer, 12 each, so
    the median latency is the median triangle solve; the 90th percentile
    falls among the pinned regions that take about a second (m = 7 and
    the binding-triple ones).  Shuffling lets slow spells of the machine
    hit every kind.
    """
    exhaustive = (4, 5) if tiny else (4, 5, 6, 7, 8, 12)
    heuristic = (13,) if tiny else (13, 15, 17, 19, 21, 24)
    out = [pinned_region(rng, 3) for _ in range(2 if tiny else 24)]
    out += [pinned_region(rng, m) for m in exhaustive + heuristic]
    for _ in range(1 if tiny else 6):
        out += [wedge(rng), strip(rng)]
    for r in out:
        r["starts"] = 64
        r["seed"] = int(rng.integers(0, 2**31))
        r["m"] = len(r["offsets"])
    return [out[i] for i in rng.permutation(len(out))]


# -- point sets ---------------------------------------------------------------


def min_size(thetas, pts) -> np.ndarray:
    """Smallest size a with horocycle (theta, a) enclosing each point.

    The horocycle is the ellipse with centre (1 - a^2) u, semi-axis a^2
    along u = (cos theta, sin theta) and a across it.  With r = p . u and
    s = p . u_perp, the point is inside iff
    (r - 1 + a^2)^2 + s^2 a^2 < a^4, i.e. a^2 > (1 - r)^2 / (2 - 2 r - s^2).
    Shape (len(thetas), len(pts)).
    """
    thetas = np.atleast_1d(np.asarray(thetas, float))[:, None]
    c, s = np.cos(thetas), np.sin(thetas)
    x, y = pts[None, :, 0], pts[None, :, 1]
    r = x * c + y * s
    t = y * c - x * s
    return np.sqrt((1.0 - r) ** 2 / (2.0 - 2.0 * r - t * t))


def _clip_to_disk(pts, rmax):
    nr = np.linalg.norm(pts, axis=1)
    far = nr > rmax
    pts[far] *= (rmax / nr[far])[:, None]
    return pts


def near_boundary_cluster(rng, n: int) -> np.ndarray:
    """Tight cluster near the absolute: a unique minimum far below 2^(-1/2)."""
    R = rng.uniform(0.85, 0.995)
    phi = rng.uniform(0.0, 2.0 * np.pi)
    centre = R * np.array([math.cos(phi), math.sin(phi)])
    spread = rng.uniform(0.05, 0.5) * (1.0 - R)
    return _clip_to_disk(centre + rng.normal(0.0, spread, (n, 2)), 0.999)


def _in_horocycle(rng, n: int, theta: float, a: float, shrink: float) -> np.ndarray:
    """n points uniform in the horocycle (theta, a) shrunk about its centre."""
    u = np.array([math.cos(theta), math.sin(theta)])
    w = np.array([-u[1], u[0]])
    rho = np.sqrt(rng.uniform(0.0, 1.0, n))
    ang = rng.uniform(0.0, 2.0 * np.pi, n)
    along = (1.0 - a * a) + shrink * a * a * rho * np.cos(ang)
    across = shrink * a * rho * np.sin(ang)
    return along[:, None] * u + across[:, None] * w


def spread_set(rng, n: int) -> np.ndarray:
    """Points filling most of one horocycle of size 0.6 .. 0.7.

    The set fits in that horocycle, so its minimum is below 2^(-1/2) and
    unique; the more points, the closer the minimum gets to that size.
    """
    return _in_horocycle(rng, n, rng.uniform(0.0, 2.0 * np.pi), rng.uniform(0.6, 0.7), 0.98)


def centre_set(rng, n: int) -> np.ndarray:
    """The centre plus points inside one horocycle of size 2^(-1/2).

    Every horocycle of size 2^(-1/2) passes through the centre, so the
    minimum is exactly 2^(-1/2) and is attained by a whole arc of ideal
    angles: degenerate, not unique.
    """
    pts = _in_horocycle(rng, n - 1, rng.uniform(0.0, 2.0 * np.pi), INV_SQRT2, 0.9)
    pts = np.vstack([np.zeros((1, 2)), pts])
    return pts[rng.permutation(n)]


FAMILIES = {
    "near-boundary": (near_boundary_cluster, True),
    "spread": (spread_set, True),
    "centre": (centre_set, False),
}


def point_pass(rng, tiny: bool = False) -> list:
    """One pass of the point-sets workload, in shuffled order.

    Near-boundary and spread sets: five of n = 10, four of n = 10^3, one
    of n = 10^4 and two of n = 2 10^4.  Centre sets: one of each size and
    two of n = 2 10^4 (a centre set of 10 points takes 30 times longer
    than the others: its profile has many tied minima).  As many ops are
    cheaper than the n = 10^3 near-boundary and spread sets as are
    dearer, so the median latency is theirs; n = 2 10^4 is one op in
    five, so the 90th percentile falls inside that class.
    """
    if tiny:
        counts = {10: 1, 200: 1, 400: 1, 800: 1}
        plan = {fam: counts for fam in FAMILIES}
    else:
        plan = {fam: {10: 5, 1000: 4, 10_000: 1, 20_000: 2} for fam in ("near-boundary", "spread")}
        plan["centre"] = {10: 1, 1000: 1, 10_000: 1, 20_000: 2}
    out = []
    for fam, counts in plan.items():
        make, unique = FAMILIES[fam]
        for n, count in counts.items():
            for _ in range(count):
                out.append({"family": fam, "n": n, "points": make(rng, n), "unique": unique})
    return [out[i] for i in rng.permutation(len(out))]


# -- sampled checks -----------------------------------------------------------

SUITES = ("pencil", "cover", "all")


def sampled_pass(rng, tiny: bool = False) -> list:
    """Three exparabola batches before each verify suite, suites rotating.

    One op in four is a suite, so the 90th latency percentile lies among
    the suite calls and the median among the batches.
    """
    out = []
    for suite in SUITES:
        for _ in range(3):
            out.append({"kind": "exparabolas", "triangles": triangle_batch(rng, 8 if tiny else 256)})
        out.append({"kind": "verify", "suite": suite, "seed": int(rng.integers(0, 2**31))})
    return out


# -- CLI calls ----------------------------------------------------------------


def _tri_dict(pts):
    return {"A": pts[0].tolist(), "B": pts[1].tolist(), "C": pts[2].tolist()}


def cli_pass(rng, tiny: bool = False) -> list:
    """Ten distinct CLI calls, each of the five commands with and without --svg.

    A run makes at least two passes (``CliCold.min_passes``), so every
    input runs at least twice and its outputs can be compared byte for
    byte.  ``tiny`` keeps one call per command.
    """
    calls = []
    for svg in (False,) if tiny else (False, True):
        tri = triangle(rng, rng.uniform(0.06, 0.43), 1.0, shift=1.0)
        calls.append(("exparabola", {"triangle": _tri_dict(tri)}, svg,
                      {"p": {opp: exparabola_ab(*tri[list(order)])[0]
                             for opp, order in (("C", (0, 1, 2)), ("A", (1, 2, 0)),
                                                ("B", (2, 0, 1)))}}))
        region = pinned_region(rng, 3 + int(svg))
        calls.append(("max-parabola", {"halfplanes": [
            {"normal": n.tolist(), "offset": float(d)}
            for n, d in zip(region["normals"], region["offsets"])]}, svg, region))
        a = rng.uniform(0.15, 0.65)
        while True:
            omega = rng.uniform(0.05, 1.0)
            c, s = math.cos(omega), math.sin(omega)
            if 2.0 * a * a - a * a * c * c - s * s > 1e-3:
                break
        calls.append(("lemma-shrink", {"a": a, "omega": omega}, svg, {}))
        pts = near_boundary_cluster(rng, int(rng.integers(5, 51)))
        calls.append(("min-horocycle", {"points": pts.tolist()}, svg, {"points": pts}))
        calls.append(("verify", {"suite": "cover", "cases": 10, "samples": 2000}, svg, {}))
    return [
        {"key": k, "command": c, "input": payload, "svg": svg, "expect": expect}
        for k, (c, payload, svg, expect) in enumerate(calls)
    ]


def digest(ops) -> str:
    """Short hash of the generated inputs, to show two runs did the same work."""
    h = hashlib.sha256()

    def feed(obj):
        if isinstance(obj, np.ndarray):
            h.update(np.ascontiguousarray(obj, dtype=float).tobytes())
        elif isinstance(obj, dict):
            for k in sorted(obj):
                h.update(k.encode())
                feed(obj[k])
        elif isinstance(obj, (list, tuple)):
            for v in obj:
                feed(v)
        else:
            h.update(json.dumps(obj).encode())

    feed(ops)
    return h.hexdigest()[:16]
