"""Sampled verification suites for the pencil and horocycle claims.

Each suite draws reproducible random instances, checks the claim on a
sampled set, and returns a plain dict report with a ``passed`` flag and
violation counts.  Case seeds derive from the master seed, so reports
are deterministic.  The dual-pencil suite builds each case's witness
and sampled lines in one array pass of ``halfplane_violation`` on rows.
Each pencil case stacks its two conics and their ``BLEND_GRID`` members
in one broadcast (``_blend_stack``) and takes every quadratic form of
the case in one product (``_forms``).
"""

from __future__ import annotations

from numbers import Real

import numpy as np

from . import horocycle
from .errors import check_count
from .horocycle import (
    INV_SQRT2,
    check_cover_containment,
    check_size_reduction_identities,
    common_cover_unchecked,
    intersection_radicand,
)
from .maxparabola import halfplane_violation
from .parabola import Parabola
from .projective import (
    ConicMatrix,
    HomPoint,
    dualize,
    normalize_interior,
)

BLEND_GRID = np.arange(0.1, 0.95, 0.1)
MAX_CASES = 100_000  # cases per cover suite, checked before any work
COVER_KEYWORDS = ("cases", "samples", "a_range")
SUITE_KEYWORDS = {"pencil": (), "cover": COVER_KEYWORDS, "all": COVER_KEYWORDS}


def run_parallel(fun, args_list):
    """Order-preserving map over independent verification cases."""
    return [fun(a) for a in args_list]


def _forms(rows: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """Quadratic forms r^T M r of (n, 3) rows: one matrix -> (n,), a stack
    of k -> (k, n)."""
    return np.einsum("...i,...i->...", rows @ mats, rows)


def _blend_stack(c0: ConicMatrix, c1: ConicMatrix) -> np.ndarray:
    """c0, c1 and their ``BLEND_GRID`` members as one (2 + len(BLEND_GRID), 3, 3)
    stack, each member ``pencil_blend(c0, c1, t).m`` bit for bit; none is
    zero, as both ends are negative at their common witness."""
    t = BLEND_GRID[:, None, None]
    return np.concatenate([[c0.m, c1.m], (1.0 - t) * c0.m + t * c1.m])


def _pencil_report(suite: str, one, seeds: range) -> dict:
    """Run a pencil suite's ``one`` on every case seed and sum its
    (checked, violations) counts."""
    checked, violations = map(sum, zip(*run_parallel(one, seeds)))
    return {
        "suite": suite,
        "pairs": len(seeds),
        "checked": checked,
        "violations": violations,
        "passed": violations == 0,
    }


# -- primal pencil: common interior points stay interior ----------------------


def _random_ellipse_through_origin(rng) -> ConicMatrix:
    """Random ellipse matrix with the origin strictly interior: each centre coordinate
    is within 0.4 of the shorter semi-axis, so the form there is at most 0.32 - 1."""
    ax = rng.uniform(0.5, 2.0, 2)
    ang = rng.uniform(0.0, np.pi)
    c, s = np.cos(ang), np.sin(ang)
    rot = np.array([[c, -s], [s, c]])
    q = rot @ np.diag(1.0 / ax**2) @ rot.T
    center = rng.uniform(-0.4, 0.4, 2) * ax.min()
    m = np.empty((3, 3))
    m[0, 0] = center @ q @ center - 1.0
    m[0, 1:] = -(q @ center)
    m[1:, 0] = -(q @ center)
    m[1:, 1:] = q
    return ConicMatrix(m)


def pencil_interior_preservation(
    pairs: int = 40, points_per_pair: int = 250, seed: int = 0
) -> dict:
    """Common interior points of two conics stay interior along the blend;
    ValueError unless ``pairs`` and ``points_per_pair`` are counts >= 1."""
    pairs = check_count("pairs", pairs)
    points_per_pair = check_count("points_per_pair", points_per_pair)

    def one(case_seed: int) -> tuple[int, int]:
        rng = np.random.default_rng(case_seed)
        witness = HomPoint([1.0, 0.0, 0.0])
        c0 = normalize_interior(_random_ellipse_through_origin(rng), witness)
        c1 = normalize_interior(_random_ellipse_through_origin(rng), witness)
        stack = _blend_stack(c0, c1)
        # homogeneous rows (1, x, y) of points inside both conics
        rows = np.empty((0, 3))
        while len(rows) < points_per_pair:
            cand = rng.uniform(-3.0, 3.0, (4 * points_per_pair, 2))
            hom = np.column_stack([np.ones(len(cand)), cand])
            inside = (_forms(hom, stack[:2]) < 0.0).all(axis=0)
            rows = np.vstack([rows, hom.compress(inside, axis=0)])
        vals = _forms(rows[:points_per_pair], stack[2:])
        return vals.size, int(np.count_nonzero(vals >= 0.0))

    return _pencil_report("pencil-interior", one, range(seed * 100_003, seed * 100_003 + pairs))


# -- dual pencil: lines missing both parabolas miss every blend member --------


def _line_misses_parabola(apex, angle, p, normal, offset):
    """True where the line n.x = offset avoids the parabola entirely (a bool
    for one normal, an array for rows of normals and offsets)."""
    axis, n = (np.cos(angle), np.sin(angle)), np.asarray(normal, dtype=float)
    return (halfplane_violation(apex, axis, p, n, offset) < 0.0) | (
        halfplane_violation(apex, axis, p, -n, -offset) < 0.0
    )


def _missing_lines(geo, jitters, gaps) -> np.ndarray:
    """Rows (-d, n) of lines n.x = d missing both parabolas of ``geo``, in one
    array pass: each normal opposes the mean axis, turned by its jitter, and
    d is the larger support of n.x plus its gap."""
    (_, u0, _), (_, u1, _) = geo
    ang = np.arctan2(np.sin(u0) + np.sin(u1), np.cos(u0) + np.cos(u1)) + np.pi + jitters
    normals = np.column_stack([np.cos(ang), np.sin(ang)])
    sup = np.maximum(
        *(halfplane_violation(a, (np.cos(t), np.sin(t)), p, normals, 0.0) for a, t, p in geo)
    )
    return np.column_stack([-(sup + gaps), normals])


def dual_pencil_line_preservation(
    pairs: int = 25, lines_per_pair: int = 400, seed: int = 0
) -> dict:
    """Lines disjoint from both parabolas stay disjoint from dual blends.

    Dual matrices are normalized against a witness line known (by the
    closed-form containment test) to miss both primal parabolas; the
    blend property is asserted at the line level via the dual quadratic
    form, and each dual blend member is checked to be a dual parabola.
    ValueError unless ``pairs`` and ``lines_per_pair`` are counts >= 1.
    """
    pairs = check_count("pairs", pairs)
    lines_per_pair = check_count("lines_per_pair", lines_per_pair)

    def one(case_seed: int) -> tuple[int, int]:
        rng = np.random.default_rng(case_seed)
        base_angle = rng.uniform(0.0, 2.0 * np.pi)
        geo = []
        duals = []
        for _ in range(2):
            # axes within a quarter turn of each other so that lines
            # missing both parabolas exist (their normals fill a cone)
            apex = rng.uniform(-2.0, 2.0, 2)
            angle = base_angle + rng.uniform(-0.7, 0.7)
            p = rng.uniform(0.3, 3.0)
            geo.append((apex, angle, p))
            duals.append(dualize(Parabola(apex, angle, p).conic))

        # row 0 is the witness line: no jitter, gap 1
        jits = np.concatenate([[0.0], rng.uniform(-0.5, 0.5, lines_per_pair)])
        gaps = np.concatenate([[1.0], rng.uniform(0.01, 10.0, lines_per_pair)])
        lines = _missing_lines(geo, jits, gaps)
        # a constructed line that fails to miss both parabolas is a violation
        misses = [_line_misses_parabola(*g, lines[:, 1:], -lines[:, 0]) for g in geo]
        bad = int(np.count_nonzero(~np.logical_and(*misses)))
        witness, lines = HomPoint(lines[0]), lines[1:]
        d0 = normalize_interior(duals[0], witness)
        d1 = normalize_interior(duals[1], witness)
        stack = _blend_stack(d0, d1)
        # the sampled missing lines must be on the witness side of both
        # duals and of every blend member
        vals = _forms(lines, stack)
        bad += int(np.count_nonzero(vals >= 0.0))
        # each dual blend member remains a dual parabola: e0^T M e0 = M[0, 0]
        members = stack[2:]
        scale = np.abs(members).max(axis=(1, 2))
        bad += int(np.count_nonzero(np.abs(members[:, 0, 0]) > 1e-9 * scale))
        return vals.size + len(members), bad

    return _pencil_report("dual-pencil-lines", one, range(seed * 100_019, seed * 100_019 + pairs))


# -- horocycle cover: size reduction and containment ---------------------------


def _check_cover_args(cases, a_range) -> int:
    """``cases`` as an int; ValueError unless it is a count in [1, MAX_CASES],
    ``a_range`` is two finite bounds in [0, 1), and an overlapping pair can
    be drawn: the radicand is largest at the largest size and the smallest
    angle 0.02, and the draws would never end without one."""
    cases = check_count("cases", cases, MAX_CASES)
    bounds = tuple(a_range)
    if not (len(bounds) == 2 and all(isinstance(v, Real) and 0.0 <= v < 1.0 for v in bounds)):
        raise ValueError(f"a_range {bounds} must be two finite bounds in [0, 1)")
    if not intersection_radicand(max(bounds), 0.02) > 1e-6:
        raise ValueError(f"a_range {bounds} admits no overlapping horocycle pair")
    return cases


def _random_pair_with_overlap(rng, a_lo: float, a_hi: float):
    while True:
        a = rng.uniform(a_lo, a_hi)
        omega = rng.uniform(0.02, 1.2)
        if intersection_radicand(a, omega) > 1e-6:
            return a, omega


def size_reduction_suite(
    cases: int = 100,
    seed: int = 0,
    a_range=(0.05, 0.70),
) -> dict:
    """Random same-size pairs: the cover must be strictly smaller.

    Also checks the endpoint identity R|_{t=1} = 4 a^2 (1 - 2 a^2) and
    the factorization of L^2 - R^2 at each sampled (a, t).  Sizes are
    drawn from ``a_range``; a range above 2^{-1/2} makes the suite fail,
    which is exactly the sharpness of the bound.  Raises ValueError as
    ``_check_cover_args`` does.
    """
    cases = _check_cover_args(cases, a_range)

    def one(case_seed: int):  # margin, identity report (None at or above the bound), ok
        rng = np.random.default_rng(case_seed)
        a, omega = _random_pair_with_overlap(rng, *a_range)
        margin = a - common_cover_unchecked(a, omega).a  # > 0 exactly when cover.a < a
        rep = check_size_reduction_identities(a, np.tan(0.5 * omega)) if a < INV_SQRT2 else None
        return margin, rep, margin > 0.0 and (rep is None or rep.passed)

    seeds = range(seed * 100_043, seed * 100_043 + cases)
    margins, reps, oks = zip(*run_parallel(one, seeds))
    reps = [r for r in reps if r is not None]
    return {
        "suite": "cover-size-reduction",
        "cases": cases,
        "min_margin": min(margins),
        "max_identity_error": max((r.rhs_at_t1_identity_error for r in reps), default=0.0),
        "max_factorization_error": max((r.factorization_rel_error for r in reps), default=None),
        "violations": oks.count(False),
        "passed": all(oks),
    }


def cover_containment_suite(
    cases: int = 100,
    samples: int = 100_000,
    seed: int = 0,
    a_range=(0.05, 0.70),
) -> dict:
    """Sampled containment of the common interior in the cover.

    Below the bound every sampled common-interior point must satisfy the
    certificate k > 0 and lie inside the cover.  The dict also reports
    how many cases had the cover come out larger than a (the sharpness
    signal when a_range goes above 2^{-1/2}).  Raises ValueError as
    ``_check_cover_args`` does, or unless ``samples`` is a count in [1,
    ``horocycle.MAX_SAMPLES``].
    """
    cases = _check_cover_args(cases, a_range)
    samples = check_count("samples", samples, horocycle.MAX_SAMPLES)

    def one(case_seed: int):
        rng = np.random.default_rng(case_seed)
        a, omega = _random_pair_with_overlap(rng, *a_range)
        t = float(np.tan(0.5 * omega))
        return check_cover_containment(a, t, samples=samples, seed=case_seed + 1)

    seeds = range(seed * 100_057, seed * 100_057 + cases)
    reports = run_parallel(one, seeds)
    return {
        "suite": "cover-containment",
        "cases": cases,
        "samples_per_case": samples,
        "common_interior_points": sum(r.common_interior_points for r in reports),
        "k_violations": sum(r.k_violations for r in reports),
        "containment_violations": sum(r.containment_violations for r in reports),
        "size_growth_cases": sum(r.size_reduced is False for r in reports),
        # above 2^{-1/2} violations show the bound's sharpness, not a failure
        "passed": a_range[1] > INV_SQRT2 or all(r.passed for r in reports),
    }


def run_suite(name: str, seed: int = 0, **kw) -> dict:
    """Run one named suite (or 'all'); ValueError for a keyword not in its SUITE_KEYWORDS."""
    if name not in SUITE_KEYWORDS:
        raise ValueError(f"unknown suite: {name!r}")
    extra = [key for key in kw if key not in SUITE_KEYWORDS[name]]
    if extra:
        raise ValueError(f"suite {name!r} takes no keyword {extra[0]!r}")
    if name == "pencil":
        reports = [
            pencil_interior_preservation(seed=seed),
            dual_pencil_line_preservation(seed=seed),
        ]
    elif name == "cover":
        # both suites' arguments, before either runs a case
        a_range = tuple(kw.get("a_range", (0.05, 0.70)))
        cases = [_check_cover_args(kw.get("cases", n), a_range) for n in (100, 20)]
        samples = check_count("samples", kw.get("samples", 20_000), horocycle.MAX_SAMPLES)
        reports = [
            size_reduction_suite(seed=seed, cases=cases[0], a_range=a_range),
            cover_containment_suite(seed=seed, cases=cases[1], samples=samples, a_range=a_range),
        ]
    else:
        reports = run_suite("pencil", seed)["reports"] + run_suite(
            "cover", seed, **kw
        )["reports"]
    return {
        "suite": name,
        "reports": reports,
        "passed": all(r["passed"] for r in reports),
    }
