"""Sampled verification suites for the pencil and horocycle claims.

Each suite draws reproducible random instances, checks the claim on a
sampled set, and returns a plain dict report with a ``passed`` flag and
violation counts.  Case seeds derive from the master seed, so reports
are deterministic.  The dual-pencil suite builds each case's witness
and sampled lines in one array pass of ``halfplane_violation`` on rows.
"""

from __future__ import annotations

import numpy as np

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
    pencil_blend,
)

BLEND_GRID = np.arange(0.1, 0.95, 0.1)


def run_parallel(fun, args_list):
    """Order-preserving map over independent verification cases."""
    return [fun(a) for a in args_list]


# -- primal pencil: common interior points stay interior ----------------------


def _random_ellipse_through_origin(rng) -> ConicMatrix:
    """Random ellipse matrix with the origin strictly interior."""
    while True:
        ax = rng.uniform(0.5, 2.0, 2)
        ang = rng.uniform(0.0, np.pi)
        c, s = np.cos(ang), np.sin(ang)
        rot = np.array([[c, -s], [s, c]])
        q = rot @ np.diag(1.0 / ax**2) @ rot.T
        center = rng.uniform(-0.4, 0.4, 2) * ax.min()
        val = center @ q @ center - 1.0
        if val < -0.05:
            m = np.empty((3, 3))
            m[0, 0] = val
            m[0, 1:] = -(q @ center)
            m[1:, 0] = -(q @ center)
            m[1:, 1:] = q
            return ConicMatrix(m)


def pencil_interior_preservation(
    pairs: int = 40, points_per_pair: int = 250, seed: int = 0
) -> dict:
    """Common interior points of two conics stay interior along the blend."""

    def one(case_seed: int) -> tuple[int, int]:
        rng = np.random.default_rng(case_seed)
        witness = HomPoint([1.0, 0.0, 0.0])
        c0 = normalize_interior(_random_ellipse_through_origin(rng), witness)
        c1 = normalize_interior(_random_ellipse_through_origin(rng), witness)
        pts = np.empty((0, 2))
        while len(pts) < points_per_pair:
            cand = rng.uniform(-3.0, 3.0, (4 * points_per_pair, 2))
            hom = np.column_stack([np.ones(len(cand)), cand])
            inside = (np.einsum("ni,ij,nj->n", hom, c0.m, hom) < 0.0) & (
                np.einsum("ni,ij,nj->n", hom, c1.m, hom) < 0.0
            )
            pts = np.vstack([pts, cand[inside]])
        pts = pts[:points_per_pair]
        hom = np.column_stack([np.ones(len(pts)), pts])
        bad = 0
        for t in BLEND_GRID:
            blend = pencil_blend(c0, c1, float(t))
            bad += int((np.einsum("ni,ij,nj->n", hom, blend.m, hom) >= 0.0).sum())
        return len(pts) * len(BLEND_GRID), bad

    seeds = [seed * 100_003 + i for i in range(pairs)]
    results = run_parallel(one, seeds)
    checked = sum(r[0] for r in results)
    violations = sum(r[1] for r in results)
    return {
        "suite": "pencil-interior",
        "pairs": pairs,
        "checked": checked,
        "violations": violations,
        "passed": violations == 0,
    }


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
    """

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
        # all constructed lines genuinely miss both parabolas
        assert all(_line_misses_parabola(*g, lines[:, 1:], -lines[:, 0]).all() for g in geo)
        witness, lines = HomPoint(lines[0]), lines[1:]
        d0 = normalize_interior(duals[0], witness)
        d1 = normalize_interior(duals[1], witness)
        checked = 0
        bad = 0
        # the sampled missing lines must be on the witness side of both duals
        v0 = np.einsum("ni,ij,nj->n", lines, d0.m, lines)
        v1 = np.einsum("ni,ij,nj->n", lines, d1.m, lines)
        bad += int((v0 >= 0.0).sum() + (v1 >= 0.0).sum())
        checked += 2 * len(lines)
        e0 = np.array([1.0, 0.0, 0.0])
        for t in BLEND_GRID:
            blend = pencil_blend(d0, d1, float(t))
            vals = np.einsum("ni,ij,nj->n", lines, blend.m, lines)
            bad += int((vals >= 0.0).sum())
            checked += len(lines)
            # dual blend member remains a dual parabola
            scale = np.abs(blend.m).max()
            if abs(e0 @ blend.m @ e0) > 1e-9 * scale:
                bad += 1
            checked += 1
        return checked, bad

    seeds = [seed * 100_019 + i for i in range(pairs)]
    results = run_parallel(one, seeds)
    checked = sum(r[0] for r in results)
    violations = sum(r[1] for r in results)
    return {
        "suite": "dual-pencil-lines",
        "pairs": pairs,
        "checked": checked,
        "violations": violations,
        "passed": violations == 0,
    }


# -- horocycle cover: size reduction and containment ---------------------------


def _check_cover_args(cases: int, a_range) -> None:
    """ValueError unless there is a case and an overlapping pair can be
    drawn: the radicand is largest at the largest size and the smallest
    angle 0.02, and the draws would never end without one."""
    if cases < 1:
        raise ValueError("cases must be at least 1")
    if not intersection_radicand(max(a_range), 0.02) > 1e-6:
        raise ValueError(f"a_range {tuple(a_range)} admits no overlapping horocycle pair")


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
    _check_cover_args(cases, a_range)

    def one(case_seed: int) -> dict:
        rng = np.random.default_rng(case_seed)
        a, omega = _random_pair_with_overlap(rng, *a_range)
        cover = common_cover_unchecked(a, omega)
        t = np.tan(0.5 * omega)
        if a < INV_SQRT2:
            rep = check_size_reduction_identities(a, t)
            identity_err = rep.rhs_at_t1_identity_error
            factor_err = rep.factorization_rel_error
            identities_ok = rep.passed
        else:
            identity_err = 0.0
            factor_err = None
            identities_ok = True
        return {
            "margin": a - cover.a,
            "identity_err": identity_err,
            "factor_err": factor_err,
            "ok": cover.a < a and identities_ok,
        }

    seeds = [seed * 100_043 + i for i in range(cases)]
    results = run_parallel(one, seeds)
    worst_margin = min(r["margin"] for r in results)
    factor_errs = [r["factor_err"] for r in results if r["factor_err"] is not None]
    return {
        "suite": "cover-size-reduction",
        "cases": cases,
        "min_margin": worst_margin,
        "max_identity_error": max(r["identity_err"] for r in results),
        "max_factorization_error": max(factor_errs) if factor_errs else None,
        "violations": sum(not r["ok"] for r in results),
        "passed": all(r["ok"] for r in results) and worst_margin > 0.0,
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
    ``_check_cover_args`` does, or when ``samples < 1``.
    """
    if samples < 1:
        raise ValueError("samples must be at least 1")
    _check_cover_args(cases, a_range)

    def one(case_seed: int) -> dict:
        rng = np.random.default_rng(case_seed)
        a, omega = _random_pair_with_overlap(rng, *a_range)
        t = float(np.tan(0.5 * omega))
        rep = check_cover_containment(a, t, samples=samples, seed=case_seed + 1)
        return {
            "a": a,
            "t": t,
            "common": rep.common_interior_points,
            "k_viol": rep.k_violations,
            "cont_viol": rep.containment_violations,
            "size_grew": (rep.size_reduced is False),
        }

    seeds = [seed * 100_057 + i for i in range(cases)]
    results = run_parallel(one, seeds)
    k_viol = sum(r["k_viol"] for r in results)
    cont_viol = sum(r["cont_viol"] for r in results)
    below = a_range[1] <= INV_SQRT2
    return {
        "suite": "cover-containment",
        "cases": cases,
        "samples_per_case": samples,
        "common_interior_points": sum(r["common"] for r in results),
        "k_violations": k_viol,
        "containment_violations": cont_viol,
        "size_growth_cases": sum(r["size_grew"] for r in results),
        "passed": (k_viol == 0 and cont_viol == 0) if below else True,
    }


def run_suite(name: str, seed: int = 0, **kw) -> dict:
    """Run one named suite (or 'all') and aggregate the reports."""
    if name == "pencil":
        reports = [
            pencil_interior_preservation(seed=seed),
            dual_pencil_line_preservation(seed=seed),
        ]
    elif name == "cover":
        a_range = tuple(kw.get("a_range", (0.05, 0.70)))
        reports = [
            size_reduction_suite(
                seed=seed,
                cases=int(kw.get("cases", 100)),
                a_range=a_range,
            ),
            cover_containment_suite(
                seed=seed,
                cases=int(kw.get("cases", 20)),
                samples=int(kw.get("samples", 20_000)),
                a_range=a_range,
            ),
        ]
    elif name == "all":
        reports = run_suite("pencil", seed)["reports"] + run_suite(
            "cover", seed, **kw
        )["reports"]
    else:
        raise ValueError(f"unknown suite: {name!r}")
    return {
        "suite": name,
        "reports": reports,
        "passed": all(r["passed"] for r in reports),
    }
