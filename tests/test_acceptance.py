"""Acceptance suite: one test per criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import json
import time

import numpy as np
from conic_extrema import (
    Triangle,
    check_cover_containment,
    common_cover,
    exparabolas,
    solve_max_parabola,
    solve_min_horocycle,
    squared_parameter,
    tangency_cubic,
    triangle_region,
)
from conic_extrema.cli import main as cli_main
from conic_extrema.exparabola import CanonicalFrame, solve_cubic
from conic_extrema.horocycle import (
    INV_SQRT2,
    check_size_reduction_identities,
    intersection_radicand,
)
from conic_extrema.minhorocycle import min_sizes_for_points
from conic_extrema.verify import (
    dual_pencil_line_preservation,
    pencil_interior_preservation,
)
from conftest import random_frame_params, random_pinned_region, random_triangle


def report(num, name, ok, detail=""):
    print(f"\n[criterion {num:2d}] {name}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def _adjugates(ms):
    """Vectorized 3x3 adjugates for a stack of matrices."""
    a = ms
    out = np.empty_like(a)
    idx = [(0, 1, 2), (1, 2, 0), (2, 0, 1)]
    for i, (i0, i1, i2) in enumerate(idx):
        for j, (j0, j1, j2) in enumerate(idx):
            out[:, j, i] = (
                a[:, i1, j1] * a[:, i2, j2] - a[:, i1, j2] * a[:, i2, j1]
            )
    return out


def test_criterion_01_exparabola_count_and_placement():
    n_triangles = 10_000
    rng = np.random.default_rng(101)
    triangles = [random_triangle(rng, min_ratio=0.02) for _ in range(n_triangles)]
    # timed section: the 10^4 solves themselves
    t0 = time.monotonic()
    all_results = [exparabolas(tri) for tri in triangles]
    elapsed = time.monotonic() - t0
    conics = []
    normals = []
    offsets = []
    diams = []
    axes_raw = []
    for tri, res in zip(triangles, all_results):
        assert len(res) == 3
        assert {r.opposite_vertex for r in res} == {"A", "B", "C"}
        verts = {"A": tri.A, "B": tri.B, "C": tri.C}
        for r in res:
            conics.append(r.parabola.conic.m)
            m = r.parabola.conic.m
            axes_raw.append([-m[1, 2], m[1, 1]])
            # region half-planes: negative for r.side, positive for others
            ns = []
            ds = []
            for side, (v1, v2) in (("AB", "AB"), ("BC", "BC"), ("CA", "CA")):
                p1, p2 = verts[side[0]], verts[side[1]]
                opp = verts[{"AB": "C", "BC": "A", "CA": "B"}[side]]
                e = p2 - p1
                nv = np.array([-e[1], e[0]])
                nv = nv / np.linalg.norm(nv)
                d = float(nv @ p1)
                if float(nv @ opp) > d:
                    nv, d = -nv, -d  # positive orientation
                if side == r.side:
                    nv, d = -nv, -d  # negative half-plane for its own side
                ns.append(nv)
                ds.append(d)
            normals.append(ns)
            offsets.append(ds)
            diams.append(tri.diameter)
    conics = np.array(conics)
    normals = np.array(normals)  # (3N, 3, 2)
    offsets = np.array(offsets)
    diams = np.array(diams)
    ad = _adjugates(conics)
    # support line of the parabola with normal n: the unique tangent
    # offset d*(n) = n^T A n / (2 (ad01 n1 + ad02 n2)); tangency to the
    # region boundary means d*(n) equals the half-plane offset
    sub = ad[:, 1:, 1:]
    nAn = np.einsum("kri,kij,krj->kr", normals, sub, normals)
    lin = 2.0 * (
        normals[:, :, 0] * ad[:, 0, 1][:, None]
        + normals[:, :, 1] * ad[:, 0, 2][:, None]
    )
    dstar = nAn / lin
    resid = np.abs(dstar - offsets).max(axis=1)
    worst = (resid / diams).max()
    # region placement: the opening direction must recede into every
    # half-plane of the parabola's region
    axes_raw = np.array(axes_raw)
    axes = axes_raw / np.linalg.norm(axes_raw, axis=1, keepdims=True)
    ndot = np.einsum("kri,ki->kr", normals, axes)
    recedes = np.minimum(ndot.max(axis=1), (-ndot).max(axis=1))  # best sign
    ok = worst <= 1e-9 and np.all(recedes < 0.0) and elapsed <= 10.0
    report(
        1,
        "exparabola count and placement",
        ok,
        f"max residual/diam {worst:.2e}, {n_triangles} triangles in {elapsed:.1f}s",
    )


def test_criterion_02_worked_exparabola():
    # oracle: cubic lam^3 - 5 lam has roots {-sqrt5, 0, sqrt5}; only 0
    # lies in (-1, 1); squared parameter 4 c2^4 / (0 + 1)^3 = 4, so p = 2,
    # tangent to y = -x + 1 and y = x + 1 (the lines of x^2 = -4y's triangle)
    res = exparabolas(Triangle([-1.0, 0.0], [1.0, 0.0], [0.0, 1.0]))
    ab = next(r for r in res if r.side == "AB")
    ok = (
        abs(ab.lam) <= 1e-10
        and abs(ab.parabola.parameter - 2.0) <= 1e-10 * 2.0
        and ab.opposite_vertex == "C"
    )
    report(2, "worked exparabola value", ok, f"lambda={ab.lam:.2e}, p={ab.parabola.parameter:.15f}")


def test_criterion_03_cubic_sign_identity():
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(1000):
        a1, b1, c2 = random_frame_params(rng)
        fr = CanonicalFrame(a1=a1, b1=b1, c2=c2, world_to_frame=np.eye(3))
        coeffs = tangency_cubic(fr)
        ea, eb = np.polyval(coeffs, [a1, b1])
        magnitude = (b1**2 + c2**2) * (a1 - b1) ** 2 * (a1**2 + c2**2)
        worst = max(worst, abs(ea * eb + magnitude) / magnitude)
    ok = worst <= 1e-9
    report(3, "cubic sign identity", ok, f"max relative residual {worst:.2e}")


def test_criterion_04_derivative_consistency():
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(1000):
        a1, b1, c2 = random_frame_params(rng)
        fr = CanonicalFrame(a1=a1, b1=b1, c2=c2, world_to_frame=np.eye(3))
        roots = solve_cubic(tangency_cubic(fr))
        h = 1e-6 * (b1 - a1)
        scale = max(squared_parameter(fr, lam) for lam in roots)
        for lam in roots:
            d = (squared_parameter(fr, lam + h) - squared_parameter(fr, lam - h)) / (
                2.0 * h
            )
            worst = max(worst, abs(d) / scale)
    ok = worst <= 1e-7
    report(4, "derivative consistency at cubic roots", ok, f"max |fd|/max p^2 = {worst:.2e}")


def test_criterion_05_solver_oracle_agreement():
    rng = np.random.default_rng(105)
    t0 = time.monotonic()
    worst = 0.0
    for i in range(100):
        tri = random_triangle(rng, min_ratio=0.05)
        opp = str(rng.choice(["A", "B", "C"]))
        expected = next(
            r.parabola.parameter for r in exparabolas(tri) if r.opposite_vertex == opp
        )
        sol = solve_max_parabola(triangle_region(tri, opp), starts=64, seed=1000 + i)
        worst = max(worst, abs(sol.parabola.parameter - expected) / expected)
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-6 and elapsed <= 60.0
    report(5, "solver-oracle agreement", ok, f"max rel err {worst:.2e}, 100 regions in {elapsed:.1f}s")


def test_criterion_06_uniqueness_witness():
    rng = np.random.default_rng(106)
    scale = 1e3
    bimodal = 0
    max_spread = 0.0
    for i in range(100):
        region, _ = random_pinned_region(rng)
        sol = solve_max_parabola(region, starts=64, seed=2000 + i)
        max_spread = max(max_spread, sol.convergence.spread)
        if sol.convergence.spread > 1e-4 * scale:
            bimodal += 1
    ok = bimodal == 0
    report(6, "uniqueness witness (multi-start)", ok, f"max spread {max_spread:.2e}, bimodal {bimodal}")


def test_criterion_07_size_inequality_and_identities():
    rng = np.random.default_rng(107)
    done = 0
    min_margin = np.inf
    worst_t1 = 0.0
    worst_fact = 0.0
    while done < 100:
        a = rng.uniform(0.05, 0.70)
        omega = rng.uniform(0.01, 1.3)
        if intersection_radicand(a, omega) <= 1e-9:
            continue
        cover = common_cover(a, omega)
        min_margin = min(min_margin, a - cover.a)
        rep = check_size_reduction_identities(a, float(np.tan(0.5 * omega)))
        worst_t1 = max(worst_t1, rep.rhs_at_t1_identity_error)
        worst_fact = max(worst_fact, rep.factorization_rel_error)
        done += 1
    ok = min_margin > 0.0 and worst_t1 <= 1e-12 and worst_fact <= 1e-10
    report(
        7,
        "size inequality and proof identities",
        ok,
        f"min margin {min_margin:.2e}, endpoint id {worst_t1:.2e}, factorization {worst_fact:.2e}",
    )


def test_criterion_08_containment_and_sharpness():
    t0 = time.monotonic()
    rng = np.random.default_rng(108)
    k_viol = 0
    cont_viol = 0
    common_total = 0
    done = 0
    while done < 100:
        a = rng.uniform(0.05, 0.70)
        omega = rng.uniform(0.01, 1.3)
        t = float(np.tan(0.5 * omega))
        if intersection_radicand(a, omega) <= 1e-9:
            continue
        rep = check_cover_containment(a, t, samples=100_000, seed=5000 + done)
        k_viol += rep.k_violations
        cont_viol += rep.containment_violations
        common_total += rep.common_interior_points
        done += 1
    # sharpness: above the bound the covering construction stops shrinking
    sharp_violations = 0
    for j in range(10):
        a = float(rng.uniform(0.72, 0.9))
        omega = float(rng.uniform(0.05, 0.8))
        rep = check_cover_containment(a,
            float(np.tan(0.5 * omega)), samples=20_000, seed=7000 + j)
        if rep.size_reduced is False:
            sharp_violations += 1
    elapsed = time.monotonic() - t0
    ok = (
        k_viol == 0
        and cont_viol == 0
        and common_total > 0
        and sharp_violations >= 1
        and elapsed <= 120.0
    )
    report(
        8,
        "containment below bound, sharpness above",
        ok,
        f"{common_total} lens points, k/containment violations {k_viol}/{cont_viol}, "
        f"size-guarantee violations above bound {sharp_violations}/10, {elapsed:.1f}s",
    )


def test_criterion_09_boundary_degeneracy():
    sol = solve_min_horocycle([[0.0, 0.0]])
    spread = float(np.ptp(sol.profile.values))
    ok = (
        abs(sol.horocycle.a - INV_SQRT2) <= 1e-12
        and sol.unique is False
        and spread <= 1e-12
    )
    report(
        9,
        "boundary degeneracy at the disk center",
        ok,
        f"a*={sol.horocycle.a:.16f}, unique={sol.unique}, profile spread {spread:.2e}",
    )


def test_criterion_10_minimal_horocycle_correctness():
    rng = np.random.default_rng(110)
    t0 = time.monotonic()
    done = 0
    worst_margin = -np.inf
    worst_theta = 0.0
    worst_rot = 0.0
    while done < 100:
        n = int(rng.integers(1, 51))
        center = rng.uniform(-0.45, 0.45, 2)
        pts = center + rng.uniform(-0.2, 0.2, (n, 2))
        pts = pts[(pts**2).sum(axis=1) < 0.85]
        if len(pts) == 0:
            continue
        sol = solve_min_horocycle(pts)
        if sol.horocycle.a >= 0.7:
            continue
        a_star = sol.horocycle.a
        needs = min_sizes_for_points([sol.horocycle.theta], pts)[0]
        worst_margin = max(worst_margin, float((needs - a_star).max()))
        assert len(sol.support) >= 1
        assert needs.max() >= a_star - 1e-8  # support point touches
        # a finer grid (721 to 728 angles) must find the same theta*
        sol2 = solve_min_horocycle(pts, grid=720 + round(1000 * rng.uniform(0.001, 0.008)))
        dth = abs(
            (sol.horocycle.theta - sol2.horocycle.theta + np.pi) % (2 * np.pi) - np.pi
        )
        worst_theta = max(worst_theta, dth)
        phi = float(rng.uniform(0.0, 2.0 * np.pi))
        rot = np.array([[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]])
        sol3 = solve_min_horocycle(pts @ rot.T)
        worst_rot = max(worst_rot, abs(sol3.horocycle.a - a_star) / a_star)
        dth3 = abs(
            (sol3.horocycle.theta - sol.horocycle.theta - phi + np.pi) % (2 * np.pi)
            - np.pi
        )
        worst_theta = max(worst_theta, dth3)
        done += 1
    elapsed = time.monotonic() - t0
    ok = (
        worst_margin <= 1e-10
        and worst_theta <= 1e-6
        and worst_rot <= 1e-9
        and elapsed <= 60.0
    )
    report(
        10,
        "minimal horocycle correctness",
        ok,
        f"enclosure {worst_margin:.1e}, theta agreement {worst_theta:.1e} rad, "
        f"rotation equivariance {worst_rot:.1e}, {elapsed:.1f}s",
    )


def test_criterion_11_pencil_invariants():
    interior = pencil_interior_preservation(pairs=40, points_per_pair=250, seed=111)
    dual = dual_pencil_line_preservation(pairs=25, lines_per_pair=400, seed=112)
    ok = (
        interior["passed"]
        and dual["passed"]
        and interior["checked"] >= 10_000
        and dual["checked"] >= 10_000
    )
    report(
        11,
        "pencil interior and dual-line preservation",
        ok,
        f"interior {interior['checked']} checks / {interior['violations']} violations, "
        f"dual {dual['checked']} / {dual['violations']}",
    )


def test_criterion_12_cli_determinism(tmp_path):
    s2 = 0.7071067811865475
    jobs = {
        "exparabola": {"triangle": {"A": [-1.0, 0.0], "B": [1.0, 0.0], "C": [0.0, 1.0]}},
        "max-parabola": {
            "halfplanes": [
                {"normal": [0.0, 1.0], "offset": 0.0},
                {"normal": [s2, s2], "offset": s2},
                {"normal": [-s2, s2], "offset": s2},
            ]
        },
        "lemma-shrink": {"a": 0.5, "omega": 0.2},
        "min-horocycle": {"points": [[0.0, 0.0], [0.1, 0.2]]},
        "verify": {"suite": "cover", "cases": 4, "samples": 4000},
    }
    all_ok = True
    for cmd, payload in jobs.items():
        blobs = []
        for run in range(2):
            inp = tmp_path / f"{cmd}_{run}_in.json"
            out = tmp_path / f"{cmd}_{run}_out.json"
            inp.write_text(json.dumps(payload))
            code = cli_main(
                [cmd, "--input", str(inp), "--output", str(out), "--seed", "3"]
            )
            assert code == 0, f"{cmd} exited {code}"
            blobs.append(out.read_bytes())
        all_ok = all_ok and blobs[0] == blobs[1]
    report(12, "CLI determinism across all subcommands", all_ok, "5 commands, byte-identical")
