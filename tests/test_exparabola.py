"""Canonical frames, the tangent dual pencil, the cubic, and exparabolas."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conic_extrema.parabola as parabola_module
from conic_extrema import (
    ConicMatrix,
    DegenerateTriangle,
    NumericalRootFailure,
    SingularPencilMember,
    Triangle,
    canonical_frame,
    dual_pencil,
    Parabola,
    exparabolas,
    pencil_member,
    pencil_parabola,
    solve_cubic,
    solve_max_parabola,
    squared_parameter,
    tangency_cubic,
    tangency_root,
)
from conic_extrema.exparabola import MIN_AREA_RATIO, CanonicalFrame
from conic_extrema.maxparabola import halfplane_violation, triangle_region
from conic_extrema.parabola import apex_form, is_parabola
from conic_extrema.projective import adjugate, dualize, proj_equal
from conftest import random_frame_params, random_triangle

WORKED = Triangle([-1.0, 0.0], [1.0, 0.0], [0.0, 1.0])


def frame_of(a1, b1, c2):
    return CanonicalFrame(a1=a1, b1=b1, c2=c2, world_to_frame=np.eye(3))


def side_lines_of(frame):
    """Homogeneous coordinates of the three frame side lines."""
    a1, b1, c2 = frame.a1, frame.b1, frame.c2
    return np.array(
        [
            [-b1 * c2, c2, b1],  # c2 x + b1 y = b1 c2
            [-a1 * c2, c2, a1],  # c2 x + a1 y = a1 c2
            [0.0, 0.0, 1.0],  # y = 0
        ]
    )


class TestCanonicalFrame:
    def test_worked_identity_frame(self):
        fr = canonical_frame(WORKED, "AB")
        assert fr.a1 == pytest.approx(-1.0, abs=1e-14)
        assert fr.b1 == pytest.approx(1.0, abs=1e-14)
        assert fr.c2 == pytest.approx(1.0, abs=1e-14)
        assert np.allclose(fr.to_frame([0.0, 1.0]), [0.0, 1.0], atol=1e-14)

    def test_rotated_triangle_same_frame(self):
        rot = np.array([[0.0, -1.0], [1.0, 0.0]])
        t2 = Triangle(rot @ WORKED.A, rot @ WORKED.B, rot @ WORKED.C)
        fr = canonical_frame(t2, "AB")
        assert fr.a1 == pytest.approx(-1.0, abs=1e-12)
        assert fr.b1 == pytest.approx(1.0, abs=1e-12)
        assert fr.c2 == pytest.approx(1.0, abs=1e-12)

    def test_altitude_foot_example(self):
        # altitude from C = (1, 3) onto AB (the x-axis) has foot (1, 0)
        t = Triangle([0.0, 0.0], [4.0, 0.0], [1.0, 3.0])
        fr = canonical_frame(t, "AB")
        assert fr.a1 == pytest.approx(-1.0, abs=1e-12)
        assert fr.b1 == pytest.approx(3.0, abs=1e-12)
        assert fr.c2 == pytest.approx(3.0, abs=1e-12)
        assert np.allclose(fr.to_world([0.0, 0.0]), [1.0, 0.0], atol=1e-12)

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateTriangle):
            Triangle([0.0, 0.0], [1.0, 0.0], [2.0, 1e-12])

    def test_coincident_vertices_rejected(self):
        with pytest.raises(DegenerateTriangle):
            Triangle([1.0, 1.0], [1.0, 1.0], [1.0, 1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_vertex_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            Triangle([bad, 0.0], [1.0, 0.0], [0.0, 1.0])
        with pytest.raises(ValueError, match="finite"):
            Triangle([-1.0, 0.0], [1.0, 0.0], [0.0, bad])

    def test_round_trip_world_frame(self, rng):
        for _ in range(50):
            t = random_triangle(rng)
            fr = canonical_frame(t, "BC")
            pt = rng.uniform(-3, 3, 2)
            assert np.allclose(fr.to_world(fr.to_frame(pt)), pt, atol=1e-10)


class TestDualPencil:
    def test_side_lines_and_infinity_on_dual(self, rng):
        for _ in range(50):
            fr = frame_of(*random_frame_params(rng))
            lam = rng.uniform(-5.0, 5.0)
            d = dual_pencil(fr, lam)
            scale = np.abs(d.m).max()
            for u in side_lines_of(fr):
                assert abs(u @ d.m @ u) <= 1e-10 * scale * (u @ u)
            linf = np.array([1.0, 0.0, 0.0])
            assert abs(linf @ d.m @ linf) <= 1e-12 * scale

    def test_entries_at_lambda_zero(self):
        fr = frame_of(-1.0, 1.0, 1.0)
        assert np.allclose(
            dual_pencil(fr, 0.0).m,
            [[0.0, 0.0, 1.0], [0.0, 2.0, 0.0], [1.0, 0.0, 0.0]],
        )

    def test_dualized_member_is_parabola(self, rng):
        for _ in range(50):
            fr = frame_of(*random_frame_params(rng))
            lam = rng.uniform(fr.a1 + 0.1, fr.b1 - 0.1)
            assert is_parabola(dualize(dual_pencil(fr, lam)))


class TestPencilParabola:
    def test_worked_member_is_down_parabola(self):
        fr = frame_of(-1.0, 1.0, 1.0)
        para = pencil_parabola(fr, 0.0)
        # x^2 = -4y
        expected = np.array([[0.0, 0.0, 2.0], [0.0, 1.0, 0.0], [2.0, 0.0, 0.0]])
        assert proj_equal(para.conic.m, expected)
        assert para.parameter == pytest.approx(2.0, rel=1e-12)
        # tangent-line oracle: dual form vanishes on x+y=1, x-y=-1, y=0
        ad = adjugate(para.conic.m)
        for u in ([-1.0, 1.0, 1.0], [1.0, 1.0, -1.0], [0.0, 0.0, 1.0]):
            u = np.asarray(u)
            assert abs(u @ ad @ u) <= 1e-12 * np.abs(ad).max() * (u @ u)

    def test_singular_members_rejected(self):
        fr = frame_of(-1.0, 1.0, 1.0)
        with pytest.raises(SingularPencilMember):
            pencil_parabola(fr, -1.0)
        with pytest.raises(SingularPencilMember):
            pencil_parabola(fr, 1.0)

    def test_tangency_point_on_parabola_and_side(self):
        fr = frame_of(-1.0, 1.0, 1.0)
        para = pencil_parabola(fr, 0.3)
        v = np.array([1.0, 0.3, 0.0])
        assert abs(v @ para.conic.m @ v) <= 1e-12 * np.abs(para.conic.m).max()


class TestSquaredParameter:
    def test_worked_values(self):
        fr = frame_of(-1.0, 1.0, 1.0)
        assert squared_parameter(fr, 0.0) == pytest.approx(4.0, rel=1e-14)
        assert squared_parameter(fr, -1.0) == 0.0
        assert squared_parameter(fr, 1e8) < 1e-15
        assert squared_parameter(fr, -1e8) < 1e-15

    def test_matches_parameter_of_member(self, rng):
        for _ in range(100):
            fr = frame_of(*random_frame_params(rng))
            span = fr.b1 - fr.a1
            lam = rng.uniform(fr.a1 + 0.02 * span, fr.b1 - 0.02 * span)
            para = pencil_parabola(fr, lam)
            assert squared_parameter(fr, lam) == pytest.approx(
                para.parameter**2, rel=1e-9
            )

    def test_denominator_positive(self, rng):
        for _ in range(200):
            a1, b1, c2 = random_frame_params(rng)
            lam = rng.uniform(-1e3, 1e3) * max(abs(a1), abs(b1), c2)
            den = (lam - a1 - b1) ** 2 + c2**2
            assert den > 0.0


class TestTangencyCubic:
    def test_worked_coefficients(self):
        assert np.allclose(tangency_cubic(frame_of(-1.0, 1.0, 1.0)), [1.0, 0.0, -5.0, 0.0])

    def test_sign_identity(self, rng):
        for _ in range(1000):
            a1, b1, c2 = random_frame_params(rng)
            coeffs = tangency_cubic(frame_of(a1, b1, c2))
            ev = np.polyval(coeffs, [a1, b1])
            lhs = ev[0] * ev[1]
            rhs = -(b1**2 + c2**2) * (a1 - b1) ** 2 * (a1**2 + c2**2)
            assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_three_real_roots_one_inside(self, rng):
        for _ in range(1000):
            fr = frame_of(*random_frame_params(rng))
            roots = solve_cubic(tangency_cubic(fr))
            assert len(roots) == 3
            inside = roots[(roots > fr.a1) & (roots < fr.b1)]
            assert inside.size == 1

    def test_solve_cubic_against_numpy(self, rng):
        for _ in range(200):
            r = np.sort(rng.uniform(-5, 5, 3))
            if r[1] - r[0] < 0.05 or r[2] - r[1] < 0.05:
                continue
            coeffs = np.array([1.0, -r.sum(), r[0] * r[1] + r[0] * r[2] + r[1] * r[2], -r.prod()])
            assert np.allclose(solve_cubic(coeffs), r, atol=1e-9)

    @pytest.mark.parametrize("scale", [1e-150, 1e200])
    def test_out_of_range_coefficients_raise(self, scale):
        # the worked frame scaled: its cubic underflows to zero or overflows
        fr = frame_of(-scale, scale, scale)
        with pytest.raises(NumericalRootFailure):
            solve_cubic(tangency_cubic(fr))

    def test_derivative_vanishes_at_roots(self, rng):
        for _ in range(200):
            fr = frame_of(*random_frame_params(rng))
            roots = solve_cubic(tangency_cubic(fr))
            h = 1e-6 * (fr.b1 - fr.a1)
            scale = max(squared_parameter(fr, lam) for lam in roots)
            for lam in roots:
                d = (squared_parameter(fr, lam + h) - squared_parameter(fr, lam - h)) / (2 * h)
                assert abs(d) <= 1e-7 * max(scale, 1e-12)

    def test_derivative_identity(self, rng):
        # d(p^2)/dlam * den^4 / (8 c2^4) = (b1 - lam)(lam - a1) E(lam)
        for _ in range(200):
            fr = frame_of(*random_frame_params(rng))
            a1, b1, c2 = fr.a1, fr.b1, fr.c2
            span = b1 - a1
            lam = rng.uniform(a1 - span, b1 + span)
            h = 1e-6 * span
            d = (squared_parameter(fr, lam + h) - squared_parameter(fr, lam - h)) / (2 * h)
            den = (lam - a1 - b1) ** 2 + c2**2
            lhs = d * den**4 / (8.0 * c2**4)
            rhs = (b1 - lam) * (lam - a1) * np.polyval(tangency_cubic(fr), lam)
            if abs(rhs) > 1e-6 * span**5:
                assert lhs == pytest.approx(rhs, rel=1e-5)

    def test_squared_parameter_unimodal_between_endpoints(self, rng):
        # every local maximum on (a1, b1) is the global one: values rise
        # to the interior root and fall after it
        for _ in range(200):
            fr = frame_of(*random_frame_params(rng))
            lams = np.linspace(fr.a1, fr.b1, 201)[1:-1]
            vals = squared_parameter(fr, lams)
            d = np.diff(vals)
            sign_changes = np.sum(np.diff(np.sign(d[np.abs(d) > 0])) != 0)
            assert sign_changes <= 1


class TestExparabolas:
    def test_worked_triangle(self):
        res = exparabolas(WORKED)
        assert len(res) == 3
        by_side = {r.side: r for r in res}
        ab = by_side["AB"]
        assert ab.opposite_vertex == "C"
        assert abs(ab.lam) <= 1e-12
        assert ab.parabola.parameter == pytest.approx(2.0, rel=1e-12)
        assert np.allclose(ab.tangency, [0.0, 0.0], atol=1e-12)
        # mirror symmetry: the two other exparabolas are congruent
        assert by_side["BC"].parabola.parameter == pytest.approx(
            by_side["CA"].parabola.parameter, rel=1e-12
        )

    def test_equilateral_symmetry(self):
        t = Triangle([0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3) / 2])
        res = exparabolas(t)
        params = [r.parabola.parameter for r in res]
        assert np.allclose(params, params[0], rtol=1e-10)
        mids = {"AB": (t.A + t.B) / 2, "BC": (t.B + t.C) / 2, "CA": (t.C + t.A) / 2}
        for r in res:
            assert np.allclose(r.tangency, mids[r.side], atol=1e-9)

    def test_tangent_to_all_side_lines(self, rng):
        for _ in range(50):
            t = random_triangle(rng)
            lines = []
            for v1, v2 in ((t.A, t.B), (t.B, t.C), (t.C, t.A)):
                e = v2 - v1
                n = np.array([-e[1], e[0]])
                n = n / np.linalg.norm(n)
                lines.append(np.array([-float(n @ v1), n[0], n[1]]))
            for r in exparabolas(t):
                ad = adjugate(r.parabola.conic.m)
                for u in lines:
                    res = abs(u @ ad @ u) / (np.abs(ad).max() * (u @ u))
                    assert res <= 1e-9

    def test_region_placement(self, rng):
        for _ in range(30):
            t = random_triangle(rng)
            for r in exparabolas(t):
                region = triangle_region(t, r.opposite_vertex)
                apex, angle, p = apex_form(r.parabola.conic)
                axis = np.array([np.cos(angle), np.sin(angle)])
                for h in region.halfplanes:
                    v = halfplane_violation(apex, axis, p, h.normal, h.offset)
                    assert v <= 1e-9 * t.diameter

    def test_rigid_motion_invariance_and_scaling(self, rng):
        for _ in range(20):
            t = random_triangle(rng)
            base = sorted(r.parabola.parameter for r in exparabolas(t))
            ang = rng.uniform(0, 2 * np.pi)
            shift = rng.uniform(-5, 5, 2)
            rot = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
            t2 = Triangle(rot @ t.A + shift, rot @ t.B + shift, rot @ t.C + shift)
            moved = sorted(r.parabola.parameter for r in exparabolas(t2))
            assert np.allclose(base, moved, rtol=1e-9)
            sigma = rng.uniform(0.3, 4.0)
            t3 = Triangle(sigma * t.A, sigma * t.B, sigma * t.C)
            scaled = sorted(r.parabola.parameter for r in exparabolas(t3))
            assert np.allclose(scaled, [sigma * b for b in base], rtol=1e-9)

    def test_cross_frame_consistency(self, rng):
        # the out-of-interval roots of one side's cubic reproduce the
        # other two exparabolas' parameters
        for _ in range(20):
            t = random_triangle(rng)
            res = exparabolas(t)
            params = sorted(r.parabola.parameter for r in res)
            fr = canonical_frame(t, "AB")
            roots = solve_cubic(tangency_cubic(fr))
            from_one_frame = sorted(np.sqrt(squared_parameter(fr, lam)) for lam in roots)
            assert np.allclose(params, from_one_frame, rtol=1e-9)


@pytest.mark.parametrize("scale", [1e-150, 1e200])
def test_extreme_scale_cli_reports_json_not_traceback(tmp_path, scale):
    # the worked triangle at a scale where squares underflow or overflow
    inp = tmp_path / "tri.json"
    inp.write_text(json.dumps({"triangle": {
        "A": [-scale, 0.0], "B": [scale, 0.0], "C": [0.0, scale]}}))
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if "PYTHONPATH" in os.environ else []))}
    proc = subprocess.run(
        [sys.executable, "-m", "conic_extrema.cli", "exparabola",
         "--input", str(inp), "--output", str(tmp_path / "out.json"),
         "--svg", str(tmp_path / "fig.svg")],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode in (0, 1)
    assert "Traceback" not in proc.stderr
    if proc.returncode == 1:
        assert "error" in json.loads(proc.stderr.strip().splitlines()[-1])


class TestClosedFormMembers:
    """The solve path builds each exparabola in apex form, with no matrix."""

    def test_tangency_root_is_the_unscaled_root(self, rng):
        # the power-of-two rescaling is exact: the same double as the
        # in-interval root of the unscaled cubic
        for _ in range(500):
            a1, b1, c2 = random_frame_params(rng)
            fr = frame_of(a1, b1, c2)
            roots = solve_cubic(tangency_cubic(fr))
            assert tangency_root(fr) == roots[(roots > a1) & (roots < b1)][0]

    def test_pencil_member_matches_apex_form(self, rng):
        # oracle: apex form recognized from the world matrix H^T P(lam) H,
        # P(lam) the primal pencil matrix in frame coordinates
        for _ in range(500):
            t = random_triangle(rng)
            for side in ("AB", "BC", "CA"):
                fr = canonical_frame(t, side)
                lam = tangency_root(fr)
                para = pencil_member(fr, lam)
                h = fr.world_to_frame
                primal = pencil_parabola(fr, lam).conic.m
                apex, angle, p = apex_form(ConicMatrix(h.T @ primal @ h))
                assert para.parameter == pytest.approx(p, rel=1e-12)
                assert np.abs(para.apex - apex).max() <= 1e-12 * t.diameter
                assert abs((para.axis_angle - angle + np.pi) % (2 * np.pi) - np.pi) <= 1e-12

    def test_pencil_member_in_frame_is_pencil_parabola(self, rng):
        for _ in range(100):
            fr = frame_of(*random_frame_params(rng))
            lam = rng.uniform(fr.a1, fr.b1)
            member = pencil_member(fr, lam)
            assert proj_equal(member.conic, pencil_parabola(fr, lam).conic, tol=1e-9)

    @pytest.mark.parametrize("lam", [-1.0, 1.0, -2.0, 3.0])
    def test_pencil_member_singular_outside_open_interval(self, lam):
        with pytest.raises(SingularPencilMember):
            pencil_member(frame_of(-1.0, 1.0, 1.0), lam)

    def test_solve_paths_recognize_no_matrix(self, monkeypatch):
        def recognition(*args, **kwargs):
            raise AssertionError("a solve path recognized a conic matrix")

        monkeypatch.setattr(parabola_module, "apex_form", recognition)
        monkeypatch.setattr(parabola_module, "is_parabola", recognition)
        monkeypatch.setattr(Parabola, "from_conic", classmethod(recognition))
        monkeypatch.setattr(ConicMatrix, "recentered", recognition)
        res = {r.side: r for r in exparabolas(WORKED)}
        assert res["AB"].parabola.parameter == pytest.approx(2.0, rel=1e-15)
        sol = solve_max_parabola(triangle_region(WORKED, "C"), starts=4)
        assert sol.parabola.parameter == pytest.approx(2.0, rel=1e-15)


def moved(t, s, angle, shift):
    """Vertices of t under x -> s (R(angle) x + shift)."""
    rot = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    return [s * (rot @ v + shift) for v in (t.A, t.B, t.C)], rot


@settings(max_examples=80, deadline=None)
@given(
    tri_seed=st.one_of(st.none(), st.integers(0, 2**32 - 1)),
    k=st.integers(-150, 150),
    angle=st.floats(0.0, 2.0 * np.pi),
    shift=st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)),
)
def test_exparabolas_scale_linearly(tri_seed, k, angle, shift):
    # the worked triangle (None) or a random well-shaped one, moved by a
    # similarity x -> s (R x + c) with s = 10^k
    t = WORKED if tri_seed is None else random_triangle(
        np.random.default_rng(tri_seed), min_ratio=0.05
    )
    s = 10.0**k
    shift = np.array(shift) * t.diameter
    verts, rot = moved(t, s, angle, shift)
    for r0, r1 in zip(exparabolas(t), exparabolas(Triangle(*verts))):
        assert r1.parabola.parameter == pytest.approx(s * r0.parabola.parameter, rel=1e-12)
        expected = s * (rot @ r0.parabola.apex + shift)
        size = s * (t.diameter + np.abs(shift).max() + np.abs(r0.parabola.apex).max())
        assert np.abs(r1.parabola.apex - expected).max() <= 1e-12 * size


# a flat triangle on which the matrix recognition once rejected two sides
FLAT_LITERAL = [
    [-0.1934379980596987, 0.17572525408948556],
    [-0.0779640497328667, 0.20390993159849488],
    [-0.14663477471190084, 0.18714951307694067],
]


def flat_triangles(count, seed):
    """Triangles with area/diameter^2 log-uniform in [1e-6, 0.1]: a unit
    base and a low apex, rotated, scaled and moved, vertices shuffled."""
    rng = np.random.default_rng(seed)
    out = [np.array(FLAT_LITERAL)]
    while len(out) <= count:
        ratio = 10.0 ** rng.uniform(-6.0 + 1e-3, -1.0)
        tri = np.array([[0.0, 0.0], [1.0, 0.0], [rng.uniform(0.05, 0.95), 2.0 * ratio]])
        ang = rng.uniform(0.0, 2.0 * np.pi)
        rot = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
        size = 10.0 ** rng.uniform(-3.0, 3.0)
        out.append(rng.permutation(size * (tri @ rot.T + rng.uniform(-5.0, 5.0, 2))))
    return out


def tangent_offset_error(conic, tri):
    """Largest distance by which a side line must move to touch the conic.

    The lines n.x = d touching a conic with dual matrix D solve
    D00 d^2 - 2 (D01 n1 + D02 n2) d + n^T D' n = 0; a parabola has
    D00 = 0, so the stable root is the one that stays finite.  The conic
    is first translated to the triangle's centroid.
    """
    c = tri.mean(axis=0)
    shift = np.array([[1.0, 0.0, 0.0], [c[0], 1.0, 0.0], [c[1], 0.0, 1.0]])
    m = shift.T @ conic.m @ shift
    dual = adjugate(m / np.abs(m).max())
    worst = 0.0
    for i, j in ((0, 1), (1, 2), (2, 0)):
        e = tri[j] - tri[i]
        n = np.array([-e[1], e[0]]) / np.hypot(*e)
        d = float(n @ (tri[i] - c))
        lin = dual[0, 1:] @ n
        q = n @ dual[1:, 1:] @ n
        root = q / (lin + np.copysign(np.sqrt(lin * lin - dual[0, 0] * q), lin))
        worst = max(worst, abs(root - d))
    return worst


def test_flat_triangles_solve():
    for tri in flat_triangles(300, seed=17):
        t = Triangle(*tri)
        assert t.area / t.diameter**2 >= MIN_AREA_RATIO
        for r in exparabolas(t):
            p_closed = np.sqrt(squared_parameter(r.frame, r.lam))
            assert r.parabola.parameter == pytest.approx(p_closed, rel=1e-12)
            assert tangent_offset_error(r.parabola.conic, tri) <= 1e-7 * t.diameter
