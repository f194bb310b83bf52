"""Canonical frames, the tangent dual pencil, the cubic, and exparabolas."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conic_extrema import (
    ConicMatrix,
    DegenerateTriangle,
    NotAParabola,
    NumericalRootFailure,
    SingularPencilMember,
    Triangle,
    canonical_frame,
    dual_pencil,
    exparabolas,
    pencil_member,
    pencil_parabola,
    solve_cubic,
    solve_max_parabola,
    squared_parameter,
    tangency_cubic,
    tangency_root,
)
from conic_extrema import exparabola
from conic_extrema.exparabola import MIN_AREA_RATIO, CanonicalFrame, _cubic_roots
from conic_extrema.maxparabola import halfplane_violation, triangle_region
from conic_extrema.parabola import apex_form
from conic_extrema.projective import adjugate, dualize
from conftest import equal_up_to_scale, random_frame_params, random_triangle

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
            p = apex_form(dualize(dual_pencil(fr, lam)))[2]
            assert p == pytest.approx(np.sqrt(squared_parameter(fr, lam)), rel=1e-9)


class TestPencilParabola:
    def test_worked_member_is_down_parabola(self):
        fr = frame_of(-1.0, 1.0, 1.0)
        para = pencil_parabola(fr, 0.0)
        # x^2 = -4y
        expected = np.array([[0.0, 0.0, 2.0], [0.0, 1.0, 0.0], [2.0, 0.0, 0.0]])
        assert equal_up_to_scale(para.conic.m, expected)
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

    @pytest.mark.parametrize("b", [1e200, -3e103])
    def test_overflowing_cube_raises_root_failure(self, b):
        # b**3 overflows a Python float, which raises OverflowError
        with pytest.raises(NumericalRootFailure, match="overflow"):
            solve_cubic((1.0, b, 1.0, 1.0))

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

    def test_scalar_frame_map(self, rng):
        # seeded triangles plus flat ones (area/diameter^2 1e-6 .. 0.1): the
        # scalar map back to the world agrees with the frame's matrices
        seeded = [random_triangle(rng) for _ in range(500)]
        flat = []
        for _ in range(200):
            pts = np.array([[0.0, 0.0], [1.0, 0.0], [rng.uniform(0.05, 0.95), 0.0]])
            pts[2, 1] = 2.0 * 10.0 ** rng.uniform(-6.0, -1.0)
            ang = rng.uniform(0.0, 2.0 * np.pi)
            rot = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
            flat.append(Triangle(*(pts @ rot.T + rng.uniform(-1.0, 1.0, 2))))
        for k, t in enumerate(seeded + flat):
            for r in exparabolas(t):
                fr, para = r.frame, r.parabola
                assert np.abs(r.tangency - fr.to_world([r.lam, 0.0])).max() <= 1e-15 * t.diameter
                assert r.lam == tangency_root(fr)
                # the same member in frame coordinates, moved by the matrix
                local = pencil_member(frame_of(fr.a1, fr.b1, fr.c2), r.lam)
                assert para.parameter == local.parameter
                size = max(t.diameter, np.abs(local.apex).max())
                assert np.abs(para.apex - fr.to_world(local.apex)).max() <= 1e-15 * size
                axis = fr.frame_to_world[1:, 1:] @ [np.cos(local.axis_angle), np.sin(local.axis_angle)]
                assert np.abs(axis - [np.cos(para.axis_angle), np.sin(para.axis_angle)]).max() <= 1e-14
                if k < len(seeded):
                    # the recognized world matrix, as in the test above; a
                    # flat one carries its apex form only to about 1e-9
                    # (test_flat_exparabola_matrices_keep_their_apex_form)
                    h = fr.world_to_frame
                    primal = pencil_parabola(fr, r.lam).conic.m
                    apex, angle, p = apex_form(ConicMatrix(h.T @ primal @ h))
                    assert para.parameter == pytest.approx(p, rel=1e-12)
                    assert np.abs(para.apex - apex).max() <= 1e-12 * t.diameter
                    assert abs((para.axis_angle - angle + np.pi) % (2 * np.pi) - np.pi) <= 1e-12

    def test_pencil_member_in_frame_is_pencil_parabola(self, rng):
        # oracle: the apex form that apex_form reads off the primal pencil matrix
        for _ in range(100):
            fr = frame_of(*random_frame_params(rng))
            lam = rng.uniform(fr.a1, fr.b1)
            member, oracle = pencil_member(fr, lam), pencil_parabola(fr, lam)
            assert member.parameter == pytest.approx(oracle.parameter, rel=1e-9)
            assert np.abs(member.apex - oracle.apex).max() <= 1e-9 * fr.scale
            assert abs((member.axis_angle - oracle.axis_angle + np.pi) % (2 * np.pi) - np.pi) <= 1e-9

    def test_members_next_to_the_singular_ends(self):
        # lam within 1e-9 .. 1e-4 of the frame scale from a1 or b1, where
        # pencil_parabola's matrix is mostly singular to rounding (6924 of
        # these draws raise NotAParabola), so the check builds no primal
        # matrix.  Worst of these draws: 2.9e-16 on the line, 1.6e-15 on p^2
        rng = np.random.default_rng(0)
        for _ in range(10_000):
            fr = frame_of(*random_frame_params(rng))
            eps = 10.0 ** rng.uniform(-9.0, -4.0) * fr.scale
            lam = fr.a1 + eps if rng.uniform() < 0.5 else fr.b1 - eps
            para = pencil_member(fr, lam)
            # the apex tangent line u.x = u.apex lies on the dual conic D(lam)
            u = np.array([np.cos(para.axis_angle), np.sin(para.axis_angle)])
            ell = np.array([u @ para.apex, -u[0], -u[1]])
            d = dual_pencil(fr, lam).m
            assert abs(ell @ d @ ell) <= 2e-15 * np.abs(d).max() * (ell @ ell)
            assert para.parameter**2 == pytest.approx(squared_parameter(fr, lam), rel=1e-14)

    @pytest.mark.parametrize("lam", [-1.0, 1.0, -2.0, 3.0])
    def test_pencil_member_singular_outside_open_interval(self, lam):
        with pytest.raises(SingularPencilMember):
            pencil_member(frame_of(-1.0, 1.0, 1.0), lam)

    def test_solve_paths_recognize_no_matrix(self, monkeypatch):
        def recognition(*args, **kwargs):
            raise AssertionError("a solve path recognized a conic matrix")

        # apex_form is the one recognizer: replace every module's binding of it
        for name, module in list(sys.modules.items()):
            if name.startswith("conic_extrema") and hasattr(module, "apex_form"):
                monkeypatch.setattr(module, "apex_form", recognition)
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


def test_flat_exparabola_matrices_keep_their_apex_form():
    # the matrix of a flat exparabola is recognized unless its determinant
    # is within SINGULAR_DET_TOL of its own rounding bound; then the double
    # matrix cannot carry the conic
    recognized = 0
    for tri in flat_triangles(300, seed=17):
        t = Triangle(*tri)
        for r in exparabolas(t):
            try:
                apex, _, p = apex_form(r.parabola.conic)
            except NotAParabola:
                continue
            recognized += 1
            assert p == pytest.approx(r.parabola.parameter, rel=1e-11)
            assert np.abs(apex - r.parabola.apex).max() <= 1e-9 * t.diameter
    assert recognized >= 500


def test_flat_triangles_solve():
    for tri in flat_triangles(300, seed=17):
        t = Triangle(*tri)
        assert t.area / t.diameter**2 >= MIN_AREA_RATIO
        for r in exparabolas(t):
            p_closed = np.sqrt(squared_parameter(r.frame, r.lam))
            assert r.parabola.parameter == pytest.approx(p_closed, rel=1e-12)
            assert tangent_offset_error(r.parabola.conic, tri) <= 1e-7 * t.diameter


# per triangle: its vertices, then per exparabola the opposite vertex and, as
# float.hex, lam, parameter, apex x and y, axis angle, tangency x and y;
# recorded from the numpy-scalar solve path that the float path replaced
PINNED = {
    "worked": (
        [[-1.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
        ("C", "0x0.0p+0", "0x1.0000000000000p+1",
         "0x0.0p+0", "0x0.0p+0", "0x1.2d97c7f3321d2p+2",
         "0x0.0p+0", "0x0.0p+0"),
        ("A", "-0x1.bf8120f357ad4p-1", "0x1.16b28f55d72d4p-1",
         "0x1.fcd4669f1b2f0p-2", "0x1.1c71c71c71c6fp-1", "0x1.aea08d838f152p-2",
         "0x1.3c6ef372fe94ep-1", "0x1.8722191a02d60p-2"),
        ("B", "0x1.bf8120f357ad7p-1", "0x1.16b28f55d72d3p-1",
         "-0x1.fcd4669f1b2f0p-2", "0x1.1c71c71c71c72p-1", "0x1.5c4ba393d0eeep+1",
         "-0x1.3c6ef372fe94ep-1", "0x1.8722191a02d60p-2"),
    ),
    "worked_2^-900": (
        [[-1.1830521861667747e-271, 0.0], [1.1830521861667747e-271, 0.0], [0.0, 1.1830521861667747e-271]],
        ("C", "0x0.0p+0", "0x1.0000000000000p-899",
         "0x0.0p+0", "0x0.0p+0", "0x1.2d97c7f3321d2p+2",
         "0x0.0p+0", "0x0.0p+0"),
        ("A", "-0x1.bf8120f357ad4p-901", "0x1.16b28f55d72d4p-901",
         "0x1.fcd4669f1b2f0p-902", "0x1.1c71c71c71c6fp-901", "0x1.aea08d838f152p-2",
         "0x1.3c6ef372fe94ep-901", "0x1.8722191a02d60p-902"),
        ("B", "0x1.bf8120f357ad7p-901", "0x1.16b28f55d72d3p-901",
         "-0x1.fcd4669f1b2f0p-902", "0x1.1c71c71c71c72p-901", "0x1.5c4ba393d0eeep+1",
         "-0x1.3c6ef372fe94ep-901", "0x1.8722191a02d60p-902"),
    ),
    "worked_2^900": (
        [[-8.452712498170644e+270, 0.0], [8.452712498170644e+270, 0.0], [0.0, 8.452712498170644e+270]],
        ("C", "0x0.0p+0", "0x1.0000000000000p+901",
         "0x0.0p+0", "0x0.0p+0", "0x1.2d97c7f3321d2p+2",
         "0x0.0p+0", "0x0.0p+0"),
        ("A", "-0x1.bf8120f357ad4p+899", "0x1.16b28f55d72d4p+899",
         "0x1.fcd4669f1b2f0p+898", "0x1.1c71c71c71c6fp+899", "0x1.aea08d838f152p-2",
         "0x1.3c6ef372fe94ep+899", "0x1.8722191a02d60p+898"),
        ("B", "0x1.bf8120f357ad7p+899", "0x1.16b28f55d72d3p+899",
         "-0x1.fcd4669f1b2f0p+898", "0x1.1c71c71c71c72p+899", "0x1.5c4ba393d0eeep+1",
         "-0x1.3c6ef372fe94ep+899", "0x1.8722191a02d60p+898"),
    ),
    "flat_1e-6": (
        [[3.25, -1.5], [4.014842187284488, -0.855782312762309], [3.5329903208597573, -1.2616379260375268]],
        ("C", "0x1.0a3d70a3d07fep-2", "0x1.c745fd04ab99bp+17",
         "0x1.ccb4fc62eb008p+1", "-0x1.34b00c5b2c410p+0", "0x1.5a6497de6ae7fp+2",
         "0x1.ddad479cb2f64p+1", "-0x1.1819bf0c4071ap+0"),
        ("A", "-0x1.c05f74a17c7e8p-1", "0x1.711b1f3a2ba1ap-37",
         "0x1.e9490a7c9231ep+1", "-0x1.048b72b10b80dp+0", "0x1.6666d3641be0ap-1",
         "0x1.f5bbcc8a0faf8p+1", "-0x1.df266d9bac640p-1"),
        ("B", "0x1.c05f74a16851cp-1", "0x1.249fd2ba5db99p-38",
         "0x1.b0212db8707e4p+1", "-0x1.64d3fb0490d59p+0", "0x1.ebb940182ccb7p+1",
         "0x1.ac2a86fddcc44p+1", "-0x1.6b814839504bap+0"),
    ),
    "ratio_0.1": (
        [[-4.5, 0.75], [-5.166276021279824, 1.4957052121767203], [-5.188824619672002, 1.2207660176071786]],
        ("C", "-0x1.27fcd9f5b9816p-1", "0x1.ab8a1ae07188fp+0",
         "-0x1.37196a19cd2d6p+2", "0x1.3531b174ea783p+0", "0x1.0b9eb0f893008p-1",
         "-0x1.29e378b33d8ecp+2", "0x1.d88a0f320a822p-1"),
        ("A", "-0x1.23762f0d89d68p-1", "0x1.ba3c5aee78542p-6",
         "-0x1.4bbf3aeae16dbp+2", "0x1.5b5c8b31c172fp+0", "0x1.36938da9842c3p+1",
         "-0x1.4b44492db8319p+2", "0x1.6069f2848edfcp+0"),
        ("B", "0x1.ae1283e6550e3p-1", "0x1.d3e4f72ee4f34p-3",
         "-0x1.38eb74c209d7ap+2", "0x1.cd6a4977a7e56p-1", "0x1.3cfa0ae2dd7e6p+2",
         "-0x1.26ea1627b9ef8p+2", "0x1.a5cde544e634ap-1"),
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_exparabolas_pinned_bit_for_bit(name):
    # equality, not closeness: any change in rounding on the solve path shows
    verts, *rows = PINNED[name]
    results = exparabolas(Triangle(*verts))
    assert len(results) == len(rows)
    for r, (opp, *hexes) in zip(results, rows):
        p = r.parabola
        got = (r.lam, p.parameter, *p.apex.tolist(), p.axis_angle, *r.tangency.tolist())
        assert r.opposite_vertex == opp
        assert [v.hex() for v in got] == hexes


def test_solve_path_returns_python_floats():
    # numpy scalars on the solve path cost interpreter time; keep them out
    t = Triangle(np.array([0.3, -1.2]), [2.5, 0.4], (-0.7, 1.9))
    for side in ("AB", "BC", "CA"):
        fr = canonical_frame(t, side)
        assert type(fr.a1) is float and type(fr.b1) is float and type(fr.c2) is float
        assert type(tangency_root(fr)) is float
    for r in exparabolas(t):
        assert type(r.lam) is float
        assert type(r.parabola.parameter) is float and type(r.parabola.axis_angle) is float
    for arr in (t.A, t.B, t.C, exparabolas(t)[0].parabola.apex):
        assert isinstance(arr, np.ndarray) and arr.shape == (2,) and not arr.flags.writeable
    coeffs = (1.0, 0.0, -5.0, 0.0)
    for form in (coeffs, list(coeffs), np.array(coeffs)):
        roots = solve_cubic(form)
        assert isinstance(roots, np.ndarray) and roots.shape == (3,)
        assert roots.tolist() == sorted(roots.tolist())
        assert roots[1] == 0.0 and roots[2] == pytest.approx(np.sqrt(5.0), rel=1e-15)


# -- the float pass of exparabolas against the public functions ---------------


def composed(t, side):
    """One side's exparabola from the public functions, as float.hex:
    lam, parameter, apex, axis angle and the tangency point R^T ((lam, 0) - t)."""
    fr = canonical_frame(t, side)
    lam = tangency_root(fr)
    para = pencil_member(fr, lam)
    _, (tx, r00, r01), (ty, r10, r11) = fr.world_to_frame.tolist()
    tangency = (r00 * (lam - tx) - r10 * ty, r01 * (lam - tx) - r11 * ty)
    got = (lam, para.parameter, *para.apex.tolist(), para.axis_angle, *tangency)
    return [v.hex() for v in got]


def outcome(fn):
    try:
        return fn()
    except Exception as exc:  # both paths must raise alike
        return (type(exc).__name__, str(exc))


@pytest.mark.parametrize("k", [-300, -150, 0, 150, 300])
@pytest.mark.parametrize("seed", [0, 1])
def test_exparabolas_is_the_public_composition_bit_for_bit(k, seed):
    # well-shaped and flat triangles (area/diameter^2 down to MIN_AREA_RATIO),
    # sizes 1e-3..1e3, scaled by 10^k
    rng = np.random.default_rng(seed)
    batch = [random_triangle(rng) for _ in range(40)]
    tris = [np.array([t.A, t.B, t.C]) for t in batch] + flat_triangles(40, seed=seed)
    solved = 0
    for tri in tris:
        t = outcome(lambda: Triangle(*(tri * 10.0**k)))
        if isinstance(t, tuple):
            continue
        want = outcome(lambda: [composed(t, side) for side in ("AB", "BC", "CA")])
        got = outcome(lambda: [
            [v.hex() for v in (r.lam, r.parabola.parameter, *r.parabola.apex.tolist(),
                               r.parabola.axis_angle, *r.tangency.tolist())]
            for r in exparabolas(t)
        ])
        assert got == want
        solved += not isinstance(got, tuple)
    assert solved >= 70


def test_frame_is_built_on_first_read():
    t = Triangle([0.3, -1.2], [2.5, 0.4], (-0.7, 1.9))
    for r in exparabolas(t):
        assert "frame" not in vars(r)
        assert r.triangle is t
        fr, want = r.frame, canonical_frame(t, r.side)
        assert "frame" in vars(r) and r.frame is fr
        assert (fr.a1, fr.b1, fr.c2) == (want.a1, want.b1, want.c2)
        assert np.array_equal(fr.world_to_frame, want.world_to_frame)


def test_too_flat_for_the_frame_raises_as_before():
    # passes Triangle's 1e-9 flatness check, not MIN_AREA_RATIO
    t = Triangle([0.0, 0.0], [1.0, 0.0], [0.5, 1e-7])
    assert t.area / t.diameter**2 < MIN_AREA_RATIO
    for call in (lambda: exparabolas(t), lambda: canonical_frame(t, "AB")):
        with pytest.raises(DegenerateTriangle, match=r"^triangle too flat for stable computation$"):
            call()


def test_exparabolas_builds_no_frame_and_no_root_array(monkeypatch):
    def builder(*args, **kwargs):
        raise AssertionError("exparabolas built a frame or a root array")

    monkeypatch.setattr(exparabola, "canonical_frame", builder)
    monkeypatch.setattr(exparabola, "solve_cubic", builder)
    res = {r.side: r for r in exparabolas(WORKED)}
    assert res["AB"].lam == 0.0 and res["AB"].parabola.parameter == 2.0


def test_solve_cubic_is_the_root_list(rng):
    # the draws of test_solve_cubic_against_numpy and of the tangency cubics
    draws = []
    for _ in range(200):
        r = np.sort(rng.uniform(-5, 5, 3))
        draws.append([1.0, -r.sum(), r[0] * r[1] + r[0] * r[2] + r[1] * r[2], -r.prod()])
    draws += [tangency_cubic(frame_of(*random_frame_params(rng))) for _ in range(200)]
    for coeffs in draws:
        want = outcome(lambda: solve_cubic(coeffs).tolist())
        assert outcome(lambda: _cubic_roots(*map(float, coeffs[1:]))) == want
