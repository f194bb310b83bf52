"""Parabola recognition, the size functional, and apex-form construction."""

import dataclasses

import numpy as np
import pytest

from conic_extrema import (
    ConicMatrix,
    NonpositiveParameter,
    NotAParabola,
    Parabola,
    compare_size,
    is_parabola,
    parameter,
    parameter_squared,
    proj_equal,
)
from conic_extrema.parabola import apex_form
from conic_extrema.projective import pullback, rotation_h, translation_h

UNIT_CIRCLE = ConicMatrix(np.diag([-1.0, 1.0, 1.0]))
# x^2 = 4 y  <->  x1^2 - 4 x0 x2 = 0; focus (0,1), directrix y = -1, parameter 2
X2_EQ_4Y = ConicMatrix([[0.0, 0.0, -2.0], [0.0, 1.0, 0.0], [-2.0, 0.0, 0.0]])


class TestIsParabola:
    def test_circle_is_not(self):
        assert not is_parabola(UNIT_CIRCLE)

    def test_vertical_parabola_is(self):
        c = ConicMatrix([[0.0, 0.0, -1.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0]])
        assert is_parabola(c)

    def test_double_line_fails_regularity(self):
        assert not is_parabola(ConicMatrix(np.diag([0.0, 1.0, 0.0])))

    def test_invariant_under_rescaling(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            s = rng.uniform(0.1, 10.0) * rng.choice([-1.0, 1.0])
            assert is_parabola(ConicMatrix(X2_EQ_4Y.m * s))


class TestParameter:
    def test_focus_directrix_oracle(self):
        # independent oracle: x^2 = 4y has focal length 1, so the
        # focus-directrix distance is 2 by definition
        assert parameter(X2_EQ_4Y) == pytest.approx(2.0, rel=1e-12)

    def test_scale_invariance(self):
        assert parameter(ConicMatrix(X2_EQ_4Y.m * -7.0)) == pytest.approx(2.0, rel=1e-12)

    def test_isometry_invariance_worked(self):
        move = rotation_h(np.pi / 6.0) @ translation_h([3.0, -1.0])
        moved = pullback(X2_EQ_4Y, move)
        assert parameter(moved) == pytest.approx(2.0, rel=1e-9)

    def test_not_a_parabola(self):
        with pytest.raises(NotAParabola):
            parameter(UNIT_CIRCLE)

    def test_isometry_invariance_random(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            p = rng.uniform(0.1, 5.0)
            base = Parabola(rng.uniform(-3, 3, 2), rng.uniform(0, 2 * np.pi), p)
            move = rotation_h(rng.uniform(0, 2 * np.pi)) @ translation_h(rng.uniform(-5, 5, 2))
            assert parameter(pullback(base.conic, move)) == pytest.approx(p, rel=1e-9)

    def test_linear_under_uniform_scaling(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            p = rng.uniform(0.1, 5.0)
            sigma = rng.uniform(0.2, 8.0)
            base = Parabola(rng.uniform(-2, 2, 2), rng.uniform(0, 2 * np.pi), p)
            scaled = pullback(base.conic, np.diag([1.0, 1.0 / sigma, 1.0 / sigma]))
            assert parameter(scaled) == pytest.approx(sigma * p, rel=1e-9)

    def test_squared_variant_consistent(self):
        assert parameter_squared(X2_EQ_4Y) == pytest.approx(4.0, rel=1e-12)


class TestCompareSize:
    def test_strict_order(self):
        p1 = Parabola([0, 0], 0.0, 1.0)
        p2 = Parabola([5, 1], 2.0, 2.0)
        assert compare_size(p1, p2) == -1
        assert compare_size(p2, p1) == 1

    def test_congruent_in_different_poses(self):
        p1 = Parabola([0, 0], 0.3, 1.5)
        p2 = Parabola([-2, 4], 4.0, 1.5)
        assert compare_size(p1, p2) == 0

    def test_equality_within_tolerance(self):
        p1 = Parabola([0, 0], 0.0, 2.0)
        p2 = Parabola([0, 0], 0.0, 2.0 * (1.0 + 1e-12))
        assert compare_size(p1, p2) == 0


class TestParabolaFromApex:
    def test_canonical_up_opening(self):
        para = Parabola([0.0, 0.0], np.pi / 2.0, 2.0)
        assert proj_equal(para.conic, X2_EQ_4Y)

    def test_right_opening_translated(self):
        # (y-1)^2 = 2 (x-1)  <->  y^2 - 2y - 2x + 3 = 0 homogenized
        expected = ConicMatrix(
            [[3.0, -1.0, -1.0], [-1.0, 0.0, 0.0], [-1.0, 0.0, 1.0]]
        )
        para = Parabola([1.0, 1.0], 0.0, 1.0)
        assert proj_equal(para.conic, expected)

    def test_nonpositive_parameter_rejected(self):
        with pytest.raises(NonpositiveParameter):
            Parabola([0, 0], 0.0, 0.0)
        with pytest.raises(NonpositiveParameter):
            Parabola([0, 0], 0.0, -1.0)

    def test_round_trip_parameter(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            p = rng.uniform(1e-3, 10.0)
            para = Parabola(rng.uniform(-5, 5, 2), rng.uniform(0, 2 * np.pi), p)
            assert para.parameter == pytest.approx(p, rel=1e-9)

    def test_apex_form_round_trip(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            apex = rng.uniform(-4, 4, 2)
            angle = rng.uniform(0, 2 * np.pi)
            p = rng.uniform(0.05, 6.0)
            a2, th2, p2 = apex_form(Parabola(apex, angle, p).conic)
            assert np.allclose(a2, apex, atol=1e-9 * max(1.0, p))
            assert p2 == pytest.approx(p, rel=1e-9)
            dth = abs((th2 - angle + np.pi) % (2 * np.pi) - np.pi)
            assert dth < 1e-9


class TestFarFromOrigin:
    """Homogeneous entries grow like coordinate^2; the internal
    recentering must keep the predicates and reductions accurate."""

    def test_offset_parabola_recognized(self):
        para = Parabola([400.0, -350.0], 0.7, 2.5)
        assert is_parabola(para.conic)
        assert parameter(para.conic) == pytest.approx(2.5, rel=1e-12)
        apex, angle, p = apex_form(para.conic)
        assert np.allclose(apex, [400.0, -350.0], atol=1e-8)

    def test_offset_circle_rejected(self):
        far = pullback(UNIT_CIRCLE, translation_h([-300.0, 200.0]))
        assert not is_parabola(far)
        assert far.is_regular()

    def test_offset_triangle_exparabolas(self):
        from conic_extrema import Triangle, exparabolas

        base = sorted(
            r.parabola.parameter for r in exparabolas(Triangle([-1, 0], [1, 0], [0, 1]))
        )
        moved = sorted(
            r.parabola.parameter
            for r in exparabolas(Triangle([499.0, 300.0], [501.0, 300.0], [500.0, 301.0]))
        )
        assert np.allclose(base, moved, rtol=1e-12)


class TestApexForm:
    """A Parabola is its apex form; the matrix is derived from it."""

    def test_fields_are_the_apex_form(self):
        names = tuple(f.name for f in dataclasses.fields(Parabola))
        assert names == ("apex", "axis_angle", "parameter")

    @pytest.mark.parametrize(
        "apex,angle,p",
        [([np.nan, 0.0], 0.0, 1.0), ([0.0, np.inf], 0.0, 1.0), ([0.0, 0.0], np.nan, 1.0),
         ([0.0, 0.0], -np.inf, 1.0), ([0.0, 0.0], 0.0, np.inf), ([0.0, 0.0], 0.0, np.nan)],
    )
    def test_non_finite_rejected(self, apex, angle, p):
        with pytest.raises(ValueError, match="finite"):
            Parabola(apex, angle, p)

    def test_from_conic_keeps_the_matrix(self):
        para = Parabola.from_conic(X2_EQ_4Y)
        assert para.conic is X2_EQ_4Y
        assert np.allclose(para.apex, [0.0, 0.0], atol=1e-15)
        assert para.axis_angle == pytest.approx(np.pi / 2.0, abs=1e-15)
        assert para.parameter == pytest.approx(2.0, rel=1e-15)

    @pytest.mark.parametrize("s", [1e-300, 1e-150, 1.0, 1e150, 1e300])
    def test_conic_finite_and_exact_at_every_scale(self, s):
        # points of the curve, apex + X v + X^2 / (2p) u, lie on the matrix;
        # homogeneous points (1, x, y) / s keep the form in range
        apex, angle, p = np.array([0.7, -1.3]), 2.2, 0.4
        para = Parabola(s * apex, angle, s * p)
        m = para.conic.m
        assert np.isfinite(m).all()
        u = np.array([np.cos(angle), np.sin(angle)])
        v = np.array([u[1], -u[0]])
        for x in np.linspace(-3.0, 3.0, 13):
            pt = apex + x * v + x * x / (2.0 * p) * u  # the unit-scale point
            h = np.array([1.0 / s, *pt])
            assert abs(h @ m @ h) <= 1e-12 * (np.abs(h) @ np.abs(m) @ np.abs(h))
