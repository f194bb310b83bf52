"""Parabola recognition (``apex_form``), the size functional, and apex-form construction."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conic_extrema import (
    ConicMatrix,
    NonpositiveParameter,
    NotAParabola,
    Parabola,
)
from conic_extrema.parabola import apex_form
from conic_extrema.projective import pullback, rotation_h, translation_h
from conftest import equal_up_to_scale

UNIT_CIRCLE = ConicMatrix(np.diag([-1.0, 1.0, 1.0]))
# x^2 = 4 y  <->  x1^2 - 4 x0 x2 = 0; focus (0,1), directrix y = -1, parameter 2
X2_EQ_4Y = ConicMatrix([[0.0, 0.0, -2.0], [0.0, 1.0, 0.0], [-2.0, 0.0, 0.0]])


class TestIsParabola:
    def test_circle_is_not(self):
        with pytest.raises(NotAParabola):
            apex_form(UNIT_CIRCLE)

    def test_vertical_parabola_is(self):
        # x^2 = 2 y: apex at the origin, opening toward +y, parameter 1
        c = ConicMatrix([[0.0, 0.0, -1.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0]])
        apex, angle, p = apex_form(c)
        assert apex.tolist() == [0.0, 0.0]
        assert angle == np.pi / 2.0 and p == 1.0

    def test_double_line_fails_regularity(self):
        with pytest.raises(NotAParabola):
            apex_form(ConicMatrix(np.diag([0.0, 1.0, 0.0])))

    def test_invariant_under_rescaling(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            s = rng.uniform(0.1, 10.0) * rng.choice([-1.0, 1.0])
            apex, angle, p = apex_form(ConicMatrix(X2_EQ_4Y.m * s))
            assert np.abs(apex).max() <= 1e-12
            assert angle == pytest.approx(np.pi / 2.0, abs=1e-12)
            assert p == pytest.approx(2.0, rel=1e-12)


class TestParameter:
    def test_focus_directrix_oracle(self):
        # independent oracle: x^2 = 4y has focal length 1, so the
        # focus-directrix distance is 2 by definition
        assert apex_form(X2_EQ_4Y)[2] == pytest.approx(2.0, rel=1e-12)

    def test_scale_invariance(self):
        assert apex_form(ConicMatrix(X2_EQ_4Y.m * -7.0))[2] == pytest.approx(2.0, rel=1e-12)

    def test_isometry_invariance_worked(self):
        move = rotation_h(np.pi / 6.0) @ translation_h([3.0, -1.0])
        moved = pullback(X2_EQ_4Y, move)
        assert apex_form(moved)[2] == pytest.approx(2.0, rel=1e-9)

    def test_not_a_parabola(self):
        with pytest.raises(NotAParabola):
            apex_form(UNIT_CIRCLE)

    def test_isometry_invariance_random(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            p = rng.uniform(0.1, 5.0)
            base = Parabola(rng.uniform(-3, 3, 2), rng.uniform(0, 2 * np.pi), p)
            move = rotation_h(rng.uniform(0, 2 * np.pi)) @ translation_h(rng.uniform(-5, 5, 2))
            assert apex_form(pullback(base.conic, move))[2] == pytest.approx(p, rel=1e-9)

    def test_linear_under_uniform_scaling(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            p = rng.uniform(0.1, 5.0)
            sigma = rng.uniform(0.2, 8.0)
            base = Parabola(rng.uniform(-2, 2, 2), rng.uniform(0, 2 * np.pi), p)
            scaled = pullback(base.conic, np.diag([1.0, 1.0 / sigma, 1.0 / sigma]))
            assert apex_form(scaled)[2] == pytest.approx(sigma * p, rel=1e-9)

    def test_exact_zeros_in_row_zero(self):
        # y^2 = 4x: focal length 1, parameter 2; m00 = m02 = 0
        y2_eq_4x = ConicMatrix([[0.0, -2.0, 0.0], [-2.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        assert apex_form(y2_eq_4x)[2] == 2.0


class TestParabolaFromApex:
    def test_canonical_up_opening(self):
        para = Parabola([0.0, 0.0], np.pi / 2.0, 2.0)
        assert equal_up_to_scale(para.conic, X2_EQ_4Y)

    def test_right_opening_translated(self):
        # (y-1)^2 = 2 (x-1)  <->  y^2 - 2y - 2x + 3 = 0 homogenized
        expected = ConicMatrix(
            [[3.0, -1.0, -1.0], [-1.0, 0.0, 0.0], [-1.0, 0.0, 1.0]]
        )
        para = Parabola([1.0, 1.0], 0.0, 1.0)
        assert equal_up_to_scale(para.conic, expected)

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
    """Homogeneous entries grow like coordinate^2; the predicates read
    invariants of the conic (its trace, beta), so they stay accurate."""

    def test_offset_parabola_recognized(self):
        para = Parabola([400.0, -350.0], 0.7, 2.5)
        apex, angle, p = apex_form(para.conic)
        assert p == pytest.approx(2.5, rel=1e-12)
        assert np.allclose(apex, [400.0, -350.0], atol=1e-8)

    def test_offset_circle_rejected(self):
        far = pullback(UNIT_CIRCLE, translation_h([-300.0, 200.0]))
        with pytest.raises(NotAParabola):
            apex_form(far)
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

    def test_non_finite_checked_before_the_sign(self):
        with pytest.raises(ValueError, match="finite"):
            Parabola([np.nan, 0.0], 0.0, -1.0)
        with pytest.raises(NonpositiveParameter):
            Parabola([0.0, 0.0], 0.0, -0.0)

    @pytest.mark.parametrize("apex", [[[0.5, -1.5]], np.array([[0.5], [-1.5]]), (0.5, -1.5)])
    def test_apex_of_two_entries_accepted(self, apex):
        para = Parabola(apex, 0.3, 2.0)
        assert para.apex.shape == (2,) and para.apex.tolist() == [0.5, -1.5]

    @pytest.mark.parametrize("apex", [[0.0, 1.0, 2.0], [0.5], [[0.0, 1.0], [2.0, 3.0]], 1.0])
    def test_apex_of_other_sizes_rejected(self, apex):
        with pytest.raises(ValueError):
            Parabola(apex, 0.3, 2.0)

    def test_apex_is_a_read_only_copy(self):
        src = np.array([0.5, -1.5])
        para = Parabola(src, 0.3, 2.0)
        src[0] = 9.0
        assert para.apex.tolist() == [0.5, -1.5] and src.flags.writeable
        with pytest.raises(ValueError):
            para.apex[0] = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            para.parameter = 1.0

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


SCALES = st.floats(-150.0, 150.0)
ANGLES = st.floats(0.0, 2.0 * np.pi)
POINTS = st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))


@settings(max_examples=100, deadline=None)
@given(e=SCALES, apex=POINTS, angle=ANGLES, p=st.floats(0.05, 5.0))
def test_apex_form_round_trip_at_every_scale(e, apex, angle, p):
    s = 10.0**e
    para = Parabola(s * np.array(apex), angle, s * p)
    a2, th2, p2 = apex_form(para.conic)
    assert p2 == pytest.approx(para.parameter, rel=1e-9)
    assert np.abs(a2 - para.apex).max() <= 1e-9 * s
    assert abs((th2 - para.axis_angle + np.pi) % (2 * np.pi) - np.pi) <= 1e-9


@settings(max_examples=100, deadline=None)
@given(e=SCALES, centre=POINTS, angle=ANGLES, axes=st.tuples(st.floats(0.2, 3.0), st.floats(0.2, 3.0)))
def test_ellipses_are_regular_at_every_scale(e, centre, angle, axes):
    s = 10.0**e
    rot = rotation_h(angle)[1:, 1:]
    a = rot @ np.diag([1.0 / (s * axes[0]) ** 2, 1.0 / (s * axes[1]) ** 2]) @ rot.T
    c = s * np.array(centre)
    m = np.block([[np.array([[c @ a @ c - 1.0]]), -(a @ c)[None, :]], [-(a @ c)[:, None], a]])
    ellipse = ConicMatrix(m)
    assert ellipse.is_regular()
    with pytest.raises(NotAParabola):
        apex_form(ellipse)
