"""Dualization, interior normalization and pencils."""

import numpy as np
import pytest

from conic_extrema import (
    ConicMatrix,
    HomPoint,
    SingularConic,
    WitnessOnConic,
    ZeroBlend,
    adjugate,
    dualize,
    normalize_interior,
    pencil_blend,
)
from conic_extrema.exparabola import CanonicalFrame, dual_pencil, pencil_parabola
from conic_extrema.verify import (
    dual_pencil_line_preservation,
    pencil_interior_preservation,
)
from conftest import equal_up_to_scale, random_regular_conic

UNIT_CIRCLE = ConicMatrix(np.diag([-1.0, 1.0, 1.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_point_rejected(bad):
    with pytest.raises(ValueError, match="finite"):
        HomPoint([1.0, bad, 0.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_conic_rejected(bad):
    m = np.diag([-1.0, 1.0, 1.0])
    m[1, 2] = m[2, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        ConicMatrix(m)


class TestDualize:
    def test_unit_circle(self):
        assert equal_up_to_scale(dualize(UNIT_CIRCLE), ConicMatrix(np.diag([1.0, -1.0, -1.0])))

    def test_diagonal_adjugate(self):
        a, b, c = 2.0, 3.0, 5.0
        d = dualize(ConicMatrix(np.diag([a, b, c])))
        assert equal_up_to_scale(d, ConicMatrix(np.diag([b * c, a * c, a * b])))

    def test_involution_up_to_scale(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            c = random_regular_conic(rng)
            assert equal_up_to_scale(dualize(dualize(c)), c, tol=1e-9)

    def test_dual_pencil_member_dualizes_to_pencil_parabola(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            a1 = rng.uniform(-3.0, 1.0)
            b1 = a1 + rng.uniform(0.3, 4.0)
            c2 = rng.uniform(0.3, 3.0)
            frame = CanonicalFrame(a1=a1, b1=b1, c2=c2, world_to_frame=np.eye(3))
            lam = rng.uniform(a1 + 0.05 * (b1 - a1), b1 - 0.05 * (b1 - a1))
            d = dual_pencil(frame, lam)
            p = pencil_parabola(frame, lam)
            assert equal_up_to_scale(dualize(d), p.conic, tol=1e-9)

    def test_singular_conic_rejected(self):
        with pytest.raises(SingularConic):
            dualize(ConicMatrix(np.diag([0.0, 1.0, 0.0])))

    def test_adjugate_identity(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            m = rng.normal(0.0, 2.0, (3, 3))
            ad = adjugate(m)
            assert np.allclose(m @ ad, np.linalg.det(m) * np.eye(3), atol=1e-9)


class TestInteriorNormalization:
    def test_flips_sign_for_positive_witness_value(self):
        c = ConicMatrix(np.diag([1.0, -1.0, -1.0]) * 3.7)
        out = normalize_interior(c, HomPoint([1.0, 0.0, 0.0]))
        assert out.form(HomPoint([1.0, 0.0, 0.0])) < 0.0

    def test_keeps_sign_when_already_negative(self):
        out = normalize_interior(UNIT_CIRCLE, HomPoint([1.0, 0.5, 0.0]))
        assert np.array_equal(out.m, UNIT_CIRCLE.m)

    def test_witness_on_conic_rejected(self):
        with pytest.raises(WitnessOnConic):
            normalize_interior(UNIT_CIRCLE, HomPoint([1.0, 1.0, 0.0]))


def _circle_at(cx, cy, r=1.0):
    # (x-cx)^2 + (y-cy)^2 - r^2 = 0, interior negative
    return ConicMatrix(
        [
            [cx * cx + cy * cy - r * r, -cx, -cy],
            [-cx, 1.0, 0.0],
            [-cy, 0.0, 1.0],
        ]
    )


class TestPencilBlend:
    def test_endpoints(self):
        c0 = _circle_at(0.0, 0.0)
        c1 = _circle_at(0.5, 0.0)
        assert np.allclose(pencil_blend(c0, c1, 0.0).m, c0.m)
        assert np.allclose(pencil_blend(c0, c1, 1.0).m, c1.m)

    def test_zero_blend_rejected(self):
        c0 = _circle_at(0.0, 0.0)
        c1 = ConicMatrix(-c0.m)
        with pytest.raises(ZeroBlend):
            pencil_blend(c0, c1, 0.5)

    def test_common_interior_preserved_translated_circles(self):
        c0 = _circle_at(-0.3, 0.0)
        c1 = _circle_at(0.3, 0.0)
        rng = np.random.default_rng(5)
        pts = rng.uniform(-1.5, 1.5, (4000, 2))
        hom = np.column_stack([np.ones(len(pts)), pts])
        inside = (np.einsum("ni,ij,nj->n", hom, c0.m, hom) < 0) & (
            np.einsum("ni,ij,nj->n", hom, c1.m, hom) < 0
        )
        hom = hom[inside]
        blend = pencil_blend(c0, c1, 0.5)
        assert np.all(np.einsum("ni,ij,nj->n", hom, blend.m, hom) < 0)

    def test_symmetry_preserved_by_all_operations(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            c = random_regular_conic(rng)
            for m in (dualize(c).m, pencil_blend(c, random_regular_conic(rng), 0.3).m):
                assert np.linalg.norm(m - m.T) <= 1e-12 * np.linalg.norm(m)


class TestPencilSuites:
    """Sampled versions of the interior/line preservation claims."""

    def test_interior_preservation_suite(self):
        report = pencil_interior_preservation(pairs=10, points_per_pair=100, seed=7)
        assert report["passed"], report

    def test_dual_line_preservation_suite(self):
        report = dual_pencil_line_preservation(pairs=6, lines_per_pair=80, seed=8)
        assert report["passed"], report
