"""Horocycle matrices, containment, pair intersections and the cover."""

import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conic_extrema import horocycle as horocycle_module
from conic_extrema import verify as verify_module
from conic_extrema import (
    Horocycle,
    NoCommonInterior,
    PreconditionViolation,
    check_cover_containment,
    check_size_reduction_identities,
    common_cover,
    common_cover_unchecked,
    intersection_points,
    min_size_for_point,
    sample_common_interior,
    solve_min_horocycle,
    verify_solution,
)
from conic_extrema.horocycle import (
    INV_SQRT2,
    _disk_points,
    _point_terms,
    intersection_radicand,
    min_sizes_for_points,
)
from conic_extrema.minhorocycle import as_point_set
from conic_extrema.verify import run_suite
from conftest import equal_up_to_scale


def pair_matrices(a, w):
    """Matrices of the pair of size a with ideal angles pi/2 +- w."""
    return (
        Horocycle(np.pi / 2 + w, a).matrix(),
        Horocycle(np.pi / 2 - w, a).matrix(),
    )


def expanded_pair_matrices(a, w):
    """Entrywise closed form of the two rotated horocycle matrices."""
    c, s = np.cos(w), np.sin(w)
    h0 = np.array(
        [
            [2 * (1 - 2 * a**2), 2 * (1 - a**2) * s, -2 * (1 - a**2) * c],
            [2 * (1 - a**2) * s, 2 * (a**2 * c**2 + s**2), -(1 - a**2) * np.sin(2 * w)],
            [-2 * (1 - a**2) * c, -(1 - a**2) * np.sin(2 * w), 2 * (a**2 * s**2 + c**2)],
        ]
    )
    h1 = h0 * np.array([[1, -1, 1], [-1, 1, -1], [1, -1, 1]])
    return h0, h1


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_angle_rejected(bad):
    with pytest.raises(ValueError, match="finite"):
        Horocycle(theta=bad, a=0.5)


class TestMatrix:
    def test_half_size_matrix(self):
        m = Horocycle(theta=np.pi / 2, a=0.5).matrix().m
        assert np.allclose(
            m, [[0.5, 0.0, -0.75], [0.0, 0.25, 0.0], [-0.75, 0.0, 1.0]], atol=1e-15
        )

    def test_form_vanishes_at_vertex_and_ideal_point(self, rng):
        for _ in range(100):
            a = rng.uniform(0.05, 0.95)
            h = Horocycle(theta=np.pi / 2, a=a)
            m = h.matrix().m
            for y in (1.0 - 2.0 * a * a, 1.0):
                v = np.array([1.0, 0.0, y])
                assert abs(v @ m @ v) <= 1e-12

    def test_rotation_moves_tangency(self):
        h = Horocycle(theta=0.0, a=0.4)
        v = np.array([1.0, 1.0, 0.0])
        assert abs(v @ h.matrix().m @ v) <= 1e-14

    def test_interior_normalized(self, rng):
        for _ in range(50):
            h = Horocycle(theta=rng.uniform(0, 2 * np.pi), a=rng.uniform(0.05, 0.95))
            v = np.array([1.0, *h.center])
            assert v @ h.matrix().m @ v < 0.0

    def test_pair_matches_expanded_entries(self, rng):
        for _ in range(100):
            a = rng.uniform(0.05, 0.95)
            w = rng.uniform(0.0, 1.4)
            h0, h1 = pair_matrices(a, w)
            p0, p1 = expanded_pair_matrices(a, w)
            assert equal_up_to_scale(h0.m, p0, tol=1e-12)
            assert equal_up_to_scale(h1.m, p1, tol=1e-12)

    def test_regular_and_single_boundary_contact(self, rng):
        for _ in range(1000):
            theta = rng.uniform(0, 2 * np.pi)
            a = rng.uniform(0.05, 0.95)
            h = Horocycle(theta=theta, a=a)
            m = h.matrix().m
            assert abs(np.linalg.det(m)) > 1e-12 * np.linalg.norm(m) ** 3
            phi = np.linspace(0, 2 * np.pi, 720, endpoint=False)
            ring = np.column_stack([np.ones_like(phi), np.cos(phi), np.sin(phi)])
            g = np.einsum("ni,ij,nj->n", ring, m, ring)
            assert g.min() >= -1e-12  # boundary circle never strictly inside
            dphi = np.abs((phi - theta + np.pi) % (2 * np.pi) - np.pi)
            # g(phi) = (1 - a^2)(sin(phi - theta + pi/2) - 1)^2: quartic
            # contact at theta, strictly positive elsewhere
            floor = 0.3 * (1.0 - a * a) * (1.0 - np.cos(0.2)) ** 2
            assert np.all(g[dphi > 0.2] > floor)


class TestContains:
    def test_center_on_critical_horocycle(self):
        assert not Horocycle(theta=np.pi / 2, a=INV_SQRT2).contains([0.0, 0.0])

    def test_center_inside_large(self):
        assert Horocycle(theta=np.pi / 2, a=0.9).contains([0.0, 0.0])

    def test_point_outside_small(self):
        assert not Horocycle(theta=np.pi / 2, a=0.3).contains([0.0, -0.5])

    def test_smaller_fits_into_larger_same_ideal_point(self, rng):
        h1 = Horocycle(theta=np.pi / 2, a=0.35)
        h2 = Horocycle(theta=np.pi / 2, a=0.6)
        pts = rng.uniform(-1, 1, (20000, 2))
        pts = pts[(pts**2).sum(axis=1) < 1]
        hom = np.column_stack([np.ones(len(pts)), pts])
        inside1 = np.einsum("ni,ij,nj->n", hom, h1.matrix().m, hom) < 0
        assert inside1.any()
        assert all(h2.contains(p) for p in pts[inside1])

    @pytest.mark.parametrize(
        "p",
        [
            [0.0, 1.0],
            [0.6, -0.8],
            [1.0, 0.0],
            [0.9, 0.9],
            [3.0, -2.0],
            [1e200, 0.0],
            [np.nan, 0.0],
            [0.0, np.inf],
            [0.1, 0.2, 0.3],  # not an (x, y) pair
            [0.1],
            [[0.1, 0.2]],
        ],
    )
    def test_absolute_outside_and_nan_points_are_outside(self, p):
        for theta in (np.pi / 2, 0.0, 2.0):
            assert Horocycle(theta=theta, a=0.99).contains(p) is False

    def test_point_ulps_inside_at_the_ideal_point_raises_no_warning(self):
        # the denominator of its squared size rounds to zero
        p = np.array([-0.6929948235323112, 0.7209425598183399])
        assert p @ p < 1.0
        h = Horocycle(theta=float(np.arctan2(p[1], p[0])), a=0.5)
        assert isinstance(h.contains(p), bool)

    def test_boundary_points_are_decided_by_their_rounded_size(self, rng):
        # the vertex on the axis and the lower lens tip L lie on the
        # horocycle; their sizes round to within a few ulps of a, so they
        # may test inside, while points 1e-9 off the boundary are decided
        for a in rng.uniform(0.05, 0.95, 50):
            w = a * rng.uniform(0.01, 0.9)
            cases = [(np.pi / 2, np.array([0.0, 1.0 - 2.0 * a * a]))]
            cases += [(np.pi / 2 + s * w, intersection_points(a, w)[0]) for s in (1, -1)]
            for theta, p in cases:
                h = Horocycle(theta=theta, a=a)
                size = min_size_for_point(theta, p)
                assert abs(size - a) <= 64 * np.finfo(float).eps * a
                assert h.contains(p) == (size < a)
                assert Horocycle(theta=theta, a=a * (1 + 1e-9)).contains(p)
                assert not Horocycle(theta=theta, a=a * (1 - 1e-9)).contains(p)


class TestMinSize:
    def test_center_needs_critical_size(self, rng):
        for theta in rng.uniform(0, 2 * np.pi, 10):
            assert min_size_for_point(theta, [0.0, 0.0]) == pytest.approx(
                INV_SQRT2, rel=1e-14
            )

    def test_point_toward_ideal_point(self):
        for r in (0.2, 0.5, 0.8):
            assert min_size_for_point(np.pi / 2, [0.0, r]) == pytest.approx(
                np.sqrt((1 - r) / 2), rel=1e-13
            )

    def test_point_away_from_ideal_point(self):
        for r in (0.2, 0.5, 0.8):
            assert min_size_for_point(np.pi / 2, [0.0, -r]) == pytest.approx(
                np.sqrt((1 + r) / 2), rel=1e-13
            )

    def test_consistency_with_contains(self, rng):
        checked = 0
        while checked < 10000:
            theta = rng.uniform(0, 2 * np.pi)
            pt = rng.uniform(-1, 1, 2)
            if pt @ pt >= 0.96:
                continue
            a = rng.uniform(0.05, 0.95)
            astar = min_size_for_point(theta, pt)
            if abs(a - astar) < 1e-9 or not 0.0 < astar < 1.0:
                continue
            v = np.array([1.0, *pt])
            h = Horocycle(theta=theta, a=a)
            assert (v @ h.matrix().m @ v < 0.0) == (a > astar)
            assert h.contains(pt) == (a > astar)
            checked += 1

    def test_squared_size_matches_exact_oracle(self, rng):
        # s^2 / (s^2 + w^2) in exact rationals on the float cos and sin the
        # kernel uses; rounding in s = 1 - p.u costs about eps / s relative
        eps = np.finfo(float).eps
        checked = 0
        while checked < 2000:
            r = 0.99 * np.sqrt(rng.uniform())
            phi = rng.uniform(0.0, 2.0 * np.pi)
            theta = phi + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3.0, 0.5)
            x, y = r * np.cos(phi), r * np.sin(phi)
            c, sn = Fraction(float(np.cos(theta))), Fraction(float(np.sin(theta)))
            s = 1 - (Fraction(x) * c + Fraction(y) * sn)
            if s < Fraction(1, 100) or x * x + y * y > 0.99**2:
                continue
            w2 = 1 - (Fraction(x) ** 2 + Fraction(y) ** 2)
            exact = s * s / (s * s + w2)
            got = float(min_sizes_for_points(theta, [x, y])[0, 0]) ** 2
            assert abs(Fraction(got) - exact) <= 8 * eps * (1 + 1 / s) * exact
            checked += 1

    @settings(max_examples=200, deadline=None)
    @given(
        phi=st.floats(0.0, 2.0 * np.pi),
        ulps=st.integers(1, 3),
        offsets=st.lists(st.floats(-1e-6, 1e-6), min_size=1, max_size=8),
    )
    def test_points_ulps_inside_the_absolute_have_sizes_in_0_1(self, phi, ulps, offsets):
        # near the ideal point the angle term s = 1 - p.u rounds to
        # about w^2 = 1 - |p|^2; its floor w^2 / 2 keeps the size positive
        r = 1.0 - ulps * 2.0**-53
        p = [r * np.cos(phi), r * np.sin(phi)]
        if not p[0] ** 2 + p[1] ** 2 < 1.0:
            return
        thetas = np.array([phi, *(phi + np.array(offsets)), phi + np.pi])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sizes = min_sizes_for_points(thetas, [p])[:, 0]
            assert Horocycle(theta=phi, a=0.5).contains(p)
        assert np.all((sizes > 0.0) & (sizes <= 1.0))

    @pytest.mark.parametrize(
        "theta, p",
        [
            (0.0, [2.0, 0.0]),  # outside: once NaN with a RuntimeWarning
            (3.0, [2.0, 0.0]),  # outside: once a "size" of 1.229
            (0.0, [1.0, 0.0]),  # on the absolute, at the ideal point
            (1.0, [0.0, -1.0]),  # on the absolute
            (0.5, [np.nan, 0.1]),
            (0.5, [0.1, np.inf]),
            (0.5, [-np.inf, 0.0]),
            # finite but huge: once an overflow RuntimeWarning from squaring
            (0.0, [1e200, 0.0]),
            (2.0, [0.0, -1e300]),
            (0.7, [1e155, 1e155]),
        ],
    )
    def test_invalid_point_rejected(self, theta, p):
        with pytest.raises(ValueError, match="inside the unit disk"):
            min_size_for_point(theta, p)
        with pytest.raises(ValueError, match="finite"):
            min_sizes_for_points([theta, 0.0], [[0.1, 0.2], p, [0.0, 0.0]])


class TestIntersectionPoints:
    def test_coincident_pair(self, rng):
        for a in rng.uniform(0.1, 0.9, 20):
            lower, upper = intersection_points(a, 0.0)
            assert lower[1] == pytest.approx(1 - 2 * a * a, abs=1e-14)
            assert upper[1] == pytest.approx(1.0, abs=1e-14)

    def test_points_on_both_matrices(self, rng):
        done = 0
        while done < 200:
            a = rng.uniform(0.1, 0.95)
            w = rng.uniform(0.0, 1.2)
            try:
                lower, upper = intersection_points(a, w)
            except NoCommonInterior:
                continue
            h0, h1 = pair_matrices(a, w)
            for pt in (lower, upper):
                v = np.array([1.0, *pt])
                assert abs(v @ h0.m @ v) <= 1e-10
                assert abs(v @ h1.m @ v) <= 1e-10
            assert lower[1] < upper[1]
            done += 1

    def test_disjoint_pair_rejected(self):
        with pytest.raises(NoCommonInterior):
            intersection_points(0.3, 1.0)


class TestCommonCover:
    def test_small_pair_shrinks_and_covers(self):
        cover = common_cover(0.5, 0.2)
        assert cover.a < 0.5
        pts = sample_common_interior(0.5, 0.2, 100000, seed=1)
        m = cover.matrix().m
        hom = np.column_stack([np.ones(len(pts)), pts])
        forms = np.einsum("ni,ij,nj->n", hom, m, hom)
        assert (forms < 0).all()

    def test_at_bound_equal_size(self):
        cover = common_cover_unchecked(INV_SQRT2, 0.3)
        assert cover.a == pytest.approx(INV_SQRT2, abs=1e-12)

    def test_above_bound_grows(self):
        cover = common_cover_unchecked(0.8, 0.2)
        assert cover.a > 0.8

    def test_checked_variant_guards_bound(self):
        with pytest.raises(PreconditionViolation):
            common_cover(0.75, 0.2)

    def test_cover_shrinks_over_random_pairs(self, rng):
        done = 0
        while done < 100:
            a = rng.uniform(0.05, 0.70)
            w = rng.uniform(0.01, 1.2)
            try:
                cover = common_cover(a, w)
            except (NoCommonInterior, PreconditionViolation):
                continue
            assert cover.a < a
            pts = sample_common_interior(a, w, 1000, seed=done)
            m = cover.matrix().m
            hom = np.column_stack([np.ones(len(pts)), pts])
            assert (np.einsum("ni,ij,nj->n", hom, m, hom) < 0).all()
            done += 1


class TestLensSampler:
    def test_points_inside_both_pair_matrices(self, rng):
        done = 0
        while done < 50:
            a = rng.uniform(0.05, 0.95)
            w = rng.uniform(0.0, 1.2)
            try:
                pts = sample_common_interior(a, w, 2000, seed=done)
            except NoCommonInterior:
                continue
            hom = np.column_stack([np.ones(len(pts)), pts])
            for h in pair_matrices(a, w):
                assert (np.einsum("ni,ij,nj->n", hom, h.m, hom) < 0).all()
            done += 1


class TestSizeIdentities:
    def test_endpoint_value(self):
        rep = check_size_reduction_identities(0.5, 1.0)
        assert rep.rhs_at_t1 == pytest.approx(0.5, rel=1e-15)
        assert rep.rhs_at_t1_identity_error <= 1e-15

    def test_factorization(self):
        rep = check_size_reduction_identities(0.6, 0.4)
        assert rep.lhs_squared_minus_rhs_squared < 0.0
        assert rep.factorization_rel_error <= 1e-12
        assert rep.size_inequality_holds
        assert rep.passed

    def test_no_overlap_rejected(self):
        # q(0.5, 0.5) = (0.0625 + 1.5 + 1) * 0.25 - 1 < 0
        with pytest.raises(PreconditionViolation):
            check_size_reduction_identities(0.5, 0.5)

    def test_bound_enforced(self):
        with pytest.raises(PreconditionViolation):
            check_size_reduction_identities(0.8, 0.2)


class TestCoverContainment:
    def test_below_bound_no_violations(self):
        rep = check_cover_containment(0.5, 0.2, samples=20000, seed=0)
        assert rep.common_interior_points > 0
        assert rep.k_violations == 0
        assert rep.containment_violations == 0
        assert rep.min_k > 0
        assert rep.size_reduced

    def test_tiny_angle_trivial(self):
        rep = check_cover_containment(0.4, 1e-6, samples=5000, seed=1)
        assert rep.k_violations == 0
        assert rep.containment_violations == 0

    def test_above_bound_size_grows_but_containment_holds(self):
        rep = check_cover_containment(0.8, 0.3, samples=20000, seed=2)
        assert rep.size_reduced is False  # the sharpness of the bound
        assert rep.containment_violations == 0

    @settings(max_examples=60, deadline=None)
    @given(
        a=st.floats(0.02, 0.98),
        t=st.floats(0.0, 1.0, exclude_min=True),
        samples=st.integers(1, 5000),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_the_check_on_every_sample(self, a, t, samples, seed):
        # the lens-box prefilter leaves the report as the kernel over every
        # sampled point makes it
        assert check_cover_containment(a, t, samples, seed) == cover_containment_on_every_sample(
            a, t, samples, seed
        )


def cover_containment_on_every_sample(a, t, samples, seed):
    """``check_cover_containment`` with each sampled point's minimal sizes
    taken through ``min_sizes_for_points``, no prefilter."""
    rng = np.random.default_rng(seed)
    pts = np.empty((0, 2))
    while len(pts) < samples:
        batch = rng.uniform(-1.0, 1.0, (2 * (samples - len(pts)) + 16, 2))
        pts = np.vstack([pts, batch[(batch * batch).sum(axis=1) < 1.0]])
    pts = pts[:samples]
    omega = 2.0 * np.arctan(t)
    pair = np.array([0.5 * np.pi + omega, 0.5 * np.pi - omega])
    lens = pts[(min_sizes_for_points(pair, pts) < a).all(axis=0)]
    has_cover = intersection_radicand(a, omega) > 0.0
    cover = common_cover_unchecked(a, omega) if has_cover else None
    k = horocycle_module._k_poly(lens[:, 0], lens[:, 1], a, t)
    outside = min_sizes_for_points(cover.theta, lens)[0] >= cover.a if has_cover else []
    return horocycle_module.CoverContainmentReport(
        a=a,
        t=t,
        samples=samples,
        common_interior_points=len(lens),
        k_violations=int((k <= 0.0).sum()),
        containment_violations=int(np.count_nonzero(outside)),
        min_k=float(k.min()) if len(lens) else None,
        cover_size=cover.a if has_cover else None,
        size_reduced=bool(cover.a < a) if has_cover else None,
    )


class TestInvalidInput:
    @pytest.mark.parametrize("a, t", [(np.nan, 0.2), (0.5, np.nan), (np.inf, 0.2), (0.5, -np.inf)])
    def test_cover_containment_non_finite_rejected(self, a, t):
        with pytest.raises(ValueError, match="finite"):
            check_cover_containment(a, t, samples=100)

    @pytest.mark.parametrize("a", [-0.5, 0.0, 1.0, 1.5])
    def test_cover_containment_size_rejected(self, a):
        # a = -0.5 used to pass with a cover of size 0.215, and a = 0 passed
        # without checking a single point
        with pytest.raises(ValueError, match="size"):
            check_cover_containment(a, 0.2, samples=100)

    @pytest.mark.parametrize(
        "a_range", [(0.3, np.nan), (-0.7, -0.5), (0.5, 1.5), (0.3, np.inf), (0.3,), (0.1, 0.2, 0.3)]
    )
    def test_cover_suite_a_range_rejected(self, a_range):
        with pytest.raises(ValueError, match="a_range"):
            run_suite("cover", 0, cases=2, samples=100, a_range=a_range)

    @pytest.mark.parametrize("samples", [0, -5, 2.5, True])
    def test_cover_containment_needs_a_sample(self, samples):
        with pytest.raises(ValueError, match="samples"):
            check_cover_containment(0.5, 0.2, samples=samples)

    @pytest.mark.parametrize("a", [1.5, 1.0, 0.0, -0.3, np.nan])
    def test_lens_sampler_size_rejected(self, a):
        with pytest.raises(ValueError, match="size"):
            sample_common_interior(a, 0.2, 10)

    @pytest.mark.parametrize("omega", [np.nan, np.inf, -np.inf])
    def test_lens_sampler_angle_rejected(self, omega):
        with pytest.raises(ValueError, match="omega"):
            sample_common_interior(0.5, omega, 10)

    def test_cover_work_is_bounded(self, monkeypatch):
        # checked before any draw: one past either bound raises at once
        with pytest.raises(ValueError, match="samples"):
            check_cover_containment(0.5, 0.2, samples=horocycle_module.MAX_SAMPLES + 1)
        with pytest.raises(ValueError, match="cases"):
            run_suite("cover", 0, cases=verify_module.MAX_CASES + 1)
        with pytest.raises(ValueError, match="samples"):
            run_suite("cover", 0, cases=2, samples=horocycle_module.MAX_SAMPLES + 1)
        # the bounds themselves are allowed
        monkeypatch.setattr(horocycle_module, "MAX_SAMPLES", 100)
        monkeypatch.setattr(verify_module, "MAX_CASES", 2)
        assert run_suite("cover", 0, cases=2, samples=100)["passed"]

    def test_cover_suite_counts_checked_before_any_case(self, monkeypatch):
        def ran(*args, **kwargs):
            raise AssertionError("a size-reduction case ran")

        monkeypatch.setattr(verify_module, "size_reduction_suite", ran)
        with pytest.raises(ValueError, match="samples"):
            run_suite("cover", 0, cases=5, samples=horocycle_module.MAX_SAMPLES + 1)

    def test_lens_sampler_count_rejected(self):
        with pytest.raises(ValueError, match="n must"):
            sample_common_interior(0.5, 0.2, -1)
        with pytest.raises(ValueError, match="n must"):
            sample_common_interior(0.5, 0.2, 2.5)
        with pytest.raises(ValueError, match="n must"):
            sample_common_interior(0.5, 0.2, True)
        assert sample_common_interior(0.5, 0.2, 0).shape == (0, 2)

    @pytest.mark.parametrize("n", [horocycle_module.MAX_SAMPLES + 1, 10**17])
    def test_lens_sampler_count_is_bounded(self, n):
        # 10^17 points once raised MemoryError; the bound is checked first
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="n must"):
                sample_common_interior(0.5, 0.2, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**16


def test_horocycle_paths_build_no_matrix(monkeypatch):
    """Every containment decision goes through the closed-form size."""

    def forbidden(*args, **kwargs):
        raise AssertionError("a horocycle matrix was built")

    for name in ("_base_matrix", "ConicMatrix"):
        monkeypatch.setattr(horocycle_module, name, forbidden)
    assert Horocycle(theta=np.pi / 2, a=0.9).contains([0.0, 0.0])
    assert not Horocycle(theta=np.pi / 2, a=0.3).contains([0.0, -0.5])
    assert check_cover_containment(0.5, 0.2, samples=2000, seed=0).passed
    assert len(sample_common_interior(0.5, 0.2, 500, seed=0)) == 500
    pts = [[0.0, 0.5], [0.2, 0.1], [-0.3, 0.2]]
    verify_solution(pts, solve_min_horocycle(pts))
    assert run_suite("cover", 0, cases=3, samples=2000)["passed"]


# -- the point rule ------------------------------------------------------------
#
# Copies of the checks that each caller made on its own before the rule moved
# into ``horocycle._disk_points``: the new code must accept and reject exactly
# what they did, apart from the shapes the kernel used to misread.

INVALID = "finite.*inside the unit disk"


def _old_as_point_set(points):
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) == 0:
        raise ValueError("point set must be a nonempty list of (x, y) pairs")
    if not np.all(np.isfinite(pts)):
        raise ValueError("point coordinates must be finite")
    if np.any(np.abs(pts) >= 1.0) or np.any((pts**2).sum(axis=1) >= 1.0):
        raise ValueError("all points must lie strictly inside the unit disk")
    return pts


def _old_min_sizes_accept(pts):
    """The check of ``min_sizes_for_points``, for (n, 2) points."""
    pts = np.atleast_2d(np.asarray(pts, float))
    if not np.all(np.abs(pts) < 1.0):
        return False
    x, y = pts[:, 0], pts[:, 1]
    return bool(np.all(1.0 - (x * x + y * y) > 0.0))


def _old_contains_accept(p):
    """The check of ``Horocycle.contains``, on Python floats."""
    x, y = (float(c) for c in p)
    return 1.0 - (x * x + y * y) > 0.0


def _old_sampler_keep(batch):
    """The disk filter of ``check_cover_containment`` and ``sample_common_interior``."""
    return (batch**2).sum(axis=1) < 1.0


def _accepts(fun, *args):
    try:
        fun(*args)
    except ValueError:
        return False
    return True


@st.composite
def _near_circle(draw):
    """A point of the unit circle with each coordinate kept or moved one ulp
    toward zero or away from it: on, just inside or just outside the circle."""
    phi = draw(st.floats(0.0, 2.0 * np.pi))
    out = []
    for c in (math.cos(phi), math.sin(phi)):
        target = draw(st.sampled_from([None, 0.0, math.copysign(2.0, c)]))
        out.append(c if target is None else float(np.nextafter(c, target)))
    return out


SPECIAL = [0.0, -0.0, 1.0, -1.0, 0.5, np.nan, np.inf, -np.inf, 1e155, -1e200, 1e300]
COORD = st.one_of(
    st.floats(-1.5, 1.5),
    st.sampled_from(SPECIAL),
    st.floats(1e155, 1e300).map(lambda v: -v),
    st.floats(1e155, 1e300),
)
POINT = st.one_of(st.lists(COORD, min_size=2, max_size=2), _near_circle())


class TestPointRule:
    @settings(max_examples=400, deadline=None)
    @given(rows=st.lists(POINT, max_size=5), theta=st.floats(0.0, 2.0 * np.pi))
    def test_accepts_what_each_old_check_accepted(self, rows, theta):
        pts = np.array(rows, dtype=float).reshape(-1, 2)
        valid = _accepts(_old_as_point_set, pts) or len(pts) == 0
        assert valid == _old_min_sizes_accept(pts)
        assert _accepts(_disk_points, pts) == valid
        assert _accepts(min_sizes_for_points, [theta], pts) == valid
        assert _accepts(as_point_set, pts) == (valid and len(pts) > 0)
        if valid and len(pts):
            assert np.array_equal(as_point_set(pts), _old_as_point_set(pts))
        with np.errstate(all="ignore"):  # the old filter squares huge values
            assert np.array_equal(_point_terms(pts)[2] > 0.0, _old_sampler_keep(pts))
        for p in pts:
            ok = _old_contains_accept(p)
            assert _accepts(_disk_points, p) == ok
            for a in (0.3, 0.999):
                inside = ok and min_size_for_point(theta, p) < a
                assert Horocycle(theta=theta, a=a).contains(p) == inside

    @pytest.mark.parametrize(
        "pts",
        [[[np.nan, 0.1]], [[0.1, -np.inf]], [[1e300, 0.0]], [[0.6, 0.8]], [[0.0, 0.0], [1.0, 0.0]]],
    )
    def test_one_message_names_both_conditions(self, pts):
        with pytest.raises(ValueError, match=INVALID):
            as_point_set(pts)
        with pytest.raises(ValueError, match=INVALID):
            min_sizes_for_points(0.0, pts)

    @pytest.mark.parametrize(
        "pts", [[], [0.1], [[0.1, 0.2, 0.3]], [[[0.1, 0.2]]], [[0.1], [0.2]], 0.5],
        ids=["empty", "one-coordinate", "three-coordinates", "3d", "column", "scalar"],
    )
    def test_wrong_shapes_were_and_are_rejected(self, pts):
        assert not _accepts(_old_as_point_set, pts)
        assert not _accepts(as_point_set, pts)
        assert not _accepts(_disk_points, pts)

    def test_empty_point_array_is_valid_but_not_a_point_set(self):
        pts, terms = _disk_points(np.empty((0, 2)))
        assert pts.shape == (0, 2) and terms[2].shape == (0,)
        assert min_sizes_for_points([0.0, 1.0], pts).shape == (2, 0)
        with pytest.raises(ValueError, match="nonempty"):
            as_point_set(np.empty((0, 2)))


@pytest.mark.parametrize("fun", [min_size_for_point, min_sizes_for_points])
@pytest.mark.parametrize(
    "p", [[0.1, 0.2, 0.3], [[0.1, 0.2, 0.9]], [], [0.1]],
    ids=["three-coordinates", "three-coordinate-row", "empty", "one-coordinate"],
)
def test_min_sizes_reject_wrong_shapes(fun, p):
    # the kernel once read the first two coordinates of a longer point and
    # raised IndexError for a shorter one
    with pytest.raises(ValueError, match=INVALID):
        fun(0.0, p)


class TestSamplersPinned:
    """Outputs of the two disk-filtered samplers, recorded before the filter
    moved to the kernel's w^2 term."""

    @pytest.mark.parametrize(
        "seed, points, min_k",
        [(0, 517, "0x1.20db3cf378356p-21"), (7, 536, "0x1.11a8e8e6af810p-21")],
    )
    def test_cover_containment(self, seed, points, min_k):
        rep = check_cover_containment(0.6, 0.2, samples=5000, seed=seed)
        assert (rep.common_interior_points, rep.k_violations, rep.containment_violations) == (points, 0, 0)
        assert rep.min_k.hex() == min_k
        assert rep.cover_size.hex() == "0x1.2c7a07fd5f110p-1"
        assert rep.size_reduced is True

    @pytest.mark.parametrize(
        "seed, ends, total, squares",
        [
            (0, ["0x1.680fb5fe75ce4p-4", "0x1.9c6116859854fp-2", "0x1.db34b03d09650p-4",
                 "0x1.9cf92bcd557c0p-1"], "0x1.9bc94d037d6b6p+7", "0x1.32d837634c2c0p+7"),
            (7, ["0x1.48ddb39292b2cp-4", "0x1.d2cdcabcdb172p-1", "0x1.b23bc425e3580p-9",
                 "0x1.ca7f413d6ee28p-1"], "0x1.9569fba54c640p+7", "0x1.305ec6897801dp+7"),
        ],
    )
    def test_lens_sampler(self, seed, ends, total, squares):
        p = sample_common_interior(0.6, 0.4, 300, seed=seed)
        assert p.shape == (300, 2)
        assert [v.hex() for v in (*p[0].tolist(), *p[-1].tolist())] == ends
        assert math.fsum(p.ravel().tolist()).hex() == total
        assert math.fsum((p * p).ravel().tolist()).hex() == squares
