"""Minimal enclosing horocycle: profile, solver, verification."""

import dataclasses
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull, Delaunay

from conic_extrema import (
    MinHorocycleSolution,
    VerificationFailure,
    size_profile,
    solve_min_horocycle,
    verify_solution,
)
from conic_extrema import minhorocycle as minhorocycle_module
from conic_extrema.horocycle import INV_SQRT2, Horocycle, min_sizes_for_points
from conic_extrema.minhorocycle import (
    CENTER_RADIUS,
    CONE_TOL,
    GOLDEN,
    PROFILE_BLOCK,
    PRUNE_DIRECTIONS,
    PRUNE_MARGIN,
    UNIQUE_SIZE_MARGIN,
    _at_center,
    _center_outside_hull,
    _golden_minimize,
    _hull_superset,
    _profile_of,
)


def _rotate(pts, phi):
    c, s = np.cos(phi), np.sin(phi)
    return np.asarray(pts, float) @ np.array([[c, s], [-s, c]])


class TestSizeProfile:
    def test_center_forces_critical_size(self, rng):
        for theta in rng.uniform(0, 2 * np.pi, 10):
            assert size_profile([[0.0, 0.0]], theta) == pytest.approx(
                INV_SQRT2, rel=1e-14
            )

    def test_single_point_toward(self):
        assert size_profile([[0.0, 0.5]], np.pi / 2) == pytest.approx(0.5, rel=1e-13)

    def test_single_point_away(self):
        assert size_profile([[0.0, 0.5]], -np.pi / 2) == pytest.approx(
            np.sqrt(0.75), rel=1e-13
        )

    def test_profile_is_max_over_points(self, rng):
        pts = rng.uniform(-0.4, 0.4, (12, 2))
        thetas = rng.uniform(0, 2 * np.pi, 8)
        prof = size_profile(pts, thetas)
        brute = min_sizes_for_points(thetas, pts).max(axis=1)
        assert np.allclose(prof, brute, rtol=0, atol=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, [0.3, np.nan]])
    def test_non_finite_angle_rejected(self, bad):
        with pytest.raises(ValueError, match="theta must be finite"):
            size_profile([[0.2, 0.1]], bad)


class TestSolve:
    def test_single_point(self):
        sol = solve_min_horocycle([[0.0, 0.5]])
        assert sol.horocycle.theta == pytest.approx(np.pi / 2, abs=1e-6)
        assert sol.horocycle.a == pytest.approx(0.5, rel=1e-12)
        assert sol.unique
        assert sol.support == (0,)

    @settings(max_examples=150, deadline=None)
    @given(phi=st.floats(0.0, 2.0 * np.pi), ulps=st.integers(1, 3))
    def test_single_point_ulps_inside_the_absolute(self, phi, ulps):
        # its minimal size is about w / 2, where w^2 = 1 - |p|^2 is a few ulps
        r = 1.0 - ulps * 2.0**-53
        p = [r * np.cos(phi), r * np.sin(phi)]
        if not p[0] ** 2 + p[1] ** 2 < 1.0:
            return
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = solve_min_horocycle([p])
        assert 0.0 < sol.horocycle.a < 1.0
        assert sol.support == (0,)

    def test_center_degenerate(self):
        sol = solve_min_horocycle([[0.0, 0.0]])
        assert sol.horocycle.a == pytest.approx(INV_SQRT2, abs=1e-12)
        assert not sol.unique
        assert np.ptp(sol.profile.values) <= 1e-12

    def test_symmetric_pair(self):
        sol = solve_min_horocycle([[-0.3, 0.2], [0.3, 0.2]])
        assert sol.horocycle.theta == pytest.approx(np.pi / 2, abs=1e-6)
        assert sol.support == (0, 1)
        # grid oracle: the refined minimum cannot exceed the dense scan
        grid = np.linspace(0, 2 * np.pi, 4096, endpoint=False)
        brute = min_sizes_for_points(grid, [[-0.3, 0.2], [0.3, 0.2]]).max(axis=1).min()
        assert sol.horocycle.a <= brute + 1e-12

    def test_enclosure_and_support_random(self, rng):
        for _ in range(25):
            n = rng.integers(1, 30)
            center = rng.uniform(-0.4, 0.4, 2)
            pts = center + rng.uniform(-0.25, 0.25, (n, 2))
            pts = pts[(pts**2).sum(axis=1) < 0.9]
            if len(pts) == 0:
                continue
            sol = solve_min_horocycle(pts)
            needs = min_sizes_for_points([sol.horocycle.theta], pts)[0]
            assert (needs <= sol.horocycle.a + 1e-10).all()
            assert len(sol.support) >= 1
            assert needs.max() >= sol.horocycle.a - 1e-8

    def test_grid_size_agreement(self, rng):
        for _ in range(10):
            pts = rng.uniform(-0.3, 0.3, (8, 2)) + rng.uniform(-0.3, 0.3, 2)
            pts = pts[(pts**2).sum(axis=1) < 0.8]
            if len(pts) < 2:
                continue
            s1 = solve_min_horocycle(pts, grid=720)
            s2 = solve_min_horocycle(pts, grid=1009)
            if not s1.unique:
                continue
            dth = abs(
                (s1.horocycle.theta - s2.horocycle.theta + np.pi) % (2 * np.pi) - np.pi
            )
            assert dth <= 1e-6
            assert s1.horocycle.a == pytest.approx(s2.horocycle.a, rel=1e-12)

    def test_grid_size_agreement_when_the_hull_holds_the_centre(self):
        # only these sets take the grid path, so only here can a coarser
        # grid change a*; a set holding the centre itself has a* = 2^(-1/2)
        rng = np.random.default_rng(20)
        families = ["centre", "on-circle", "random"]
        checked = dict.fromkeys(families, 0)
        while min(checked.values()) < 12:
            family = min(checked, key=checked.get)
            pts = _point_family(family, rng, int(rng.integers(3, 60)))
            if _center_outside_hull(pts):
                continue
            coarse, fine = (solve_min_horocycle(pts, grid=g) for g in (720, 1440))
            assert fine.horocycle.a == pytest.approx(coarse.horocycle.a, rel=1e-12, abs=0.0)
            for sol in (coarse, fine):
                assert sol.unique == (sol.horocycle.a < INV_SQRT2 - UNIQUE_SIZE_MARGIN)
            if family == "centre":
                assert (coarse.horocycle.a, coarse.unique) == (INV_SQRT2, False)
                assert (fine.horocycle.a, fine.unique) == (INV_SQRT2, False)
            checked[family] += 1

    def test_rotation_equivariance(self, rng):
        for _ in range(10):
            pts = rng.uniform(-0.25, 0.25, (10, 2)) + [0.2, 0.1]
            sol = solve_min_horocycle(pts)
            if not sol.unique:
                continue
            phi = float(rng.uniform(0, 2 * np.pi))
            rot = np.array([[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]])
            sol2 = solve_min_horocycle(pts @ rot.T)
            assert sol2.horocycle.a == pytest.approx(sol.horocycle.a, rel=1e-9)
            dth = abs(
                (sol2.horocycle.theta - sol.horocycle.theta - phi + np.pi) % (2 * np.pi)
                - np.pi
            )
            assert dth <= 1e-6

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_point_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            solve_min_horocycle([[bad, 0.1], [0.2, 0.1]])

    @pytest.mark.parametrize("p", [[1e200, 0.0], [0.0, -1e300], [1e155, 1e155]])
    def test_huge_finite_point_rejected_without_warning(self, p):
        # squaring 1e200 overflows, which pytest turns into an error: the
        # point must be rejected before it is squared
        with pytest.raises(ValueError, match="inside the unit disk"):
            solve_min_horocycle([p])
        with pytest.raises(ValueError, match="inside the unit disk"):
            size_profile([[0.2, 0.1], p], 0.5)

    @pytest.mark.parametrize("grid", [0, -3, 2.5, True])
    def test_empty_grid_rejected(self, grid):
        with pytest.raises(ValueError, match="grid"):
            solve_min_horocycle([[0.2, 0.1]], grid=grid)

    @pytest.mark.parametrize("tol", [1e-16, 1e-300])
    def test_refine_tol_below_float_spacing_terminates(self, tol):
        # no bracket can get narrower than the spacing of floats near it
        pts = np.array([[0.3, 0.2], [-0.1, 0.4], [0.2, -0.3]])
        default = solve_min_horocycle(pts)
        lo = np.array([default.horocycle.theta - 2.0 * np.pi / 720])
        (x,), (a,) = _golden_minimize(_profile_of(pts), lo, lo + 4.0 * np.pi / 720, tol)
        assert x == pytest.approx(default.horocycle.theta, abs=1e-12)
        assert a == pytest.approx(default.horocycle.a, rel=1e-13)


def _in_horocycle(rng, n, theta, a, shrink):
    """n points spread over the horocycle (theta, a), shrunk about its centre."""
    u = np.array([np.cos(theta), np.sin(theta)])
    w = np.array([-u[1], u[0]])
    rho = np.sqrt(rng.uniform(0.0, 1.0, n))
    ang = rng.uniform(0.0, 2.0 * np.pi, n)
    along = (1.0 - a * a) + shrink * a * a * rho * np.cos(ang)
    across = shrink * a * rho * np.sin(ang)
    return along[:, None] * u + across[:, None] * w


def _point_family(name, rng, n):
    """Point sets inside the disk whose hulls stress the prune differently."""
    phi = rng.uniform(0.0, 2.0 * np.pi)
    u = np.array([np.cos(phi), np.sin(phi)])
    if name == "random":
        return rng.uniform(-0.6, 0.6, (n, 2))
    if name == "on-circle":
        t = rng.uniform(0.0, 2.0 * np.pi, n)
        return rng.uniform(0.05, 0.99) * np.stack([np.cos(t), np.sin(t)], axis=1)
    if name == "near-collinear":
        t = rng.uniform(-0.5, 0.5, (n, 1))
        return 0.3 * u + t * u + rng.normal(0.0, 1e-7, (n, 1)) * np.array([-u[1], u[0]])
    if name == "duplicate-heavy":
        base = rng.uniform(-0.5, 0.5, (max(n // 20, 3), 2))
        return base[rng.integers(0, len(base), n)]
    if name == "tiny-near-boundary":
        return 0.999 * u + rng.normal(0.0, 1e-9, (n, 2))
    if name == "near-boundary":
        r = rng.uniform(0.85, 0.995)
        pts = r * u + rng.normal(0.0, rng.uniform(0.05, 0.5) * (1.0 - r), (n, 2))
        norms = np.linalg.norm(pts, axis=1, keepdims=True)
        return np.where(norms > 0.999, pts * (0.999 / norms), pts)
    if name == "spread":
        return _in_horocycle(rng, n, phi, rng.uniform(0.6, 0.7), 0.98)
    if name == "centre":
        return np.vstack([np.zeros((1, 2)), _in_horocycle(rng, n - 1, phi, INV_SQRT2, 0.9)])
    if name == "arc-near-absolute":
        t = phi + rng.uniform(0.0, rng.uniform(0.01, 3.0), n)
        return rng.uniform(0.99, 0.999, (n, 1)) * np.stack([np.cos(t), np.sin(t)], axis=1)
    if name == "above-bound":
        # the centre is just outside the hull of an open half-annulus,
        # yet no horocycle below 2^(-1/2) encloses it: a* > 0.75 here
        t = phi + rng.uniform(0.02, np.pi - 0.02, max(n, 2))
        t[:2] = phi + 0.02, phi + np.pi - 0.02
        return rng.uniform(0.5, 0.95, (len(t), 1)) * np.stack([np.cos(t), np.sin(t)], axis=1)
    raise ValueError(name)


FAMILIES = [
    "random",
    "on-circle",
    "near-collinear",
    "duplicate-heavy",
    "tiny-near-boundary",
    "near-boundary",
    "spread",
    "centre",
    "arc-near-absolute",
    "above-bound",
]


def _one_stage_hull_superset(pts):
    """The single-pass filter: the full polygon's depth test on every point.

    Copies of one point are merged by coordinates, as ``_hull_superset``
    merges them, so the result does not depend on which copy wins a
    direction.
    """
    n = len(pts)
    if n <= PRUNE_DIRECTIONS:
        return np.arange(n)
    phi = np.linspace(0.0, 2.0 * np.pi, PRUNE_DIRECTIONS, endpoint=False)
    poly = pts[(np.stack([np.cos(phi), np.sin(phi)], axis=1) @ pts.T).argmax(axis=1)]
    poly = poly[(poly != np.roll(poly, 1, axis=0)).any(axis=1)]
    if len(poly) < 3:
        return np.arange(n)
    edge = np.roll(poly, -1, axis=0) - poly
    normals = np.stack([edge[:, 1], -edge[:, 0]], axis=1)
    normals /= np.linalg.norm(normals, axis=1, keepdims=True).clip(min=np.finfo(float).tiny)
    depth = (poly * normals).sum(axis=1)[:, None] - normals @ pts.T
    margin = PRUNE_MARGIN * float(np.abs(pts).max())
    return np.nonzero(depth.min(axis=0) <= margin)[0]


def _perturbed_angles(theta):
    """The angles ``verify_solution`` checks local optimality at, seed 0."""
    rng = np.random.default_rng(0)
    mags = 10.0 ** rng.uniform(-6.0, -2.0, 64)
    return theta + mags * rng.choice([-1.0, 1.0], 64)


class TestHullPrune:
    @settings(max_examples=60, deadline=None)
    @given(
        family=st.sampled_from(
            ["random", "on-circle", "near-collinear", "duplicate-heavy", "tiny-near-boundary"]
        ),
        n=st.integers(PRUNE_DIRECTIONS + 1, 3000),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_keeps_every_hull_vertex(self, family, n, seed):
        pts = _point_family(family, np.random.default_rng(seed), n)
        kept = {tuple(p) for p in pts[_hull_superset(pts)]}
        assert {tuple(p) for p in pts[ConvexHull(pts).vertices]} <= kept

    @settings(max_examples=120, deadline=None)
    @given(
        family=st.sampled_from(FAMILIES),
        n=st.integers(1, 3000),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_two_stages_match_one_stage(self, family, n, seed):
        pts = _point_family(family, np.random.default_rng(seed), n)
        assert np.array_equal(_hull_superset(pts), _one_stage_hull_superset(pts))

    def test_kept_points_do_not_depend_on_their_order(self, rng):
        # the matrix product rounds the last few columns differently, so
        # which copy of a vertex wins a direction depends on the order;
        # a zero edge between two winning copies once kept every point
        pts = _point_family("duplicate-heavy", rng, 1005)
        kept = {tuple(p) for p in pts[_hull_superset(pts)]}
        assert len(kept) < 50
        for _ in range(20):
            shuffled = pts[rng.permutation(len(pts))]
            idx = _hull_superset(shuffled)
            assert len(idx) < len(pts) // 2
            assert {tuple(p) for p in shuffled[idx]} == kept

    @pytest.mark.parametrize("family", ["near-boundary", "spread", "centre"])
    def test_profile_matches_all_points(self, family):
        pts = _point_family(family, np.random.default_rng(2024), 20_000)
        hull = pts[_hull_superset(pts)]
        assert len(hull) < 500
        sol = solve_min_horocycle(pts)
        # in slices of angles: the profile over all points at once needs
        # several 720 x 20 000 temporaries
        full = np.concatenate([size_profile(pts, t) for t in np.split(sol.profile.thetas, 8)])
        assert np.array_equal(sol.profile.values, full)
        # the perturbation check of verify_solution sees the same values
        near = _perturbed_angles(sol.horocycle.theta)
        assert np.array_equal(_profile_of(hull)(near), _profile_of(pts)(near))
        verify_solution(pts, sol)

    def test_solve_and_verify_allocate_no_angle_by_point_array(self):
        # one 64 x 20 000 float array alone takes 9.8 MiB
        pts = _point_family("spread", np.random.default_rng(2024), 20_000)
        tracemalloc.start()
        try:
            verify_solution(pts, solve_min_horocycle(pts))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2**20

    def test_support_indexes_input_duplicates(self, rng):
        pts = _point_family("spread", rng, 500)
        first = solve_min_horocycle(pts).support[0]
        pts = np.vstack([pts, pts[first]])
        perm = rng.permutation(len(pts))
        copies = np.nonzero((perm == first) | (perm == len(pts) - 1))[0]
        sol = solve_min_horocycle(pts[perm])
        assert set(copies.tolist()) <= set(sol.support)


DENSE = np.linspace(0.0, 2.0 * np.pi, 1 << 16, endpoint=False)


class TestExactPath:
    @settings(max_examples=40, deadline=None)
    @given(
        family=st.sampled_from(["near-boundary", "spread", "arc-near-absolute", "above-bound"]),
        n=st.integers(1, 3000),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_dense_and_grid_oracles(self, family, n, seed):
        pts = _point_family(family, np.random.default_rng(seed), n)
        hull = pts[_hull_superset(pts)]
        assert _center_outside_hull(hull)
        sol = solve_min_horocycle(pts)
        a = sol.horocycle.a
        # the profile over the hull superset is the profile over all points
        assert a <= (1.0 + 1e-12) * _profile_of(hull)(DENSE).min()
        needs = min_sizes_for_points([sol.horocycle.theta], pts)[0]
        assert needs.max() <= a + 1e-10
        verify_solution(pts, sol)
        with mock.patch.object(minhorocycle_module, "EXACT_PASSES", 0):
            grid = solve_min_horocycle(pts)
        assert a <= (1.0 + 1e-13) * grid.horocycle.a
        assert sol.profile.tied_minimizers.tolist() == [sol.horocycle.theta]
        assert sol.unique == (a < INV_SQRT2 - UNIQUE_SIZE_MARGIN)
        if family == "above-bound":
            assert a > 0.75 and not sol.unique


# the centre in the hull, a* > 2^(-1/2): the centre and points whose arcs
# do not meet, and the centre strictly inside the hull but not a point
FALLBACK_SETS = [
    [[0.0, 0.0], [0.5, 0.0], [-0.5, 0.0]],
    [[0.0, 0.0], [0.3, 0.1], [-0.1, 0.4], [-0.2, -0.3]],
    [[0.1, 0.1], [-0.2, 0.1], [0.0, -0.3]],
]

PLATEAU_GRID = np.linspace(0.0, 2.0 * np.pi, 1 << 14, endpoint=False)


def _from(theta, angles):
    """Signed angle from ``theta`` to each of ``angles``, in [-pi, pi)."""
    return (np.asarray(angles) - theta + np.pi) % (2.0 * np.pi) - np.pi


class TestPlateau:
    @pytest.mark.parametrize("n", [2, 10, 1000, 20_000])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_the_dense_profile(self, n, seed):
        pts = _point_family("centre", np.random.default_rng(seed), n)
        sol = solve_min_horocycle(pts)
        assert (sol.horocycle.a, sol.unique) == (INV_SQRT2, False)
        lo, hi = sol.profile.tied_minimizers.tolist()
        half = 0.5 * ((hi - lo) % (2.0 * np.pi))
        # theta* is the arc's midpoint, and the centre (index 0) is on the boundary
        assert abs(_from(sol.horocycle.theta, [lo, hi]) + [half, -half]).max() <= 1e-12
        assert 0 in sol.support
        # the oracle: the profile over all points, or over the centre and
        # the vertices of scipy's hull, which encloses them all
        sub = pts if n <= 1000 else pts[np.union1d([0], ConvexHull(pts).vertices)]
        vals = size_profile(sub, PLATEAU_GRID)
        off = np.abs(_from(sol.horocycle.theta, PLATEAU_GRID))
        inside, outside = off <= half - 1e-9, off >= half + 1e-9
        assert inside.any() and outside.any()
        assert np.all(vals[inside] == INV_SQRT2)
        assert np.all(vals[outside] > INV_SQRT2)
        verify_solution(pts, sol)

    def test_centre_alone_fits_at_every_angle(self):
        sol = solve_min_horocycle([[0.0, 0.0], [-0.0, 0.0]])
        assert (sol.horocycle.theta, sol.horocycle.a) == (0.0, INV_SQRT2)
        assert sol.profile.tied_minimizers.tolist() == [0.0]
        assert sol.support == (0, 1)

    @settings(max_examples=200, deadline=None)
    @given(
        x=st.floats(-CENTER_RADIUS, CENTER_RADIUS),
        share=st.floats(0.0, 1.0),
        sign=st.sampled_from([-1.0, 1.0]),
    )
    def test_points_at_the_centre_have_its_profile_term(self, x, share, sign):
        # |x| + |y| <= 2^-54: s = 1 - p.u rounds to 1 at every angle
        p = [x, sign * share * (CENTER_RADIUS - abs(x))]
        if not _at_center(np.array([p]))[0]:
            return
        assert np.all(size_profile([p], PLATEAU_GRID) == INV_SQRT2)

    def test_centre_radius_is_where_the_profile_term_changes(self):
        edge = np.array([[CENTER_RADIUS, 0.0], [0.5 * CENTER_RADIUS, -0.5 * CENTER_RADIUS]])
        assert _at_center(edge).all()
        assert np.all(size_profile(edge, PLATEAU_GRID) == INV_SQRT2)
        beyond = np.array([[2.0 * CENTER_RADIUS, 0.0]])
        assert not _at_center(beyond).any()
        assert size_profile(beyond, 0.0) < INV_SQRT2

    def test_points_within_rounding_of_the_centre_take_the_plateau(self, monkeypatch):
        calls = _count_golden_calls(monkeypatch)
        four = [[1e-17, 0.0], [0.0, 1e-17], [-1e-17, 0.0], [0.0, -1e-17]]
        for pts in (four, four[:1]):
            for grid in (720, 20_000):
                sol = solve_min_horocycle(pts, grid=grid)
                assert (sol.horocycle.theta, sol.horocycle.a, sol.unique) == (0.0, INV_SQRT2, False)
                assert sol.profile.tied_minimizers.tolist() == [0.0]
                assert sol.support == tuple(range(len(pts)))
                assert verify_solution(pts, sol)["certificate"] == "cone"
        # a centre set solves the same with its centre moved by rounding
        pts = _point_family("centre", np.random.default_rng(6), 200)
        exact = solve_min_horocycle(pts)
        pts[0] = [3e-17, -2e-17]
        near = solve_min_horocycle(pts)
        assert near.horocycle == exact.horocycle
        assert near.profile.tied_minimizers.tolist() == exact.profile.tied_minimizers.tolist()
        assert near.support == exact.support
        assert calls == []

    @pytest.mark.parametrize("pts", FALLBACK_SETS[:2])
    def test_arcs_that_do_not_meet_take_the_grid(self, pts):
        sol = solve_min_horocycle(pts)
        assert sol.horocycle.a > INV_SQRT2 and not sol.unique
        dense = size_profile(pts, PLATEAU_GRID).min()
        assert sol.horocycle.a <= dense * (1.0 + 1e-12)
        verify_solution(pts, sol)

    def test_plateau_off_the_exact_size_takes_the_grid(self, monkeypatch):
        # a midpoint where the profile is not exactly 2^(-1/2) is not used
        pts = _point_family("centre", np.random.default_rng(4), 100)
        lo, hi = solve_min_horocycle(pts).profile.tied_minimizers.tolist()
        monkeypatch.setattr(minhorocycle_module, "_plateau", lambda hull: (hi + 0.1, [lo, hi]))
        calls = _count_golden_calls(monkeypatch)
        sol = solve_min_horocycle(pts)
        assert calls and sol.horocycle.a == pytest.approx(INV_SQRT2, abs=1e-15)
        assert len(sol.profile.tied_minimizers) > 2


def _count_golden_calls(monkeypatch) -> list:
    calls = []

    def counted(*args):
        calls.append(len(args[1]))
        return _golden_minimize(*args)

    monkeypatch.setattr(minhorocycle_module, "_golden_minimize", counted)
    return calls


class TestPathSelection:
    @pytest.mark.parametrize(
        "pts, outside",
        [
            ([[0.1, 0.1], [-0.2, 0.1], [0.0, -0.3]], False),  # centre strictly inside
            ([[-0.3, 0.0], [0.3, 0.0], [0.0, 0.3]], False),  # on a hull edge
            ([[0.0, 0.0], [0.3, 0.1], [0.1, 0.3]], False),  # at a vertex
            ([[0.1, 0.1], [0.3, 0.0], [0.2, 0.4]], True),  # strictly outside
            ([[0.0, 0.0]], False),
            ([[0.0, 0.4]], True),
            ([[0.2, 0.0], [-0.2, 0.0]], False),  # a segment through the centre
        ],
    )
    def test_gate_cases(self, pts, outside):
        pts = np.array(pts)
        assert _center_outside_hull(pts) == outside
        if len(pts) >= 3:
            assert (Delaunay(pts).find_simplex([0.0, 0.0]) < 0) == outside

    def test_gate_matches_convex_hull(self, rng):
        outcomes = []
        while len(outcomes) < 300:
            n = int(rng.integers(3, 200))
            pts = rng.uniform(-0.4, 0.4, 2) + rng.uniform(-0.3, 0.3, (n, 2))
            # the largest signed distance of the centre to a hull edge line
            depth = ConvexHull(pts).equations[:, 2].max()
            if abs(depth) < 1e-6:
                continue
            outcomes.append(_center_outside_hull(pts[_hull_superset(pts)]))
            assert outcomes[-1] == (depth > 0.0)
        assert 50 < sum(outcomes) < 250

    def test_golden_refine_runs_only_without_a_plateau(self, monkeypatch):
        calls = _count_golden_calls(monkeypatch)
        rng = np.random.default_rng(8)
        for family in ("near-boundary", "spread", "centre"):
            for n in (1, 10, 1000, 20_000):
                solve_min_horocycle(_point_family(family, rng, n))
        solve_min_horocycle([[0.0, 0.0]])
        assert calls == []
        # the centre in the hull: a point at the centre whose arcs do not
        # meet, or no point at the centre at all
        for pts in FALLBACK_SETS:
            sol = solve_min_horocycle(pts)
            assert sol.horocycle.a > INV_SQRT2 and not sol.unique
        assert len(calls) == len(FALLBACK_SETS)

    def test_grid_path_runs_when_the_basis_solve_is_capped(self, monkeypatch):
        pts = _point_family("spread", np.random.default_rng(9), 300)
        exact = solve_min_horocycle(pts)
        calls = _count_golden_calls(monkeypatch)
        monkeypatch.setattr(minhorocycle_module, "EXACT_PASSES", 0)
        capped = solve_min_horocycle(pts)
        assert len(calls) == 1
        assert capped.horocycle.a == pytest.approx(exact.horocycle.a, rel=1e-13)
        dth = (capped.horocycle.theta - exact.horocycle.theta + np.pi) % (2.0 * np.pi) - np.pi
        assert abs(dth) <= 1e-6
        assert capped.unique and exact.unique
        assert capped.unique == (capped.horocycle.a < INV_SQRT2 - UNIQUE_SIZE_MARGIN)
        assert capped.support == exact.support


class TestProfileKernel:
    @pytest.mark.parametrize(
        "n, m",
        [
            (10, 720),
            (5000, 720),  # blocks of ceil(PROFILE_BLOCK / n) rows; the last is partial
            (PROFILE_BLOCK + 7, 5),  # one row per block
        ],
    )
    def test_matches_min_sizes_bitwise(self, rng, n, m):
        phi = rng.uniform(0.0, 2.0 * np.pi)
        near = 0.999 * np.array([np.cos(phi), np.sin(phi)]) + rng.normal(0.0, 1e-4, (n // 2, 2))
        pts = np.vstack([rng.uniform(-0.6, 0.6, (n - n // 2, 2)), near])
        pts = pts[(pts**2).sum(axis=1) < 1.0]
        thetas = np.concatenate([rng.uniform(-1.0, 7.0, m - 3), phi + np.array([-1e-7, 0.0, 1e-7])])
        if n == 5000:
            assert len(thetas) % -(-PROFILE_BLOCK // len(pts)) != 0
        expect = min_sizes_for_points(thetas, pts).max(axis=1)
        assert np.array_equal(_profile_of(pts)(thetas), expect)


def _scalar_golden(fun, lo, hi, tol):
    """One bracket's golden-section search, as the solver ran it before lockstep."""
    x1 = hi - GOLDEN * (hi - lo)
    x2 = lo + GOLDEN * (hi - lo)
    f1, f2 = fun(x1), fun(x2)
    while hi - lo > tol:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - GOLDEN * (hi - lo)
            f1 = fun(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + GOLDEN * (hi - lo)
            f2 = fun(x2)
    xm = 0.5 * (lo + hi)
    return xm, fun(xm)


class TestLockstepRefine:
    @pytest.mark.parametrize("family, n", [("centre", 10), ("near-boundary", 60)])
    def test_matches_scalar_search_per_bracket(self, family, n):
        pts = _point_family(family, np.random.default_rng(3), n)
        thetas = np.linspace(0.0, 2.0 * np.pi, 720, endpoint=False)
        values = _profile_of(pts)(thetas)
        idx = np.nonzero((values <= np.roll(values, 1)) & (values <= np.roll(values, -1)))[0]
        if family == "centre":
            assert len(idx) >= 50  # the plateau at 2^(-1/2)
        lo = np.where(idx > 0, thetas[idx - 1], thetas[-1] - 2.0 * np.pi)
        hi = np.where(idx < 719, thetas[(idx + 1) % 720], thetas[0] + 2.0 * np.pi)

        scalar_calls = []

        def scalar(th):
            scalar_calls[-1] += 1
            return float(min_sizes_for_points([th], pts).max())

        expect = []
        for l, h in zip(lo, hi):
            scalar_calls.append(0)
            expect.append(_scalar_golden(scalar, l, h, 1e-12))

        calls = []

        def lockstep(th):
            calls.append(len(th))
            return _profile_of(pts)(th)

        xs, vals = _golden_minimize(lockstep, lo, hi, 1e-12)
        assert xs == [x for x, _ in expect]
        assert vals == [v for _, v in expect]
        # one call for the first two probes, one per step, one for the midpoints
        steps = max(scalar_calls) - 3
        assert len(calls) == steps + 2
        assert sum(calls) == sum(scalar_calls)


class TestVerifySolution:
    def test_valid_solution_passes(self):
        pts = [[-0.3, 0.2], [0.3, 0.2], [0.0, -0.1]]
        sol = solve_min_horocycle(pts)
        report = verify_solution(pts, sol)
        assert report["enclosure_margin"] >= -1e-10

    def test_corrupted_size_fails_enclosure(self):
        pts = [[-0.3, 0.2], [0.3, 0.2]]
        sol = solve_min_horocycle(pts)
        bad = MinHorocycleSolution(
            horocycle=Horocycle(theta=sol.horocycle.theta, a=sol.horocycle.a - 1e-3),
            support=sol.support,
            hull=sol.hull,
            unique=sol.unique,
            profile=sol.profile,
        )
        with pytest.raises(VerificationFailure, match="enclosure"):
            verify_solution(pts, bad)

    def test_off_minimum_angle_fails_local_optimality_on_pruned_set(self):
        pts = _point_family("spread", np.random.default_rng(5), 5000)
        assert len(_hull_superset(pts)) < len(pts)
        sol = solve_min_horocycle(pts)
        theta = sol.horocycle.theta + 1e-3
        # the size every point needs there, so the enclosure check passes
        off = MinHorocycleSolution(
            horocycle=Horocycle(theta=theta, a=size_profile(pts, theta)),
            support=sol.support,
            hull=sol.hull,
            unique=sol.unique,
            profile=sol.profile,
        )
        with pytest.raises(VerificationFailure, match="local optimality"):
            verify_solution(pts, off)

    def test_center_flagged_unique_fails(self):
        pts = [[0.0, 0.0]]
        sol = solve_min_horocycle(pts)
        assert not sol.unique
        lying = MinHorocycleSolution(
            horocycle=sol.horocycle,
            support=sol.support,
            hull=sol.hull,
            unique=True,
            profile=sol.profile,
        )
        with pytest.raises(VerificationFailure, match="uniqueness"):
            verify_solution(pts, lying)

    def test_hull_is_the_solved_superset_read_only(self):
        pts = _point_family("spread", np.random.default_rng(5), 5000)
        sol = solve_min_horocycle(pts)
        assert np.array_equal(sol.hull, _hull_superset(pts))
        assert not sol.hull.flags.writeable

    def test_no_second_hull_pass(self, monkeypatch):
        pts = _point_family("spread", np.random.default_rng(5), 5000)
        sol = solve_min_horocycle(pts)

        def refilter(pts):
            raise AssertionError("verify_solution filtered the points again")

        monkeypatch.setattr(minhorocycle_module, "_hull_superset", refilter)
        report = verify_solution(pts, sol)
        assert report["enclosure_margin"] >= -1e-10

    @pytest.mark.parametrize(
        "hull",
        [np.array([], dtype=int), np.array([0, 3]), np.array([-1]), np.array([0.0, 1.0])],
        ids=["empty", "out-of-range", "negative", "float"],
    )
    def test_invalid_hull_fails(self, hull):
        pts = [[-0.3, 0.2], [0.3, 0.2], [0.0, -0.1]]
        sol = solve_min_horocycle(pts)
        with pytest.raises(VerificationFailure, match="hull"):
            verify_solution(pts, dataclasses.replace(sol, hull=hull))

    def test_hull_without_the_binding_points_fails(self):
        pts = np.array([[-0.3, 0.2], [0.3, 0.2], [0.0, -0.1], [0.0, 0.1]])
        sol = solve_min_horocycle(pts)
        rest = np.setdiff1d(sol.hull, sol.support)
        assert len(rest)
        with pytest.raises(VerificationFailure, match="local optimality"):
            verify_solution(pts, dataclasses.replace(sol, hull=rest))


class TestCertificate:
    @settings(max_examples=80, deadline=None)
    @given(
        family=st.sampled_from(FAMILIES),
        n=st.integers(1, 20_000),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_accepts_every_closed_form_solution(self, family, n, seed):
        pts = _point_family(family, np.random.default_rng(seed), n)
        calls = []

        def counted(*args):
            calls.append(len(args[1]))
            return _golden_minimize(*args)

        with mock.patch.object(minhorocycle_module, "_golden_minimize", counted):
            sol = solve_min_horocycle(pts)
        report = verify_solution(pts, sol)
        if not calls or sol.unique:  # the exact solve or the plateau
            assert report["certificate"] == "cone"
            assert report["certificate_margin"] >= -CONE_TOL

    @pytest.mark.parametrize(
        "family",
        ["random", "near-boundary", "spread", "tiny-near-boundary", "arc-near-absolute",
         "duplicate-heavy", "on-circle", "near-collinear", "above-bound"],
    )
    def test_angle_moved_by_1e_9_fails(self, family):
        # the sampled checks pass all of these: none of their perturbations
        # comes within 1e-6 rad of theta*, and the grid no nearer than 1e-2.
        # The centre outside the kept points' hull decides, not the unique
        # flag: above-bound sets and part of arc-near-absolute are not
        # flagged (a* >= 2^(-1/2) - 1e-9), yet their minimizer is unique.
        rng = np.random.default_rng(12)
        checked = 0
        while checked < 8:
            pts = _point_family(family, rng, int(rng.choice([1, 3, 30, 1000])))
            sol = solve_min_horocycle(pts)
            if not _center_outside_hull(pts[sol.hull]):
                continue
            for theta in sol.horocycle.theta + np.array([1e-9, -1e-9]):
                # a* the profile at the moved angle: the enclosure check passes
                moved = Horocycle(theta=theta, a=size_profile(pts, theta))
                with pytest.raises(VerificationFailure, match="local optimality"):
                    verify_solution(pts, dataclasses.replace(sol, horocycle=moved))
            checked += 1

    @pytest.mark.parametrize(
        "pts, certificate",
        [
            ([[0.3, 0.2], [-0.1, 0.4], [0.2, 0.3]], "cone"),  # exact
            ([[0.0, 0.0], [0.3, 0.1], [0.1, 0.3]], "cone"),  # plateau
            (FALLBACK_SETS[0], "cone"),  # grid, a point at the centre
            (FALLBACK_SETS[2], "perturbations"),  # grid, the centre inside the hull
        ],
    )
    def test_report_names_the_deciding_check(self, pts, certificate):
        report = verify_solution(pts, solve_min_horocycle(pts))
        assert set(report) == {
            "enclosure_margin", "certificate", "certificate_margin", "support", "unique"
        }
        assert report["certificate"] == certificate
        floor = -CONE_TOL if certificate == "cone" else -1e-12
        assert report["certificate_margin"] >= floor
        if pts[0] == [0.0, 0.0]:
            # an active point at the centre: every direction is certified
            assert report["certificate_margin"] == np.pi


def _count_profile_angles(monkeypatch) -> list:
    """Lengths of the angle arrays every ``_profile_of`` closure is called on."""
    lengths = []

    def counted(pts):
        profile = _profile_of(pts)

        def recorded(thetas):
            lengths.append(len(thetas))
            return profile(thetas)

        return recorded

    monkeypatch.setattr(minhorocycle_module, "_profile_of", counted)
    return lengths


class TestLazyProfile:
    @pytest.mark.parametrize(
        "pts, grid_path",
        [
            (_point_family("spread", np.random.default_rng(1), 500), False),
            (_point_family("centre", np.random.default_rng(1), 500), False),
            (np.array(FALLBACK_SETS[2]), True),
        ],
        ids=["exact", "plateau", "grid"],
    )
    def test_grid_is_evaluated_once_and_only_when_needed(self, monkeypatch, pts, grid_path):
        lengths = _count_profile_angles(monkeypatch)
        sol = solve_min_horocycle(pts)
        verify_solution(pts, sol)
        assert lengths.count(720) == int(grid_path)
        values = sol.profile.values
        assert sol.profile.values is values
        assert lengths.count(720) == 1
        assert np.array_equal(values, size_profile(pts, sol.profile.thetas))
