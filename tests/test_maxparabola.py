"""Containment tests and the pinned maximal-parabola solver."""

import itertools
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conic_extrema
import conic_extrema.maxparabola as maxparabola_module
from conic_extrema import (
    ConvexRegion,
    HalfPlane,
    NoInscribedParabola,
    NotAParabola,
    NumericalRootFailure,
    Parabola,
    Triangle,
    UnboundedParameter,
    exparabolas,
    halfplane_violation,
    solve_max_parabola,
    triangle_region,
)
from conic_extrema.exparabola import solve_cubic, tangency_cubic
from conic_extrema.maxparabola import (
    _chebyshev_point,
    _corners,
    _feasible_direction_arc,
    _pencil_world,
    _polish_triple,
    _unit_scale,
)
from conftest import random_pinned_region, random_triangle

UP_PARABOLA = Parabola([0.0, 0.0], np.pi / 2.0, 2.0)  # x^2 = 4y


def contained(para, h, tol=1e-9):
    """The parabola lies in the half-plane h, tangency included."""
    axis = (np.cos(para.axis_angle), np.sin(para.axis_angle))
    return halfplane_violation(para.apex, axis, para.parameter, h.normal, h.offset) <= tol


def region_contains(region, x, tol=0.0):
    return bool(np.all(region.normals @ np.asarray(x, float) <= region.offsets + tol))


def literal_region(normals, offsets):
    return ConvexRegion([HalfPlane(n, d) for n, d in zip(normals, offsets)])


def clipped_edge_lines(region):
    """Oracle: the lines left longer than rounding after clipping by the
    other half-planes, and the clipped (lo, hi) of every line along
    x = d n + s (-n_y, n_x)."""
    ns, ds = region.normals, region.offsets
    scale = max(1.0, float(np.abs(ds).max()))
    edges, spans = [], []
    for i, (n, d) in enumerate(zip(ns, ds)):
        along = ns @ np.array([-n[1], n[0]])
        room = ds - d * (ns @ n)  # s * along <= room on every line
        lo, hi = -np.inf, np.inf
        for j in range(len(ds)):
            if j == i:
                continue
            if abs(along[j]) <= 1e-12:
                hi = -np.inf if room[j] < -1e-12 * scale else hi
            elif along[j] > 0.0:
                hi = min(hi, room[j] / along[j])
            else:
                lo = max(lo, room[j] / along[j])
        spans.append((lo, hi))
        if hi - lo > 1e-9 * scale:
            edges.append(i)
    return edges, spans


def with_vertex_lines(region, spans):
    """The region with a line through exactly one region vertex added, and
    with a half-plane whose line misses the region added."""
    ns, ds = region.normals, region.offsets
    i = next(i for i, (lo, hi) in enumerate(spans) if lo < hi < np.inf)
    v = ds[i] * ns[i] + spans[i][1] * np.array([-ns[i][1], ns[i][0]])
    on = np.abs(ns @ v - ds) <= 1e-9 * max(1.0, float(np.abs(ds).max()))
    w = ns[on].sum(axis=0)
    w /= np.linalg.norm(w)  # supports the region at v only
    hps = list(region.halfplanes)
    return [ConvexRegion(hps + [HalfPlane(w, w @ v + shift)]) for shift in (0.0, 0.25)]


# Pinned regions with many half-planes whose optimal triple is not among
# the five most binding half-planes of any converged start.  m = 17: the
# triples of those half-planes pin nothing; the optimum is p = 0.93079...
REGION_M17 = literal_region(
    [
        [-0.9180814598880412, 0.396391767081309],
        [0.028096055332355464, 0.999605227914881],
        [-0.9563634021381635, -0.2921798128733698],
        [0.1465229331314336, 0.9892072735612903],
        [-0.9998532405102775, -0.01713176701620015],
        [0.6889877584393609, 0.7247729773665026],
        [-0.6977443368524667, 0.7163468715575656],
        [-0.49265906045202307, 0.8702224141876201],
        [-0.9304458327501361, 0.3664294643146287],
        [-0.9986177964709441, 0.05255945748879182],
        [-0.7163313091548108, 0.6977603138073667],
        [-0.9822888751702167, 0.18737279876446983],
        [-0.9906625953336512, -0.13633643022609312],
        [0.6455961198503302, 0.7636790229109335],
        [-0.987533702405908, -0.15740770823717457],
        [0.6219979727551508, 0.7830188515537048],
        [0.6673428549414767, 0.7447506387768722],
    ],
    [
        1.204246207958275, -2.0045636264065934, 4.213906216074583,
        -1.6073078102933485, 2.6345854162097657, -1.6908399125687514,
        -0.11271327070374873, -0.9121052238561536, 1.0943357617943472,
        2.149424092487064, 0.26317099491125334, 1.6895388863751315,
        3.5807272619710955, -1.1960880959087137, 3.518712703936598,
        -1.6831325267545427, -1.2109187324638713,
    ],
)
# m = 13: the triples of those half-planes pin at most p = 4.0199...,
# below the optimum p = 5.6198...
REGION_M13 = literal_region(
    [
        [-0.9707748210722471, 0.23999218064792557],
        [-0.7426636556746189, 0.6696646134745445],
        [-0.6423477033051197, 0.7664133532622184],
        [-0.6513889731969117, 0.7587439657733517],
        [-0.60204446879294, -0.7984625586687373],
        [-0.48405550727345215, -0.8750372939927994],
        [-0.7774390717505579, -0.6289582575303633],
        [-0.7128351647315003, 0.7013316105254452],
        [-0.4209266062122927, 0.9070946985748519],
        [-0.7301343763586691, -0.6833035873309442],
        [-0.6456900235289462, 0.7635996290695727],
        [-0.48305125867747456, 0.8755920748214362],
        [-0.9652796832924796, 0.2612185541319189],
    ],
    [
        2.710824318368348, 2.526214414444272, 3.6406422229345496,
        3.4684426790871616, 2.361970777488254, 2.1373832118267875,
        0.8538085633554795, 7.277789072750774, 6.588845716293666,
        3.249035546075584, 4.199194225480776, 7.014061291916644,
        5.030353376740344,
    ],
)


class TestHalfplaneContainment:
    def test_open_halfplane_below(self):
        # y >= -1, normal (0, -1), offset 1: parabola opens away, fits
        assert contained(UP_PARABOLA, HalfPlane([0.0, -1.0], 1.0))

    def test_recession_violated(self):
        # y <= 10 caps the opening direction
        assert not contained(UP_PARABOLA, HalfPlane([0.0, 1.0], 10.0))

    def test_axis_parallel_boundary(self):
        # x >= 0: the boundary x = 0 runs along the axis and cuts the
        # interior, so containment fails
        assert not contained(UP_PARABOLA, HalfPlane([-1.0, 0.0], 0.0))

    def test_tangency_counts_as_contained(self):
        # y >= 0 touches at the apex only
        assert contained(UP_PARABOLA, HalfPlane([0.0, -1.0], 0.0))

    @pytest.mark.parametrize(
        "normal,offset", [([np.nan, 0.0], 1.0), ([1.0, 0.0], np.inf)]
    )
    def test_non_finite_rejected(self, normal, offset):
        with pytest.raises(ValueError):
            HalfPlane(normal, offset)

    def test_violation_units(self):
        axis = np.array([0.0, 1.0])
        # shifted boundary y >= 0.5 penetrates by exactly 0.5
        v = halfplane_violation([0.0, 0.0], axis, 2.0, np.array([0.0, -1.0]), -0.5)
        assert v == pytest.approx(0.5, abs=1e-12)
        # slanted tangent line of x^2 = 4y: y = x - 1 touches at (2, 1)
        n = np.array([1.0, -1.0]) / np.sqrt(2.0)
        v2 = halfplane_violation([0.0, 0.0], axis, 2.0, n, 1.0 / np.sqrt(2.0))
        assert v2 == pytest.approx(0.0, abs=1e-12)


class TestTriangleRegion:
    def test_worked_region(self):
        t = Triangle([-1.0, 0.0], [1.0, 0.0], [0.0, 1.0])
        region = triangle_region(t, "C")
        assert region_contains(region, [0.0, -0.5])
        assert not region_contains(region, [0.0, 0.5])  # C side is excluded
        assert region_contains(region, [0.0, 0.0], tol=1e-12)  # on side AB

    def test_exparabola_fits_its_region(self, rng):
        for _ in range(20):
            t = random_triangle(rng)
            for r in exparabolas(t):
                region = triangle_region(t, r.opposite_vertex)
                for h in region.halfplanes:
                    assert contained(r.parabola, h, tol=1e-8 * t.diameter)


class TestSolver:
    def test_worked_triangle(self):
        t = Triangle([-1.0, 0.0], [1.0, 0.0], [0.0, 1.0])
        sol = solve_max_parabola(triangle_region(t, "C"), starts=64, seed=0)
        assert sol.parabola.parameter == pytest.approx(2.0, rel=1e-10)
        assert abs(sol.apex[0]) <= 1e-9
        assert sol.apex[1] <= 1e-9  # apex on the y-axis, at or below the origin
        assert sol.axis_angle == pytest.approx(1.5 * np.pi, abs=1e-9)
        assert set(sol.active_constraints) == {0, 1, 2}
        assert sol.convergence.agreeing_starts >= 1
        assert sol.convergence.spread <= 1e-5 * 1e3

    def test_strip_has_no_parabola(self):
        region = ConvexRegion([HalfPlane([0.0, 1.0], 1.0), HalfPlane([0.0, -1.0], 1.0)])
        with pytest.raises(NoInscribedParabola):
            solve_max_parabola(region, seed=0)

    def test_wedge_is_unbounded(self):
        region = ConvexRegion([HalfPlane([0.0, 1.0], 1.0), HalfPlane([1.0, 0.0], 1.0)])
        with pytest.raises(UnboundedParameter):
            solve_max_parabola(region, seed=0)

    def test_root_failure_is_not_unboundedness(self, monkeypatch):
        # no triple pins because none could be solved: report that, not
        # an unbounded parameter
        def failing_root(frame):
            raise NumericalRootFailure("cubic could not be solved")

        monkeypatch.setattr(maxparabola_module, "tangency_root", failing_root)
        t = Triangle([-1.0, 0.0], [1.0, 0.0], [0.0, 1.0])
        with pytest.raises(NumericalRootFailure):
            solve_max_parabola(triangle_region(t, "C"), starts=4)

    def test_oracle_agreement_small_batch(self, rng):
        for _ in range(10):
            t = random_triangle(rng, min_ratio=0.06)
            opp = rng.choice(["A", "B", "C"])
            expected = next(
                r.parabola.parameter for r in exparabolas(t) if r.opposite_vertex == opp
            )
            sol = solve_max_parabola(triangle_region(t, opp), starts=16, seed=3)
            assert sol.parabola.parameter == pytest.approx(expected, rel=1e-6)

    def test_solution_feasible(self, rng):
        for trial in range(8):
            region, _ = random_pinned_region(rng)
            sol = solve_max_parabola(region, starts=24, seed=trial)
            axis = np.array([np.cos(sol.axis_angle), np.sin(sol.axis_angle)])
            for h in region.halfplanes:
                v = halfplane_violation(
                    sol.apex, axis, sol.parabola.parameter, h.normal, h.offset
                )
                assert v <= 1e-7 * 1e3
            assert len(sol.active_constraints) >= 3

    def test_multistart_agreement(self, rng):
        for trial in range(6):
            region, _ = random_pinned_region(rng)
            sol = solve_max_parabola(region, starts=32, seed=trial + 50)
            assert sol.convergence.agreeing_starts >= 1
            assert sol.convergence.spread <= 1e-4 * 1e3

    def test_matches_triple_enumeration(self, rng):
        regions = [random_pinned_region(rng)[0] for _ in range(6)]
        regions += [
            random_pinned_region(rng, extra_max=14, extra_min=10)[0] for _ in range(2)
        ]
        regions.append(REGION_M13)
        for trial, region in enumerate(regions):
            sol = solve_max_parabola(region, starts=24, seed=trial + 99)
            best = None
            for triple in itertools.combinations(range(len(region.halfplanes)), 3):
                res = _polish_triple(region, triple)
                if res is not None and (best is None or res[0] > best):
                    best = res[0]
            assert sol.parabola.parameter == pytest.approx(best, rel=1e-12)
        assert min(len(r.halfplanes) for r in regions[6:]) >= 13
        # the enumeration above covers triples the solver skips
        assert any(len(clipped_edge_lines(r)[0]) < len(r.halfplanes) for r in regions)

    def test_edge_lines_match_clip_oracle(self, rng):
        # the solver's edge lines (lines through a region vertex) are the
        # oracle's on pinned regions; an added line through one vertex
        # may be kept, but no edge line may be dropped
        for _ in range(30):
            region, _ = random_pinned_region(rng, extra_max=12)
            edges = _unit_scale(region.normals, region.offsets)[3]
            expected, spans = clipped_edge_lines(region)
            assert edges == expected
            for extended in with_vertex_lines(region, spans):
                assert clipped_edge_lines(extended)[0] == expected
                assert set(expected) <= set(_unit_scale(extended.normals, extended.offsets)[3])

    def test_non_edge_triples_pin_nothing(self, rng):
        # a contained parabola cannot touch a line that meets the region
        # in a point or not at all; through a vertex, only a member of
        # rounding size (seen up to 2e-11 of the base p) passes the clip
        pruned = 0
        for _ in range(6):
            region, p_base = random_pinned_region(rng, extra_max=10, extra_min=4)
            edges, spans = clipped_edge_lines(region)
            through, missing = with_vertex_lines(region, spans)
            for r in (region, missing, through):
                for triple in itertools.combinations(range(len(r.halfplanes)), 3):
                    if not set(triple) <= set(edges):
                        pruned += 1
                        res = _polish_triple(r, triple)
                        assert res is None or (r is through and res[0] <= 1e-9 * p_base)
        assert pruned >= 100

    def test_concurrent_triples_pin_nothing(self):
        # the added line through a region vertex meets the two edge lines
        # there, and the corners of that triple differ by rounding only;
        # a frame built from them once divided 0 by 0
        rng = np.random.default_rng(29)
        concurrent = 0
        for _ in range(60):
            region, _ = random_pinned_region(rng, extra_max=10, extra_min=4)
            through = with_vertex_lines(region, clipped_edge_lines(region)[1])[0]
            ns, ds = through.normals, through.offsets
            for triple in itertools.combinations(_unit_scale(ns, ds)[3], 3):
                i, j, k = triple
                corners, ok = _corners(ns, ds, [j, i, i], [k, k, j])
                res = _polish_triple(through, triple)
                if ok.all() and np.ptp(corners, axis=0).max() <= 1e-13:
                    concurrent += 1
                    assert res is None
        assert concurrent >= 4

    def test_pencil_beyond_halfplane_rejected(self):
        # x - 0.1 y <= -10 keeps part of the worked region, and its line
        # misses the worked pencil's members, which lie wholly on the far
        # side: they open out of the half-plane
        t = Triangle([-1.0, 0.0], [1.0, 0.0], [0.0, 1.0])
        region = triangle_region(t, "C")
        far = HalfPlane.from_direction([1.0, -0.1], -10.0 / np.hypot(1.0, 0.1))
        cut = ConvexRegion(list(region.halfplanes) + [far])
        assert region_contains(cut, [-15.0, -20.0])
        assert _polish_triple(region, (0, 1, 2)) is not None
        assert _polish_triple(cut, (0, 1, 2)) is None

    def test_repeated_halfplane(self, rng):
        # a copy of one of a triple's own lines is tangent to every member
        # of its pencil, so it must not clip the pencil
        for k in range(6):
            t = random_triangle(rng, min_ratio=0.06)
            hps = list(triangle_region(t, "C").halfplanes)
            expected = next(
                r.parabola.parameter for r in exparabolas(t) if r.opposite_vertex == "C"
            )
            sol = solve_max_parabola(ConvexRegion(hps + [hps[k % 3]]), starts=8, seed=0)
            assert sol.parabola.parameter == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("shift", [(0.0, -600.0), (3000.0, -3000.0), (-1e4, 2e4)])
    def test_translated_triangle_regions(self, shift):
        # the maximal parabola is a Euclidean invariant: shifting the
        # worked triangle shifts each side's exparabola and nothing else
        base = Triangle([-1.0, 0.0], [1.0, 0.0], [0.0, 1.0])
        shift = np.array(shift)
        t = Triangle(base.A + shift, base.B + shift, base.C + shift)
        for r in exparabolas(base):
            sol = solve_max_parabola(
                triangle_region(t, r.opposite_vertex), starts=16, seed=0
            )
            assert sol.parabola.parameter == pytest.approx(r.parabola.parameter, rel=1e-9)
            err = np.abs(sol.apex - shift - r.parabola.apex).max()
            assert err <= 1e-9 * np.linalg.norm(shift)
            assert sol.convergence.agreeing_starts >= 1

    def test_seed_point_is_deep_inside(self, rng):
        # the closed-form seed apex of the unit region has every slack >=
        # gscale, for random pinned regions and for far translates of them
        for trial in range(40):
            region, _ = random_pinned_region(rng, extra_max=6)
            if trial % 2:
                shift = rng.uniform(-1e4, 1e4, 2)
                region = ConvexRegion(
                    [HalfPlane(h.normal, h.offset + h.normal @ shift) for h in region.halfplanes]
                )
            ns = region.normals
            k, gscale, center, _ = _unit_scale(ns, region.offsets)
            assert 0.5 <= gscale < 1.0
            ds = np.ldexp(region.offsets, -k)
            x, smallest = _chebyshev_point(ns, ds, _feasible_direction_arc(ns), center, gscale)
            slack = ds - ns @ x
            assert smallest == slack.min()
            assert (slack >= gscale * (1.0 - 1e-9)).all()

    @pytest.mark.parametrize("starts", [0, -2, 2.5, True])
    def test_starts_below_one_rejected(self, starts):
        t = Triangle([-1.0, 0.0], [1.0, 0.0], [0.0, 1.0])
        with pytest.raises(ValueError, match="starts"):
            solve_max_parabola(triangle_region(t, "C"), starts=starts)

    def test_import_loads_no_scipy(self):
        src = os.path.dirname(os.path.dirname(conic_extrema.__file__))
        code = (
            "import sys, conic_extrema; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_many_halfplanes_pinned(self):
        sol = solve_max_parabola(REGION_M17, starts=64, seed=1219079220)
        assert sol.parabola.parameter == pytest.approx(0.9307912009489689, rel=1e-9)
        assert len(sol.active_constraints) >= 3

    def test_clipped_triple_matches_dense_scan(self, rng):
        # Reference: 10^4 tangency abscissas along the base triple's pencil,
        # kept when the member lies in every half-plane by the support
        # formula; the clipped closed form must be at least as large.
        checked = 0
        while checked < 4:
            region, _ = random_pinned_region(rng)
            res = _polish_triple(region, (0, 1, 2))
            if res is None:
                continue
            p, apex, angle, _, lam, frame = res
            roots = solve_cubic(tangency_cubic(frame))
            lam_star = roots[(roots > frame.a1) & (roots < frame.b1)][0]
            if lam == lam_star:
                continue  # the cubic root is feasible: nothing clipped
            checked += 1
            size = frame.scale
            axis = np.array([np.cos(angle), np.sin(angle)])
            viol = [
                halfplane_violation(apex, axis, p, h.normal, h.offset)
                for h in region.halfplanes
            ]
            assert max(viol) <= 1e-12 * size
            assert max(viol[3:]) >= -1e-12 * size  # a clipping half-plane is active
            best = 0.0
            for lam_k in np.linspace(frame.a1, frame.b1, 10_002)[1:-1]:
                try:
                    apex_k, axis_k, p_k, _ = _pencil_world(frame, lam_k)
                except NotAParabola:  # members next to the singular ends
                    continue
                if all(
                    halfplane_violation(apex_k, axis_k, p_k, h.normal, h.offset) <= 0.0
                    for h in region.halfplanes[3:]
                ):
                    best = max(best, p_k)
            assert best > 0.0
            assert p >= best * (1.0 - 1e-12)

    def test_fixed_triple_monotone_under_added_halfplane(self, rng):
        # Adding a half-plane can only shrink the admissible tangency
        # interval of any fixed triple, so that triple's optimum never
        # increases.  (The overall pinned optimum is NOT monotone: a new
        # boundary line also brings a new tangency opportunity, which can
        # pin a strictly larger parabola; see test below.)
        for trial in range(8):
            t = random_triangle(rng, min_ratio=0.06)
            region = triangle_region(t, "C")
            base = _polish_triple(region, (0, 1, 2))
            p0, apex, angle = base[0], base[1], base[2]
            axis = np.array([np.cos(angle), np.sin(angle)])
            n = -axis
            sup = halfplane_violation(apex, axis, p0, n, 0.0)
            cut = ConvexRegion(
                list(region.halfplanes) + [HalfPlane(n, sup - 0.05 * p0)]
            )
            res = _polish_triple(cut, (0, 1, 2))
            assert res is None or res[0] <= p0 * (1.0 + 1e-12)
            keep = ConvexRegion(
                list(region.halfplanes) + [HalfPlane(n, sup + 0.5 * p0)]
            )
            res2 = _polish_triple(keep, (0, 1, 2))
            assert res2[0] == pytest.approx(p0, rel=1e-12)

    def test_new_boundary_line_can_increase_pinned_optimum(self, rng):
        # counterexample to naive monotonicity of the pinned optimum
        t = random_triangle(rng, min_ratio=0.06)
        region = triangle_region(t, "C")
        sol = solve_max_parabola(region, starts=16, seed=0)
        p0 = sol.parabola.parameter
        axis = np.array([np.cos(sol.axis_angle), np.sin(sol.axis_angle)])
        n = -axis
        sup = halfplane_violation(sol.apex, axis, p0, n, 0.0)
        cut = ConvexRegion(list(region.halfplanes) + [HalfPlane(n, sup - 0.05 * p0)])
        sol2 = solve_max_parabola(cut, starts=16, seed=0)
        assert sol2.parabola.parameter > p0


S2 = 0.7071067811865475


@settings(max_examples=40, deadline=None)
@given(k=st.integers(-150, 150))
def test_bounded_region_solves_at_every_scale(k):
    # y >= 0 under two 45 degree lines, scaled by s: p = 2 s
    s = 10.0**k
    region = ConvexRegion(
        [HalfPlane([0.0, 1.0], 0.0), HalfPlane([S2, S2], S2 * s), HalfPlane([-S2, S2], S2 * s)]
    )
    sol = solve_max_parabola(region, starts=4)
    assert sol.parabola.parameter == pytest.approx(2.0 * s, rel=1e-12)
    assert sol.active_constraints == (0, 1, 2)


@pytest.mark.parametrize("s", [1e-150, 1e-10, 1.0, 1e12, 1e100, 1e200, 1e300])
def test_active_constraints_at_every_scale_default_probe(s):
    # all three lines touch the exparabola; a tolerance fixed in world
    # units (once 1e-7 * 1e3) lost line 1 from 1e12 up
    region = ConvexRegion(
        [HalfPlane([0.0, 1.0], 0.0), HalfPlane([S2, S2], S2 * s), HalfPlane([-S2, S2], S2 * s)]
    )
    sol = solve_max_parabola(region, starts=4)
    assert sol.active_constraints == (0, 1, 2)


def scaled_region(region, scale, shift=(0.0, 0.0)):
    """The region scaled by ``scale`` about the origin, then shifted."""
    return ConvexRegion(
        HalfPlane(h.normal, h.offset * scale + h.normal @ np.asarray(shift))
        for h in region.halfplanes
    )


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("e", [14, -14, 16, -16, 100, -100, 200, -200, 300, -300])
def test_pinned_regions_solve_at_every_scale(e):
    # the parameter scales with the region; differencing the pencil at
    # lam = 1 and lam = 0 in world units lost the slope from about 1e14 up
    rng = np.random.default_rng(1414)
    for _ in range(6):
        region, _ = random_pinned_region(rng)
        p0 = solve_max_parabola(region, starts=8).parabola.parameter
        big = scaled_region(region, 10.0**e)
        sol = solve_max_parabola(big, starts=8)
        p = sol.parabola.parameter
        assert abs(p / (p0 * 10.0**e) - 1.0) <= 1e-12
        axis = (math.cos(sol.axis_angle), math.sin(sol.axis_angle))
        viol = halfplane_violation(sol.apex, axis, p, big.normals, big.offsets)
        assert viol.max() <= 1e-12 * p


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(-900, 900))
def test_power_of_two_scaling_is_exactly_covariant(seed, k):
    region, _ = random_pinned_region(np.random.default_rng(seed))
    a = solve_max_parabola(region, starts=8, seed=seed)
    b = solve_max_parabola(scaled_region(region, 2.0**k), starts=8, seed=seed)  # exact
    assert b.parabola.parameter == math.ldexp(a.parabola.parameter, k)
    assert (b.apex == np.ldexp(a.apex, k)).all()
    assert b.convergence.spread == math.ldexp(a.convergence.spread, k)
    assert b.axis_angle == a.axis_angle
    assert b.active_constraints == a.active_constraints
    assert b.convergence.agreeing_starts == a.convergence.agreeing_starts


@pytest.mark.parametrize("seed", [15, 291, 1237, 1382, 1437, 2105, 2175, 2352, 2395, 2660])
def test_random_pinned_region_is_solvable(seed):
    # seeds whose extras once cut the region down to a wedge (one vertex)
    region, _ = random_pinned_region(np.random.default_rng(seed))
    sol = solve_max_parabola(region, starts=8, seed=seed)  # no UnboundedParameter
    assert len(sol.active_constraints) >= 3


def test_translation_keeps_the_certificate():
    # seeds and search live around the region's own vertices, so a shifted
    # region gives the shifted solution and as many agreeing starts
    rng = np.random.default_rng(3030)
    for trial in range(30):
        region, _ = random_pinned_region(rng)
        shift = rng.uniform(-1e3, 1e3, 2)
        a = solve_max_parabola(region, starts=64, seed=trial)
        b = solve_max_parabola(scaled_region(region, 1.0, shift=shift), starts=64, seed=trial)
        assert b.parabola.parameter == pytest.approx(a.parabola.parameter, rel=1e-9)
        assert np.abs(b.apex - shift - a.apex).max() <= 1e-9 * np.abs(shift).max()
        assert b.convergence.agreeing_starts == a.convergence.agreeing_starts


UNIT = st.floats(-1.0, 1.0)


@settings(max_examples=100, deadline=None)
@given(
    apex=st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
    angle=st.floats(0.0, 2.0 * np.pi),
    unit_axis=st.booleans(),
    p=st.floats(1e-3, 1e3),
    rows=st.lists(st.tuples(UNIT, UNIT, st.floats(-1e3, 1e3)), max_size=12),
)
def test_halfplane_violation_rows_equal_single_calls(apex, angle, p, unit_axis, rows):
    axis = (1.0, 0.0) if unit_axis else (np.cos(angle), np.sin(angle))
    # escape rows: along the axis, across it, and either side of -1e-14
    special = [(axis[0], axis[1], 1.0), (-axis[1], axis[0], 0.0), (-axis[0], -axis[1], 2.0)]
    if unit_axis:
        special += [(-1e-14, 0.5, 1.0), (np.nextafter(-1e-14, -1.0), 0.5, 1.0)]
    table = np.array(rows + special)
    out = halfplane_violation(apex, axis, p, table[:, :2], table[:, 2])
    assert out.shape == (len(table),)
    for row, v in zip(table, out):
        single = halfplane_violation(apex, axis, p, row[:2], row[2])
        assert type(single) is float
        assert v == single
    assert out[len(rows)] == np.inf and out[len(rows) + 1] == np.inf
    if unit_axis:
        assert out[-2] == np.inf and out[-1] < np.inf
