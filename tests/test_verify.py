"""The pencil suites: the dual suite's array-built lines and the primal
suite's stacked forms against per-blend loops, a negated blend member,
and the sample counts and keywords each suite rejects."""

import numpy as np
import pytest

from conic_extrema import Parabola
from conic_extrema import verify as verify_module
from conic_extrema.maxparabola import halfplane_violation
from conic_extrema.projective import (
    HomPoint,
    dualize,
    normalize_interior,
    pencil_blend,
)
from conic_extrema.verify import (
    BLEND_GRID,
    _line_misses_parabola,
    _missing_lines,
    _random_ellipse_through_origin,
    cover_containment_suite,
    dual_pencil_line_preservation,
    pencil_interior_preservation,
    size_reduction_suite,
)


def draw_geo(rng):
    """The suite's two parabolas, in its draw order."""
    base_angle = rng.uniform(0.0, 2.0 * np.pi)
    geo = []
    for _ in range(2):
        apex = rng.uniform(-2.0, 2.0, 2)
        angle = base_angle + rng.uniform(-0.7, 0.7)
        p = rng.uniform(0.3, 3.0)
        geo.append((apex, angle, p))
    return geo


def loop_line(geo, angle_jitter, gap):
    """One line at a time, each support a scalar call."""
    sups = []
    mid = np.arctan2(np.sin(geo[0][1]) + np.sin(geo[1][1]), np.cos(geo[0][1]) + np.cos(geo[1][1]))
    ang = mid + np.pi + angle_jitter
    n = np.array([np.cos(ang), np.sin(ang)])
    for apex, angle, p in geo:
        axis = np.array([np.cos(angle), np.sin(angle)])
        sups.append(halfplane_violation(apex, axis, p, n, 0.0))
    return np.array([-(max(sups) + gap), n[0], n[1]])


def loop_suite(pairs, lines_per_pair, seed):
    """The suite with its lines built by ``loop_line``."""
    checked = bad = 0
    for case_seed in (seed * 100_019 + i for i in range(pairs)):
        rng = np.random.default_rng(case_seed)
        geo = draw_geo(rng)
        duals = [dualize(Parabola(*g).conic) for g in geo]
        witness = HomPoint(loop_line(geo, 0.0, 1.0))
        jits = rng.uniform(-0.5, 0.5, lines_per_pair)
        gaps = rng.uniform(0.01, 10.0, lines_per_pair)
        lines = np.array([loop_line(geo, j, g) for j, g in zip(jits, gaps)])
        d0 = normalize_interior(duals[0], witness)
        d1 = normalize_interior(duals[1], witness)
        for d in (d0, d1):
            bad += int((np.einsum("ni,ij,nj->n", lines, d.m, lines) >= 0.0).sum())
        checked += 2 * len(lines)
        e0 = np.array([1.0, 0.0, 0.0])
        for t in BLEND_GRID:
            blend = pencil_blend(d0, d1, float(t))
            bad += int((np.einsum("ni,ij,nj->n", lines, blend.m, lines) >= 0.0).sum())
            checked += len(lines) + 1
            if abs(e0 @ blend.m @ e0) > 1e-9 * np.abs(blend.m).max():
                bad += 1
    return {
        "suite": "dual-pencil-lines",
        "pairs": pairs,
        "checked": checked,
        "violations": bad,
        "passed": bad == 0,
    }


def test_array_lines_match_loop(rng):
    worst = 0.0
    for _ in range(50):
        geo = draw_geo(rng)
        jits = np.concatenate([[0.0], rng.uniform(-0.5, 0.5, 400)])
        gaps = np.concatenate([[1.0], rng.uniform(0.01, 10.0, 400)])
        lines = _missing_lines(geo, jits, gaps)
        old = np.array([loop_line(geo, j, g) for j, g in zip(jits, gaps)])
        rel = np.abs(lines - old).max(axis=1) / np.abs(old).max(axis=1)
        worst = max(worst, float(rel.max()))
    assert worst <= 1e-14


@pytest.mark.parametrize("seed", range(20))
def test_reports_equal_loop_suite(seed):
    assert dual_pencil_line_preservation(pairs=5, lines_per_pair=100, seed=seed) == loop_suite(
        5, 100, seed
    )


def loop_interior_suite(pairs, points_per_pair, seed):
    """The primal suite with one ``einsum`` per conic and per blend member."""
    checked = bad = 0
    for case_seed in (seed * 100_003 + i for i in range(pairs)):
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
        hom = np.column_stack([np.ones(points_per_pair), pts[:points_per_pair]])
        for t in BLEND_GRID:
            blend = pencil_blend(c0, c1, float(t))
            bad += int((np.einsum("ni,ij,nj->n", hom, blend.m, hom) >= 0.0).sum())
            checked += len(hom)
    return {
        "suite": "pencil-interior",
        "pairs": pairs,
        "checked": checked,
        "violations": bad,
        "passed": bad == 0,
    }


@pytest.mark.parametrize("seed", range(20))
def test_interior_reports_equal_loop_suite(seed):
    assert pencil_interior_preservation(pairs=8, points_per_pair=250, seed=seed) == (
        loop_interior_suite(8, 250, seed)
    )


def test_blend_stack_is_pencil_blend_bitwise(rng):
    # one broadcast for the members: each is pencil_blend's matrix bit for bit
    witness = HomPoint([1.0, 0.0, 0.0])
    for _ in range(200):
        c0, c1 = (normalize_interior(_random_ellipse_through_origin(rng), witness) for _ in range(2))
        if rng.uniform() < 0.5:
            c0, c1 = (normalize_interior(dualize(c), witness) for c in (c0, c1))
        expect = [c0.m, c1.m] + [pencil_blend(c0, c1, float(t)).m for t in BLEND_GRID]
        assert verify_module._blend_stack(c0, c1).tobytes() == np.stack(expect).tobytes()


@pytest.mark.parametrize("member", [0, 4, len(BLEND_GRID) - 1])
def test_negated_blend_member_fails_every_sample(monkeypatch, member):
    # the member at one t has the wrong sign in the stack: each case's
    # points (lines) all fail under it and under no other member
    real = verify_module._blend_stack

    def negate_one(c0, c1):
        stack = real(c0, c1).copy()
        stack[2 + member] *= -1.0
        return stack

    monkeypatch.setattr(verify_module, "_blend_stack", negate_one)
    primal = pencil_interior_preservation(pairs=3, points_per_pair=50, seed=0)
    dual = dual_pencil_line_preservation(pairs=4, lines_per_pair=30, seed=0)
    assert (primal["violations"], primal["passed"]) == (3 * 50, False)
    assert (dual["violations"], dual["passed"]) == (4 * 30, False)


def test_line_misses_parabola_rows():
    # x^2 = 2y: y = -1 misses it, y = 1 crosses it, and the axis x = 0
    # crosses it (both half-planes escape)
    normals = np.array([[0.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
    offsets = np.array([-1.0, 1.0, 0.0])
    out = _line_misses_parabola([0.0, 0.0], np.pi / 2.0, 1.0, normals, offsets)
    assert out.tolist() == [True, False, False]
    assert _line_misses_parabola([0.0, 0.0], np.pi / 2.0, 1.0, normals[1], 1.0) is False


def test_constructed_line_hitting_a_parabola_is_a_violation(monkeypatch):
    # report one constructed line per pair as hitting both parabolas: the
    # suite counts it once and fails, whatever the interpreter's -O level
    real = _line_misses_parabola

    def one_hit(*args):
        out = real(*args).copy()
        out[1] = False
        return out

    monkeypatch.setattr(verify_module, "_line_misses_parabola", one_hit)
    report = dual_pencil_line_preservation(pairs=3, lines_per_pair=20, seed=0)
    assert report["violations"] == 3
    assert report["passed"] is False


@pytest.mark.parametrize("count", [0, -1, 2.5, True])
@pytest.mark.parametrize(
    "suite, size",
    [
        (pencil_interior_preservation, "pairs"),
        (pencil_interior_preservation, "points_per_pair"),
        (dual_pencil_line_preservation, "pairs"),
        (dual_pencil_line_preservation, "lines_per_pair"),
        (size_reduction_suite, "cases"),
        (cover_containment_suite, "cases"),
    ],
)
def test_empty_pencil_suite_rejected(suite, size, count):
    # a suite that checks nothing must not report that it passed
    with pytest.raises(ValueError, match=size):
        suite(**{size: count})


@pytest.mark.parametrize(
    "suite, keyword",
    [("pencil", "cases"), ("pencil", "a_range"), ("cover", "sample"), ("all", "seeds")],
)
def test_run_suite_rejects_a_keyword_its_suite_does_not_take(monkeypatch, suite, keyword):
    # "pencil" used to ignore every keyword, and "cover" a misspelt one;
    # the check comes before any case runs
    def ran(*args, **kwargs):
        raise AssertionError("a suite ran")

    for name in ("pencil_interior_preservation", "size_reduction_suite"):
        monkeypatch.setattr(verify_module, name, ran)
    with pytest.raises(ValueError, match=f"suite '{suite}' takes no keyword '{keyword}'"):
        verify_module.run_suite(suite, **{keyword: 10**9})


def test_run_suite_takes_the_cover_keywords():
    kw = {"cases": 2, "samples": 50, "a_range": (0.1, 0.5)}
    for suite in ("cover", "all"):
        assert verify_module.run_suite(suite, **kw)["passed"]
    with pytest.raises(ValueError, match="unknown suite: 'nope'"):
        verify_module.run_suite("nope", cases=2)
