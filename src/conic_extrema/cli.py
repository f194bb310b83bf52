"""Command-line interface.

    conic-extrema <command> --input in.json --output out.json
                  [--svg fig.svg] [--seed N] [--grid N] [--starts N]

Commands: exparabola, max-parabola, lemma-shrink, min-horocycle, verify.
Inputs and outputs are UTF-8 JSON; points are [x, y] pairs, triangles
{"A": [..], "B": [..], "C": [..]}, half-planes {"normal": [..],
"offset": ..}, horocycles {"theta": .., "a": ..}.  Results are
deterministic for a fixed input and seed, and every float is printed in
shortest round-trip form, so reruns are byte-identical.

Each command reads only the keys shown in the README's table, and a
triangle or half-plane object only its own; any other key is a parse
error, and so is an ``a`` or ``omega`` of lemma-shrink that is not a
JSON number.  verify takes "suite" and the keywords that suite takes
(``verify.SUITE_KEYWORDS``); its seed comes from --seed.

Exit codes: 0 success, 1 domain error (degenerate or incompatible
geometry), 2 verification failure, 3 I/O or parse error, including a
--seed, --grid or --starts that is no count in its range.  Error
details go to stderr as single-line JSON.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

import numpy as np

from . import svgfig
from .errors import ConicExtremaError, VerificationFailure, check_count
from .exparabola import Triangle, exparabolas
from .horocycle import Horocycle, common_cover_unchecked, intersection_points
from .maxparabola import MAX_STARTS, ConvexRegion, HalfPlane, solve_max_parabola
from .minhorocycle import MAX_GRID, solve_min_horocycle
from .verify import SUITE_KEYWORDS, run_suite


def _numpy_default(obj):
    """``json.dumps`` hook: numpy arrays and scalars as plain Python values."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def dumps_result(obj) -> str:
    """Deterministic strict JSON: sorted keys, shortest round-trip floats;
    ValueError on NaN or infinity."""
    return json.dumps(obj, default=_numpy_default, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _viewbox(points, pad: float = 1.0):
    pts = np.asarray(points, float)
    lo = pts.min(axis=0) - pad
    hi = pts.max(axis=0) + pad
    side = float(max(hi - lo))
    mid = 0.5 * (lo + hi)
    return (
        mid[0] - 0.5 * side,
        mid[0] + 0.5 * side,
        mid[1] - 0.5 * side,
        mid[1] + 0.5 * side,
    )


# -- command implementations ---------------------------------------------------


def _only(obj, keys, what: str):
    """``obj`` if it is a JSON object with no key outside ``keys``;
    ValueError naming ``what`` and the first other key otherwise."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object")
    extra = [k for k in obj if k not in keys]
    if extra:
        raise ValueError(f"{what} takes no keyword {extra[0]!r}")
    return obj


def _number(data, key: str) -> float:
    """``data[key]`` as a float, if it is a JSON number; ValueError otherwise."""
    value = data[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{key} must be a JSON number")
    return float(value)


def _run_exparabola(data, args):
    tri = _only(data, ("triangle",), "exparabola input")["triangle"]
    tri = _only(tri, ("A", "B", "C"), "triangle")
    t = Triangle(tri["A"], tri["B"], tri["C"])
    results = exparabolas(t)
    out = {
        "triangle": {"A": t.A, "B": t.B, "C": t.C},
        "exparabolas": [
            {
                "opposite": r.opposite_vertex,
                "side": r.side,
                "lambda": r.lam,
                "parameter": r.parabola.parameter,
                "tangency": r.tangency,
                "apex": r.parabola.apex,
                "axis_angle": r.parabola.axis_angle,
                "conic": r.parabola.conic.m,
            }
            for r in results
        ],
    }
    svg = None
    if args.svg:
        corners = [t.A, t.B, t.C]
        fig = svgfig.SvgFigure(viewport=_viewbox(corners, pad=2.0 * t.diameter))
        for v1, v2 in ((t.A, t.B), (t.B, t.C), (t.C, t.A)):
            fig.add_segment(v1, v2, stroke="black", width=0.01 * t.diameter)
        for r, color in zip(results, ("crimson", "royalblue", "seagreen")):
            fig.add_parabola(r.parabola, stroke=color, width=0.008 * t.diameter)
            fig.add_point(r.tangency, r=0.015 * t.diameter, fill=color)
        for v, name in ((t.A, "A"), (t.B, "B"), (t.C, "C")):
            fig.add_point(v, r=0.015 * t.diameter)
            fig.add_label(v, name, dx=0.03 * t.diameter, dy=0.03 * t.diameter)
        svg = fig
    return out, svg


def _run_max_parabola(data, args):
    rows = _only(data, ("halfplanes",), "max-parabola input")["halfplanes"]
    hps = [_only(h, ("normal", "offset"), "half-plane") for h in rows]
    hps = [HalfPlane(h["normal"], h["offset"]) for h in hps]
    region = ConvexRegion(hps)
    sol = solve_max_parabola(region, starts=args.starts, seed=args.seed)
    out = {
        "parameter": sol.parabola.parameter,
        "apex": sol.apex,
        "axis_angle": sol.axis_angle,
        "active_constraints": list(sol.active_constraints),
        "convergence": asdict(sol.convergence),
        "conic": sol.parabola.conic.m,
    }
    svg = None
    if args.svg:
        span = max(4.0 * sol.parabola.parameter, 2.0)
        fig = svgfig.SvgFigure(viewport=_viewbox([sol.apex], pad=span))
        for h in region.halfplanes:
            fig.add_line(h.normal, h.offset, stroke="gray", width=0.004 * span)
        fig.add_parabola(sol.parabola, stroke="crimson", width=0.006 * span)
        fig.add_point(sol.apex, r=0.01 * span, fill="crimson")
        svg = fig
    return out, svg


def _run_lemma_shrink(data, args):
    _only(data, ("a", "omega"), "lemma-shrink input")
    a, omega = _number(data, "a"), _number(data, "omega")
    lower, upper = intersection_points(a, omega)
    cover = common_cover_unchecked(a, omega)
    out = {
        "a": a,
        "omega": omega,
        "cover": asdict(cover),
        "lower": lower,
        "upper": upper,
        "size_reduced": bool(cover.a < a),
    }
    svg = None
    if args.svg:
        fig = svgfig.SvgFigure(viewport=(-1.15, 1.15, -1.15, 1.15))
        fig.add_circle_path((0.0, 0.0), 1.0, stroke="black", width=0.008)
        h0 = Horocycle(theta=0.5 * np.pi + omega, a=a)
        h1 = Horocycle(theta=0.5 * np.pi - omega, a=a)
        fig.add_horocycle(h0, stroke="royalblue", width=0.006)
        fig.add_horocycle(h1, stroke="seagreen", width=0.006)
        fig.add_horocycle(cover, stroke="crimson", width=0.006)
        fig.add_point(lower, r=0.015, fill="black")
        fig.add_label(lower, "L")
        fig.add_point(upper, r=0.015, fill="black")
        fig.add_label(upper, "U")
        svg = fig
    return out, svg


def _run_min_horocycle(data, args):
    pts = np.asarray(_only(data, ("points",), "min-horocycle input")["points"], float)
    sol = solve_min_horocycle(pts, grid=args.grid)
    out = {
        "theta": sol.horocycle.theta,
        "a": sol.horocycle.a,
        "unique": sol.unique,
        "support": list(sol.support),
        "tied_minimizers": sol.profile.tied_minimizers,
    }
    svg = None
    if args.svg:
        fig = svgfig.SvgFigure(viewport=(-1.15, 1.15, -1.15, 1.15))
        fig.add_circle_path((0.0, 0.0), 1.0, stroke="black", width=0.008)
        fig.add_horocycle(sol.horocycle, stroke="crimson", width=0.006)
        for i, p in enumerate(pts):
            fig.add_point(p, r=0.012, fill="royalblue" if i in sol.support else "gray")
        svg = fig
    return out, svg


def _run_verify(data, args):
    name = data.get("suite", "all")
    if name in SUITE_KEYWORDS:  # else run_suite names the unknown suite
        _only(data, ("suite", *SUITE_KEYWORDS[name]), f"suite {name!r}")
    report = run_suite(name, seed=args.seed, **{k: v for k, v in data.items() if k != "suite"})
    return report, None


RUNNERS = {
    "exparabola": _run_exparabola,
    "max-parabola": _run_max_parabola,
    "lemma-shrink": _run_lemma_shrink,
    "min-horocycle": _run_min_horocycle,
    "verify": _run_verify,
}


def _count_option(name: str, text, most=float("inf"), least: int = 1) -> int:
    """A count option's text, read as an int or else as a float, under
    ``errors.check_count``; ValueError naming the option otherwise."""
    value = text
    for read in (int, float):
        try:
            value = read(text)
            break
        except ValueError:
            pass
    return check_count(name, value, most, least)


def _diag(kind: str, message: str) -> None:
    sys.stderr.write(json.dumps({"error": kind, "message": message}) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="conic-extrema", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", choices=RUNNERS)
    parser.add_argument("--input", required=True)
    parser.add_argument("--output", required=True)
    parser.add_argument("--svg", default=None)
    parser.add_argument("--seed", default="0")
    parser.add_argument("--grid", default="720")
    parser.add_argument("--starts", default="64")
    args = parser.parse_args(argv)

    try:
        args.seed = _count_option("seed", args.seed, least=0)
        args.grid = _count_option("grid", args.grid, MAX_GRID)
        args.starts = _count_option("starts", args.starts, MAX_STARTS)
        with open(args.input, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError("input must be a JSON object")
    except (OSError, ValueError, RecursionError) as exc:  # not UTF-8, not JSON, too deep
        _diag(type(exc).__name__, str(exc))
        return 3

    try:
        with np.errstate(all="ignore"):  # overflow shows as a non-finite result
            out, fig = RUNNERS[args.command](data, args)
    except VerificationFailure as exc:
        _diag("VerificationFailure", str(exc))
        return 2
    except ConicExtremaError as exc:
        _diag(type(exc).__name__, str(exc))
        return 1
    except (KeyError, TypeError, ValueError, OverflowError, MemoryError) as exc:  # int(inf) overflows
        _diag(type(exc).__name__, str(exc))
        return 3

    try:
        text = dumps_result(out)
    except ValueError as exc:
        _diag("NonFiniteResult", str(exc))
        return 1
    try:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        if args.svg and fig is not None:
            fig.write(args.svg)
    except OSError as exc:
        _diag(type(exc).__name__, str(exc))
        return 3
    if args.command == "verify" and not out.get("passed", False):
        _diag("VerificationFailure", "one or more verification suites failed")
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
