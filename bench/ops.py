"""The workload table: per workload, its inputs, op, check and report.

``WORKLOADS`` maps each workload name to one object that holds
everything run.py and child.py need to know about it:

- ``make_pass(rng, tiny)`` and ``warmup(rng)``: the generated op list
  of one pass, and small inputs for the untimed warm-up;
- ``run(ce, spec)``: one in-process op against the package (passed in
  as ``ce``), returning ``("ok", value)`` or ``("raised", exception)``;
  ``cli-cold`` is run as a process by run.py instead;
- ``check(spec, outcome, tally, reference)``: the share of the op that
  failed (0 or 1, or the failing fraction of a triangle batch) and a
  one-line reason; ``tally`` counts what was checked and why it failed;
- ``references(ops_list)``: expensive reference values that depend on
  the inputs alone, computed before any op is timed;
- ``label(spec)`` and ``describe(spec)``: the op's kind for per-kind
  latencies, and its input as reported with a failure;
- ``known_failures(ce, rng)``: inputs outside the workload on which the
  program is known to fail, checked once after the timed ops and
  reported in the details line, never in ``correct``.

Every check uses the benchmark's own formulas from ``workloads``, never
the package's helpers.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import workloads as W

TANGENCY_TOL = 1e-9  # tangent offset residual / triangle diameter
CONTAIN_TOL = 2e-8  # x max(1, |offset|, |apex|, p): the polish accepts 1e-8
ACTIVE_TOL = 1e-7  # slack below which a half-plane counts as active
ORACLE_TOL = 1e-6  # triangle regions against the closed-form exparabola
SIZE_TOL = 1e-9  # min-horocycle size against the dense-grid reference
REFERENCE_MAX_N = 1000
PROBE_TRIANGLES = 256
CHILD = Path(__file__).resolve().parent / "child.py"


def _raised(outcome, expected=None):
    kind, value = outcome
    if kind == "raised":
        name = type(value).__name__
        if expected == name:
            return None
        return f"raised {name}: {value}"
    if expected is not None:
        return f"returned instead of raising {expected}"
    return None


def _whole(problem):
    """A single-item op fails wholly or not at all."""
    return (1.0 if problem else 0.0), problem


class Workload:
    name = ""
    in_process = True
    min_passes = 1  # a run repeats whole passes for its time, and at least this many

    def make_pass(self, rng, tiny: bool) -> list:
        raise NotImplementedError

    def warmup(self, rng) -> list:
        return []

    def run(self, ce, spec: dict):
        try:
            return "ok", self._call(ce, spec)
        except Exception as exc:  # counted as a failure unless the input expects it
            return "raised", exc

    def _call(self, ce, spec):
        raise NotImplementedError

    def check(self, spec, outcome, tally, reference=None) -> tuple[float, str | None]:
        raise NotImplementedError

    def references(self, ops_list) -> dict:
        return {}

    def label(self, spec) -> str:
        raise NotImplementedError

    def describe(self, spec):
        raise NotImplementedError

    def known_failures(self, ce, rng) -> dict | None:
        return None


# -- exparabolas ---------------------------------------------------------------


def adjugates(ms: np.ndarray) -> np.ndarray:
    """Adjugates of a stack of symmetric 3x3 matrices (rows: column cross products)."""
    c0, c1, c2 = ms[:, :, 0], ms[:, :, 1], ms[:, :, 2]
    return np.stack([np.cross(c1, c2), np.cross(c2, c0), np.cross(c0, c1)], axis=1)


def _side_lines(tri):
    """Unit normals (3, 2) and offsets (3,) of the three side lines."""
    ns, ds = [], []
    for i, j in ((0, 1), (1, 2), (2, 0)):
        e = tri[j] - tri[i]
        n = np.array([-e[1], e[0]]) / math.hypot(*e)
        ns.append(n)
        ds.append(float(n @ tri[i]))
    return np.array(ns), np.array(ds)


def tangency_residual(tri, conics) -> float:
    """Largest tangent-offset miss of the three side lines, over the diameter.

    Works in coordinates centred on the triangle's centroid.  The line
    n . x = d, i.e. l = (-d, n), touches the conic M iff l^T adj(M) l = 0:
    adj00 d^2 - 2 d (adj01 n1 + adj02 n2) + n^T A n = 0, A the lower 2x2
    block of adj(M).  A parabola has adj00 = 0 exactly; the root kept is
    the one nearest the side's own offset.
    """
    c = tri.mean(axis=0)
    ns, ds = _side_lines(tri - c)
    shift = np.array([[1.0, 0.0, 0.0], [c[0], 1.0, 0.0], [c[1], 0.0, 1.0]])
    ms = np.array([shift.T @ m @ shift for m in conics])
    ms /= np.abs(ms).max(axis=(1, 2))[:, None, None]
    ad = adjugates(ms)
    q = np.einsum("ri,kij,rj->kr", ns, ad[:, 1:, 1:], ns)
    lin = ad[:, 0, 1][:, None] * ns[:, 0] + ad[:, 0, 2][:, None] * ns[:, 1]
    a00 = np.broadcast_to(ad[:, 0, 0][:, None], q.shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        big = lin + np.copysign(np.sqrt(lin * lin - a00 * q), lin)
        roots = np.stack([q / big, np.where(a00 != 0.0, big / a00, np.inf)])
        miss = np.abs(roots - ds).min(axis=0)
    diam = max(np.linalg.norm(tri[i] - tri[j]) for i in range(3) for j in range(i))
    return float(np.max(miss)) / diam  # nan (no real root) stays nan


def check_triangle(tri, res) -> tuple[str, str] | None:
    """(cause, reason) when one triangle's results are wrong, else None."""
    if isinstance(res, Exception):
        return "raised", f"raised {type(res).__name__}: {res}"
    if len(res) != 3 or {r.opposite_vertex for r in res} != {"A", "B", "C"}:
        return "count", f"{len(res)} results, expected one per vertex"
    resid = tangency_residual(tri, [r.parabola.conic.m for r in res])
    if not resid <= TANGENCY_TOL:
        return "residual", f"tangency residual {resid:.3g}"
    return None


def check_exparabolas(triangles, results, tally) -> tuple[float, str | None]:
    """Three results per triangle, each tangent to all three side lines.

    The op's fail share is the fraction of its triangles that failed, so
    a fix or a regression of part of the batch moves ``pass_ratio``.
    """
    bad = []
    for k, (tri, res) in enumerate(zip(triangles, results)):
        problem = check_triangle(tri, res)
        if problem:
            tally[f"triangles_{problem[0]}"] += 1
            bad.append(f"triangle {k} {tri.tolist()}: {problem[1]}")
    tally["triangles"] += len(triangles)
    if bad:
        return (len(bad) / len(triangles),
                f"{len(bad)} of {len(triangles)} triangles failed; first: {bad[0]}")
    return 0.0, None


class SampledChecks(Workload):
    name = "sampled-checks"

    def make_pass(self, rng, tiny):
        return W.sampled_pass(rng, tiny)

    def warmup(self, rng):
        return [{"kind": "exparabolas", "triangles": W.triangle_batch(rng, 2)},
                {"kind": "verify", "suite": "cover", "seed": 0}]

    def _call(self, ce, spec):
        if spec["kind"] == "exparabolas":
            return [self._one(ce, t) for t in spec["triangles"]]
        return ce.verify.run_suite(spec["suite"], seed=spec["seed"])

    @staticmethod
    def _one(ce, tri):
        """One triangle of a batch; an exception is kept so the rest still run."""
        try:
            return ce.exparabolas(ce.Triangle(*tri))
        except Exception as exc:  # reported by check_exparabolas
            return exc

    def check(self, spec, outcome, tally, reference=None):
        bad = _raised(outcome)
        if bad:
            return 1.0, bad
        if spec["kind"] == "exparabolas":
            return check_exparabolas(spec["triangles"], outcome[1], tally)
        tally["suites"] += 1
        return _whole(None if outcome[1].get("passed") is True
                      else f"suite {spec['suite']} did not pass")

    def label(self, spec):
        return "verify " + spec["suite"] if spec["kind"] == "verify" else spec["kind"]

    def describe(self, spec):
        if spec["kind"] == "verify":
            return {"suite": spec["suite"], "seed": spec["seed"]}
        return {"triangles": len(spec["triangles"])}

    def known_failures(self, ce, rng):
        """Triangles flatter than the batches', down to the flatness limit.

        ``exparabolas`` fails on many of them (README.md, "Known
        failures"), so they are not ops of the workload; checking them in
        every run keeps the defect in view, and shows when a change fixes
        or widens it.
        """
        tris = W.triangle_batch(rng, PROBE_TRIANGLES, W.FLATNESS_LIMIT, W.BATCH_MIN_RATIO)
        tally = Counter()
        _, problem = check_exparabolas(tris, [self._one(ce, t) for t in tris], tally)
        return {"flat_triangles": dict(tally), "first": problem}


# -- regions -------------------------------------------------------------------


def check_region(spec, sol) -> str | None:
    """Containment by the support formula, >= 3 active constraints, and for
    bare triangle regions the closed-form exparabola."""
    p = float(sol.parabola.parameter)
    apex = np.asarray(sol.apex, float)
    axis = np.array([math.cos(sol.axis_angle), math.sin(sol.axis_angle)])
    size = max(1.0, float(np.abs(apex).max()), p)
    active = 0
    for n, d in zip(spec["normals"], spec["offsets"]):
        excess = W.support(n, apex, axis, p) - d
        if not excess <= CONTAIN_TOL * max(size, abs(d)):
            return f"m={spec['m']}: sticks out of a half-plane by {excess:.3g}"
        active += excess >= -ACTIVE_TOL * max(size, abs(d))
    if active < 3:
        return f"m={spec['m']}: only {active} active constraints"
    oracle = spec.get("oracle")
    if oracle is not None:
        dp = abs(p / oracle["p"] - 1.0)
        da = float(np.linalg.norm(apex - oracle["apex"])) / max(1.0, oracle["p"])
        if not max(dp, da) <= ORACLE_TOL:
            return f"triangle region: parameter off by {dp:.3g}, apex by {da:.3g}"
    return None


class Regions(Workload):
    name = "regions"

    def make_pass(self, rng, tiny):
        return W.region_pass(rng, tiny)

    def warmup(self, rng):
        out = [W.pinned_region(rng, 3), W.wedge(rng), W.strip(rng)]
        for r in out:
            r.update(starts=64, seed=0, m=len(r["offsets"]))
        return out

    def _call(self, ce, spec):
        region = ce.ConvexRegion(
            [ce.HalfPlane(n, d) for n, d in zip(spec["normals"], spec["offsets"])]
        )
        return ce.solve_max_parabola(region, starts=spec["starts"], seed=spec["seed"])

    def check(self, spec, outcome, tally, reference=None):
        bad = _raised(outcome, spec.get("raises"))
        if bad or spec.get("raises"):
            return _whole(bad)
        return _whole(check_region(spec, outcome[1]))

    def label(self, spec):
        return spec.get("raises") or f"m={spec['m']}"

    def describe(self, spec):
        return {"m": spec["m"], "seed": spec["seed"],
                "normals": spec["normals"].tolist(), "offsets": spec["offsets"].tolist()}


# -- point sets ----------------------------------------------------------------


def profile(thetas, pts, chunk: int = 1 << 21) -> np.ndarray:
    """max_i min_size(theta, p_i) for each theta, in bounded-memory chunks."""
    step = max(1, chunk // max(1, len(pts)))
    return np.concatenate(
        [W.min_size(thetas[i:i + step], pts).max(axis=1) for i in range(0, len(thetas), step)]
    )


def dense_reference(pts, grid: int = 1 << 14, keep: int = 8, rounds: int = 8) -> float:
    """Best profile value over a dense grid, zoomed in around its best points.

    Every value is the size of an enclosing horocycle, so the result
    bounds the true minimum from above.
    """
    thetas = np.linspace(0.0, 2.0 * np.pi, grid, endpoint=False)
    vals = profile(thetas, pts)
    best = float(vals.min())
    width = 2.0 * np.pi / grid
    for i in np.argsort(vals)[:keep]:
        lo, hi = thetas[i] - width, thetas[i] + width
        for _ in range(rounds):
            sub = np.linspace(lo, hi, 33)
            sv = profile(sub, pts)
            j = int(np.argmin(sv))
            best = min(best, float(sv[j]))
            half = (hi - lo) / 32.0
            lo, hi = sub[j] - half, sub[j] + half
    return best


def check_points(spec, sol, reference=None) -> str | None:
    pts = spec["points"]
    a, theta = float(sol.horocycle.a), float(sol.horocycle.theta)
    tag = f"{spec['family']} n={spec['n']}"
    need = float(W.min_size([theta], pts).max())
    if not need <= a * (1.0 + SIZE_TOL):
        return f"{tag}: a point needs size {need!r} > a = {a!r}"
    if bool(sol.unique) != spec["unique"]:
        return f"{tag}: unique = {sol.unique}, expected {spec['unique']}"
    if spec["family"] == "centre" and not abs(a - W.INV_SQRT2) <= 1e-12:
        return f"{tag}: a = {a!r}, expected 2^(-1/2)"
    if reference is not None and not a <= reference * (1.0 + SIZE_TOL):
        return f"{tag}: a = {a!r} above the dense-grid reference {reference!r}"
    return None


class PointSets(Workload):
    name = "point-sets"

    def make_pass(self, rng, tiny):
        return W.point_pass(rng, tiny)

    def warmup(self, rng):
        return [{"family": f, "n": 10, "points": make(rng, 10), "unique": u}
                for f, (make, u) in W.FAMILIES.items()]

    def _call(self, ce, spec):
        sol = ce.solve_min_horocycle(spec["points"])
        ce.verify_solution(spec["points"], sol)
        return sol

    def check(self, spec, outcome, tally, reference=None):
        return _whole(_raised(outcome) or check_points(spec, outcome[1], reference))

    def references(self, ops_list) -> dict:
        """Dense-grid references of the sets with n <= REFERENCE_MAX_N.

        They are computed in a separate process (``child.py refs``), so
        their arrays never count towards the peak memory of the process
        that runs the ops.  Floats survive the JSON round trip exactly.
        """
        wanted = {i: spec["points"].tolist() for i, spec in enumerate(ops_list)
                  if spec["n"] <= REFERENCE_MAX_N}
        proc = subprocess.run([sys.executable, str(CHILD), "refs"], input=json.dumps(wanted),
                              capture_output=True, text=True, check=True)
        return {int(k): v for k, v in json.loads(proc.stdout).items()}

    def label(self, spec):
        return f"{spec['family']} n={spec['n']}"

    def describe(self, spec):
        return {"family": spec["family"], "n": spec["n"],
                "points": spec["points"].tolist() if spec["n"] <= 50 else None}


# -- CLI calls -------------------------------------------------------------------

CLI_KEYS = {
    "exparabola": {"triangle", "exparabolas"},
    "max-parabola": {"parameter", "apex", "axis_angle", "active_constraints",
                     "convergence", "conic"},
    "lemma-shrink": {"a", "omega", "cover", "lower", "upper", "size_reduced"},
    "min-horocycle": {"theta", "a", "unique", "support", "tied_minimizers"},
    "verify": {"suite", "reports", "passed"},
}


def check_cli(spec, data: dict) -> str | None:
    """Expected keys, plus a value check per command."""
    cmd = spec["command"]
    missing = CLI_KEYS[cmd] - set(data)
    if missing:
        return f"{cmd}: output lacks {sorted(missing)}"
    expect = spec["expect"]
    if cmd == "exparabola":
        got = {e["opposite"]: e["parameter"] for e in data["exparabolas"]}
        for opp, p in expect["p"].items():
            if not abs(got.get(opp, math.inf) / p - 1.0) <= ORACLE_TOL:
                return f"exparabola: parameter opposite {opp} is {got.get(opp)}, expected {p}"
    elif cmd == "max-parabola":
        sol = SimpleNamespace(parabola=SimpleNamespace(parameter=data["parameter"]),
                              apex=data["apex"], axis_angle=data["axis_angle"])
        return check_region(expect, sol)
    elif cmd == "lemma-shrink":
        if data["size_reduced"] is not True:
            return "lemma-shrink: cover not smaller below 2^(-1/2)"
    elif cmd == "min-horocycle":
        pts = expect["points"]
        need = float(W.min_size([data["theta"]], pts).max())
        if not need <= data["a"] * (1.0 + SIZE_TOL):
            return f"min-horocycle: a point needs size {need!r} > a = {data['a']!r}"
    elif cmd == "verify" and data["passed"] is not True:
        return "verify: suite did not pass"
    return None


class CliCold(Workload):
    """Each op is a fresh CLI process, started by run.py's ``Cli`` runner.

    Its outcome is ``("ok", (exit code, stderr, output bytes, SVG bytes))``.
    Every run of an input must give the output and figure of its first
    run, byte for byte; two passes at least make sure each input has a
    second run.
    """

    name = "cli-cold"
    in_process = False
    min_passes = 2

    def __init__(self):
        self._first = {}

    def make_pass(self, rng, tiny):
        return W.cli_pass(rng, tiny)

    def check(self, spec, outcome, tally, reference=None):
        code, err_text, raw, figure = outcome[1]
        if code != 0:
            return _whole(f"exit code {code}: {err_text.strip()[-300:]}")
        try:
            data = json.loads(raw)
        except ValueError as exc:
            return _whole(f"unreadable output: {exc}")
        if spec["svg"] and spec["command"] != "verify":  # verify draws no figure
            if not (figure.startswith(b"<?xml") and b"<path" in figure
                    and figure.rstrip().endswith(b"</svg>")):
                return _whole("missing or malformed SVG")
        first = self._first.setdefault(spec["key"], (raw, figure))
        if first != (raw, figure):
            return _whole("output differs from the earlier run of the same input")
        return _whole(check_cli(spec, data))

    def label(self, spec):
        return spec["command"] + (" --svg" if spec["svg"] else "")

    def describe(self, spec):
        return {"command": spec["command"], "svg": spec["svg"], "input": spec["input"]}


WORKLOADS = {w.name: w for w in (CliCold(), SampledChecks(), Regions(), PointSets())}
