"""Span tracing of conic_extrema from outside the package.

``install`` replaces module attributes (and a few class methods) with
wrappers that record one span per call: name, start, end, parent span
and op id.  A function bound elsewhere with ``from .x import y`` is
wrapped in every module that bound it.  Spans stay in memory until
``summarize`` reduces them to additive totals; ``metrics`` turns merged
totals into the per-layer metrics.  Names a later version of the package
no longer has are skipped and reported as missing.

Only the standard library is imported at module level, so the CLI child
can load this file before timing the package import.
"""

from __future__ import annotations

import functools
import os
import threading
import time
from collections import defaultdict

# (module, attribute, span name).  "Class.method" attributes wrap methods.
TARGETS = [
    ("cli", "main", "cli.main"),
    ("cli", "dumps_result", "cli.dump"),
    ("svgfig", "SvgFigure.write", "svgfig.write"),
    ("exparabola", "exparabolas", "exparabola.exparabolas"),
    ("exparabola", "canonical_frame", "exparabola.canonical_frame"),
    ("exparabola", "solve_cubic", "exparabola.solve_cubic"),
    ("parabola", "Parabola.__init__", "parabola.init"),
    ("parabola", "apex_form", "parabola.apex_form"),
    ("projective", "normalize_interior", "projective.normalize_interior"),
    ("projective", "pencil_blend", "projective.pencil_blend"),
    ("projective", "dualize", "projective.dualize"),
    ("projective", "adjugate", "projective.adjugate"),
    ("maxparabola", "solve_max_parabola", "maxparabola.solve"),
    ("maxparabola", "_make_seeds", "maxparabola.seed"),
    ("maxparabola", "_chebyshev_point", "maxparabola.lp"),
    ("maxparabola", "_coarse_search", "maxparabola.coarse"),
    ("maxparabola", "_polish_triple", "maxparabola.polish"),
    ("maxparabola", "_pencil_world", "maxparabola.pencil_world"),
    ("horocycle", "min_sizes_for_points", "horocycle.min_sizes"),
    ("horocycle", "common_cover_unchecked", "horocycle.cover"),
    ("horocycle", "intersection_points", "horocycle.cover"),
    ("horocycle", "check_size_reduction_identities", "horocycle.cover"),
    ("horocycle", "check_cover_containment", "horocycle.cover"),
    ("minhorocycle", "solve_min_horocycle", "minhorocycle.solve"),
    ("minhorocycle", "_golden_minimize", "minhorocycle.golden"),
    ("minhorocycle", "verify_solution", "minhorocycle.verify"),
    ("verify", "pencil_interior_preservation", "verify.pencil_interior"),
    ("verify", "dual_pencil_line_preservation", "verify.dual_pencil_lines"),
    ("verify", "size_reduction_suite", "verify.size_reduction"),
    ("verify", "cover_containment_suite", "verify.cover_containment"),
    ("verify", "run_suite", "verify.run_suite"),
]
LAYERS = ("cli", "svgfig", "exparabola", "parabola", "projective",
          "maxparabola", "horocycle", "minhorocycle", "verify")


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent, op]
        self.counters = defaultdict(float)
        self.op = 0
        self.missing = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._restore = []
        self._solve = {}

    # -- spans -----------------------------------------------------------

    def _stack(self):
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def enter(self, name: str) -> int:
        st = self._stack()
        span = [name, time.perf_counter(), None, st[-1] if st else None, self.op]
        with self._lock:
            sid = len(self.spans)
            self.spans.append(span)
        st.append(sid)
        return sid

    def exit(self, sid: int) -> None:
        self.spans[sid][2] = time.perf_counter()
        self._stack().pop()

    def record(self, name: str, start: float, end: float) -> None:
        """A span measured by the caller, e.g. an import."""
        with self._lock:
            self.spans.append([name, start, end, None, self.op])

    def count(self, key: str, value: float = 1.0) -> None:
        with self._lock:
            self.counters[key] += value

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, fn, name, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = tracer.enter(name)
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                tracer.exit(sid)
                if (type(exc).__name__ == "NumericalRootFailure"
                        and not getattr(exc, "_bench_counted", False)):
                    exc._bench_counted = True
                    tracer.count("exparabola.root_failures")
                raise
            tracer.exit(sid)
            if after is not None:
                after(args, kwargs, out)
            return out

        return wrapper

    def _rebind(self, original, wrapper, modules):
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, attr, wrapper)
                    self._restore.append((mod, attr, original))

    def install(self, package) -> None:
        """Wrap every target found in the imported package's modules."""
        import importlib
        import sys

        prefix = package.__name__ + "."
        for mod_name in {t[0] for t in TARGETS}:
            try:
                importlib.import_module(prefix + mod_name)
            except ImportError:
                pass
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == package.__name__ or k.startswith(prefix))]
        hooks = self._hooks()
        for mod_name, attr, name in TARGETS:
            mod = sys.modules.get(prefix + mod_name)
            owner_name, _, meth = attr.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            original = getattr(owner, meth, None) if owner is not None else None
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(original, name, hooks.get(name))
            if owner_name:
                setattr(owner, meth, wrapper)
                self._restore.append((owner, meth, original))
            else:
                self._rebind(original, wrapper, modules)
        self._install_cli_runners(sys.modules.get(prefix + "cli"))
        self._install_svg_adds(sys.modules.get(prefix + "svgfig"))
        self._install_run_parallel(sys.modules.get(prefix + "verify"), modules)

    def _install_cli_runners(self, cli) -> None:
        runners = getattr(cli, "RUNNERS", None)
        if not isinstance(runners, dict):
            self.missing.append("cli.run")
            return
        for key, fn in list(runners.items()):
            runners[key] = self._wrap(fn, "cli.run")
            self._restore.append((runners, key, fn))

    def _install_svg_adds(self, svgfig) -> None:
        fig = getattr(svgfig, "SvgFigure", None)
        if fig is None:
            self.missing.append("svgfig.add")
            return
        for attr, fn in list(vars(fig).items()):
            if attr.startswith("add_") and callable(fn):
                setattr(fig, attr, self._wrap(fn, "svgfig.add"))
                self._restore.append((fig, attr, fn))

    def _install_run_parallel(self, verify, modules) -> None:
        original = getattr(verify, "run_parallel", None)
        if original is None:
            self.missing.append("verify.run_parallel")
            return
        tracer = self

        @functools.wraps(original)
        def run_parallel(fun, args_list, *args, **kwargs):
            sid = tracer.enter("verify.run_parallel")

            def case(a):
                # pool threads start with an empty stack: adopt the caller
                st = tracer._stack()
                st.append(sid)
                cid = tracer.enter("verify.case")
                try:
                    return fun(a)
                finally:
                    tracer.exit(cid)
                    st.pop()

            try:
                return original(case, args_list, *args, **kwargs)
            finally:
                tracer.exit(sid)

        self._rebind(original, run_parallel, modules)

    def restore(self) -> None:
        """Put every wrapped name back, newest first."""
        for owner, attr, original in reversed(self._restore):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._restore.clear()

    # -- counters gathered from arguments and results -----------------------

    def _hooks(self):
        import numpy as np

        def min_sizes(args, kwargs, out):
            self.count("horocycle.min_sizes_elems", float(np.size(out)))

        def coarse(args, kwargs, out):
            self._solve["coarse"] = self._solve.get("coarse", 0) + 1
            self._solve["last"] = out

        def polish(args, kwargs, out):
            self.count("maxparabola.triples_tried")
            self.count("maxparabola.triples_pinned", float(out is not None))

        def pencil(args, kwargs, out):
            self.count("maxparabola.pencil_evals")

        def solve_max(args, kwargs, out):
            conv = out.convergence
            self.count("maxparabola.agreeing", conv.agreeing_starts)
            self.count("maxparabola.starts", conv.starts)

        def solve_min(args, kwargs, out):
            self.count("minhorocycle.solves")
            self.count("minhorocycle.unique", float(bool(out.unique)))

        def main(args, kwargs, out):
            self.count("cli.exit_nonzero", float(out != 0))

        def svg_write(args, kwargs, out):
            path = args[1] if len(args) > 1 else kwargs.get("path")
            self.count("svgfig.bytes", float(os.path.getsize(path)))

        return {
            "horocycle.min_sizes": min_sizes,
            "maxparabola.coarse": coarse,
            "maxparabola.polish": polish,
            "maxparabola.pencil_world": pencil,
            "maxparabola.solve": solve_max,
            "minhorocycle.solve": solve_min,
            "cli.main": main,
            "svgfig.write": svg_write,
        }

    def begin_op(self, op: int) -> None:
        self.op = op
        self._solve = {"coarse": 0, "last": None}

    def end_op(self) -> dict:
        """Close the op: its additive totals, with the spans dropped."""
        rounds = self._solve.get("coarse", 0)
        if rounds:
            self.count("maxparabola.coarse_rounds", rounds - 1)
            last = self._solve.get("last")
            if last is not None and len(last) == 3:
                self.count("maxparabola.escaped_starts", float(last[1].sum()))
                self.count("maxparabola.drifted_starts", float(last[2].sum()))
        self._solve = {"coarse": 0, "last": None}
        with self._lock:
            totals = summarize(self.spans, self.counters)
            self.spans = []
            self.counters = defaultdict(float)
        return totals


def _union_length(intervals) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def summarize(spans, counters) -> dict:
    """Per-name calls, inclusive and self seconds, plus derived stage totals.

    Self time is a span's duration minus the union of its children's
    intervals (children in pool threads may overlap).  ``covered_s`` is
    the union of all top-level span intervals, per op, summed.
    """
    children = defaultdict(list)
    for sid, (_, lo, hi, parent, _) in enumerate(spans):
        if parent is not None and hi is not None:
            children[parent].append((lo, hi))
    calls = defaultdict(float)
    incl = defaultdict(float)
    self_s = defaultdict(float)
    by_op_top = defaultdict(list)
    totals = defaultdict(float, counters)
    for sid, (name, lo, hi, parent, op) in enumerate(spans):
        if hi is None:
            continue
        dur = hi - lo
        own = dur - _union_length(children.get(sid, ()))
        calls[name] += 1
        incl[name] += dur
        self_s[name] += own
        if parent is None:
            by_op_top[op].append((lo, hi))
            continue
        pname, plo = spans[parent][0], spans[parent][1]
        if name == "cli.run" and pname == "cli.main":
            totals["cli.load_s"] += lo - plo
        if name == "horocycle.min_sizes":
            if pname == "minhorocycle.solve":
                totals["minhorocycle.grid_elems_s"] += dur
            elif pname == "minhorocycle.golden":
                totals["minhorocycle.golden_evals"] += 1
                totals["minhorocycle.golden_min_sizes_s"] += dur
    for name in calls:
        totals[f"calls:{name}"] = calls[name]
        totals[f"incl:{name}"] = incl[name]
        totals[f"self:{name}"] = self_s[name]
    totals["covered_s"] = sum(_union_length(v) for v in by_op_top.values())
    return dict(totals)


def _ratio(num, den):
    return num / den if den else 0.0


# span names each metric is computed from; a metric whose source the
# package no longer has is reported missing instead of as zero
NEEDS = {
    "cli.load_s": ("cli.main", "cli.run"),
    "cli.run_s": ("cli.run",),
    "cli.dump_s": ("cli.dump",),
    "cli.exit_nonzero": ("cli.main",),
    "svgfig.add_s": ("svgfig.add",),
    "svgfig.write_s": ("svgfig.write",),
    "svgfig.bytes": ("svgfig.write",),
    "exparabola.calls": ("exparabola.exparabolas",),
    "exparabola.exparabolas_s": ("exparabola.exparabolas",),
    "exparabola.canonical_frame_s": ("exparabola.canonical_frame",),
    "exparabola.solve_cubic_s": ("exparabola.solve_cubic",),
    "exparabola.root_failures": ("exparabola.solve_cubic",),
    "parabola.init_s": ("parabola.init",),
    "parabola.apex_form_calls": ("parabola.apex_form",),
    "parabola.apex_form_s": ("parabola.apex_form",),
    "projective.calls": ("projective.normalize_interior", "projective.pencil_blend",
                         "projective.dualize", "projective.adjugate"),
    "projective.busy_s": ("projective.normalize_interior", "projective.pencil_blend",
                          "projective.dualize", "projective.adjugate"),
    "maxparabola.seed_s": ("maxparabola.seed",),
    "maxparabola.lp_s": ("maxparabola.lp",),
    "maxparabola.coarse_s": ("maxparabola.coarse",),
    "maxparabola.coarse_rounds": ("maxparabola.coarse",),
    "maxparabola.escaped_starts": ("maxparabola.coarse",),
    "maxparabola.drifted_starts": ("maxparabola.coarse",),
    "maxparabola.triples_tried": ("maxparabola.polish",),
    "maxparabola.triples_pinned": ("maxparabola.polish",),
    "maxparabola.pinned_ratio": ("maxparabola.polish",),
    "maxparabola.polish_s": ("maxparabola.polish",),
    "maxparabola.pencil_evals": ("maxparabola.pencil_world",),
    "maxparabola.agreeing_ratio": ("maxparabola.solve",),
    "horocycle.min_sizes_s": ("horocycle.min_sizes",),
    "horocycle.min_sizes_elems": ("horocycle.min_sizes",),
    "horocycle.cover_s": ("horocycle.cover",),
    "minhorocycle.grid_s": ("minhorocycle.solve", "horocycle.min_sizes"),
    "minhorocycle.grid_minima": ("minhorocycle.golden",),
    "minhorocycle.golden_s": ("minhorocycle.golden",),
    "minhorocycle.golden_evals": ("minhorocycle.golden", "horocycle.min_sizes"),
    "minhorocycle.verify_s": ("minhorocycle.verify",),
    "minhorocycle.unique_ratio": ("minhorocycle.solve",),
    "verify.pencil_interior_s": ("verify.pencil_interior",),
    "verify.dual_pencil_lines_s": ("verify.dual_pencil_lines",),
    "verify.size_reduction_s": ("verify.size_reduction",),
    "verify.cover_containment_s": ("verify.cover_containment",),
    "verify.cases": ("verify.run_parallel",),
    "verify.case_busy_s": ("verify.run_parallel",),
    "verify.parallel_wall_s": ("verify.run_parallel",),
    "verify.parallel_efficiency": ("verify.run_parallel",),
}


def missing_metrics(missing_spans) -> list:
    gone = set(missing_spans)
    return sorted(k for k, srcs in NEEDS.items() if gone.intersection(srcs))


def metrics(t: dict, ops: int, wall_s: float) -> dict:
    """Per-layer metrics from merged totals of ``ops`` ops taking ``wall_s``.

    Times are mean seconds per op and counts mean counts per op, except
    ratios.  Stage times are self times, apart from the verify suites,
    the min-horocycle grid and golden stages and verify_solution, which
    include the horocycle calls made from them.
    """
    def g(key):
        return t.get(key, 0.0)

    def per(value):
        return value / ops if ops else 0.0

    m = {}

    def put(name, value, unit):
        m[name] = (value, unit)

    put("cli.load_s", per(g("cli.load_s")), "s/op")
    put("cli.run_s", per(g("self:cli.run")), "s/op")
    put("cli.dump_s", per(g("self:cli.dump")), "s/op")
    put("cli.exit_nonzero", per(g("cli.exit_nonzero")), "1/op")
    put("svgfig.add_s", per(g("self:svgfig.add")), "s/op")
    put("svgfig.write_s", per(g("self:svgfig.write")), "s/op")
    put("svgfig.bytes", per(g("svgfig.bytes")), "B/op")
    put("exparabola.calls", per(g("calls:exparabola.exparabolas")), "1/op")
    put("exparabola.exparabolas_s", per(g("self:exparabola.exparabolas")), "s/op")
    put("exparabola.canonical_frame_s", per(g("self:exparabola.canonical_frame")), "s/op")
    put("exparabola.solve_cubic_s", per(g("self:exparabola.solve_cubic")), "s/op")
    put("exparabola.root_failures", per(g("exparabola.root_failures")), "1/op")
    put("parabola.init_s", per(g("self:parabola.init")), "s/op")
    put("parabola.apex_form_calls", per(g("calls:parabola.apex_form")), "1/op")
    put("parabola.apex_form_s", per(g("self:parabola.apex_form")), "s/op")
    proj = ("normalize_interior", "pencil_blend", "dualize", "adjugate")
    put("projective.calls", per(sum(g(f"calls:projective.{n}") for n in proj)), "1/op")
    put("projective.busy_s", per(sum(g(f"self:projective.{n}") for n in proj)), "s/op")
    put("maxparabola.seed_s", per(g("self:maxparabola.seed")), "s/op")
    put("maxparabola.lp_s", per(g("self:maxparabola.lp")), "s/op")
    put("maxparabola.coarse_s", per(g("self:maxparabola.coarse")), "s/op")
    put("maxparabola.coarse_rounds", per(g("maxparabola.coarse_rounds")), "1/op")
    put("maxparabola.escaped_starts", per(g("maxparabola.escaped_starts")), "1/op")
    put("maxparabola.drifted_starts", per(g("maxparabola.drifted_starts")), "1/op")
    put("maxparabola.triples_tried", per(g("maxparabola.triples_tried")), "1/op")
    put("maxparabola.triples_pinned", per(g("maxparabola.triples_pinned")), "1/op")
    put("maxparabola.pinned_ratio",
        _ratio(g("maxparabola.triples_pinned"), g("maxparabola.triples_tried")), "1")
    put("maxparabola.polish_s", per(g("self:maxparabola.polish")), "s/op")
    put("maxparabola.pencil_evals", per(g("maxparabola.pencil_evals")), "1/op")
    put("maxparabola.agreeing_ratio",
        _ratio(g("maxparabola.agreeing"), g("maxparabola.starts")), "1")
    put("horocycle.min_sizes_s", per(g("self:horocycle.min_sizes")), "s/op")
    put("horocycle.min_sizes_elems", per(g("horocycle.min_sizes_elems")), "1/op")
    put("horocycle.cover_s", per(g("self:horocycle.cover")), "s/op")
    put("minhorocycle.grid_s",
        per(g("self:minhorocycle.solve") + g("minhorocycle.grid_elems_s")), "s/op")
    put("minhorocycle.grid_minima", per(g("calls:minhorocycle.golden")), "1/op")
    put("minhorocycle.golden_s",
        per(g("self:minhorocycle.golden") + g("minhorocycle.golden_min_sizes_s")), "s/op")
    put("minhorocycle.golden_evals", per(g("minhorocycle.golden_evals")), "1/op")
    put("minhorocycle.verify_s", per(g("incl:minhorocycle.verify")), "s/op")
    put("minhorocycle.unique_ratio",
        _ratio(g("minhorocycle.unique"), g("minhorocycle.solves")), "1")
    put("verify.pencil_interior_s", per(g("incl:verify.pencil_interior")), "s/op")
    put("verify.dual_pencil_lines_s", per(g("incl:verify.dual_pencil_lines")), "s/op")
    put("verify.size_reduction_s", per(g("incl:verify.size_reduction")), "s/op")
    put("verify.cover_containment_s", per(g("incl:verify.cover_containment")), "s/op")
    put("verify.cases", per(g("calls:verify.case")), "1/op")
    put("verify.case_busy_s", per(g("incl:verify.case")), "s/op")
    put("verify.parallel_wall_s", per(g("incl:verify.run_parallel")), "s/op")
    put("verify.parallel_efficiency",
        _ratio(g("incl:verify.case"), g("incl:verify.run_parallel")), "1")
    for layer in LAYERS:
        own = sum(v for k, v in t.items() if k.startswith(f"self:{layer}."))
        put(f"self.{layer}_s", per(own), "s/op")
    put("trace.uncovered_s", per(wall_s - g("covered_s")), "s/op")
    put("trace.spans", per(sum(v for k, v in t.items() if k.startswith("calls:"))), "1/op")
    return m
