#!/usr/bin/env python3
"""Benchmark of conic_extrema, run against the working tree's src/.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see README.md): cli-cold, sampled-checks, regions, point-sets.
One client runs one op at a time (a closed loop).  The op list of a
workload is one "pass", generated from the seed; the run repeats whole
passes until ``--seconds`` have passed, so the mix of work does not
depend on how fast the program is.
Every op's output is checked outside the timed region.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs half
the time untraced and half with every layer wrapped by tracer.py, and
prints the per-layer metrics.  The last stdout line is the result JSON;
the line before it holds the details (environment, input digest, sample
counts, failures with their inputs).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from importlib import metadata
from pathlib import Path

import ops
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120
MAX_REPORTED_FAILURES = 20

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "pass_ratio": "1",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing sources, a probe that died)."""


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile, q in [0, 100]."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("CONIC_EXTREMA_THREADS", None)
    return env


def import_breakdown(stderr_text: str) -> dict:
    """Cumulative seconds of numpy and scipy.optimize from ``-X importtime``."""
    out = {"numpy": 0.0, "scipy.optimize": 0.0}
    for line in stderr_text.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) == 3 and parts[2].strip() in out:
            try:
                out[parts[2].strip()] = int(parts[1]) / 1e6
            except ValueError:
                pass
    return out


def check_loaded_from_src(path: str) -> str:
    resolved = Path(path).resolve()
    if SRC.resolve() not in resolved.parents:
        raise BenchError(f"conic_extrema loaded from {resolved}, not from {SRC}")
    return str(resolved)


def environment(ce_path: str, threads_env) -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "commit": git_commit(),
        "conic_extrema": ce_path,
        "CONIC_EXTREMA_THREADS": threads_env,
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            loose = ROOT / ".git" / name
            if loose.is_file():
                return loose.read_text().strip()
            packed = (ROOT / ".git" / "packed-refs").read_text().splitlines()
            return next((ln.split()[0] for ln in packed if ln.endswith(" " + name)), None)
        return ref
    except OSError:
        return None


# -- set-up ------------------------------------------------------------------------


def measure_setup(workload: str, workdir: Path, trace: bool):
    """Fresh-interpreter set-up times, and import breakdowns when tracing.

    Each probe is timed from process start to the line it prints once the
    package is imported and one warm-up op of each kind has run.
    """
    samples, imports = [], []
    err_path = workdir / "setup.err"
    for _ in range(SETUP_PROBES):
        cmd = [sys.executable] + (["-X", "importtime"] if trace else [])
        cmd += [str(HERE / "child.py"), "setup", workload]
        with open(err_path, "w+", encoding="utf-8") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err,
                                    env=child_env(), cwd=ROOT, text=True)
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.close()
            try:
                proc.wait(timeout=PROBE_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            err.seek(0)
            err_text = err.read()
        if proc.returncode != 0 or not line:
            raise BenchError(f"set-up probe failed ({proc.returncode}): {err_text[-2000:]}")
        info = json.loads(line)
        path = check_loaded_from_src(info["path"])
        samples.append(t1 - t0)
        if trace:
            b = import_breakdown(err_text)
            imports.append({"total": info["import_s"], **b})
    return samples, imports, path


# -- op runners --------------------------------------------------------------------


class InProcess:
    """Runs ops in this process against the imported package."""

    def __init__(self, wl, ops_list):
        import conic_extrema
        import conic_extrema.verify  # noqa: F401  (run_suite lives there)

        self.ce = conic_extrema
        self.wl = wl
        self.refs = wl.references(ops_list)
        for spec in wl.warmup(workloads.rng_for(wl.name, 0)):
            wl.run(self.ce, spec)

    def op(self, index: int, spec: dict, tracer, tally):
        if tracer is not None:
            tracer.begin_op(index)
        t0 = time.perf_counter()
        outcome = self.wl.run(self.ce, spec)
        dt = time.perf_counter() - t0
        totals = tracer.end_op() if tracer is not None else None
        return dt, self.wl.check(spec, outcome, tally, self.refs.get(index)), totals, None

    def peak_rss_mb(self, child_rss):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Cli:
    """Runs each op as a fresh ``python -m conic_extrema.cli`` process."""

    def __init__(self, wl, workdir: Path, ops_list):
        self.wl = wl
        self.workdir = workdir
        for spec in ops_list:
            path = workdir / f"in{spec['key']}.json"
            path.write_text(json.dumps(spec["input"]), encoding="utf-8")

    def op(self, index: int, spec: dict, tracer, tally):
        key = spec["key"]
        out = self.workdir / f"out{key}.json"
        svg = self.workdir / f"fig{key}.svg"
        for f in (out, svg):
            f.unlink(missing_ok=True)
        argv = [spec["command"], "--input", str(self.workdir / f"in{key}.json"),
                "--output", str(out)] + (["--svg", str(svg)] if spec["svg"] else [])
        if tracer is not None:
            cmd = [sys.executable, "-X", "importtime", str(HERE / "child.py"), "cli", *argv]
        else:
            cmd = [sys.executable, "-m", "conic_extrema.cli", *argv]
        with open(self.workdir / "cli.err", "w+", encoding="utf-8") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err,
                                    env=child_env(), cwd=ROOT)
            stdout = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            dt = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            proc.stdout.close()
            err.seek(0)
            err_text = err.read()
        totals = None
        if tracer is not None:
            totals = tracer.child_totals(stdout, err_text)
        outcome = ("ok", (proc.returncode, err_text, _read(out), _read(svg)))
        return dt, self.wl.check(spec, outcome, tally), totals, usage.ru_maxrss

    def peak_rss_mb(self, child_rss):
        return max(child_rss) / 1024.0


def _read(path: Path) -> bytes:
    return path.read_bytes() if path.is_file() else b""


class CliTraceTotals:
    """Collects what each traced CLI child (``child.py cli``) prints."""

    def __init__(self):
        self.missing = set()
        self.imports = []

    def child_totals(self, stdout: bytes, err_text: str):
        lines = stdout.decode("utf-8", "replace").strip().splitlines()
        if not lines:
            raise BenchError(f"traced CLI child printed nothing: {err_text[-2000:]}")
        info = json.loads(lines[-1])
        self.missing.update(info["missing"])
        self.imports.append({"total": info["import_s"], **import_breakdown(err_text)})
        return info["totals"]


# -- the closed loop ----------------------------------------------------------------


def measure(runner, wl, ops_list, seconds: float, tracer=None) -> dict:
    """Repeat whole passes for ``seconds`` (and at least ``wl.min_passes``);
    time, check and tally every op.

    An op's fail share is 0 or 1, or for a batch the failing fraction of
    its items; ``failed`` counts ops with any failure.
    """
    lat, failures, child_rss = [], [], []
    by_kind = {}
    totals = {}
    tally = Counter()
    failed = 0
    fail_shares = 0.0
    passes = 0
    t_start = time.perf_counter()
    while passes < wl.min_passes or time.perf_counter() - t_start < seconds:
        for index, spec in enumerate(ops_list):
            dt, (share, problem), op_totals, rss = runner.op(index, spec, tracer, tally)
            lat.append(dt)
            by_kind.setdefault(wl.label(spec), []).append(dt)
            if rss is not None:
                child_rss.append(rss)
            if op_totals:
                for k, v in op_totals.items():
                    totals[k] = totals.get(k, 0.0) + v
            if problem:
                failed += 1
                fail_shares += share
                if len(failures) < MAX_REPORTED_FAILURES:
                    failures.append({"pass": passes, "op": index, "problem": problem,
                                     "input": wl.describe(spec)})
        passes += 1
    busy = sum(lat)
    return {
        "ops": len(lat),
        "passes": passes,
        "busy_s": busy,
        "ops_per_s": len(lat) / busy,
        "p50_ms": 1e3 * percentile(lat, 50),
        "p90_ms": 1e3 * percentile(lat, 90),
        "failed": failed,
        "fail_shares": fail_shares,
        "tally": tally,
        "failures": failures,
        "median_ms_by_kind": {k: 1e3 * statistics.median(v) for k, v in sorted(by_kind.items())},
        "totals": totals,
        "peak_rss_mb": runner.peak_rss_mb(child_rss),
    }


def run(args) -> tuple[dict, dict]:
    if not (SRC / "conic_extrema" / "__init__.py").is_file():
        raise BenchError(f"no package sources at {SRC / 'conic_extrema'}")
    threads_env = os.environ.pop("CONIC_EXTREMA_THREADS", None)
    sys.path.insert(0, str(SRC))
    import tracer as tr

    wl = ops.WORKLOADS[args.workload]
    ops_list = wl.make_pass(workloads.rng_for(wl.name, args.seed), args.tiny)
    workdir = ROOT / ".bench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup, imports, ce_path = measure_setup(args.workload, workdir, bool(args.trace))
        runner = InProcess(wl, ops_list) if wl.in_process else Cli(wl, workdir, ops_list)
        details = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "tiny": args.tiny,
            "inputs_digest": workloads.digest(ops_list), "ops_per_pass": len(ops_list),
            "setup_samples_s": setup,
            "environment": environment(ce_path, threads_env),
            "loop": "closed, 1 client, 1 op at a time",
        }
        if not args.trace:
            res = measure(runner, wl, ops_list, args.seconds)
            metrics = {
                "setup_s": statistics.median(setup),
                "ops_per_s": res["ops_per_s"],
                "op_p50_ms": res["p50_ms"],
                "op_p90_ms": res["p90_ms"],
                "pass_ratio": 1.0 - res["fail_shares"] / res["ops"],
                "peak_rss_mb": res["peak_rss_mb"],
            }
            metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
            runs = [res]
        else:
            plain = measure(runner, wl, ops_list, args.seconds / 2)
            if wl.in_process:
                tracer = tr.Tracer()
                tracer.install(runner.ce)
            else:
                tracer = CliTraceTotals()
            try:
                traced = measure(runner, wl, ops_list, args.seconds / 2, tracer)
            finally:
                if wl.in_process:
                    tracer.restore()
            if not wl.in_process:
                imports = tracer.imports
            metrics = per_layer(plain, traced, imports, tracer.missing)
            details["missing_metrics"] = [k for k, v in metrics.items() if v is None]
            metrics = {k: {"value": v[0], "unit": v[1]} for k, v in metrics.items() if v}
            runs = [plain, traced]
        if wl.in_process:
            known = wl.known_failures(runner.ce, workloads.rng_for(wl.name, args.seed, 1))
            if known:
                details["known_failures"] = known
        attempted = sum(r["ops"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        details.update({
            "passes": [r["passes"] for r in runs],
            "samples": [r["ops"] for r in runs],
            "fail_ratio": sum(r["fail_shares"] for r in runs) / attempted,
            "ops_failed": failed,
            "checked": dict(sum((r["tally"] for r in runs), Counter())),
            "median_ms_by_kind": runs[0]["median_ms_by_kind"],
            "failures": [f for r in runs for f in r["failures"]],
        })
        result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
                  "metrics": metrics}
        return details, result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass


def per_layer(plain: dict, traced: dict, imports, missing) -> dict:
    import tracer as tr

    m = tr.metrics(traced["totals"], traced["ops"], traced["busy_s"])
    for name in tr.missing_metrics(missing):
        m[name] = None
    for name, key in (("total_s", "total"), ("scipy_optimize_s", "scipy.optimize"),
                      ("numpy_s", "numpy")):
        m[f"import.{name}"] = (statistics.fmean(i[key] for i in imports), "s")
    m["trace.ops_per_s"] = (traced["ops_per_s"], "ops/s")
    m["trace.overhead"] = (1.0 - traced["ops_per_s"] / plain["ops_per_s"], "1")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=tuple(ops.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest inputs, for the smoke test")
    args = parser.parse_args(argv)
    try:
        details, result = run(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
