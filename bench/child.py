"""Fresh-process probes, started by run.py with src/ on PYTHONPATH.

    python3 bench/child.py setup <workload>
        Import the package (``conic_extrema.cli`` for cli-cold), run one
        untimed warm-up op of each kind, then print one JSON line.  The
        parent times the process from its start to that line.
    python3 bench/child.py cli <cli argv...>
        Time ``import conic_extrema.cli``, wrap the package with the
        tracer, run ``conic_extrema.cli.main(argv)`` and print the exit
        code and span totals as one JSON line.
    python3 bench/child.py refs
        Read {op index: points} as JSON from stdin and print the
        dense-grid reference size of each point set, so that their
        arrays stay out of the memory of the process that runs the ops.

Both modes import the package before anything else, so the import time
includes numpy and scipy exactly as the package pulls them in.  Run
them under ``python3 -X importtime`` to get the import breakdown.
"""

import json
import sys
import time


def setup(workload: str) -> None:
    t0 = time.perf_counter()
    if workload == "cli-cold":
        import conic_extrema.cli as ce
    else:
        import conic_extrema as ce
        import conic_extrema.verify  # noqa: F401  (run_suite lives there)
    t1 = time.perf_counter()
    import ops
    import workloads

    wl = ops.WORKLOADS[workload]
    for spec in wl.warmup(workloads.rng_for(workload, 0)):
        wl.run(sys.modules["conic_extrema"], spec)
    print(json.dumps({"import_s": t1 - t0, "path": ce.__file__}), flush=True)


def cli(argv) -> None:
    import tracer as tr

    t0 = time.perf_counter()
    import conic_extrema.cli
    t1 = time.perf_counter()
    tracer = tr.Tracer()
    tracer.record("import", t0, t1)
    tracer.install(sys.modules["conic_extrema"])
    try:
        code = conic_extrema.cli.main(argv)
    finally:
        tracer.restore()
    totals = tracer.end_op()
    print(json.dumps({"code": code, "import_s": t1 - t0, "missing": tracer.missing,
                      "totals": totals}), flush=True)


def refs() -> None:
    import numpy as np

    import ops

    wanted = json.load(sys.stdin)
    print(json.dumps({k: ops.dense_reference(np.array(v, float)) for k, v in wanted.items()}))


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        setup(sys.argv[2])
    elif sys.argv[1] == "cli":
        cli(sys.argv[2:])
    elif sys.argv[1] == "refs":
        refs()
    else:
        sys.exit(f"unknown mode {sys.argv[1]!r}")
