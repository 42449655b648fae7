#!/usr/bin/env python3
"""combsqec benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload hexagon-flow --seed 1 --seconds 20 --trace 0

The program is imported from ``src/`` of the working directory.  One
process runs one workload, pinned to one CPU with one BLAS thread: set-up
(repeated, median reported), then whole passes of the workload's
operations, one at a time, until ``--seconds`` have elapsed (at least one
pass).  Every operation's output is checked.  Times are CPU time scaled to
a reference host speed (``clock.py``).  With ``--trace 1`` the passes run
under the span tracer of ``tracing.py`` and the per-layer metrics are
reported instead of the end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller result,
with the run header, is written under ``.perfbench/`` in the working
directory.  See ``perfbench/README.md`` for the metric definitions.
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
import tempfile
import time

SETUP_REPS = 3
OUT_DIR = ".perfbench"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread: latencies are CPU time, which then equals wall time on an
# idle host; idle BLAS threads would spin and add CPU time.
BLAS_THREADS = 1
# CPU seconds of importing the CLI and its layers in a fresh interpreter
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.process_time(); "
    "import combsqec.cli; print(time.process_time() - t)"
)


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _pin_blas_threads() -> int:
    """Set BLAS threads to ``BLAS_THREADS``; returns the usable CPU count."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    return nproc


def _header(args, nproc: int, cpu: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # older numpy: no dict mode; the name is informational only
        blas_name = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc,
        "pinned_cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "machine": platform.machine(),
    }


def _import_times(src: str) -> list[tuple[float, float, float]]:
    """Import CPU time of ``combsqec.cli``, once per fresh interpreter (on
    the pinned CPU, which the child inherits), with its wall interval."""
    times = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, src], capture_output=True,
                              text=True, timeout=120, check=True)
        times.append((start, time.perf_counter(), float(proc.stdout.split()[-1])))
    return times


def _setup(workload, root: str, sc) -> list[tuple[float, float, float]]:
    times = []
    for rep in range(SETUP_REPS):
        workdir = tempfile.mkdtemp(prefix=f"setup{rep}-", dir=root)
        start, cpu = time.perf_counter(), sc.cpu()
        workload.setup(workdir)
        times.append((start, time.perf_counter(), sc.cpu() - cpu))
    return times


def _quantile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated between samples."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _per_op(passes, field: str) -> list[float]:
    """Each operation's median over the passes; every pass runs the same
    operations, so a burst of host noise moves one sample of an operation
    instead of a whole pass."""
    return [statistics.median(getattr(r, field) for r in recs) for recs in zip(*passes)]


def _end_to_end(setup_s, wall, passes, workload) -> tuple[dict, dict]:
    """End-to-end metrics from per-operation medians of scaled CPU time."""
    records = [r for recs in passes for r in recs]
    per_op_ms = [1000.0 * dt for dt in _per_op(passes, "seconds")]
    wall_ms = [1000.0 * dt for dt in _per_op(passes, "wall")]
    failed = sum(1 for r in records if r.problems)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (1000.0 * len(per_op_ms) / sum(per_op_ms), "1/s"),
        "op_p50_ms": (statistics.median(per_op_ms), "ms"),
        "op_p90_ms": (_quantile(per_op_ms, 90), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    details = dict(workload.details(records))
    details["wall_s"] = (wall, "s")
    details["wall_op_p50_ms"] = (statistics.median(wall_ms), "ms")
    details["wall_op_p90_ms"] = (_quantile(wall_ms, 90), "ms")
    details["fail_ratio"] = (failed / len(records), "ratio")
    details["ops_per_pass"] = (len(per_op_ms), "count")
    details["passes"] = (len(passes), "count")
    return metrics, details


def _traced(workload, args, scratch: str):
    """One untraced pass as the overhead baseline, then a traced set-up,
    traced passes for ``--seconds`` and the workload's probes.

    Returns the tracer, the untraced pass, the traced passes and the probe
    records."""
    import tracing
    import workloads

    _, (base,) = workloads.run_passes(workload, 0)
    tracer = tracing.Tracer()
    tracer.install(workloads)
    workload.tracer = tracer
    try:
        tracer.op = "setup"
        with tracer.span("op.setup"):
            workload.setup(tempfile.mkdtemp(prefix="setup-traced-", dir=scratch))
        _, passes = workloads.run_passes(workload, args.seconds)
        probe_records = []
        for op in workload.probes(tracer):
            tracer.op = f"probe.{op.kind}"
            probe_records.append(workloads.run_op(workload, op))
    finally:
        workload.tracer = None
        tracer.uninstall()
    return tracer, base, passes, probe_records


def main(argv=None) -> int:
    args = _parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "combsqec", "__init__.py")):
        print(f"error: no src/combsqec under {root}; run from the repository root",
              file=sys.stderr)
        return 2
    nproc = _pin_blas_threads()

    sys.path.insert(0, src)
    import clock
    import combsqec
    import workloads
    if not os.path.abspath(combsqec.__file__).startswith(src + os.sep):
        print(f"error: combsqec imported from {combsqec.__file__}, not {src}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    cpu = clock.pin_one_cpu()
    header = _header(args, nproc, cpu)
    out_dir = os.path.join(root, OUT_DIR)
    os.makedirs(out_dir, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=out_dir)
    workload = workloads.WORKLOADS[args.workload](args.seed)
    try:
        with clock.SpeedClock() as sc:
            workload.cpu = sc.cpu
            import_times = _import_times(src)
            setup_times = _setup(workload, scratch, sc)
            if args.trace:
                tracer, base, passes, probe_records = _traced(workload, args, scratch)
            else:
                wall, passes = workloads.run_passes(workload, args.seconds)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    def scaled(recs):
        return [r._replace(seconds=sc.scaled(r.start, r.start + r.wall, r.cpu)) for r in recs]

    passes = [scaled(recs) for recs in passes]
    setup_s = (statistics.median(sc.scaled(*t) for t in import_times)
               + statistics.median(sc.scaled(*t) for t in setup_times))
    if args.trace:
        import tracing

        tracer.dump(os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl"))
        base = scaled(base)
        metrics, details = tracing.per_layer(
            tracer, sum(r.seconds for r in base), [sum(r.seconds for r in p) for p in passes])
        records = base + [r for recs in passes for r in recs] + scaled(probe_records)
    else:
        metrics, details = _end_to_end(setup_s, wall, passes, workload)
        records = [r for recs in passes for r in recs]
    details["host_speed_median"] = (statistics.median(sc.speeds), "ratio")
    details["host_speed_samples"] = (len(sc.speeds), "count")

    problems = [f"{r.kind}: {p}" for r in records for p in r.problems]
    failed = sum(1 for r in records if r.problems)
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    full = dict(result, header=header,
                details={k: {"value": v, "unit": u} for k, (v, u) in details.items()},
                problems=problems[:50], setup_s=setup_s,
                import_reps=import_times, setup_reps=setup_times,
                op_kinds=[r.kind for r in passes[0]],
                op_seconds=[[r.seconds for r in recs] for recs in passes],
                op_cpu=[[r.cpu for r in recs] for recs in passes],
                op_wall=[[r.wall for r in recs] for recs in passes])
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
        json.dump(full, fh, indent=1, sort_keys=True)
    for p in problems[:10]:
        print(f"FAILED {p}", file=sys.stderr)
    print("header " + json.dumps(header, sort_keys=True))
    for k, (v, u) in details.items():
        print(f"detail {k} = {v:.6g} {u}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
