#!/usr/bin/env python3
"""Layered benchmark of the fstack two-stage channelizer.

Run from the repository root:

    python3 perfbench/run.py                  # every workload, one process each, in turn
    python3 perfbench/run.py --workload ref_iir --seed 1234 --seconds 20 --trace 0

One run of a workload sets up (plan, prototype designs, stimulus), runs one
warm-up op, then runs ops back to back for ``--seconds`` (at least two
timed ops) and checks every op's output.  With ``--trace 0`` it prints the
end-to-end metrics; with ``--trace 1`` it wraps fstack's entry points,
alternates untraced and traced ops, and prints the per-layer metrics.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the full record (environment, seed, op times, check results,
absent layers).  Both, and the spans of a traced run, are also written to
``.bench_out/`` in the repository root.

Exit codes: 0 every op passed its check, 1 a set-up or op failed, 2 the
checkout holds no fstack sources.
"""

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

import api
import workloads

OUT_DIR = api.ROOT / ".bench_out"
# BLAS/OpenMP pools the workload processes are pinned to one thread: the
# program is single-threaded, and the IIR fit's lstsq/solve and fftcore's
# butterfly matmul would otherwise spread over the cores and add noise
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
DEFAULT_SEED = 1234  # the CLI's default seed, also used by the acceptance fixtures
DEFAULT_SECONDS = 20
MIN_OPS = 2  # timed ops per run (per side in a traced run), however long an op takes
DEADLINE_S = 150.0  # no op starts after this much run time, so a run ends inside 180 s

END_TO_END = (
    ("setup_s", "s"),
    ("samples_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
    ("quality_db", "dB"),
    ("op_success_rate", "ratio"),
)


def pin_threads():
    for var in THREAD_VARS:
        os.environ[var] = "1"


def environment():
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def run_op(workload, tracer, op_id):
    """One op and its check; returns the op record (seconds is None if it raised)."""
    tracer.op = op_id
    start = time.perf_counter()
    try:
        result = workload.op()
    except Exception:  # an op that raises fails; the run goes on
        tracer.op = None
        return {"op": op_id, "seconds": None, "quality_db": None,
                "errors": ["op raised: " + traceback.format_exc()]}
    seconds = time.perf_counter() - start
    tracer.op = None
    try:
        errors, quality = workload.check(result)
    except Exception:  # a check that raises fails the op
        errors, quality = ["check raised: " + traceback.format_exc()], None
    errors += tracer.counter_errors.pop(op_id, [])
    return {"op": op_id, "seconds": seconds, "quality_db": quality, "errors": errors}


def run_ops(workload, tracer, seconds, traced, started):
    """Warm-up op, then ops back to back; a traced run alternates untraced/traced."""
    ops = [run_op(workload, tracer, None)]
    ops[0]["warm_up"] = True
    start = time.perf_counter()
    while True:
        timed = ops[1:]
        untraced = sum(1 for op in timed if op["op"] is None)
        done = len(timed) - untraced if traced else untraced
        if untraced >= MIN_OPS and (not traced or done >= MIN_OPS) \
                and time.perf_counter() - start >= seconds:
            break
        if time.perf_counter() - started > DEADLINE_S and timed:
            break
        op_id = len(ops) if traced and len(ops) % 2 == 0 else None
        ops.append(run_op(workload, tracer, op_id))
    return ops


def median_or_zero(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else 0.0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS),
                        help="run one workload in this process (default: all, one process each)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    pin_threads()
    try:
        api.load()
    except api.MissingSource as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


def run_all(args):
    """Every workload in its own process, one after another."""
    status, results = 0, {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(line for line in lines if not line.startswith("{")), flush=True)
        status = status or proc.returncode
        if lines and lines[-1].startswith("{"):
            results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return status


def run_workload(args):
    started = time.perf_counter()
    import tracing  # imports numpy, so only after the thread pools are pinned

    tracer = tracing.Tracer()
    if args.trace:
        tracer.install()
    workload = workloads.WORKLOADS[args.workload](args.seed, tracer)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment()}

    setup_times = []
    try:
        for _ in range(1 if args.trace else workload.setup_repeats):
            tracer.op = tracing.SETUP if args.trace else None
            start = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - start)
            tracer.op = None
    except Exception:  # a set-up that raises fails every op of the run
        tracer.op = None
        record["setup_error"] = traceback.format_exc()
        print(record["setup_error"], file=sys.stderr)
        ops = [{"op": None, "seconds": None, "quality_db": None,
                "errors": ["set-up raised"]}]
    else:
        ops = run_ops(workload, tracer, args.seconds, args.trace, started)

    timed = [op for op in ops[1:] if op["seconds"] is not None]
    untraced_s = median_or_zero(op["seconds"] for op in timed if op["op"] is None)
    failed = sum(1 for op in ops if op["errors"])
    record.update(setup_times_s=setup_times, ops=ops, attempted=len(ops), failed=failed)

    if args.trace:
        traced_s = median_or_zero(op["seconds"] for op in timed if op["op"] is not None)
        overhead = 100.0 * (traced_s - untraced_s) / untraced_s if untraced_s else 0.0
        traced_ops = [op["op"] for op in timed if op["op"] is not None]
        if setup_times:
            metrics, absent = tracer.layer_metrics(workload.layer_info(), traced_ops, overhead)
        else:
            metrics = {name: {"value": 0.0, "unit": unit}
                       for name, unit, *_ in tracing.LAYER_METRICS}
            absent = {name: "set-up failed" for name in metrics}
        record["absent"] = absent
        record["spans"] = [span.to_json() for span in tracer.spans]
    else:
        values = {
            "setup_s": median_or_zero(setup_times),
            "samples_per_s": workload.samples_per_op / untraced_s if untraced_s else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "quality_db": median_or_zero(op["quality_db"] for op in timed
                                         if op["quality_db"] is not None
                                         and math.isfinite(op["quality_db"])),
            "op_success_rate": 1.0 - failed / len(ops),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    record["metrics"] = metrics
    result = {"correct": failed == 0, "attempted": len(ops), "failed": failed,
              "metrics": {name: metric for name, metric in metrics.items()
                          if args.trace == 0 or name not in tracing.RECORD_ONLY}}

    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1), encoding="utf-8")

    print(f"{args.workload}: seed {args.seed}, {len(timed)} timed ops after 1 warm-up, "
          f"{failed} of {len(ops)} failed, median op {untraced_s:.4f} s untraced")
    for op in ops:
        for error in op["errors"]:
            print(f"  op {op['op']}: {error}")
    for name, metric in metrics.items():
        note = f"  (absent: {record['absent'][name]})" if name in record.get("absent", {}) else ""
        print(f"  {name:34s} {metric['value']:.6g} {metric['unit']}{note}")
    print(json.dumps({k: v for k, v in record.items() if k != "spans"}))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
