"""pefem benchmark: one workload for a fixed time, median pass, checked results.

    python3 perfbench/run.py --workload disk-neumann-k4 --seed 1 --seconds 30 --trace 0

Run from the root of a pefem checkout; pefem is imported from its `src`.
With ``--trace 0`` the run repeats the workload's pass until ``--seconds``
have gone by, with a fixed calibration before and after each pass (see
`calibration.py`), and prints the end-to-end metrics: the median pass
time normalised by its calibrations, the median of several set-ups, each
in a fresh process, and the peak resident set size.  With ``--trace 1``
it alternates untraced and traced passes and prints the per-layer metrics
of the median traced pass, plus the tracing overhead; the spans are
written to ``perfbench/out/``.  The last line of standard output is one
JSON object.
"""

import os

# One BLAS thread: set before NumPy loads OpenBLAS.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import ctypes.util
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_RUNS = 3
WORKLOAD_NAMES = ("disk-neumann-k4", "ellipse-newton-strong-k2", "patch-sweep")

END_TO_END_UNITS = {"pass_norm_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MALLOC_THRESHOLD = 128 * 1024


def fix_malloc_thresholds():
    """Keep glibc's mmap and trim thresholds at their 128 KiB defaults.

    glibc raises the mmap threshold each time a large block is freed, so
    whether a later large array is mmapped (and returned on free) or kept
    in the heap depends on the order of frees; the peak RSS of the same
    passes then jumps by up to 30 MB from run to run.  Setting the
    thresholds switches that adjustment off.  Elsewhere than glibc this
    does nothing.
    """
    path = ctypes.util.find_library("c")
    libc = ctypes.CDLL(path) if path else None
    mallopt = getattr(libc, "mallopt", None)
    if mallopt is not None:
        mallopt(M_MMAP_THRESHOLD, MALLOC_THRESHOLD)
        mallopt(M_TRIM_THRESHOLD, MALLOC_THRESHOLD)


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_pct"):
        return "%"
    if name == "analysis.residual":
        return "1"
    return "count"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def import_benchmark():
    """Import pefem from this checkout's `src`, never from elsewhere."""
    if not (SRC / "pefem" / "__init__.py").is_file():
        raise SystemExit(f"error: no pefem sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import pefem

    if Path(pefem.__file__).resolve().parent != SRC / "pefem":
        raise SystemExit(f"error: imported pefem from {pefem.__file__}, not {SRC}")
    import calibration
    import tracing
    import workloads

    return calibration, tracing, workloads


def set_up(workloads, args):
    workload = workloads.WORKLOADS[args.workload](args.seed)
    workload.warm_up()
    return workload


def time_set_up(args):
    """Seconds from starting a fresh interpreter to a warmed-up workload."""
    cmd = [
        sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only",
    ]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    finally:
        proc.stdout.close()
        code = proc.wait(timeout=120)
    if line.strip() != "ready" or code != 0:
        raise SystemExit(f"error: set-up run failed (exit {code}, said {line!r})")
    return elapsed


def run_passes(workload, calibration, tracing, args):
    """Repeat the pass until the time is up.

    Untraced runs time the calibration before and after each pass; the
    sums go to `calibrations`.  Traced runs trace every odd pass.  Pass 0
    stays untraced and out of the overhead figure, since the first pass of
    a process runs slower than the rest; at least one traced and one later
    untraced pass are made.
    """
    passes, traced, calibrations = [], [], []
    reference = None if args.trace else calibration.Calibration()
    deadline = time.perf_counter() + args.seconds
    min_passes = 3 if args.trace else 1
    while len(passes) < min_passes or time.perf_counter() < deadline:
        recorder = tracing.SpanRecorder() if args.trace and len(passes) % 2 == 1 else None
        before = reference.run() if reference is not None else 0.0
        with tracing.Instrumentation(recorder) as inst:
            result = workload.run_pass(inst)
        kind = "untraced" if recorder is None else "traced"
        note = ""
        if reference is not None:
            calibrations.append(before + reference.run())
            note = f" (calibration {calibrations[-1]:.4f} s)"
        print(
            f"pass {len(passes)} ({kind}): {result.seconds:.4f} s{note}, "
            f"{result.attempted} ops, {len(result.failed)} failed",
            flush=True,
        )
        for message in result.messages:
            print(f"  check: {message}", flush=True)
        passes.append((result, recorder))
        if recorder is not None:
            traced.append((result, recorder, tracing.layer_metrics(recorder, inst)))
    return passes, traced, calibrations


def trace_report(args, tracing, passes, traced):
    """Median per-layer metrics over traced passes; spans to a file."""
    untraced_s = [r.seconds for r, rec in passes[1:] if rec is None]
    traced_s = [r.seconds for r, _rec, _m in traced]
    metrics = {
        name: statistics.median(m[name] for _r, _rec, m in traced) for name in traced[0][2]
    }
    metrics["trace.overhead_pct"] = 100.0 * (
        statistics.median(traced_s) / statistics.median(untraced_s) - 1.0
    )
    _result, recorder, _m = traced[len(traced) // 2]
    print(f"spans of traced pass: {len(recorder)}")
    print(f"{'span':58s} {'calls':>7s} {'incl s':>9s} {'self s':>9s}")
    for name, calls, inc, own in tracing.span_table(recorder):
        print(f"{name:58s} {calls:7d} {inc:9.4f} {own:9.4f}")
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "workload": args.workload,
                "seed": args.seed,
                "untraced_pass_s": untraced_s,
                "traced_pass_s": traced_s,
                "metrics": metrics,
                "spans": [rec.rows() for _r, rec, _m in traced],
            },
            fh,
        )
    print(f"wrote {path.relative_to(ROOT)}")
    return {name: {"value": v, "unit": layer_unit(name)} for name, v in metrics.items()}


def main(argv=None):
    args = parse_args(argv)
    fix_malloc_thresholds()
    calibration, tracing, workloads = import_benchmark()
    if args.setup_only:
        set_up(workloads, args)
        print("ready", flush=True)
        return 0

    setups = [] if args.trace else [time_set_up(args) for _ in range(SETUP_RUNS)]
    workload = set_up(workloads, args)
    passes, traced, calibrations = run_passes(workload, calibration, tracing, args)

    attempted = sum(r.attempted for r, _rec in passes)
    failed = sum(len(r.failed) for r, _rec in passes)
    if args.trace:
        metrics = trace_report(args, tracing, passes, traced)
    else:
        seconds = [r.seconds for r, _rec in passes]
        values = {
            "pass_norm_s": statistics.median(
                calibration.normalised(s, c) for s, c in zip(seconds, calibrations)
            ),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        print("set-up runs:", " ".join(f"{s:.4f}" for s in setups))
        print(
            f"median pass {statistics.median(seconds):.4f} s, median calibration "
            f"{statistics.median(calibrations):.4f} s (nominal {calibration.NOMINAL_S} s)"
        )
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    summary = {
        "correct": not any(r.wrong for r, _rec in passes),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
