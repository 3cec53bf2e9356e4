"""rayloc benchmark: one workload, one run, one JSON result line.

Usage (from the repository root):

    python3 perfbench/run.py --workload twin-warm --seed 1 --seconds 15 --trace 0

Workloads: twin-warm, corridor-cold, embedder-train (see perfbench/README.md).
With ``--trace 0`` the result holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a traced run. The line before
the result records the run's inputs fingerprint, accuracy guards, sample
counts and environment. The exit code is 0 only when every output check
passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile

from tracing import ALL as WORKLOAD_NAMES

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
NPROC = len(os.sched_getaffinity(0))
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


def _pin_environment() -> dict:
    """Fix what the host would otherwise vary from run to run; must run
    before NumPy loads, and child processes inherit it.

    Every BLAS/OpenMP pool gets one thread, as the workloads are
    single-threaded. NumPy's huge-page hint is off: whether the kernel can
    grant transparent huge pages to the 55 MB query temporaries depends on
    memory fragmentation and moves ``GridScorer.score`` by about 30 %."""
    pinned = {var: "1" for var in BLAS_THREAD_VARS}
    pinned["NUMPY_MADVISE_HUGEPAGE"] = "0"
    os.environ.update(pinned)
    return pinned


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "rayloc", "__init__.py")):
        print(f"perfbench: no rayloc sources under {SRC}", file=sys.stderr)
        return 2
    pinned = _pin_environment()
    sys.path.insert(0, SRC)

    import numpy as np
    import scipy

    import rayloc
    from stats import latency_summary
    from tracing import layer_metrics, write_spans
    from workloads import WORKLOADS, Context

    if not os.path.abspath(rayloc.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported rayloc from {rayloc.__file__}, not {SRC}", file=sys.stderr)
        return 2

    scratch = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(scratch, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    ctx = Context(seed=args.seed, seconds=args.seconds, trace=bool(args.trace), root=ROOT, tmp=tmp)
    try:
        out = WORKLOADS[args.workload](ctx)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    spans_path = os.path.join(ROOT, ".perfbench_out", f"spans-{args.workload}-seed{args.seed}.json")
    if args.trace:
        os.makedirs(os.path.dirname(spans_path), exist_ok=True)
        write_spans(spans_path, out.spans)

    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "inputs_sha256": out.fingerprint,
        "failed_frac": out.failed / max(out.attempted, 1),
        "failures": out.failures,
        "accuracy": out.accuracy,
        "environment": {
            "nproc": NPROC,
            "pinned_env": pinned,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "pid": os.getpid(),
            "tmpdir": os.path.relpath(tmp, ROOT),
        },
    }
    correct = out.failed == 0 and out.attempted > 0
    if args.trace:
        metrics, unobserved = layer_metrics(args.workload, out.spans, out.layer_extras) if correct else ({}, [])
        details["unobserved"] = unobserved
        details["spans_file"] = os.path.relpath(spans_path, ROOT)
        correct = correct and not unobserved
    else:
        latency = latency_summary(out.latencies_s) if out.latencies_s else None
        details["latency"] = latency
        details["job_s"] = latency["p50_ms"] / 1e3 if latency and args.workload == "embedder-train" else None
        metrics = {}
        if latency:
            metrics = {
                "setup_s": {"value": out.setup_s, "unit": "s"},
                "latency_p50_ms": {"value": latency["p50_ms"], "unit": "ms"},
                "peak_rss_mb": {"value": out.peak_rss_mb, "unit": "MB"},
            }
    print(json.dumps(details, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
