"""One workload process: set up, measure, check, write a JSON report.

Started by ``run.py`` (never directly): it receives the monotonic clock
reading taken just before it was spawned, so its set-up time covers
interpreter start, imports, input generation, native-tier load, service
start or first rank fork and one warm-up op.  The report carries the raw
samples (op latencies, window, ranks, factor sizes, peak memory); the
parent pools them over its measuring processes.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import time


def blas_info() -> dict:
    """BLAS vendor as built, and the thread count each loaded OpenBLAS
    reports now (no thread setting is changed)."""
    import numpy as np
    built = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"vendor": built.get("name"), "version": built.get("version"),
            "threads": {}}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({tok for line in fh for tok in line.split()
                           if "openblas" in tok.lower() and ".so" in tok})
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"][os.path.basename(path)] = int(fn())
                break
    return info


def provenance(seed: int) -> dict:
    import numpy
    import scipy
    from repro.kernels import THREADS_ENV
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "blas": blas_info(),
        THREADS_ENV: os.environ.get(THREADS_ENV),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process or of its largest ended child
    (the rank processes of ``spmd_lu``), in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--min-ops", type=int, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--tier", default="native")
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--build-dir", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    import spans
    from workloads import RUN_LAYERS, WORKLOADS

    wl = WORKLOADS[args.workload](args.seed, args.tier, args.build_dir)
    try:
        wl.setup()
        report: dict = {"setup_s": time.monotonic() - args.t0,
                        "provenance": provenance(args.seed)}
        rec = spans.Recorder() if args.trace else None
        run = wl.run(args.seconds, args.min_ops, rec)
        report.update(attempted=run.attempted, failures=run.failures,
                      details=run.details)
        if rec is None:
            report.update(latencies=run.latencies, window=run.window,
                          ranks=run.ranks, factor_nnz=run.factor_nnz,
                          peak_rss_mb=peak_rss_mb())
        else:
            per = len(run.traced_latencies)     # ops; requests on service
            metrics, latency, residual = spans.per_layer(
                rec, per, queue_wait=wl.name == "service_mix")
            metrics.update(run.layers)
            for name in RUN_LAYERS:           # layers this workload lacks
                metrics.setdefault(name, 0.0)
            p50 = statistics.median(run.latencies)
            traced_p50 = statistics.median(run.traced_latencies)
            metrics["core.cpu_s"] = sum(run.cpu) / per
            metrics["bench.trace_overhead_frac"] = traced_p50 / p50 - 1.0
            run.details.update(untraced_p50_s=p50, traced_p50_s=traced_p50,
                               traced_op_latency_s=latency,
                               identity_residual_s=residual)
            report["metrics"] = metrics
            rec.dump(os.path.join(
                args.build_dir, f"spans-{args.workload}-{args.seed}.jsonl"))
    finally:
        wl.close()
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
