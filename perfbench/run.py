"""Benchmark entry point: pre-flight, then measuring processes.

    python3 perfbench/run.py --workload lu_fill --seed 1 --seconds 21 --trace 0

Run from the root of a checkout.  Steps:

1. self-tests of the benchmark's own arithmetic (``selftest.py``);
2. pre-flight: build the native kernel tier of this checkout with its
   build CLI into ``.bench_build/perfbench/kernels`` and compile bytecode,
   so no compile lands in a measured set-up and edited C sources are never
   measured on the pure tier;
3. ``PROCESSES`` measuring processes in turn (``child.py``), each setting
   up and then measuring its share of the window; the end-to-end metrics
   pool their ops, and ``setup_s`` is the median of their set-up times.
   The traced run uses one process;
4. print a provenance line, a details line, and last the result object.

No thread environment variable is set: the OpenBLAS pool and the kernel
thread count are whatever the caller's environment gives, and both are
recorded.  Exits non-zero without a result when the checkout has no
program to measure or any step fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import selftest
import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"

#: Measuring processes of an untraced run, each also giving a set-up
#: time.  Op latencies differ by about 10% between processes, so more
#: processes steady the pooled figures; ``service_mix`` measures whole
#: epochs of about 10 s, which limits it to three in the time of a run.
PROCESSES = {"lu_fill": 6, "service_mix": 3, "spmd_lu": 6}
#: Ops per run at least (over all its processes), so the tail rule reads
#: above the median.
MIN_OPS = 30
#: Wall-clock budget of the measuring processes together, in seconds
#: (the pre-flight build of a fresh checkout is not counted).
BUDGET_S = 170

OUTCOME_LETTERS = {"miss": "m", "batched": "b", "hit": "h",
                   "dominated": "o", "disk": "d", "error": "e"}


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["REPRO_KERNEL_CACHE"] = str(BUILD / "kernels")
    env["TMPDIR"] = str(BUILD / "tmp")
    return env


def run_checked(cmd, env, timeout) -> str:
    """Run a helper to completion in its own process group; its stdout,
    or SystemExit when it fails or overruns (the group is killed)."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"timed out after {timeout}s: {' '.join(cmd)}")
    finally:
        try:                       # reap any rank process left behind
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        sys.stderr.write(err)
        raise SystemExit(f"failed (rc={proc.returncode}): {' '.join(cmd)}")
    return out


def preflight(env) -> str:
    """Build the native tier and compile bytecode; returns the kernel
    build-cache key."""
    out = run_checked([sys.executable, "-m", "repro.kernels.native",
                       "--cache-key", "--build"], env, timeout=600)
    key, lib = out.split()[:2]
    if not Path(lib).is_file():
        raise SystemExit(f"native build produced no library: {out!r}")
    run_checked([sys.executable, "-m", "compileall", "-q", "src",
                 "perfbench"], env, timeout=300)
    return key


def workload_process(args, env, out: Path, seconds: float, min_ops: int,
                     deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise SystemExit(f"run exceeded its {BUDGET_S}s budget")
    cmd = [sys.executable, str(HERE / "child.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--min-ops", str(min_ops),
           "--trace", str(args.trace), "--tier", args.tier,
           "--build-dir", str(BUILD), "--out", str(out),
           "--t0", repr(time.monotonic())]
    run_checked(cmd, env, timeout=timeout)
    report = json.loads(out.read_text())
    out.unlink()
    return report


def pooled(reports: list[dict]) -> tuple[dict, dict]:
    """End-to-end metrics over the ops of all measuring processes, and the
    details that go with them."""
    lat = [x for r in reports for x in r["latencies"]]
    window = sum(r["window"] for r in reports)
    tail, pct, n = stats.tail(lat)
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(len(r["failures"]) for r in reports)
    metrics = {
        "setup_s": statistics.median(r["setup_s"] for r in reports),
        "latency_p50_s": statistics.median(lat),
        "latency_tail_s": tail,
        "throughput_ops": len(lat) / window,
        "ok_frac": 1.0 - failed / attempted,
        "rank_mean": statistics.fmean(
            x for r in reports for x in r["ranks"]),
        "factor_nnz_mean": statistics.fmean(
            x for r in reports for x in r["factor_nnz"]),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in reports),
    }
    details = {"tail_percentile": pct, "tail_samples": n, "window_s": window,
               "setup_samples": [r["setup_s"] for r in reports],
               "process_p50_s": [statistics.median(r["latencies"])
                                 for r in reports]}
    for r in reports:
        for key, value in r["details"].items():
            if isinstance(value, bool):
                details[key] = details.get(key, True) and value
            elif isinstance(value, list):
                details.setdefault(key, []).extend(value)
            else:
                details[key] = details.get(key, 0) + value
    return metrics, details


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tier", choices=("native", "pure"), default="native",
                    help="kernel tier requested (pure: sensitivity check)")
    args = ap.parse_args(argv)
    # a terminated run still unwinds, so the running child's process
    # group is killed and reaped (see run_checked)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise SystemExit(f"no program to measure under {ROOT / 'src'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        raise SystemExit(f"unknown workload {args.workload!r}")

    selftest.main()

    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
    for stale in BUILD.glob("cache-*"):   # left by a killed service run
        shutil.rmtree(stale, ignore_errors=True)
    env = child_env()
    cache_key = preflight(env)

    out = BUILD / f"report-{os.getpid()}.json"
    deadline = time.monotonic() + BUDGET_S
    if args.trace:
        report = workload_process(args, env, out, args.seconds, MIN_OPS,
                                  deadline)
        reports = [report]
        values, details = report["metrics"], dict(report["details"])
        declared = spec["per_layer"]
    else:
        n = PROCESSES[args.workload]
        reports = [workload_process(args, env, out, args.seconds / n,
                                    -(-MIN_OPS // n), deadline)
                   for _ in range(n)]
        values, details = pooled(reports)
        declared = spec["end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise SystemExit(f"metrics not measured: {missing}")
    metrics = {m["name"]: {"value": float(values[m["name"]]),
                           "unit": m["unit"]} for m in declared}

    attempted = sum(r["attempted"] for r in reports)
    failures = [f for r in reports for f in r["failures"]]
    provenance = dict(reports[0]["provenance"], kernel_cache_key=cache_key,
                      workload=args.workload, tier_request=args.tier,
                      trace=args.trace)
    details["failures"] = failures[:5]
    outcomes = details.pop("outcomes", None)
    if outcomes is not None:              # one letter per request
        details["outcome_sequence"] = "".join(
            OUTCOME_LETTERS.get(o, "?") for o in outcomes)
    print("provenance " + json.dumps(provenance, sort_keys=True))
    print("details " + json.dumps(details, sort_keys=True))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
