"""Tracked strong-scaling benchmark of the SPMD execution backends.

Runs the two executable SPMD solvers (``spmd_lu_crtp``,
``spmd_randqb_ei``) on the fill-in-heavy M2 analogue for P in {1, 2, 4,
8} under both backends and serializes the results to ``BENCH_spmd.json``
at the repo root (the committed copy documents the reference machine):

- ``wall_s``       — real seconds, best of ``--repeats`` runs; procs
                     ranks are kept alive between calls, so these are
                     runs on warm ranks;
- ``cold_wall_s``  — procs only: the first call after ``release_ranks()``,
                     which forks its ranks;
- ``modeled_s``    — the alpha-beta-gamma clock (identical across
                     backends by construction, recorded once per P);
- ``comm``         — bytes on the wire / message count from the ledger.

Wall-clock speedup of the procs backend is only meaningful on a
multicore host; the committed JSON records ``host.cpu_count`` so readers
can interpret the numbers.  No gate reads a wall time.  The regression
gate is machine-independent:

- thread and procs backends must agree on results bitwise, on the
  modeled clock exactly and on the ledger's bytes and message count
  (drift here means the backends diverged);
- the modeled clock must keep improving from P=1 to P=4 (the scaling
  property Fig. 4 is built on);
- in ``--quick`` mode, bytes and messages per (method, P) must equal
  ``QUICK_COMM`` exactly: the ledger counts what each collective puts on
  the wire, which depends on the schedule and never on the host, so a
  re-added or widened collective fails CI (regenerate the pin
  deliberately when the schedule changes);
- on hosts with >= 4 cores, procs at P=4 must additionally beat procs
  at P=1 on wall-clock.

Usage::

    python benchmarks/bench_spmd_backends.py                 # writes JSON
    python benchmarks/bench_spmd_backends.py --quick
    python benchmarks/bench_spmd_backends.py --quick --check-regression
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np
import scipy.sparse as sp

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.parallel.comm import run_spmd  # noqa: E402
from repro.parallel.procs import release_ranks  # noqa: E402
from repro.parallel.spmd import spmd_lu_crtp, spmd_randqb_ei  # noqa: E402

PS = (1, 2, 4, 8)

#: Counted comm of the ``--quick`` run, ``(bytes_sent, msgs)`` per method
#: and P, identical on both backends.
QUICK_COMM = {
    "spmd_lu_crtp": {"1": (0, 0), "2": (809_272, 261),
                     "4": (2_423_580, 804), "8": (5_639_860, 1876)},
    "spmd_randqb_ei": {"1": (0, 0), "2": (2_973_840, 378),
                       "4": (9_147_312, 1134), "8": (22_397_424, 2646)},
}


def _m2_analogue(n: int) -> sp.csr_matrix:
    rng = np.random.default_rng(1)
    A = sp.random(n, n, density=0.02, random_state=rng, format="csc")
    return (A + sp.diags(np.linspace(1, 0.01, n), format="csc")).tocsr()


def _method(name):
    return {"spmd_randqb_ei": (spmd_randqb_ei, dict(seed=0)),
            "spmd_lu_crtp": (spmd_lu_crtp, {})}[name]


def _best_wall(fn, repeats: int) -> tuple[float, object]:
    best, out = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def _results_equal(a, b) -> bool:
    for ra, rb in zip(a, b):
        for xa, xb in zip(ra, rb):
            if isinstance(xa, np.ndarray):
                if not np.array_equal(xa, xb):
                    return False
            elif xa != xb:
                return False
    return True


def bench_method(name: str, A, k: int, tol: float, repeats: int) -> dict:
    program, extra = _method(name)
    rows = {}
    for p in PS:
        entry: dict = {}
        thr = run_spmd(p, program, A, k=k, tol=tol, **extra)
        for backend in ("threads", "procs"):
            def call():
                return run_spmd(p, program, A, k=k, tol=tol,
                                backend=backend, **extra)
            cold = None
            if backend == "procs":
                release_ranks()
                cold, _ = _best_wall(call, 1)
            best, out = _best_wall(call, repeats)
            entry[backend] = {
                "wall_s": best,
                "comm": {"bytes_sent": out["comm"]["bytes_sent"],
                         "msgs": out["comm"]["msgs"]},
            }
            if cold is not None:
                entry[backend]["cold_wall_s"] = cold
            entry[f"{backend}_matches"] = (
                _results_equal(thr["results"], out["results"])
                and [float(c) for c in thr["clocks"]]
                == [float(c) for c in out["clocks"]])
        entry["modeled_s"] = float(thr["elapsed"])
        rows[str(p)] = entry
    base = rows[str(PS[0])]
    for p in PS:
        e = rows[str(p)]
        for backend in ("threads", "procs"):
            w = e[backend]["wall_s"]
            e[backend]["speedup_wall"] = (
                base[backend]["wall_s"] / w if w > 0 else float("inf"))
        e["speedup_modeled"] = base["modeled_s"] / e["modeled_s"]
    return rows


def run(quick: bool, repeats: int) -> dict:
    n = 300 if quick else 700
    k = 8 if quick else 16
    A = _m2_analogue(n)
    out = {
        "config": {"quick": quick, "repeats": repeats, "n": n, "k": k,
                   "tol": 1e-2, "nprocs": list(PS)},
        "host": {"cpu_count": os.cpu_count(),
                 "platform": platform.platform(),
                 "python": platform.python_version()},
        "benches": {name: bench_method(name, A, k, 1e-2, repeats)
                    for name in ("spmd_randqb_ei", "spmd_lu_crtp")},
    }
    release_ranks()
    return out


def check_regression(results: dict, pinned: dict | None = None
                     ) -> list[str]:
    """Machine-independent gates; returns a list of failure strings.

    ``pinned`` (``QUICK_COMM`` for a quick run) maps method and P to the
    exact ``(bytes_sent, msgs)`` the run must count."""
    bad = []
    multicore = (results["host"]["cpu_count"] or 1) >= 4
    for name, rows in results["benches"].items():
        for p, e in rows.items():
            for backend in ("threads", "procs"):
                if not e[f"{backend}_matches"]:
                    bad.append(f"{name} P={p}: {backend} backend diverged "
                               "from the reference run (results or clocks)")
            if e["threads"]["comm"] != e["procs"]["comm"]:
                bad.append(f"{name} P={p}: threads and procs ledgers "
                           f"disagree on bytes_sent/msgs "
                           f"({e['threads']['comm']} vs "
                           f"{e['procs']['comm']})")
        for p, want in (pinned or {}).get(name, {}).items():
            comm = rows[p]["threads"]["comm"]
            got = (comm["bytes_sent"], comm["msgs"])
            if got != want:
                bad.append(f"{name} P={p}: counted comm {got} "
                           f"(bytes_sent, msgs) != pinned {want}")
        if rows["4"]["modeled_s"] >= rows["1"]["modeled_s"]:
            bad.append(f"{name}: modeled clock does not improve from "
                       "P=1 to P=4")
        if multicore and (rows["4"]["procs"]["wall_s"]
                          >= rows["1"]["procs"]["wall_s"]):
            bad.append(f"{name}: procs backend shows no wall-clock gain "
                       f"at P=4 on a {results['host']['cpu_count']}-core "
                       "host")
    return bad


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="small matrix / single repeat (CI smoke mode)")
    ap.add_argument("--repeats", type=int, default=None,
                    help="wall-clock repeats per cell (default 1 quick, "
                         "3 full)")
    ap.add_argument("--output", default=str(REPO_ROOT / "BENCH_spmd.json"),
                    help="JSON output path")
    ap.add_argument("--check-regression", action="store_true",
                    help="exit nonzero when backends diverge, the "
                         "modeled clock stops scaling or (with --quick) "
                         "the counted comm leaves QUICK_COMM")
    args = ap.parse_args(argv)

    repeats = args.repeats or (1 if args.quick else 3)
    results = run(args.quick, repeats)
    out = Path(args.output)
    out.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")

    for name, rows in results["benches"].items():
        print(name)
        for p in PS:
            e = rows[str(p)]
            print(f"  P={p}: threads={e['threads']['wall_s'] * 1e3:8.1f}ms "
                  f"procs={e['procs']['wall_s'] * 1e3:8.1f}ms "
                  f"(cold {e['procs']['cold_wall_s'] * 1e3:.1f}ms, "
                  f"x{e['procs']['speedup_wall']:.2f} wall, "
                  f"x{e['speedup_modeled']:.2f} modeled) "
                  f"comm={e['procs']['comm']['bytes_sent']:.3g}B"
                  f"/{e['procs']['comm']['msgs']}msg")
    print(f"wrote {out} (host: {results['host']['cpu_count']} cores)")

    if args.check_regression:
        bad = check_regression(results,
                               QUICK_COMM if args.quick else None)
        if bad:
            for b in bad:
                print(f"REGRESSION: {b}", file=sys.stderr)
            return 1
        print("regression check passed (backend parity, ledger parity"
              f"{', pinned comm' if args.quick else ''} + modeled scaling)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
