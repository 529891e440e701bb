"""Tracked benchmark of the solve service's durable cache tier.

Solves the 27 keys of the ``service_mix`` request stream once (suites
M2, M4, M6 at scales 0.4, 0.6, 0.8 with ILUT_CRTP, LU_CRTP and
RandQB_EI; k=16, tau=2e-2, native kernel tier when it builds), then times
the disk work the service does for each result and writes
``BENCH_cache_io.json`` at the repo root:

- ``bytes``              archive size (members stored uncompressed);
- ``store_s``            min of N ``DiskCacheTier.store`` calls, each into
                         a fresh tier: archive write, fsync, checksum,
                         sidecar, journal;
- ``lookup_s``           min of N ``DiskCacheTier.lookup`` disk hits on a
                         warm page cache: one read, SHA-256, load;
- ``write_s``            min of N ``save_result`` archive writes alone;
- ``write_compressed_s`` the same arrays through ``np.savez_compressed``
                         (the layout before archives were stored), timed
                         alternately with ``write_s``;
- ``compressed_bytes``   the size of that reference archive.

Each method row sums its nine keys; ``total`` sums all of them.  Wall
times depend on the host and its disk, so the JSON records the CPU, the
core count and the file system of the work directory.

``--check-regression`` gates what does not depend on the machine: every
entry comes back from a disk lookup bit for bit, every member of its
archive is ``ZIP_STORED``, and the sidecar's SHA-256 matches the archive
bytes with nothing quarantined.  Wall time is never gated.

Usage::

    python benchmarks/bench_cache_io.py                  # writes JSON
    python benchmarks/bench_cache_io.py --quick --check-regression
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
import tempfile
import zipfile
from pathlib import Path
from time import perf_counter
from unittest import mock

import numpy as np
import scipy.sparse as sp

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import kernels  # noqa: E402
from repro.api import SolverConfig, make_solver  # noqa: E402
from repro.matrices import suite_matrix  # noqa: E402
from repro.serialize import save_result  # noqa: E402
from repro.service import DiskCacheTier, matrix_fingerprint  # noqa: E402

#: The key grid of the ``service_mix`` stream (perfbench/stream.py).
SUITES = ("M2", "M4", "M6")
SCALES = (0.4, 0.6, 0.8)
METHODS = ("ilut", "lu", "randqb")
K = 16
TOL = 2e-2
SUMMED = ("bytes", "compressed_bytes", "store_s", "lookup_s", "write_s",
          "write_compressed_s")


def _factor_arrays(result) -> list[np.ndarray]:
    """The arrays an archive must reproduce bit for bit."""
    if hasattr(result, "Q"):
        return [result.Q, result.B]
    L, U = sp.csr_matrix(result.L), sp.csr_matrix(result.U)
    return [L.data, L.indices, L.indptr, U.data, U.indices, U.indptr,
            result.row_perm, result.col_perm]


def _bitwise_equal(a: list[np.ndarray], b: list[np.ndarray]) -> bool:
    return len(a) == len(b) and all(
        x.dtype == y.dtype and x.shape == y.shape
        and x.tobytes() == y.tobytes() for x, y in zip(a, b))


def _write_s(result, path: Path, compressed: bool) -> float:
    """Seconds of one ``save_result`` archive write; ``compressed``
    swaps in the zlib writer archives used before they were stored."""
    writer = np.savez_compressed if compressed else np.savez
    with mock.patch.object(np, "savez", writer):
        t0 = perf_counter()
        save_result(result, path)
        return perf_counter() - t0


def _bench_entry(work: Path, key: tuple, cache_key: tuple, result,
                 repeats: int) -> dict:
    work.mkdir()
    result_json = result.to_json()
    store: list[float] = []
    write: dict[bool, list[float]] = {False: [], True: []}
    for i in range(repeats):
        tier = DiskCacheTier(work / f"tier-{i}")
        t0 = perf_counter()
        tier.store(cache_key, TOL, result, result_json)
        store.append(perf_counter() - t0)
        for compressed in (False, True) if i % 2 == 0 else (True, False):
            write[compressed].append(_write_s(
                result, work / f"write-{int(compressed)}-{i}.npz",
                compressed))
    lookup: list[float] = []
    for _ in range(repeats):
        reader = DiskCacheTier(tier.root)
        t0 = perf_counter()
        got = reader.lookup(cache_key, TOL)
        lookup.append(perf_counter() - t0)
    (npz,) = tier.entries_dir.glob("*.npz")
    sidecar = json.loads(npz.with_suffix(".json").read_text())
    with zipfile.ZipFile(npz) as zf:
        stored = all(info.compress_type == zipfile.ZIP_STORED
                     for info in zf.infolist())
    return {
        "suite": key[0], "scale": key[1], "method": key[2],
        "rank": int(result.rank),
        "bytes": npz.stat().st_size,
        "compressed_bytes": (work / "write-1-0.npz").stat().st_size,
        "store_s": min(store), "lookup_s": min(lookup),
        "write_s": min(write[False]),
        "write_compressed_s": min(write[True]),
        "roundtrip_exact": got is not None and _bitwise_equal(
            _factor_arrays(got[1]), _factor_arrays(result)),
        "stored_members": stored,
        "checksum_verified": got is not None and reader.corrupt == 0
        and sidecar["sha256"] == hashlib.sha256(
            npz.read_bytes()).hexdigest(),
    }


def _fs_type(path: Path) -> str:
    """File system type of ``path`` from /proc/mounts (Linux), else ''."""
    best, fstype = "", ""
    try:
        with open("/proc/mounts") as fh:
            for line in fh:
                mount, kind = line.split()[1:3]
                if str(path).startswith(mount) and len(mount) > len(best):
                    best, fstype = mount, kind
    except OSError:
        pass
    return fstype


def _host(work: Path) -> dict:
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next(line.split(":", 1)[1].strip() for line in fh
                         if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"cpu": model, "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__, "workdir_fs": _fs_type(work)}


def run(quick: bool, repeats: int) -> dict:
    tier = "native" if kernels.native_available() else "pure"
    scales = SCALES[:1] if quick else SCALES
    config = SolverConfig(k=K, tol=TOL, kernel_tier=tier)
    entries = []
    with tempfile.TemporaryDirectory(prefix="bench_cache_io-") as tmp:
        work = Path(tmp)
        for suite in SUITES:
            for scale in scales:
                A = suite_matrix(suite, scale=scale)
                fp = matrix_fingerprint(A)
                for method in METHODS:
                    result = make_solver(method, config).solve(A)
                    key = (suite, scale, method)
                    sub = work / f"{suite}-{scale}-{method}"
                    entries.append(_bench_entry(
                        sub, key, (fp, method, config.cache_key()),
                        result, repeats))
        host = _host(work)
    methods = {}
    for m in METHODS:
        rows = [e for e in entries if e["method"] == m]
        methods[m] = {f: sum(e[f] for e in rows) for f in SUMMED}
        methods[m]["keys"] = len(rows)
    total = {f: sum(e[f] for e in entries) for f in SUMMED}
    return {"config": {"quick": quick, "repeats": repeats, "k": K,
                       "tol": TOL, "kernel_tier": tier,
                       "suites": list(SUITES), "scales": list(scales),
                       "methods": list(METHODS)},
            "host": host, "methods": methods, "total": total,
            "entries": entries}


def check_regression(results: dict) -> list[str]:
    """Machine-independent gates; returns a list of failure strings."""
    bad = []
    for e in results["entries"]:
        name = f"{e['suite']}@{e['scale']} {e['method']}"
        for gate, what in (("roundtrip_exact", "factors not bitwise equal "
                            "after a disk lookup"),
                           ("stored_members", "archive has compressed "
                            "members"),
                           ("checksum_verified", "archive checksum not "
                            "verified")):
            if not e[gate]:
                bad.append(f"{name}: {what}")
    return bad


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="the nine keys at scale 0.4, one repeat "
                         "(CI smoke mode)")
    ap.add_argument("--repeats", type=int, default=None,
                    help="timed repeats per entry (default 1 quick, 5 full)")
    ap.add_argument("--output", default=str(REPO_ROOT / "BENCH_cache_io.json"),
                    help="JSON output path")
    ap.add_argument("--check-regression", action="store_true",
                    help="exit nonzero unless every entry round-trips bit "
                         "for bit from stored members with a verified "
                         "checksum")
    args = ap.parse_args(argv)

    repeats = args.repeats or (1 if args.quick else 5)
    results = run(args.quick, repeats)
    out = Path(args.output)
    out.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")

    print(f"{'method':8s} {'keys':>4s} {'MB':>7s} {'MB zlib':>8s} "
          f"{'store ms':>9s} {'lookup ms':>9s} {'write ms':>9s} "
          f"{'zlib ms':>9s}")
    rows = dict(results["methods"], total=dict(
        results["total"], keys=len(results["entries"])))
    for name, r in rows.items():
        print(f"{name:8s} {r['keys']:4d} {r['bytes'] / 1e6:7.2f} "
              f"{r['compressed_bytes'] / 1e6:8.2f} "
              f"{r['store_s'] * 1e3:9.1f} {r['lookup_s'] * 1e3:9.1f} "
              f"{r['write_s'] * 1e3:9.1f} "
              f"{r['write_compressed_s'] * 1e3:9.1f}")
    print(f"wrote {out} (host: {results['host']['cpu_count']} cores, "
          f"{results['host']['workdir_fs'] or 'unknown'} work dir)")

    if args.check_regression:
        bad = check_regression(results)
        if bad:
            for b in bad:
                print(f"REGRESSION: {b}", file=sys.stderr)
            return 1
        print(f"check-regression: {len(results['entries'])} entries "
              "round-trip bit for bit from stored, verified archives")
    return 0


if __name__ == "__main__":
    sys.exit(main())
