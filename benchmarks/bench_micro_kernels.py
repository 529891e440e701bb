"""Tracked micro-kernel benchmarks for the Schur-complement hot path.

Measures the before/after cost of every kernel the optimization layer
touches and serializes the results to ``BENCH_kernels.json`` at the repo
root (the committed copy documents the speedups on the reference machine):

- ``spgemm``            — the ``F @ A12`` product through the pure
                          ``kernels.spgemm_csr`` dispatch (scipy's
                          kernel) on both columns; native = the serial
                          C row-merge kernel with a reused
                          :class:`SpGEMMWorkspace`;
- ``spgemm_parallel``   — the same product, OpenMP row-parallel native
                          kernel at ``REPRO_KERNEL_THREADS=2`` (pure
                          columns track the serial route for reference);
- ``csr_to_csc``        — scipy ``tocsc()``/``tocsr()`` round trip vs the
                          native counting-sort conversion;
- ``permute_split``     — pure fused permute + 2x2 split vs the native
                          window scatter (dense-A11 variant included);
- ``schur_update``      — reference permute + ``split_2x2`` + scipy ``@``
                          vs the fused index-window ``permuted_blocks`` +
                          ``csr_matmul_nosym`` route; native = the fully
                          fused ``schur_update_csc`` dispatch;
- ``gram_filled`` / ``gram_sparse`` — a self-Gram plus a cross-Gram of
                          64-column CSC panels, one two-pair
                          ``kernels.gram_csc`` batch over their columns
                          (pure on both columns), at density 0.9 (native
                          = dense-panel route) and 0.05 (below the
                          crossover: native = sparse transpose route);
- ``qr_tp_service`` / ``qr_tp_filled`` — a whole column tournament
                          (``repro.pivoting.qr_tp``, one Gram dispatch per
                          tree level) on a service-shaped sparse matrix
                          (``suite_matrix("M6", scale=0.8)``, k=16) and on
                          a filled-in active matrix shaped like
                          ``lu_fill``'s after four iterations (k=32); pure
                          on both columns, native = native tier, timed
                          alternately, with identical ``perm`` and
                          ``r11_diag`` bits asserted;
- ``schur_filled`` / ``schur_sparse`` — ``kernels.schur_update_csc`` on a
                          filled-in product (flop-bound ratio ~0.8:
                          native = dense-panel route) and on an unfilled
                          one (ratio ~0.005: native = row-merge SpGEMM +
                          fused difference), pure on both columns; the
                          four new rows time pure and native alternately;
- ``thresholding``      — copying :func:`drop_small` vs the fused
                          mask-then-apply-in-place route;
- ``order_service`` / ``order_filled`` — the paper's column ordering
                          (``kernels.colamd_postorder``: COLAMD, column
                          etree, postorder) on the largest service_mix
                          matrix (M6 at scale 0.8) and on lu_fill's M2;
                          pure Python composition on both columns,
                          native = one C call, same permutation;
- ``tsqr``              — communication-avoiding tall-skinny QR (tracked
                          for drift; not changed by the optimization);
- ``lu_crtp_e2e`` / ``ilut_crtp_e2e`` — full solves on the fill-in-heavy
                          M2 analogue; ``kernel_tier="pure"`` on both
                          columns, so ``tiers.native.vs_pure`` carries
                          the comparison (``auto`` would silently resolve
                          to native on a warm-cache host and measure
                          native against itself).

Schema v2: on hosts with a working C compiler each bench that has a
native-tier kernel additionally records a ``tiers.native`` sub-entry —
``after_s`` (native seconds), ``speedup`` (vs the bench's ``before_s``
reference) and ``vs_pure`` (vs the pure-tier ``after_s``).  ``before_s`` /
``after_s`` / ``speedup`` keep their v1 meaning (pure-tier reference vs
pure-tier fast route); benches without a separate reference route record
the pure route in both columns.  Hosts without a compiler simply omit the
``tiers`` columns.

Every fast kernel is bitwise-parity-checked against its scipy
composition in ``tests/test_opt_parity.py`` (and the native tier against
the pure tier in ``tests/test_kernel_tiers.py``); this script only tracks
*time*.

Usage::

    python benchmarks/bench_micro_kernels.py                # full, writes JSON
    python benchmarks/bench_micro_kernels.py --quick        # CI smoke mode
    python benchmarks/bench_micro_kernels.py --quick --check-regression

``--check-regression`` exits nonzero when any fast route measures more
than 25% slower than its own reference route in the same run — a
machine-independent gate that catches optimizations rotting into
pessimizations (trivially met where both columns hold the same route).
The same gate applies per tier: a native kernel more than 25% slower
than its pure counterpart fails the run.  When a previous
``BENCH_kernels.json`` exists it is also compared for drift (warnings
only, never a failure — absolute times are machine-bound); a pre-tier
v1 file is migrated in memory with a one-line note.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import scipy
import scipy.sparse as sp

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import kernels  # noqa: E402
from repro.core.ilut_crtp import ILUT_CRTP  # noqa: E402
from repro.core.lu_crtp import LU_CRTP  # noqa: E402
from repro.linalg.tsqr import tsqr  # noqa: E402
from repro.matrices import suite_matrix  # noqa: E402
from repro.pivoting import qr_tp  # noqa: E402
from repro.sparse.ops import csr_matmul_nosym, permute, split_2x2  # noqa: E402
from repro.sparse.spgemm import SpGEMMWorkspace  # noqa: E402
from repro.sparse.thresholding import (apply_threshold_mask,  # noqa: E402
                                       drop_small, threshold_mask)
from repro.sparse.window import permuted_blocks  # noqa: E402

#: regression gate: a fast route may be at most this much slower than
#: its reference route before the run fails
REGRESSION_FACTOR = 1.25

#: results-file schema version: 2 = per-tier columns (``tiers.native``)
SCHEMA_VERSION = 2


def _add_native_tier(entry: dict, native_s: float) -> dict:
    """Attach the native-tier columns to a bench entry (schema v2):
    seconds, speedup vs the bench's reference route, and the ratio vs the
    pure-tier ``after_s`` (what the per-tier regression gate checks)."""
    entry.setdefault("tiers", {})["native"] = {
        "after_s": native_s,
        "speedup": (entry["before_s"] / native_s
                    if native_s > 0 else float("inf")),
        "vs_pure": (entry["after_s"] / native_s
                    if native_s > 0 else float("inf")),
    }
    return entry


def _mintime(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _mintime_pair(fa, fb, repeats: int) -> tuple[float, float]:
    """Min-of-N of two routes timed alternately, so a slow stretch of a
    shared host hits both instead of deciding their ratio."""
    ta = tb = float("inf")
    for _ in range(repeats):
        ta = min(ta, _mintime(fa, 1))
        tb = min(tb, _mintime(fb, 1))
    return ta, tb


@contextmanager
def _kernel_threads(n: int):
    """Run the native SpGEMM at ``n`` threads, restoring the caller's
    ``$REPRO_KERNEL_THREADS`` afterwards."""
    old = os.environ.get(kernels.THREADS_ENV)
    os.environ[kernels.THREADS_ENV] = str(n)
    try:
        yield
    finally:
        if old is None:
            os.environ.pop(kernels.THREADS_ENV, None)
        else:
            os.environ[kernels.THREADS_ENV] = old


def _m2_analogue(n: int) -> sp.csc_matrix:
    rng = np.random.default_rng(1)
    A = sp.random(n, n, density=0.02, random_state=rng, format="csc")
    return (A + sp.diags(np.linspace(1, 0.01, n), format="csc")).tocsc()


def bench_spgemm(quick: bool, repeats: int, native: bool) -> dict:
    n = 400 if quick else 1200
    rng = np.random.default_rng(2)
    F = sp.random(n, 64, density=0.20, random_state=rng, format="csr")
    A12 = sp.random(64, n, density=0.30, random_state=rng, format="csr")
    F.sort_indices()
    A12.sort_indices()

    ws = SpGEMMWorkspace()

    def product(tier):
        return kernels.spgemm_csr(F, A12, tier=tier, workspace=ws)

    entry = {"detail": f"F({n}x64, d=0.20) @ A12(64x{n}, d=0.30); pure "
                       "spgemm_csr (scipy kernel) on both columns, native "
                       "= serial C row-merge with a reused workspace"}
    if not native:
        t_pure = _mintime(lambda: product("pure"), repeats)
        return dict(entry, before_s=t_pure, after_s=t_pure)
    with _kernel_threads(1):
        C = product("native")
        ref = F @ A12
        assert (np.array_equal(C.indptr, ref.indptr)
                and np.array_equal(C.indices, ref.indices)
                and np.array_equal(C.data, ref.data)), \
            "spgemm tiers disagree"
        t_pure, t_native = _mintime_pair(lambda: product("pure"),
                                         lambda: product("native"), repeats)
    return _add_native_tier(dict(entry, before_s=t_pure, after_s=t_pure),
                            t_native)


def bench_spgemm_parallel(quick: bool, repeats: int, native: bool) -> dict:
    """OpenMP row-parallel SpGEMM against the serial pure route (the
    per-row result is bitwise thread-count independent, so only time
    changes).  Thread count is ``min(2, cpu_count)`` — oversubscribing a
    single-core host only measures scheduler thrash, not the kernel.

    Quick mode runs the full size, with the two routes timed alternately:
    on a shared 2-core host the two-thread kernel is near break-even with
    pure, and at size 400 with the routes timed one after the other its
    native/pure ratio read 0.45-0.99 across runs, under the 0.8 the gate
    allows."""
    n = 1200
    rng = np.random.default_rng(7)
    F = sp.random(n, 64, density=0.20, random_state=rng, format="csr")
    A12 = sp.random(64, n, density=0.30, random_state=rng, format="csr")
    F.sort_indices()
    A12.sort_indices()

    nthreads = min(2, os.cpu_count() or 1)

    def pure():
        return kernels.spgemm_csr(F, A12, tier="pure")

    detail = (f"F({n}x64) @ A12(64x{n}); serial pure route on both "
              "columns, native = row-parallel kernel at "
              f"REPRO_KERNEL_THREADS={nthreads} (bitwise identical output)")
    if not native:
        t_pure = _mintime(pure, repeats)
        return {"before_s": t_pure, "after_s": t_pure, "detail": detail}
    # benches sit outside src/, so the SPMD004 encapsulation rule does not
    # apply; the direct import is only for the OpenMP capability note
    from repro.kernels.native import openmp_enabled
    ws = SpGEMMWorkspace()

    def parallel():
        return kernels.spgemm_csr(F, A12, tier="native", workspace=ws)

    with _kernel_threads(nthreads):
        C, ref = parallel(), pure()
        assert (np.array_equal(C.indptr, ref.indptr)
                and np.array_equal(C.indices, ref.indices)
                and np.array_equal(C.data, ref.data)), \
            "parallel spgemm disagrees"
        t_pure = t_native = float("inf")
        for _ in range(repeats):   # alternate: a slow stretch hits both
            t_pure = min(t_pure, _mintime(pure, 1))
            t_native = min(t_native, _mintime(parallel, 1))
    if not openmp_enabled():
        detail += "; OpenMP unavailable: serial native"
    return _add_native_tier(
        {"before_s": t_pure, "after_s": t_pure, "detail": detail}, t_native)


def bench_csr_to_csc(quick: bool, repeats: int, native: bool) -> dict:
    """The conversion tax itself: scipy's ``tocsc()`` vs the native
    counting-sort kernel, on a Schur-complement-sized operand."""
    n = 800 if quick else 1500
    rng = np.random.default_rng(8)
    A = sp.random(n, n, density=0.05, random_state=rng, format="csr")
    A.sort_indices()

    def convert(tier):
        return kernels.csr_to_csc(A, tier=tier)

    if native:
        t_pure, t_native = _mintime_pair(lambda: convert("pure"),
                                         lambda: convert("native"), repeats)
    else:
        t_pure = _mintime(lambda: convert("pure"), repeats)
    entry = {"before_s": t_pure, "after_s": t_pure,
             "detail": f"{n}x{n} d=0.05 CSR->CSC; scipy counting sort on "
                       "both columns, native = C counting sort (bitwise "
                       "identical, same index dtypes)"}
    if native:
        got = convert("native")
        ref = A.tocsc()
        assert (np.array_equal(got.indptr, ref.indptr)
                and np.array_equal(got.indices, ref.indices)
                and np.array_equal(got.data, ref.data)), \
            "conversion tiers disagree"
        _add_native_tier(entry, t_native)
    return entry


def bench_permute_split(quick: bool, repeats: int, native: bool) -> dict:
    """The fused permute + 2x2 split window pass on its own (the
    ``schur_update`` bench measures it composed with the multiply).
    Quick mode still uses n=800: below that the pure radix pass is a
    sub-0.2ms blip and the gate would measure dispatch noise."""
    n = 800 if quick else 1200
    k = 32
    A = _m2_analogue(n)
    rng = np.random.default_rng(9)
    col_perm = rng.permutation(n)
    row_perm = rng.permutation(n)

    t_pure = _mintime(
        lambda: kernels.permuted_blocks(A, col_perm, row_perm, k,
                                        tier="pure"), repeats)
    entry = {"before_s": t_pure, "after_s": t_pure,
             "detail": f"M2-analogue n={n}, k={k}; pure radix-sort window "
                       "split on both columns, native = single C scatter "
                       "pass (dense A11 written directly)"}
    if native:
        rp = kernels.permuted_blocks(A, col_perm, row_perm, k, tier="pure")
        rn = kernels.permuted_blocks(A, col_perm, row_perm, k, tier="native")
        assert np.array_equal(rp[0], rn[0]), "A11 blocks disagree"
        for bp, bn in zip(rp[1:], rn[1:]):
            assert (bp - bn).nnz == 0, "window tiers disagree"
        _add_native_tier(entry, _mintime(
            lambda: kernels.permuted_blocks(A, col_perm, row_perm, k,
                                            tier="native"), repeats))
    return entry


def bench_schur_update(quick: bool, repeats: int, native: bool) -> dict:
    n = 400 if quick else 900
    k = 32
    A = _m2_analogue(n)
    rng = np.random.default_rng(3)
    col_perm = rng.permutation(n)
    row_perm = rng.permutation(n)
    Fd = sp.random(n - k, k, density=0.25, random_state=rng, format="csr")

    def reference():
        P = permute(A, row_perm, col_perm).tocsc()
        _, A12, _, A22 = split_2x2(P, k)
        return (A22 - (Fd @ A12.tocsr())).tocsc()

    def fused():
        _, A12, _, A22 = permuted_blocks(A, col_perm, row_perm, k)
        return (A22 - csr_matmul_nosym(Fd, A12)).tocsc()

    ws2 = SpGEMMWorkspace()

    def fused_native():
        _, A12, _, A22 = kernels.permuted_blocks(
            A, col_perm, row_perm, k, tier="native")
        return kernels.schur_update_csc(A22, Fd, A12, tol=None,
                                        tier="native", workspace=ws2)

    ref = reference()
    opt = fused()
    assert abs(ref - opt).max() == 0.0, "schur routes disagree"
    before = _mintime(reference, repeats)
    if native:
        after, t_native = _mintime_pair(fused, fused_native, repeats)
    else:
        after = _mintime(fused, repeats)
    entry = {"before_s": before, "after_s": after,
             "detail": f"M2-analogue n={n}, k={k}: permute+split+scipy-@ vs "
                       "index-window blocks + symbolic-free matmul; native "
                       "= fused schur_update_csc (C window scatter + "
                       "row-merge + one-pass diff/convert)"}
    if native:
        assert abs(ref - fused_native()).max() == 0.0, \
            "native schur route disagrees"
        _add_native_tier(entry, t_native)
    return entry


def _dense_route_calls(fn) -> dict:
    """Run ``fn`` once with perf recording on; the dense-panel route
    counters it fed (the bench rows assert which route they time)."""
    from repro import perf
    rec, prev, was = perf.PerfRecorder(), perf.get_recorder(), \
        perf.is_enabled()
    perf.enable(rec)
    try:
        fn()
    finally:
        perf.enable(prev)
        if not was:
            perf.disable()
    return {key.split(".")[1]: rec.counters.get(key, 0.0)
            for key in ("kernel_tier.gram_dense_calls",
                        "kernel_tier.schur_dense_calls")}


def bench_gram(quick: bool, repeats: int, native: bool,
               filled: bool) -> dict:
    """Self-Gram plus cross-Gram of 64-column CSC panels — the two Gram
    shapes of a tournament match.  Density 0.9 puts the native tier on
    its dense-panel route, 0.05 keeps it below the crossover."""
    m = 400 if quick else 900
    density = 0.9 if filled else 0.05
    rng = np.random.default_rng(10)
    A = sp.random(m, 128, density=density, random_state=rng, format="csc")
    A.sort_indices()
    # columns 0-63 are B1, 64-127 B2: one batch of B1^T B1 and B1^T B2
    left, right = np.arange(64), np.arange(64, 128)

    def grams(tier):
        return kernels.gram_csc(A, [left, left], [left, right], tier=tier)

    if native:
        t_pure, t_native = _mintime_pair(lambda: grams("pure"),
                                         lambda: grams("native"), repeats)
    else:
        t_pure = _mintime(lambda: grams("pure"), repeats)
    entry = {"before_s": t_pure, "after_s": t_pure,
             "detail": f"B^T B + B1^T B2, {m}x64 CSC panels, d={density}; "
                       "pure csr_matmat route on both columns, native = "
                       + ("dense-panel route" if filled else
                          "sparse transpose route (below the crossover)")}
    if native:
        ref, got = grams("pure"), grams("native")
        assert all(np.array_equal(a.view(np.uint64), b.view(np.uint64))
                   for a, b in zip(ref, got)), "gram tiers disagree"
        calls = _dense_route_calls(lambda: grams("native"))
        assert calls["gram_dense_calls"] == (2.0 if filled else 0.0), calls
        _add_native_tier(entry, t_native)
    return entry


def bench_qr_tp(quick: bool, repeats: int, native: bool,
                filled: bool) -> dict:
    """A whole column tournament: every match of a tree level gets its
    Gram from one ``kernels.gram_csc`` dispatch, then Cholesky and QRCP.
    The service-shaped matrix keeps every Gram on the sparse route; the
    filled one (density 0.8, like ``lu_fill``'s active matrix from its
    fourth iteration) puts them on the dense-panel route."""
    if filled:
        n, k = (400 if quick else 772), 32
        rng = np.random.default_rng(12)
        A = sp.random(n, n, density=0.8, random_state=rng, format="csc")
        A.sort_indices()
        shape = f"{n}x{n} d=0.8, k={k}"
    else:
        A, k = suite_matrix("M6", scale=0.8).tocsc(), 16
        A.sort_indices()
        shape = f"M6 scale 0.8 ({A.shape[0]}x{A.shape[1]}), k={k}"

    def tp(tier):
        return qr_tp(A, k, tier=tier)

    if native:
        t_pure, t_native = _mintime_pair(lambda: tp("pure"),
                                         lambda: tp("native"), repeats)
    else:
        t_pure = _mintime(lambda: tp("pure"), repeats)
    entry = {"before_s": t_pure, "after_s": t_pure,
             "detail": f"qr_tp on {shape}; pure tier on both columns, "
                       "native = native tier (one Gram dispatch per tree "
                       "level, same pivots)"}
    if native:
        ref, got = tp("pure"), tp("native")
        assert np.array_equal(ref.perm, got.perm), "qr_tp tiers disagree"
        assert ref.r11_diag.tobytes() == got.r11_diag.tobytes(), \
            "qr_tp r11 bits disagree"
        _add_native_tier(entry, t_native)
    return entry


def bench_schur_filled(quick: bool, repeats: int, native: bool,
                       filled: bool) -> dict:
    """``schur_update_csc`` on either side of the dense-panel crossover:
    a filled-in product (F and A12 at density 0.9) and an unfilled one
    like the first iterations of an LU_CRTP solve (F 0.1, A12 0.05), each
    with an A22 as full as the product it meets."""
    m = 400 if quick else 700
    k = 32
    rng = np.random.default_rng(11)
    dF, dA = (0.9, 0.9) if filled else (0.1, 0.05)
    F = sp.random(m, k, density=dF, random_state=rng, format="csr")
    A12 = sp.random(k, m, density=dA, random_state=rng, format="csr")
    A22 = sp.random(m, m, density=min(1.0 - (1.0 - dF * dA) ** k, 0.97),
                    random_state=rng, format="csr")
    for M in (F, A12, A22):
        M.sort_indices()

    def update(tier):
        return kernels.schur_update_csc(A22, F, A12, tol=0.0, tier=tier)

    if native:
        t_pure, t_native = _mintime_pair(lambda: update("pure"),
                                         lambda: update("native"), repeats)
    else:
        t_pure = _mintime(lambda: update("pure"), repeats)
    entry = {"before_s": t_pure, "after_s": t_pure,
             "detail": f"A22 - F @ A12, m=n={m}, k={k}, F d={dF}, A12 "
                       f"d={dA}; pure scipy composition on both columns, "
                       "native = " + ("dense-panel route" if filled else
                                      "row-merge SpGEMM + fused difference "
                                      "(below the crossover)")}
    if native:
        ref, got = update("pure"), update("native")
        assert (np.array_equal(ref.indptr, got.indptr)
                and np.array_equal(ref.indices, got.indices)
                and np.array_equal(ref.data.view(np.uint64),
                                   got.data.view(np.uint64))), \
            "schur tiers disagree"
        calls = _dense_route_calls(lambda: update("native"))
        assert calls["schur_dense_calls"] == (1.0 if filled else 0.0), calls
        _add_native_tier(entry, t_native)
    return entry


def bench_thresholding(quick: bool, repeats: int, native: bool) -> dict:
    n = 300 if quick else 800
    rng = np.random.default_rng(4)
    S = sp.random(n, n, density=0.30, random_state=rng, format="csc")
    mu = 0.3  # drops roughly a third of the uniform [0,1) entries

    res = drop_small(S, mu)
    mask, d_nnz, d_sq, _ = threshold_mask(S.copy(), mu)
    assert d_nnz == res.dropped_nnz and d_sq == res.dropped_norm_sq

    before = _mintime(lambda: drop_small(S, mu), repeats)

    def fused():
        # the copy stands in for the matrix the solver already owns; only
        # the mask + apply passes are the fused route's real work
        M = S.copy()
        t0 = time.perf_counter()
        mk, _, _, _ = threshold_mask(M, mu)
        apply_threshold_mask(M, mk)
        return time.perf_counter() - t0

    after = min(fused() for _ in range(repeats))
    entry = {"before_s": before, "after_s": after,
             "detail": f"Schur-like {n}x{n} d=0.30, mu={mu}: copying "
                       "drop_small vs fused mask+apply-in-place; native = "
                       "single-C-pass mask + in-place compaction"}
    if native:
        M0 = S.copy()
        mk0, d_nnz0, d_sq0, _ = kernels.threshold_mask(M0, mu, tier="native")
        assert d_nnz0 == res.dropped_nnz and d_sq0 == res.dropped_norm_sq

        def fused_native():
            M = S.copy()
            t0 = time.perf_counter()
            mk, _, _, _ = kernels.threshold_mask(M, mu, tier="native")
            kernels.apply_threshold_mask(M, mk, tier="native")
            return time.perf_counter() - t0

        _add_native_tier(entry, min(fused_native() for _ in range(repeats)))
    return entry


def bench_order(repeats: int, native: bool, service: bool) -> dict:
    """The paper's column preprocessing (``kernels.colamd_postorder``):
    COLAMD, the column etree of the permuted matrix and its postorder.
    No pre-optimization route exists, so ``before_s`` == ``after_s`` (the
    pure composition) and the native column carries the comparison.
    ``service`` orders the largest service_mix matrix (M6 at scale 0.8),
    otherwise lu_fill's M2, in quick mode too (the pure ordering of M6
    takes ~0.13 s)."""
    label, scale = ("M6", 0.8) if service else ("M2", 1.0)
    A = suite_matrix(label, scale=scale)

    def order(tier):
        return kernels.colamd_postorder(A, tier=tier)

    if native:
        t_pure, t_native = _mintime_pair(lambda: order("pure"),
                                         lambda: order("native"), repeats)
    else:
        t_pure = _mintime(lambda: order("pure"), repeats)
    entry = {"before_s": t_pure, "after_s": t_pure,
             "detail": f"{label} at scale {scale} ({A.shape[0]}x{A.shape[1]}, "
                       f"nnz {A.nnz}); pure colamd + col_etree + postorder "
                       "on both columns, native = one C call"}
    if native:
        assert np.array_equal(order("pure"), order("native")), \
            "ordering tiers disagree"
        _add_native_tier(entry, t_native)
    return entry


def bench_tsqr(quick: bool, repeats: int) -> dict:
    m = 2000 if quick else 20000
    rng = np.random.default_rng(5)
    W = rng.standard_normal((m, 32))
    t = _mintime(lambda: tsqr(W), repeats)
    return {"before_s": t, "after_s": t,
            "detail": f"{m}x32 dense block; unchanged kernel, tracked "
                      "for drift"}


def bench_e2e(cls, quick: bool, repeats: int, native: bool = False,
              **kw) -> dict:
    n = 400 if quick else 900
    A = _m2_analogue(n)
    max_rank = 128 if quick else 320
    common = dict(k=32, tol=1e-6, max_rank=max_rank,
                  raise_on_failure=False, **kw)
    # pin the pure column explicitly: with the default ``auto`` request a
    # warm-cache host resolves to native and the ``tiers.native`` column
    # would measure native against itself
    r_pure = cls(kernel_tier="pure", **common).solve(A)  # warm-up
    t_pure = _mintime(lambda: cls(kernel_tier="pure", **common).solve(A),
                      repeats)
    entry = {"before_s": t_pure, "after_s": t_pure,
             "detail": f"M2-analogue n={n}, k=32, max_rank={max_rank}; "
                       "kernel_tier='pure' on both columns, native = "
                       "kernel_tier='native' (pivots and indicator "
                       "trajectories bitwise identical)"}
    if native:
        # warm-up solve: excludes any one-time JIT build/load from timing
        # and checks tier parity on this exact problem
        r_nat = cls(kernel_tier="native", **common).solve(A)
        assert np.array_equal(r_pure.row_perm, r_nat.row_perm)
        assert all(a.indicator == b.indicator
                   for a, b in zip(r_pure.history, r_nat.history))
        _add_native_tier(entry, _mintime(
            lambda: cls(kernel_tier="native", **common).solve(A), repeats))
    return entry


_BASELINE_CODE = """
import json, time
import numpy as np, scipy.sparse as sp
from repro.core.lu_crtp import LU_CRTP
from repro.core.ilut_crtp import ILUT_CRTP
n, max_rank, repeats = {n}, {max_rank}, {repeats}
rng = np.random.default_rng(1)
A = sp.random(n, n, density=0.02, random_state=rng, format="csc")
A = (A + sp.diags(np.linspace(1, 0.01, n), format="csc")).tocsc()
out = {{}}
for name, s in (("lu_crtp_e2e", LU_CRTP(k=32, tol=1e-6, max_rank=max_rank,
                                        raise_on_failure=False)),
                ("ilut_crtp_e2e", ILUT_CRTP(k=32, tol=1e-6,
                                            max_rank=max_rank,
                                            raise_on_failure=False,
                                            estimated_iterations=10))):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        s.solve(A)
        best = min(best, time.perf_counter() - t0)
    out[name] = best
print(json.dumps(out))
"""


def measure_pre_pr_e2e(baseline_repo: str, quick: bool,
                       repeats: int) -> dict:
    """Run the e2e benches inside a pre-PR checkout (its own ``src`` on
    ``PYTHONPATH``) and return ``{bench_name: min_seconds}``."""
    n = 400 if quick else 900
    max_rank = 128 if quick else 320
    code = _BASELINE_CODE.format(n=n, max_rank=max_rank, repeats=repeats)
    env = dict(os.environ, PYTHONPATH=str(Path(baseline_repo) / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _host() -> dict:
    """What the timings were measured on: CPU model, core count, build
    flags and library versions (absolute times are machine-bound)."""
    from repro.kernels.native import build
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
            "numpy": np.__version__, "scipy": scipy.__version__,
            "cflags": " ".join(build.CFLAGS)}


def run(quick: bool) -> dict:
    repeats = 1 if quick else 3
    # one availability probe up front: triggers the one-time JIT build (if
    # a compiler exists) so no timed region ever pays for compilation
    native = kernels.native_available()
    benches = {
        "spgemm": bench_spgemm(quick, max(repeats, 3), native),
        "spgemm_parallel": bench_spgemm_parallel(quick, max(repeats, 15),
                                                 native),
        "csr_to_csc": bench_csr_to_csc(quick, max(repeats, 5), native),
        "permute_split": bench_permute_split(quick, max(repeats, 5), native),
        "schur_update": bench_schur_update(quick, max(repeats, 3), native),
        "gram_filled": bench_gram(quick, max(repeats, 9), native,
                                  filled=True),
        "gram_sparse": bench_gram(quick, max(repeats, 9), native,
                                  filled=False),
        "qr_tp_service": bench_qr_tp(quick, max(repeats, 5), native,
                                     filled=False),
        "qr_tp_filled": bench_qr_tp(quick, max(repeats, 5), native,
                                    filled=True),
        "schur_filled": bench_schur_filled(quick, max(repeats, 9), native,
                                           filled=True),
        "schur_sparse": bench_schur_filled(quick, max(repeats, 9), native,
                                           filled=False),
        "thresholding": bench_thresholding(quick, max(repeats, 5), native),
        "order_service": bench_order(max(repeats, 5), native, service=True),
        "order_filled": bench_order(max(repeats, 5), native, service=False),
        "tsqr": bench_tsqr(quick, max(repeats, 3)),
        # e2e columns gate in CI (--min-native-e2e); 3 quick repeats keep
        # the min-time stable enough for a >= 1.0 gate on shared runners
        "lu_crtp_e2e": bench_e2e(LU_CRTP, quick, 3 if quick else 5,
                                 native=native),
        "ilut_crtp_e2e": bench_e2e(ILUT_CRTP, quick, 3 if quick else 5,
                                   native=native,
                                   estimated_iterations=10),
    }
    for entry in benches.values():
        entry["speedup"] = (entry["before_s"] / entry["after_s"]
                            if entry["after_s"] > 0 else float("inf"))
    return {"config": {"quick": quick, "repeats": repeats,
                       "native_tier": native, "host": _host()},
            "schema_version": SCHEMA_VERSION,
            "benches": benches}


def migrate_results(results: dict) -> dict:
    """Normalize a loaded results file to schema v2 in memory.

    v1 files (pre-kernel-tier) have no ``schema_version`` and no ``tiers``
    sub-entries; they migrate losslessly — every recorded number was a
    pure-tier measurement, so only the empty per-tier containers are added.
    """
    if results.get("schema_version", 1) >= SCHEMA_VERSION:
        return results
    print("note: migrating v1 (single-tier) results to schema "
          f"v{SCHEMA_VERSION}; recorded columns become pure-tier entries")
    results = dict(results, schema_version=SCHEMA_VERSION)
    results["config"] = dict(results.get("config", {}), native_tier=False)
    results["benches"] = {name: dict(entry, tiers=entry.get("tiers", {}))
                          for name, entry in results["benches"].items()}
    return results


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="small sizes / single repeats (CI smoke mode)")
    ap.add_argument("--output", default=str(REPO_ROOT / "BENCH_kernels.json"),
                    help="JSON output path")
    ap.add_argument("--check-regression", action="store_true",
                    help="exit nonzero if any fast route is >25%% "
                         "slower than its reference route")
    ap.add_argument("--min-native-e2e", type=float, default=None,
                    metavar="RATIO",
                    help="fail unless at least one *_e2e bench records "
                         "tiers.native.vs_pure >= RATIO (skipped with a "
                         "note when no native tier is available)")
    ap.add_argument("--baseline-repo", default=None,
                    help="path to a pre-PR checkout; also measures the "
                         "e2e benches there (default kernel tier) and "
                         "records pre_pr_before_s")
    args = ap.parse_args(argv)

    out = Path(args.output)
    prior = None
    if args.check_regression and out.exists():
        try:
            prior = migrate_results(json.loads(out.read_text()))
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            print(f"note: ignoring unreadable prior {out}: {exc}")

    results = run(args.quick)
    if args.baseline_repo:
        pre = measure_pre_pr_e2e(args.baseline_repo, args.quick,
                                 results["config"]["repeats"])
        for name, seconds in pre.items():
            entry = results["benches"][name]
            entry["pre_pr_before_s"] = seconds
            entry["speedup_vs_pre_pr"] = seconds / entry["after_s"]
    out.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")

    width = max(len(k) for k in results["benches"])
    for name, entry in results["benches"].items():
        line = (f"{name:{width}s}  before={entry['before_s'] * 1e3:9.2f}ms  "
                f"after={entry['after_s'] * 1e3:9.2f}ms  "
                f"speedup={entry['speedup']:5.2f}x")
        nat = entry.get("tiers", {}).get("native")
        if nat:
            line += (f"  native={nat['after_s'] * 1e3:9.2f}ms "
                     f"({nat['speedup']:.2f}x, {nat['vs_pure']:.2f}x "
                     "vs pure)")
        if "speedup_vs_pre_pr" in entry:
            line += (f"  pre-PR={entry['pre_pr_before_s'] * 1e3:9.2f}ms "
                     f"({entry['speedup_vs_pre_pr']:.2f}x)")
        print(line)
    print(f"wrote {out}")

    if args.check_regression:
        bad = [name for name, e in results["benches"].items()
               if e["after_s"] > REGRESSION_FACTOR * e["before_s"]]
        # per-tier gate on the microkernels only: the e2e native columns
        # are noise-dominated at --quick scale (per-call dispatch overhead
        # vs sub-millisecond windows), so they stay informational
        bad += [f"{name}[native]"
                for name, e in results["benches"].items()
                if not name.endswith("_e2e")
                and e.get("tiers", {}).get("native", {}).get("after_s", 0.0)
                > REGRESSION_FACTOR * e["after_s"]]
        if bad:
            print(f"REGRESSION: fast route >{REGRESSION_FACTOR}x "
                  f"slower than reference in: {', '.join(bad)}",
                  file=sys.stderr)
            return 1
        # drift report vs the previously-committed results: informational
        # only (absolute times are machine-bound, never a CI failure)
        if prior is not None:
            for name, entry in results["benches"].items():
                old = prior["benches"].get(name)
                if not old:
                    continue
                if entry["speedup"] < old["speedup"] / REGRESSION_FACTOR:
                    print(f"drift: {name} speedup {entry['speedup']:.2f}x "
                          f"(was {old['speedup']:.2f}x)")
        print("regression check passed "
              f"(after <= {REGRESSION_FACTOR} * before for every kernel, "
              "native <= pure * factor where measured)")

    if args.min_native_e2e is not None:
        if not results["config"]["native_tier"]:
            print("native e2e gate skipped: no native tier on this host")
        else:
            ratios = {name: e["tiers"]["native"]["vs_pure"]
                      for name, e in results["benches"].items()
                      if name.endswith("_e2e")
                      and e.get("tiers", {}).get("native")}
            best = max(ratios.values(), default=0.0)
            if best < args.min_native_e2e:
                print("NATIVE E2E GATE: best tiers.native.vs_pure "
                      f"{best:.2f}x < required {args.min_native_e2e:.2f}x "
                      f"({', '.join(f'{k}={v:.2f}x' for k, v in ratios.items())})",
                      file=sys.stderr)
                return 1
            print(f"native e2e gate passed (best vs_pure {best:.2f}x >= "
                  f"{args.min_native_e2e:.2f}x)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
