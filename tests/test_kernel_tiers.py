"""Kernel tier registry, JIT build cache, and the bitwise-parity contract.

Three layers of coverage for :mod:`repro.kernels`:

- **Registry semantics** that must hold on *every* host, compiler or not:
  request validation, ``auto`` resolution (env override, stat-probe-only
  cache check), the graceful ``native -> pure`` fallback when no compiler
  exists, cache-key provenance and result provenance.
- **Build cache** behaviour (``REPRO_KERNEL_CACHE``): a cold cache means
  ``auto`` stays pure without compiling anything; an explicit ``native``
  request builds once and reuses; a source edit changes the hash and
  forces a rebuild instead of reusing the stale library.
- **Bitwise parity** of every native kernel against the pure tier
  (skipped when the host cannot build): same values, same index arrays,
  same dtypes, same signed zeros — plus end-to-end solver, SPMD and
  thread-safety checks.
"""

from __future__ import annotations

import contextlib
import threading

import numpy as np
import pytest
import scipy.sparse as sp

from repro import kernels, perf
from repro.core.ilut_crtp import ILUT_CRTP
from repro.core.lu_crtp import LU_CRTP
from repro.core.randqb_ei import RandQB_EI
from repro.kernels import native, pure, tiers
from repro.kernels.native import build
from repro.kernels.threads import blas_threads, set_blas_threads
from repro.matrices.suite import suite_matrix
from repro.parallel.spmd import run_spmd_solver
from repro.sparse.spgemm import SpGEMMWorkspace

HAS_NATIVE = kernels.native_available()
needs_native = pytest.mark.skipif(
    not HAS_NATIVE, reason="no C compiler / native kernel build unavailable")

SENT = np.iinfo(np.int64).max


@pytest.fixture(autouse=True)
def tier_state():
    """Re-probe tier state after every test: several tests monkeypatch the
    compiler discovery or the cache location, and the memoized load must
    not leak into the next test."""
    yield
    kernels.reset()


def _m2_analogue(n, seed=1, density=0.02):
    rng = np.random.default_rng(seed)
    A = sp.random(n, n, density=density, random_state=rng, format="csc")
    return (A + sp.diags(np.linspace(1, 0.01, n), format="csc")).tocsc()


def _pair(n, m, seed, pow2=False):
    """Random canonical-CSR operand pair; ``pow2`` draws values from exact
    powers of two so products cancel to exact zero often (the scipy
    semantics the native tier must replicate include dropping those)."""
    rng = np.random.default_rng(seed)
    if pow2:
        def rvs(size):
            return (2.0 ** rng.integers(-2, 3, size)
                    * rng.choice([-1.0, 1.0], size))
    else:
        rvs = rng.standard_normal
    A = sp.random(n, m, density=0.25, random_state=rng, data_rvs=rvs,
                  format="csr")
    B = sp.random(m, n, density=0.25, random_state=rng, data_rvs=rvs,
                  format="csr")
    return A, B


def _assert_bitwise_csr(C1, C2):
    assert C1.shape == C2.shape
    assert C1.indptr.dtype == C2.indptr.dtype
    assert C1.indices.dtype == C2.indices.dtype
    assert np.array_equal(C1.indptr, C2.indptr)
    assert np.array_equal(C1.indices, C2.indices)
    assert C1.data.dtype == C2.data.dtype == np.float64
    # view as bits: distinguishes -0.0 from +0.0, NaN payloads included
    assert np.array_equal(C1.data.view(np.uint64), C2.data.view(np.uint64))


# -- registry semantics (run everywhere) -------------------------------------

def test_validate_request():
    for req in ("auto", "pure", "native", "  NATIVE "):
        assert tiers.validate_request(req) in kernels.TIER_REQUESTS
    with pytest.raises(ValueError, match="unknown kernel tier"):
        tiers.validate_request("fast")


def test_config_rejects_unknown_tier():
    with pytest.raises(ValueError, match="unknown kernel tier"):
        LU_CRTP(k=8, kernel_tier="bogus")


def test_resolve_env_override(monkeypatch):
    monkeypatch.setenv(kernels.TIER_ENV, "pure")
    assert kernels.resolve_tier("auto") == "pure"
    assert kernels.resolve_tier(None) == "pure"
    # an explicit request always beats the environment
    assert kernels.resolve_tier("pure") == "pure"
    monkeypatch.setenv(kernels.TIER_ENV, "bogus")
    with pytest.raises(ValueError, match="unknown kernel tier"):
        kernels.resolve_tier("auto")


def test_auto_cold_cache_stays_pure_without_compiling(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path))
    monkeypatch.delenv(kernels.TIER_ENV, raising=False)
    kernels.reset()
    assert kernels.resolve_tier("auto") == "pure"
    # the auto probe is a stat call, never a build
    assert list(tmp_path.iterdir()) == []


def test_native_request_falls_back_without_compiler(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path))
    monkeypatch.setattr(build, "find_compiler", lambda: None)
    kernels.reset()
    assert not kernels.native_available()
    assert "compiler" in (build.last_error or "")
    with pytest.warns(RuntimeWarning, match="falling back to 'pure'"):
        assert kernels.resolve_tier("native") == "pure"
    # the warning is one-time; later resolutions stay silent
    assert kernels.resolve_tier("native") == "pure"


def test_solve_succeeds_without_compiler(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path))
    monkeypatch.setattr(build, "find_compiler", lambda: None)
    kernels.reset()
    A = _m2_analogue(80)
    with pytest.warns(RuntimeWarning, match="falling back to 'pure'"):
        r = LU_CRTP(k=8, tol=1e-2, max_rank=32, raise_on_failure=False,
                    kernel_tier="native").solve(A)
    assert r.kernel_tier == "pure"


def test_dispatch_falls_back_per_call_without_compiler(tmp_path, monkeypatch):
    # a resolved-tier dispatch call degrades per call (no warning — the
    # resolve step owns the one-time warning) and stays bitwise correct
    monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path))
    monkeypatch.setattr(build, "find_compiler", lambda: None)
    kernels.reset()
    A, B = _pair(40, 24, seed=3)
    ref = pure.spgemm_csr(A, B)
    C = kernels.spgemm_csr(A, B, tier="native")
    _assert_bitwise_csr(sp.csr_matrix(ref), sp.csr_matrix(C))


def test_cache_key_includes_tier():
    from repro.api.config import SolverConfig
    keys = {SolverConfig(k=8, kernel_tier=t).cache_key()
            for t in kernels.TIER_REQUESTS}
    assert len(keys) == len(kernels.TIER_REQUESTS)


def test_result_records_resolved_tier():
    A = _m2_analogue(80)
    r = LU_CRTP(k=8, tol=1e-2, max_rank=32, raise_on_failure=False,
                kernel_tier="pure").solve(A)
    assert r.kernel_tier == "pure"
    assert r.to_json()["kernel_tier"] == "pure"


def test_record_tier_counts(monkeypatch):
    from repro import perf
    perf.enable()
    try:
        assert tiers.record_tier("pure") == "pure"
        assert perf.get_recorder().counters.get("kernel_tier.pure", 0) >= 1
    finally:
        perf.disable()


# -- build cache -------------------------------------------------------------

@needs_native
def test_build_cache_reuse_and_stale_rebuild(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path))
    kernels.reset()
    assert not native.cached_build_exists()
    assert kernels.native_available()        # compiles into the tmp cache
    assert native.cached_build_exists()

    def lib_dirs():
        return sorted(p.name for p in tmp_path.iterdir() if p.is_dir())

    first = lib_dirs()
    assert len(first) == 1
    # warm reload: same hash, no second build directory
    kernels.reset()
    assert kernels.native_available()
    assert lib_dirs() == first

    # a source edit changes the hash: the stale library must not be reused
    extra = tmp_path / "extra_source_tweak.h"
    extra.write_text("/* simulated source edit */\n")
    real = build.source_files()
    monkeypatch.setattr(build, "source_files",
                        lambda src_dir=None: real + [extra])
    kernels.reset()
    assert not native.cached_build_exists()
    assert kernels.native_available()        # rebuilds under the new hash
    assert len(lib_dirs()) == 2


@needs_native
def test_auto_resolves_native_on_warm_cache(monkeypatch):
    monkeypatch.delenv(kernels.TIER_ENV, raising=False)
    kernels.reset()
    assert kernels.native_available()
    assert kernels.resolve_tier("auto") == "native"
    assert kernels.available_tiers() == kernels.TIERS


# -- per-kernel bitwise parity ----------------------------------------------

@needs_native
@pytest.mark.parametrize("seed,pow2", [(0, False), (1, True), (2, True)])
def test_spgemm_parity(seed, pow2):
    A, B = _pair(60, 40, seed=seed, pow2=pow2)
    ref = sp.csr_matrix(pure.spgemm_csr(A, B))
    C = sp.csr_matrix(kernels.spgemm_csr(A, B, tier="native"))
    _assert_bitwise_csr(ref, C)


@needs_native
def test_spgemm_parity_int64_indices():
    from repro.sparse.utils import raw_csr
    A, B = _pair(50, 30, seed=4)
    A64 = raw_csr(A.data, A.indices.astype(np.int64),
                  A.indptr.astype(np.int64), A.shape)
    B64 = raw_csr(B.data, B.indices.astype(np.int64),
                  B.indptr.astype(np.int64), B.shape)
    ref = pure.spgemm_csr(A64, B64)
    C = kernels.spgemm_csr(A64, B64, tier="native")
    assert C.indices.dtype == ref.indices.dtype
    _assert_bitwise_csr(sp.csr_matrix(ref), sp.csr_matrix(C))


@needs_native
def test_spgemm_parity_exact_cancellation():
    # one dense row of +-1 against two identical B rows: every product
    # cancels to exact zero and must be dropped, exactly like scipy
    A = sp.csr_matrix(np.array([[1.0, -1.0]]))
    row = np.array([[0.5, 0.0, -2.0, 0.25]])
    B = sp.csr_matrix(np.vstack([row, row]))
    ref = sp.csr_matrix(pure.spgemm_csr(A, B))
    C = sp.csr_matrix(kernels.spgemm_csr(A, B, tier="native"))
    assert ref.nnz == 0
    _assert_bitwise_csr(ref, C)


@needs_native
def test_threshold_parity():
    rng = np.random.default_rng(7)
    S = sp.random(120, 120, density=0.3, random_state=rng, format="csc")
    mu = 0.3
    Mp, Mn = S.copy(), S.copy()
    mask_p, nnz_p, sq_p, mx_p = kernels.threshold_mask(Mp, mu, tier="pure")
    mask_n, nnz_n, sq_n, mx_n = kernels.threshold_mask(Mn, mu, tier="native")
    assert np.array_equal(np.asarray(mask_p, bool), np.asarray(mask_n, bool))
    assert nnz_p == nnz_n and sq_p == sq_n and mx_p == mx_n
    kernels.apply_threshold_mask(Mp, mask_p, tier="pure")
    kernels.apply_threshold_mask(Mn, mask_n, tier="native")
    assert np.array_equal(Mp.indptr, Mn.indptr)
    assert np.array_equal(Mp.indices, Mn.indices)
    assert np.array_equal(Mp.data.view(np.uint64), Mn.data.view(np.uint64))


@needs_native
def test_window_parity():
    A = _m2_analogue(150, seed=9, density=0.05)
    rng = np.random.default_rng(10)
    col_perm, row_perm = rng.permutation(150), rng.permutation(150)
    k = 24
    blocks_p = kernels.permuted_blocks(A, col_perm, row_perm, k, tier="pure")
    blocks_n = kernels.permuted_blocks(A, col_perm, row_perm, k,
                                       tier="native")
    assert np.array_equal(blocks_p[0], blocks_n[0])     # dense A11
    for P, N in zip(blocks_p[1:], blocks_n[1:]):
        _assert_bitwise_csr(sp.csr_matrix(P), sp.csr_matrix(N))


@needs_native
def test_pivot_parity_with_ties():
    rng = np.random.default_rng(11)
    for n in (1, 7, 64, 513):
        master = rng.integers(0, 5, size=n, dtype=np.int64)  # many ties
        kp, kn = master.copy(), master.copy()
        for _ in range(n):
            p = kernels.pivot_argmin_consume(kp, SENT, tier="pure")
            q = kernels.pivot_argmin_consume(kn, SENT, tier="native")
            assert p == q                    # first-minimum tie semantics
        assert np.array_equal(kp, kn)
        assert (kp == SENT).all()            # every winner retired


@needs_native
def test_pivot_cap_delegates_to_numpy():
    n = native._PIVOT_SCAN_CAP + 1
    rng = np.random.default_rng(12)
    master = rng.integers(0, n, size=n, dtype=np.int64)
    kp, kn = master.copy(), master.copy()
    assert (kernels.pivot_argmin_consume(kp, SENT, tier="pure")
            == kernels.pivot_argmin_consume(kn, SENT, tier="native"))
    assert np.array_equal(kp, kn)


@needs_native
def test_pivot_identity_cache_survives_key_replacement():
    # the native wrapper caches (array, data pointer); a *different* array
    # of the same size must not be scanned through the stale pointer
    rng = np.random.default_rng(13)
    k1 = rng.integers(0, 1000, size=200, dtype=np.int64)
    kernels.pivot_argmin_consume(k1, SENT, tier="native")
    k2 = rng.integers(0, 1000, size=200, dtype=np.int64)
    expect = int(np.argmin(k2))
    assert kernels.pivot_argmin_consume(k2, SENT, tier="native") == expect
    assert k2[expect] == SENT


# -- workspace ---------------------------------------------------------------

def test_grow_cap_geometric():
    grow = SpGEMMWorkspace._grow_cap
    assert grow(0, 1000) == 1024
    assert grow(1024, 1025) == 2048          # never an exact-fit realloc
    assert grow(1024, 10 ** 6) == 1 << 20
    cap = 0
    reallocs = 0
    for need in range(1, 5000, 7):           # rising watermark
        if need > cap:
            cap = grow(cap, need)
            reallocs += 1
    assert reallocs <= 4                     # O(log), not one per step


def test_matmat_buffers_reuse():
    ws = SpGEMMWorkspace()
    mark, sums, touched = ws.matmat_buffers(500)
    assert mark.size >= 500 and (mark == -1).all()
    assert sums.size == mark.size == touched.size
    grown = ws.grown
    again = ws.matmat_buffers(400)
    assert again[0] is mark and ws.grown == grown     # no regrow
    bigger = ws.matmat_buffers(5000)
    assert bigger[0].size >= 5000 and ws.grown == grown + 1


@needs_native
def test_native_spgemm_restores_mark_invariant():
    A, B = _pair(60, 40, seed=14)
    ws = SpGEMMWorkspace()
    kernels.spgemm_csr(A, B, tier="native", workspace=ws)
    assert (ws._mm_mark == -1).all()
    # a second call through the same workspace stays correct
    C = sp.csr_matrix(kernels.spgemm_csr(A, B, tier="native", workspace=ws))
    _assert_bitwise_csr(sp.csr_matrix(pure.spgemm_csr(A, B)), C)


@needs_native
def test_threadlocal_workspace_no_races():
    cases = []
    for seed in range(4):
        A, B = _pair(50, 35, seed=20 + seed)
        cases.append((A, B, sp.csr_matrix(pure.spgemm_csr(A, B))))
    failures = []

    def worker(idx):
        A, B, ref = cases[idx % len(cases)]
        for _ in range(25):
            C = sp.csr_matrix(kernels.spgemm_csr(A, B, tier="native"))
            if not (np.array_equal(C.indptr, ref.indptr)
                    and np.array_equal(C.indices, ref.indices)
                    and np.array_equal(C.data, ref.data)):
                failures.append(idx)
                return

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not failures


# -- conversion kernels ------------------------------------------------------

def _convert_cases():
    rng = np.random.default_rng(7)
    neg = sp.random(40, 60, density=0.15, random_state=rng, format="csr",
                    data_rvs=rng.standard_normal)
    neg.sum_duplicates()
    neg.sort_indices()
    neg.data[::3] = -0.0  # signed zeros must survive conversion bitwise
    return [
        sp.csr_matrix((10, 12)),                       # fully empty
        sp.random(1, 200, density=0.3, random_state=rng,
                  format="csr"),                       # single row
        sp.random(64, 64, density=0.05, random_state=rng,
                  format="csr"),                       # square
        neg,                                           # +-0.0 data
    ]


@needs_native
@pytest.mark.parametrize("case", range(4))
def test_csr_csc_convert_parity(case):
    A = _convert_cases()[case]
    _assert_bitwise_csc(A.tocsc(), kernels.csr_to_csc(A, tier="native"))
    Ac = A.tocsc()
    _assert_bitwise_csr(Ac.tocsr(), kernels.csc_to_csr(Ac, tier="native"))


@needs_native
def test_convert_parity_int64_indices():
    # scipy's matrix API downcasts the output index dtype to int32
    # whenever shape and nnz fit, even for int64-indexed input; the
    # native kernel must reproduce that
    rng = np.random.default_rng(11)
    A = sp.random(30, 50, density=0.2, random_state=rng, format="csr")
    A.sort_indices()
    A.indptr = A.indptr.astype(np.int64)
    A.indices = A.indices.astype(np.int64)
    got = kernels.csr_to_csc(A, tier="native")
    ref = A.tocsc()
    assert ref.indices.dtype == np.int32  # the downcast is real
    _assert_bitwise_csc(ref, got)


def _assert_bitwise_csc(C1, C2):
    assert isinstance(C2, sp.csc_matrix)
    assert C1.shape == C2.shape
    assert C1.indptr.dtype == C2.indptr.dtype
    assert C1.indices.dtype == C2.indices.dtype
    assert np.array_equal(C1.indptr, C2.indptr)
    assert np.array_equal(C1.indices, C2.indices)
    assert np.array_equal(C1.data.view(np.uint64), C2.data.view(np.uint64))


@needs_native
def test_convert_perf_counters():
    from repro import perf
    A, _ = _pair(40, 30, seed=3)
    perf.enable()
    try:
        kernels.csr_to_csc(A, tier="native")
        counters = perf.get_recorder().counters
        assert counters.get("kernel_tier.convert_calls", 0) >= 1
        assert counters.get("kernel_tier.convert_seconds", 0) > 0
        tiers.record_tier("native")
        assert counters.get("kernel_tier.threads") == float(
            kernels.kernel_threads())
    finally:
        perf.disable()


def test_kernel_threads_env(monkeypatch):
    monkeypatch.delenv(kernels.THREADS_ENV, raising=False)
    assert kernels.kernel_threads() == 1
    monkeypatch.setenv(kernels.THREADS_ENV, "4")
    assert kernels.kernel_threads() == 4
    monkeypatch.setenv(kernels.THREADS_ENV, "0")
    assert kernels.kernel_threads() == 1  # floor
    monkeypatch.setenv(kernels.THREADS_ENV, "lots")
    assert kernels.kernel_threads() == 1  # non-numeric reads as 1


# -- gram / fused Schur ------------------------------------------------------

@needs_native
@pytest.mark.parametrize("seed", range(3))
def test_gram_parity(seed):
    rng = np.random.default_rng(40 + seed)
    B1 = sp.random(120, 9, density=0.2, random_state=rng,
                   data_rvs=rng.standard_normal, format="csc")
    B2 = sp.random(120, 7, density=0.25, random_state=rng,
                   data_rvs=rng.standard_normal, format="csc")
    B1.sort_indices()
    B2.sort_indices()
    ref = kernels.gram_csc(B1, B2, tier="pure")
    got = kernels.gram_csc(B1, B2, tier="native")
    assert np.array_equal(ref.view(np.uint64), got.view(np.uint64))
    refs = kernels.gram_csc(B1, B1, tier="pure")
    gots = kernels.gram_csc(B1, B1, tier="native")
    assert np.array_equal(refs.view(np.uint64), gots.view(np.uint64))


@needs_native
def test_gram_symmetric_dense_panel_parity():
    # self-Gram takes the mirror path; density 0.6 and 1.0 both sit above
    # the dense-panel crossover, so the native tier zero-fills the panel
    # and accumulates only the upper triangle.  Each must reproduce the
    # pure route bit for bit, signed zeros and all.
    rng = np.random.default_rng(44)
    for density in (0.6, 1.0):
        B = sp.random(90, 13, density=density, random_state=rng,
                      data_rvs=rng.standard_normal, format="csc")
        B.sort_indices()
        if B.nnz > 3:
            B.data[0] = 0.0
            B.data[1] = -0.0
        ref = kernels.gram_csc(B, B, tier="pure")
        got = kernels.gram_csc(B, B, tier="native")
        assert np.array_equal(ref.view(np.uint64), got.view(np.uint64))


# -- dense-panel routes of gram_csc / schur_update_csc -----------------------

@contextlib.contextmanager
def _dense_calls():
    """Count the dense-panel route calls made inside the block (the perf
    counters record only while perf is enabled)."""
    rec, prev, was = perf.PerfRecorder(), perf.get_recorder(), \
        perf.is_enabled()
    perf.enable(rec)
    calls: dict = {}
    try:
        yield calls
    finally:
        for route in ("gram", "schur"):
            calls[route] = rec.counters.get(
                f"kernel_tier.{route}_dense_calls", 0.0)
        perf.enable(prev)
        if not was:
            perf.disable()


def _matrix(m, n, seed, fmt, *, idx=np.int32, density=0.95, zeros=False,
            pow2=False, empty_rows=(), empty_cols=()):
    """Canonical float64 CSR/CSC with ``idx`` index arrays.  ``zeros``
    stores explicit +0.0 and -0.0 entries, ``pow2`` draws exact powers of
    two (sums cancel exactly), ``empty_rows``/``empty_cols`` are left
    without entries."""
    rng = np.random.default_rng(seed)
    mask = rng.random((m, n)) < density
    mask[list(empty_rows), :] = False
    mask[:, list(empty_cols)] = False
    rows, cols = np.nonzero(mask)
    if pow2:
        vals = (2.0 ** rng.integers(-2, 3, rows.size)
                * rng.choice([-1.0, 1.0], rows.size))
    else:
        vals = rng.standard_normal(rows.size)
    if zeros:
        pick = rng.random(rows.size) < 0.2
        vals[pick] = 0.0
        vals[pick & (rng.random(rows.size) < 0.5)] = -0.0
    cls = sp.csr_matrix if fmt == "csr" else sp.csc_matrix
    A = cls((vals, (rows, cols)), shape=(m, n))
    A.indptr = A.indptr.astype(idx)
    A.indices = A.indices.astype(idx)
    return A


def _gram_routes(B1, B2):
    """Native gram_csc against pure, bit for bit; returns how many
    dense-panel calls the native tier made."""
    ref = kernels.gram_csc(B1, B2, tier="pure")
    with _dense_calls() as calls:
        got = kernels.gram_csc(B1, B2, tier="native")
    assert np.array_equal(ref.view(np.uint64), got.view(np.uint64))
    return calls["gram"]


def _schur_routes(A22, F, A12, tol):
    """Native schur_update_csc against pure, bit for bit; returns how
    many dense-panel calls the native tier made."""
    ref = kernels.schur_update_csc(A22, F, A12, tol=tol, tier="pure")
    with _dense_calls() as calls:
        got = kernels.schur_update_csc(A22, F, A12, tol=tol, tier="native")
    _assert_bitwise_csc(ref, got)
    return calls["schur"]


@needs_native
@pytest.mark.parametrize("idx", [np.int32, np.int64])
@pytest.mark.parametrize("width", [1, 3, 13, 64])
def test_gram_dense_route_parity(idx, width):
    # widths and per-column entry counts off the 8/4 unroll, signed and
    # explicit zeros, empty rows and columns; self- and cross-Gram
    B1 = _matrix(47, width, 60 + width, "csc", idx=idx, zeros=True,
                 empty_rows=(0, 5),
                 empty_cols=(width - 1,) if width > 1 else ())
    B2 = _matrix(47, width + 2, 61 + width, "csc", idx=idx, zeros=True,
                 empty_rows=(5, 46), empty_cols=(0,))
    assert _gram_routes(B1, B1) == 1
    assert _gram_routes(B1, B2) == 1


@needs_native
def test_gram_dense_route_exact_cancellation():
    # the lower half of B1 negates the upper half against identical B2
    # rows: every total cancels to exactly 0.0, which must come out +0.0
    H1 = _matrix(20, 9, 62, "csc", pow2=True)
    H2 = _matrix(20, 11, 63, "csc", pow2=True)
    B1 = sp.vstack([H1, -H1], format="csc")
    B2 = sp.vstack([H2, H2], format="csc")
    assert _gram_routes(B1, B2) == 1
    got = kernels.gram_csc(B1, B2, tier="native")
    assert not got.any() and not np.signbit(got).any()


@needs_native
def test_gram_dense_route_preconditions():
    B1 = _matrix(40, 12, 64, "csc")
    B2 = _matrix(40, 10, 65, "csc")
    for bad in (np.inf, -np.inf, np.nan):
        # v * 0.0 is NaN for a non-finite B1 value: sparse route
        B = B1.copy()
        B.data[3] = bad
        assert _gram_routes(B, B2) == 0
        assert _gram_routes(B, B) == 0
        # a non-finite B2 value only meets present B1 entries: dense route
        B = B2.copy()
        B.data[7] = bad
        assert _gram_routes(B1, B) == 1
    # a duplicate entry in B2 would merge in the panel: sparse route
    dup = sp.csc_matrix((np.array([1.5, -0.5, 2.0, 3.0]),
                         np.array([1, 1, 0, 2]), np.array([0, 2, 4])),
                        shape=(3, 2))
    full = _matrix(3, 4, 66, "csc", density=1.0)
    assert _gram_routes(full, dup) == 0


@needs_native
@pytest.mark.parametrize("idx", [np.int32, np.int64])
@pytest.mark.parametrize("tol", [None, 0.0, 1e-3])
def test_schur_dense_route_parity(idx, tol):
    # n = 29 is off the unroll, k = 13 runs the 8-, 4- and 1-entry passes;
    # signed and explicit zeros throughout, empty rows and columns
    m, n, k = 37, 29, 13
    A22 = _matrix(m, n, 70, "csr", idx=idx, density=0.7, zeros=True,
                  empty_rows=(2,), empty_cols=(3,))
    F = _matrix(m, k, 71, "csr", idx=idx, zeros=True, empty_rows=(4, 36))
    A12 = _matrix(k, n, 72, "csr", idx=idx, zeros=True, empty_rows=(1,),
                  empty_cols=(28,))
    assert _schur_routes(A22, F, A12, tol) == 1


@needs_native
def test_schur_dense_route_cancellation_and_threshold_ties():
    F = _matrix(30, 10, 73, "csr", pow2=True)
    A12 = _matrix(10, 25, 74, "csr", pow2=True)
    from repro.sparse.ops import csr_matmul_nosym
    C = csr_matmul_nosym(F, A12)
    # A22 equal to the product cancels every entry to exactly zero
    assert _schur_routes(C.copy(), F, A12, 0.0) == 1
    assert kernels.schur_update_csc(C.copy(), F, A12, tol=0.0,
                                    tier="native").nnz == 0
    # thresholds exactly on data values: |r| == tol is dropped
    A22 = _matrix(30, 25, 75, "csr", pow2=True, density=0.5)
    S = kernels.schur_update_csc(A22, F, A12, tol=None, tier="pure")
    for tol in np.unique(np.abs(S.data))[:4]:
        assert _schur_routes(A22, F, A12, float(tol)) == 1


@needs_native
def test_schur_dense_route_preconditions():
    A22 = _matrix(30, 20, 76, "csr", density=0.8)
    F = _matrix(30, 8, 77, "csr")
    A12 = _matrix(8, 20, 78, "csr")
    assert _schur_routes(A22, F, A12, 0.0) == 1
    for bad in (np.inf, -np.inf, np.nan):
        # v * 0.0 is NaN for a non-finite F value: sparse route
        Fb = F.copy()
        Fb.data[5] = bad
        assert _schur_routes(A22, Fb, A12, 0.0) == 0
        # a non-finite A12 value only meets present F entries, exactly as
        # in the row-merge SpGEMM: dense route, same bits
        Ab = A12.copy()
        Ab.data[9] = bad
        assert _schur_routes(A22, F, Ab, 1e-3) == 1
    # a duplicate entry in A12 would merge in the panel: sparse route
    Ad = A12.copy()
    Ad.indices[1] = Ad.indices[0]
    Ad.has_canonical_format = False
    Ad.has_sorted_indices = False
    assert _schur_routes(A22, F, Ad, 0.0) == 0


# -- column gather -----------------------------------------------------------

@needs_native
@pytest.mark.parametrize("seed", range(3))
def test_gather_columns_parity(seed):
    rng = np.random.default_rng(70 + seed)
    A = sp.random(130, 40, density=0.15, random_state=rng,
                  data_rvs=rng.standard_normal, format="csc")
    A.sort_indices()
    for cols in (rng.permutation(40)[:11],        # scattered
                 np.array([5, 5, 0, 39]),          # duplicates
                 np.arange(40)[::-1],              # reversed
                 np.array([], dtype=np.intp)):     # empty
        ref = kernels.gather_columns(A, cols, tier="pure")
        got = kernels.gather_columns(A, cols, tier="native")
        scipy_ref = A[:, np.asarray(cols, dtype=np.intp)]
        assert got.shape == ref.shape == scipy_ref.shape
        assert got.indices.dtype == ref.indices.dtype
        assert got.indptr.dtype == ref.indptr.dtype
        assert np.array_equal(got.indptr, ref.indptr)
        assert np.array_equal(got.indices, ref.indices)
        assert np.array_equal(got.data.view(np.uint64),
                              ref.data.view(np.uint64))
        assert np.array_equal(got.toarray(), scipy_ref.toarray())


@needs_native
def test_gather_columns_int64_indices_downcast():
    # int64 input on a small matrix: both tiers emit the scipy dtype rule
    # (int32 index arrays whenever the row count fits)
    rng = np.random.default_rng(73)
    A = sp.random(60, 20, density=0.3, random_state=rng,
                  data_rvs=rng.standard_normal, format="csc")
    A.sort_indices()
    A.indices = A.indices.astype(np.int64)
    A.indptr = A.indptr.astype(np.int64)
    cols = rng.permutation(20)[:7]
    ref = kernels.gather_columns(A, cols, tier="pure")
    got = kernels.gather_columns(A, cols, tier="native")
    assert ref.indices.dtype == got.indices.dtype == np.int32
    assert np.array_equal(ref.indices, got.indices)
    assert np.array_equal(ref.data, got.data)


@needs_native
def test_extract_columns_routes_through_tier():
    # the non-contiguous path of extract_columns dispatches the registry;
    # both tiers must agree with each other and with fancy indexing
    from repro.sparse.ops import extract_columns
    rng = np.random.default_rng(74)
    A = sp.random(80, 30, density=0.2, random_state=rng,
                  data_rvs=rng.standard_normal, format="csc")
    A.sort_indices()
    cols = np.array([20, 3, 17, 3, 29])
    ref = extract_columns(A, cols, tier="pure")
    got = extract_columns(A, cols, tier="native")
    assert np.array_equal(ref.indptr, got.indptr)
    assert np.array_equal(ref.indices, got.indices)
    assert np.array_equal(ref.data.view(np.uint64),
                          got.data.view(np.uint64))
    assert np.array_equal(got.toarray(), A[:, cols].toarray())


@needs_native
@pytest.mark.parametrize("tol", [None, 0.0, 1e-2])
def test_schur_update_parity(tol):
    rng = np.random.default_rng(50)
    m, n, r = 50, 45, 6
    A22 = sp.random(m, n, density=0.12, random_state=rng,
                    data_rvs=rng.standard_normal, format="csr")
    F = sp.random(m, r, density=0.5, random_state=rng,
                  data_rvs=rng.standard_normal, format="csr")
    A12 = sp.random(r, n, density=0.5, random_state=rng,
                    data_rvs=rng.standard_normal, format="csr")
    for M in (A22, F, A12):
        M.sort_indices()
    ref = kernels.schur_update_csc(A22, F, A12, tol=tol, tier="pure")
    got = kernels.schur_update_csc(A22, F, A12, tol=tol, tier="native")
    _assert_bitwise_csc(ref, got)


@needs_native
def test_schur_update_exact_cancellation():
    # plant entries of A22 equal to product entries so the difference
    # cancels to exact zero — scipy's binop drops them, so must the kernel
    rng = np.random.default_rng(51)
    F, A12 = _pair(40, 12, seed=51, pow2=True)
    from repro.sparse.ops import csr_matmul_nosym
    C = csr_matmul_nosym(F, A12)
    A22 = C.copy()
    ref = kernels.schur_update_csc(A22, F, A12, tol=0.0, tier="pure")
    got = kernels.schur_update_csc(A22, F, A12, tol=0.0, tier="native")
    assert got.nnz == 0
    _assert_bitwise_csc(ref, got)


# -- OpenMP parallel SpGEMM --------------------------------------------------

@needs_native
@pytest.mark.parametrize("threads", ["1", "2", "8"])
def test_spgemm_thread_count_independence(threads, monkeypatch):
    monkeypatch.setenv(kernels.THREADS_ENV, threads)
    A, B = _pair(90, 70, seed=60)
    ref = sp.csr_matrix(pure.spgemm_csr(A, B))
    got = sp.csr_matrix(kernels.spgemm_csr(A, B, tier="native"))
    _assert_bitwise_csr(ref, got)


@needs_native
def test_parallel_spgemm_no_races(monkeypatch):
    # 8 Python threads each running the OpenMP SpGEMM at 8 kernel threads
    # through thread-local workspaces, mirroring the serial race test
    monkeypatch.setenv(kernels.THREADS_ENV, "8")
    cases = []
    for seed in range(4):
        A, B = _pair(50, 35, seed=70 + seed)
        cases.append((A, B, sp.csr_matrix(pure.spgemm_csr(A, B))))
    failures = []

    def worker(idx):
        A, B, ref = cases[idx % len(cases)]
        for _ in range(25):
            C = sp.csr_matrix(kernels.spgemm_csr(A, B, tier="native"))
            if not (np.array_equal(C.indptr, ref.indptr)
                    and np.array_equal(C.indices, ref.indices)
                    and np.array_equal(C.data, ref.data)):
                failures.append(idx)
                return

    workers = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
    for t in workers:
        t.start()
    for t in workers:
        t.join()
    assert not failures


@needs_native
def test_parallel_spgemm_restores_mark_invariant(monkeypatch):
    monkeypatch.setenv(kernels.THREADS_ENV, "4")
    A, B = _pair(60, 40, seed=15)
    ws = SpGEMMWorkspace()
    kernels.spgemm_csr(A, B, tier="native", workspace=ws)
    assert (ws._mm_mark == -1).all()


@needs_native
def test_e2e_parity_across_thread_counts(monkeypatch):
    # Inputs: the OpenMP SpGEMM thread count and the caller's OpenBLAS
    # pool size.  M2 at scale 0.6 is large enough for threaded BLAS
    # reductions to change LU_CRTP's indicator bits on a 2-thread pool, so
    # this fails unless the solve holds the pool at one thread itself.
    A = suite_matrix("M2", scale=0.6)
    caller_pool = blas_threads()
    try:
        for cls, extra in ((LU_CRTP, {}),
                           (ILUT_CRTP, {"estimated_iterations": 6})):
            results = []
            for threads in ("1", "2"):
                monkeypatch.setenv(kernels.THREADS_ENV, threads)
                for pool in (1, 2):
                    set_blas_threads(pool)
                    results.append(cls(k=16, tol=2e-2, kernel_tier="native",
                                       raise_on_failure=False,
                                       **extra).solve(A))
            for res in results[1:]:
                _assert_same_lu(results[0], res)
                _assert_bitwise_csc(results[0].L, res.L)
                _assert_bitwise_csr(results[0].U, res.U)
    finally:
        set_blas_threads(caller_pool)


# -- factor-conversion caching (repro.core.apply) ----------------------------

def test_apply_factor_conversion_cached():
    from repro.core.apply import _factor_csc, pseudo_solve
    A = _m2_analogue(80)
    r = LU_CRTP(k=8, tol=1e-6, max_rank=24, raise_on_failure=False).solve(A)
    L1 = _factor_csc(r, "L")
    assert _factor_csc(r, "L") is L1  # second lookup hits the cache
    b = np.ones(A.shape[0])
    x1 = pseudo_solve(r, b)
    x2 = pseudo_solve(r, b)  # cached factors: same object, same answer
    assert np.array_equal(x1, x2)


# -- end-to-end parity -------------------------------------------------------

def _assert_same_lu(r1, r2):
    assert np.array_equal(r1.row_perm, r2.row_perm)
    assert np.array_equal(r1.col_perm, r2.col_perm)
    assert r1.rank == r2.rank and r1.iterations == r2.iterations
    assert abs(r1.L - r2.L).max() == 0.0
    assert abs(r1.U - r2.U).max() == 0.0
    assert all(a.indicator == b.indicator
               for a, b in zip(r1.history, r2.history))


@needs_native
@pytest.mark.parametrize("cls,extra", [
    (LU_CRTP, {}),
    (ILUT_CRTP, {"estimated_iterations": 6}),
])
def test_e2e_solver_tier_parity(cls, extra):
    A = _m2_analogue(200)
    common = dict(k=16, tol=1e-6, max_rank=64, raise_on_failure=False,
                  **extra)
    r_pure = cls(kernel_tier="pure", **common).solve(A)
    r_nat = cls(kernel_tier="native", **common).solve(A)
    assert r_pure.kernel_tier == "pure" and r_nat.kernel_tier == "native"
    _assert_same_lu(r_pure, r_nat)


@needs_native
@pytest.mark.parametrize("cls,extra", [
    (LU_CRTP, {}),
    (ILUT_CRTP, {"mu": 1e-8}),
])
def test_e2e_filled_tier_parity(cls, extra):
    # the Schur complement fills in: both dense-panel routes serve the
    # native solve, which must still match the pure one bit for bit
    A = suite_matrix("M2", scale=0.6)
    common = dict(k=16, tol=1e-2, **extra)
    r_pure = cls(kernel_tier="pure", **common).solve(A)
    with _dense_calls() as calls:
        r_nat = cls(kernel_tier="native", **common).solve(A)
    assert calls["gram"] > 0 and calls["schur"] > 0
    _assert_same_lu(r_pure, r_nat)


@needs_native
def test_e2e_randqb_tier_parity():
    A = _m2_analogue(150)
    common = dict(k=8, tol=1e-2, max_rank=48, seed=0,
                  raise_on_failure=False)
    r_pure = RandQB_EI(kernel_tier="pure", **common).solve(A)
    r_nat = RandQB_EI(kernel_tier="native", **common).solve(A)
    assert r_pure.rank == r_nat.rank
    assert np.array_equal(r_pure.Q, r_nat.Q)
    assert np.array_equal(r_pure.B, r_nat.B)
    assert all(a.indicator == b.indicator
               for a, b in zip(r_pure.history, r_nat.history))


def _assert_same_spmd(r1, r2):
    # SPMD LU/ILUT results are summary-only (no history, no factors):
    # the rank, the convergence flag and the indicator bits carry parity
    assert r1.rank == r2.rank
    assert r1.converged == r2.converged
    assert r1.indicator.hex() == r2.indicator.hex()


@needs_native
@pytest.mark.parametrize("method,kw", [
    ("lu", {}),
    ("ilut", {"threshold": 1e-3}),
])
def test_spmd_tier_parity(method, kw):
    A = _m2_analogue(150)
    r_pure = run_spmd_solver(method, A, 2, k=8, tol=1e-2, max_rank=48,
                             kernel_tier="pure", **kw)
    # threads backend: the ranks share this process's perf counters
    with _dense_calls() as calls:
        r_nat = run_spmd_solver(method, A, 2, k=8, tol=1e-2, max_rank=48,
                                kernel_tier="native", backend="threads",
                                **kw)
    assert r_nat.kernel_tier == "native"
    assert calls["gram"] > 0 and calls["schur"] > 0
    _assert_same_spmd(r_pure, r_nat)


@needs_native
def test_spmd_tier_parity_under_sanitizers(monkeypatch):
    from repro.parallel import sanitize
    monkeypatch.setenv(sanitize.ENV_VAR, "1")
    A = _m2_analogue(150)
    r_pure = run_spmd_solver("lu", A, 2, k=8, tol=1e-2, max_rank=48,
                             kernel_tier="pure")
    with _dense_calls() as calls:
        r_nat = run_spmd_solver("lu", A, 2, k=8, tol=1e-2, max_rank=48,
                                kernel_tier="native", backend="threads")
    assert calls["gram"] > 0 and calls["schur"] > 0
    _assert_same_spmd(r_pure, r_nat)


# -- CLI ---------------------------------------------------------------------

def test_cli_kernel_tier_flag(capsys):
    from repro.cli import main
    code = main(["solve", "M4", "--scale", "0.25", "--method", "lu",
                 "-k", "8", "--tol", "1e-1", "--kernel-tier", "pure"])
    assert code == 0
    assert "kernel tier" in capsys.readouterr().out.lower()


@needs_native
def test_cli_kernel_tier_native(capsys):
    from repro.cli import main
    code = main(["solve", "M4", "--scale", "0.25", "--method", "lu",
                 "-k", "8", "--tol", "1e-1", "--kernel-tier", "native"])
    assert code == 0
    assert "native" in capsys.readouterr().out.lower()
