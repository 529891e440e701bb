"""Native (compiled C) kernel tier: build, load, and ctypes bindings.

Do not import this module directly from solver/runtime code — go through
the dispatch layer (:mod:`repro.kernels`), which resolves the active tier
and falls back to ``pure`` when no compiler is available.  Lint rule
SPMD004 enforces that boundary.

The shared library is built lazily by :mod:`repro.kernels.native.build`
(source-hash-keyed cache, atomic, stdlib-only) and loaded once per
process with :mod:`ctypes` — SPMD rank processes each perform their own
lazy load of the cached ``.so`` on first dispatched call.

Every wrapper below produces bitwise-identical results to its pure
counterpart (see the parity pins in ``tests/test_kernel_tiers.py``):

- :func:`spgemm_csr`       ≡ ``repro.sparse.ops.csr_matmul_nosym``
  (``threads > 1`` selects the OpenMP row-parallel variant, which is
  per-row-deterministic — identical bits at any thread count)
- :func:`threshold_mask` / :func:`apply_threshold_mask`
                           ≡ ``repro.sparse.thresholding`` pair
- :func:`permuted_blocks`  ≡ ``repro.sparse.window.permuted_blocks``
- :func:`window_split`     ≡ ``repro.sparse.window.window_split``
- :func:`csr_to_csc` / :func:`csc_to_csr` ≡ scipy ``tocsc()``/``tocsr()``
- :func:`gather_columns`   ≡ the general gather path of
  ``repro.sparse.ops.extract_columns``
- :func:`gram_csc`         ≡ ``repro.kernels.pure.gram_csc`` (general
  gather + ``repro.linalg.cholqr._cross_gram_kernel`` per pair; a
  filled-in pair takes a dense-panel route with the same bits)
- :func:`schur_diff_csc`   ≡ ``(A - C).tocsc()`` + ``drop_explicit_zeros``
- :func:`schur_update_csc` ≡ ``repro.kernels.pure.schur_update_csc``
  (row-merge SpGEMM + :func:`schur_diff_csc`, or a dense-panel route
  with the same bits once the product fills in)
- :func:`colamd_postorder` ≡ ``repro.kernels.pure.colamd_postorder``
  (COLAMD, column etree and postorder in one call, same permutation)
- :func:`qrcp_batch`       ≡ ``repro.kernels.pure.qrcp_batch`` (the same
  LAPACK ``dgeqp3``, reached through ``scipy.linalg.cython_lapack``,
  once per block of a stack in one C call)
"""

from __future__ import annotations

import ctypes
import os
import threading

import numpy as np

from ... import perf
from ...sparse.ops import _MATMUL_CAP
from ...sparse.utils import raw_csc, raw_csr
from . import build

_INT32_MAX = np.iinfo(np.int32).max

_lock = threading.Lock()
_lib: ctypes.CDLL | None = None
_load_attempted = False


class _ArrayArg:
    """ctypes argtype of a C-contiguous ndarray of one dtype, passed as
    its data address: the check ``np.ctypeslib.ndpointer(dtype,
    flags="C_CONTIGUOUS")`` makes, at about half its per-call cost (a
    tree level's Gram and QRCP calls pass up to ten arrays each)."""

    def __init__(self, dtype):
        self.dtype = np.dtype(dtype)

    def from_param(self, obj):
        if not (isinstance(obj, np.ndarray) and obj.dtype == self.dtype
                and obj.flags.c_contiguous):
            raise TypeError(f"expected a C-contiguous {self.dtype} ndarray, "
                            f"got {type(obj).__name__}")
        return ctypes.c_void_p(obj.ctypes.data)


def _ptr(dtype):
    return _ArrayArg(dtype)


#: Declarative ctypes contract for every exported symbol — the Python
#: side of the ABI.  :func:`_bind` materializes it at load time, and the
#: ``repro.lint`` KERN rules parse it *statically* (``ast`` — keep every
#: value a literal) and cross-check it against the C prototypes in
#: ``src/kernels.h``.
#:
#: Shape: ``name -> (restype, argtypes)``.  ``restype`` is a scalar
#: token or ``None`` for ``void``.  Tokens: ``"i64"``/``"f64"`` scalars
#: (``int64_t``/``double``); ``"i32*"``/``"i64*"``/``"f64*"``/``"u8*"``
#: contiguous-ndarray pointers; ``"&f64"`` a ``ctypes.POINTER(c_double)``
#: scalar out-param; ``"void*"`` an address (``c_void_p``); ``"IDX*"``
#: the index dtype of the kernel's two instantiations
#: (``name_i32``/``name_i64``).  Entries whose argtypes mention ``IDX``
#: bind both suffixed symbols; the rest bind ``name`` as-is.
_ABI: dict[str, tuple[str | None, tuple[str, ...]]] = {
    "rk_openmp_enabled": ("i64", ()),
    "rk_thresh_mask": ("i64", ("f64*", "i64", "f64", "u8*", "f64*", "&f64")),
    "rk_spgemm": ("i64", ("i64", "i64",
                          "IDX*", "IDX*", "f64*",
                          "IDX*", "IDX*", "f64*",
                          "IDX*", "IDX*", "f64*",
                          "i64*", "f64*", "i64*")),
    "rk_spgemm_par": ("i64", ("i64", "i64", "i64",
                              "IDX*", "IDX*", "f64*",
                              "IDX*", "IDX*", "f64*",
                              "IDX*", "IDX*", "f64*",
                              "i64*", "f64*", "i64*", "i64*")),
    "rk_thresh_apply": ("i64", ("i64", "IDX*", "IDX*", "f64*", "u8*")),
    "rk_window_count": ("i64", ("i64", "i64", "i64", "IDX*", "IDX*",
                                "i64*", "i64*", "i64*")),
    "rk_window_fill": (None, ("i64", "i64", "i64", "IDX*", "IDX*", "f64*",
                              "i64*", "i64*", "i64*",
                              "IDX*", "IDX*", "f64*",
                              "IDX*", "IDX*", "f64*")),
    "rk_window_fill_topdense": (None, ("i64", "i64", "i64",
                                       "IDX*", "IDX*", "f64*",
                                       "i64*", "i64*", "i64*", "f64*",
                                       "IDX*", "IDX*", "f64*")),
    "rk_csr_tocsc": (None, ("i64", "i64",
                            "IDX*", "IDX*", "f64*",
                            "IDX*", "IDX*", "f64*")),
    "rk_gather_cols": ("i64", ("i64", "IDX*", "IDX*", "f64*", "i64*",
                               "i64*", "IDX*", "f64*")),
    "rk_gram_batch": ("i64", ("i64", "i64", "i64",
                              "IDX*", "IDX*", "f64*",
                              "i64*", "i64*", "f64*",
                              "i64*", "i64*", "f64*", "i64", "f64*")),
    "rk_schur_diff": ("i64", ("i64", "i64",
                              "IDX*", "IDX*", "f64*",
                              "IDX*", "IDX*", "f64*",
                              "IDX*", "IDX*", "f64*",
                              "i64*", "f64*", "f64")),
    "rk_schur_dense": ("i64", ("i64", "i64", "i64",
                               "IDX*", "IDX*", "f64*",
                               "IDX*", "IDX*", "f64*",
                               "IDX*", "IDX*", "f64*",
                               "f64*", "i64*", "f64*", "f64*", "IDX*",
                               "f64")),
    "rk_schur_dense_emit": (None, ("i64", "i64", "f64*",
                                   "IDX*", "IDX*", "f64*")),
    "rk_colamd_postorder": ("i64", ("i64", "i64", "i64", "IDX*", "IDX*",
                                    "i64*", "i64", "i64*")),
    "rk_qrcp_batch": ("i64", ("void*", "i64", "i64", "i64", "f64*", "i64",
                              "f64*", "i32*", "i64*", "f64*")),
}

_SCALAR_CTYPES = {"i64": ctypes.c_int64, "f64": ctypes.c_double}
_PTR_DTYPES = {"i32": np.int32, "i64": np.int64,
               "f64": np.float64, "u8": np.uint8}


def _ctype(token: str, idx_dtype):
    """One ``_ABI`` token to its ctypes argtype (``idx_dtype`` resolves
    ``IDX`` for the current instantiation)."""
    if token == "IDX*":
        return _ptr(idx_dtype)
    if token == "void*":
        return ctypes.c_void_p
    if token.startswith("&"):
        return ctypes.POINTER(_SCALAR_CTYPES[token[1:]])
    if token.endswith("*"):
        return _ptr(_PTR_DTYPES[token[:-1]])
    return _SCALAR_CTYPES[token]


def abi_is_generic(argtypes: tuple[str, ...]) -> bool:
    """Whether an ``_ABI`` entry describes an index-generic kernel
    (bound as ``name_i32``/``name_i64``) or a single plain symbol."""
    return any("IDX" in tok for tok in argtypes)


def _bind(lib: ctypes.CDLL) -> None:
    for name, (res, args) in _ABI.items():
        restype = None if res is None else _SCALAR_CTYPES[res]
        if abi_is_generic(args):
            variants = (("_i32", np.int32), ("_i64", np.int64))
        else:
            variants = (("", np.int64),)
        for suffix, idt in variants:
            fn = getattr(lib, name + suffix)
            fn.restype = restype
            fn.argtypes = [_ctype(tok, idt) for tok in args]


def _sanitize_load_error(path, profiles: tuple[str, ...]) -> str | None:
    """Why the active sanitizer profile forbids dlopening ``path`` into
    this interpreter, or ``None`` when loading is safe.

    TSan's runtime cannot interpose an already-running uninstrumented
    CPython (it crashes at initialization), and an ASan library whose
    runtime is not already loaded *aborts the process* inside dlopen —
    so both are refused up front instead of attempted.
    """
    if "tsan" in profiles:
        return (f"tsan build {path} cannot be loaded into CPython; run the "
                "race check through the native driver "
                "(tests/test_kernel_sanitize.py)")
    if "asan" in profiles:
        preload = os.environ.get("LD_PRELOAD", "")
        if "asan" not in preload:
            return (f"asan build {path} needs the ASan runtime loaded "
                    "first: eval \"$(python -m repro.kernels.native.build "
                    "--sanitize-env)\" before starting python")
    return None


def load() -> ctypes.CDLL | None:
    """Build (if needed) and load the kernel library; ``None`` if the host
    cannot produce one.  Memoized per process; thread-safe."""
    global _lib, _load_attempted
    if _lib is not None or _load_attempted:
        return _lib
    with _lock:
        if _lib is not None or _load_attempted:
            return _lib
        path = build.build_library()
        lib = None
        if path is not None:
            refusal = _sanitize_load_error(path, build.sanitize_profiles())
            if refusal is not None:
                build.last_error = refusal
            else:
                try:
                    lib = ctypes.CDLL(str(path))
                    _bind(lib)
                except OSError as exc:  # corrupt cache entry, missing symbol
                    build.last_error = f"failed to load {path}: {exc}"
                    lib = None
        _lib = lib
        _load_attempted = True
        if lib is not None:
            _cache_probe.clear()  # a fresh build makes stale "no" answers wrong
    return _lib


def available() -> bool:
    return load() is not None


def openmp_enabled() -> bool:
    """True when the loaded library was built with OpenMP — i.e. when
    ``$REPRO_KERNEL_THREADS > 1`` can actually fan the SpGEMM out."""
    lib = load()
    return lib is not None and bool(lib.rk_openmp_enabled())


# env-keyed memo of the warm-cache stat probe: the probe re-hashes every C
# source, and the ``auto`` tier consults it on every dispatched conversion.
# Invalidation: reset() (tests) and a successful in-process build (load()).
# A build finished by *another* process goes unseen until then — same
# "resolved once" behaviour solver configs already have.
_cache_probe: dict = {}


def cached_build_exists() -> bool:
    """True when the ``.so`` for the current sources is already on disk —
    a stat probe that never *runs* a compiler (the ``auto`` tier uses this
    so it cannot trigger a build).  The compiler is still *discovered*
    (PATH lookups only) because its path is part of the cache key.  Both
    flag-set variants (OpenMP and serial) count as warm."""
    key = (os.environ.get("REPRO_KERNEL_CACHE"),
           os.environ.get("XDG_CACHE_HOME"),
           os.environ.get("CC"),
           os.environ.get(build.SANITIZE_ENV))
    hit = _cache_probe.get(key)
    if hit is None:
        try:
            hit = any(p.exists() for p in build.cached_library_paths(
                compiler=build.find_compiler()))
        except OSError:
            hit = False
        _cache_probe[key] = hit
    return hit


def reset() -> None:
    """Forget the memoized load (tests re-probe after monkeypatching)."""
    global _lib, _load_attempted
    with _lock:
        _lib = None
        _load_attempted = False
        _cache_probe.clear()


def _idx_suffix(dtype) -> str:
    return "_i32" if np.dtype(dtype) == np.int32 else "_i64"


# ---------------------------------------------------------------------------
# kernel wrappers (same contracts as the pure tier)
# ---------------------------------------------------------------------------

def spgemm_csr(A, B, workspace=None, threads: int = 1):
    """``A @ B`` for canonical CSR operands — scipy-accumulation-order
    row-merge in C, with all intermediates served from ``workspace``
    (:class:`repro.sparse.spgemm.SpGEMMWorkspace`).

    ``threads > 1`` runs the OpenMP row-parallel variant when the library
    was built with OpenMP (else the single-pass serial kernel — same
    bits either way, since every row is computed by identical code)."""
    from ...sparse.spgemm import SpGEMMWorkspace

    lib = load()
    m = A.shape[0]
    n = B.shape[1]
    if lib is None or A.nnz == 0 or B.nnz == 0:
        return A @ B
    bound = int(np.diff(B.indptr)[A.indices].sum())
    cap = min(bound, m * n)
    if cap > _MATMUL_CAP:
        return A @ B
    idx_dtype = np.promote_types(A.indices.dtype, B.indices.dtype)
    if np.dtype(idx_dtype) not in (np.dtype(np.int32), np.dtype(np.int64)):
        return A @ B
    dt = np.result_type(A.dtype, B.dtype)
    if np.dtype(dt) != np.float64:
        return A @ B
    Ap = A.indptr.astype(idx_dtype, copy=False)
    Aj = A.indices.astype(idx_dtype, copy=False)
    Bp = B.indptr.astype(idx_dtype, copy=False)
    Bj = B.indices.astype(idx_dtype, copy=False)
    Ax = A.data.astype(dt, copy=False)
    Bx = B.data.astype(dt, copy=False)
    if workspace is None:
        workspace = SpGEMMWorkspace()
    nt = max(int(threads), 1)
    if nt > 1 and not bool(lib.rk_openmp_enabled()):
        nt = 1  # parallel kernel would run serial anyway; the single-pass
        # serial kernel is strictly cheaper (no symbolic prepass)
    Cp = np.empty(m + 1, dtype=idx_dtype)
    Cj = np.empty(cap, dtype=idx_dtype)
    Cx = np.empty(cap, dtype=np.float64)
    if nt > 1:
        mark, sums, touched = workspace.matmat_buffers(n, nt)
        rownnz = workspace.row_scratch(m)
        fn = getattr(lib, "rk_spgemm_par" + _idx_suffix(idx_dtype))
        nnz = int(fn(m, n, nt, Ap, Aj, Ax, Bp, Bj, Bx, Cp, Cj, Cx,
                     mark, sums, touched, rownnz))
    else:
        mark, sums, touched = workspace.matmat_buffers(n)
        fn = getattr(lib, "rk_spgemm" + _idx_suffix(idx_dtype))
        nnz = int(fn(m, n, Ap, Aj, Ax, Bp, Bj, Bx, Cp, Cj, Cx,
                     mark, sums, touched))
    # sorted_indices=None matches the pure route (rows are emitted in
    # scipy's reverse-insertion order, not sorted)
    return raw_csr(Cx[:nnz], Cj[:nnz], Cp, (m, n), sorted_indices=None)


def threshold_mask(A, mu: float):
    """Fused single-pass mask + perturbation accounting (pure contract:
    ``repro.sparse.thresholding.threshold_mask``)."""
    lib = load()
    if mu <= 0.0 or A.nnz == 0 or lib is None \
            or A.data.dtype != np.float64:
        from ...sparse import thresholding
        return thresholding.threshold_mask(A, mu)
    data = A.data
    mask = np.empty(data.size, dtype=np.uint8)
    dropped = np.empty(data.size, dtype=np.float64)
    dmax = ctypes.c_double(0.0)
    count = int(lib.rk_thresh_mask(data, data.size, float(mu), mask,
                                   dropped, ctypes.byref(dmax)))
    d = dropped[:count]
    # the reduction runs through the same np.dot as the pure tier, on the
    # same values in the same order — bitwise-identical statistic
    norm_sq = float(np.dot(d, d))
    return mask.view(bool), count, norm_sq, float(dmax.value)


def apply_threshold_mask(A, mask):
    """Apply a threshold mask in place and prune zeros (pure contract:
    ``repro.sparse.thresholding.apply_threshold_mask``)."""
    lib = load()
    if mask is None or lib is None or A.data.dtype != np.float64 \
            or A.indices.dtype != A.indptr.dtype \
            or np.dtype(A.indices.dtype) not in (np.dtype(np.int32),
                                                 np.dtype(np.int64)):
        from ...sparse import thresholding
        return thresholding.apply_threshold_mask(A, mask)
    m8 = np.ascontiguousarray(mask, dtype=np.uint8)
    fn = getattr(lib, "rk_thresh_apply" + _idx_suffix(A.indices.dtype))
    n_outer = A.indptr.size - 1
    nnz = int(fn(n_outer, A.indptr, A.indices, A.data, m8))
    A.data = A.data[:nnz]
    A.indices = A.indices[:nnz]
    return A


def _window_split(lib, active, cols, ipos, k, rowcount, idx_dtype):
    """Split one permuted column window into top/bottom canonical CSR."""
    m = active.shape[0]
    ncols = cols.size
    in_dtype = active.indices.dtype
    suffix = _idx_suffix(in_dtype)
    count = getattr(lib, "rk_window_count" + suffix)
    fill = getattr(lib, "rk_window_fill" + suffix)
    total = int((active.indptr[cols + 1] - active.indptr[cols]).sum())
    top = int(count(m, k, ncols, active.indptr, active.indices, cols,
                    ipos, rowcount))
    bot = total - top
    # the C instantiation types outputs like the inputs; downcast (always
    # lossless: max(shape) bounds every index) to the canonical output
    # dtype afterwards when they differ
    Bp = np.empty(k + 1, dtype=in_dtype)
    Bj = np.empty(top, dtype=in_dtype)
    Bx = np.empty(top, dtype=np.float64)
    Cp = np.empty(m - k + 1, dtype=in_dtype)
    Cj = np.empty(bot, dtype=in_dtype)
    Cx = np.empty(bot, dtype=np.float64)
    fill(m, k, ncols, active.indptr, active.indices, active.data, cols,
         ipos, rowcount, Bp, Bj, Bx, Cp, Cj, Cx)
    return (raw_csr(Bx, Bj.astype(idx_dtype, copy=False),
                    Bp.astype(idx_dtype, copy=False), (k, ncols)),
            raw_csr(Cx, Cj.astype(idx_dtype, copy=False),
                    Cp.astype(idx_dtype, copy=False), (m - k, ncols)))


def _window_split_topdense(lib, active, cols, ipos, k, rowcount, idx_dtype):
    """Split the pivot column window: top block straight to dense (it is
    inverted immediately — see rk_window_fill_topdense), bottom to CSR."""
    m = active.shape[0]
    ncols = cols.size
    in_dtype = active.indices.dtype
    suffix = _idx_suffix(in_dtype)
    count = getattr(lib, "rk_window_count" + suffix)
    fill = getattr(lib, "rk_window_fill_topdense" + suffix)
    total = int((active.indptr[cols + 1] - active.indptr[cols]).sum())
    top = int(count(m, k, ncols, active.indptr, active.indices, cols,
                    ipos, rowcount))
    bot = total - top
    D = np.empty((k, ncols), dtype=np.float64)
    Cp = np.empty(m - k + 1, dtype=in_dtype)
    Cj = np.empty(bot, dtype=in_dtype)
    Cx = np.empty(bot, dtype=np.float64)
    fill(m, k, ncols, active.indptr, active.indices, active.data, cols,
         ipos, rowcount, D, Cp, Cj, Cx)
    return D, raw_csr(Cx, Cj.astype(idx_dtype, copy=False),
                      Cp.astype(idx_dtype, copy=False), (m - k, ncols))


def _window_inputs(lib, active, row_perm, rowcount):
    """``(ipos, rowcount, idx_dtype)`` for the window kernels, or ``None``
    when ``active`` falls outside their contract (float64 values, equal
    int32/int64 index dtypes) and the caller takes the pure route."""
    if lib is None or active.data.dtype != np.float64 \
            or active.indices.dtype != active.indptr.dtype \
            or np.dtype(active.indices.dtype) not in (np.dtype(np.int32),
                                                      np.dtype(np.int64)):
        return None
    m, n = active.shape
    ipos = np.empty(m, dtype=np.int64)
    ipos[np.asarray(row_perm, dtype=np.int64)] = np.arange(m, dtype=np.int64)
    if rowcount is None or rowcount.size < m:
        rowcount = np.empty(max(m, 1), dtype=np.int64)
    return ipos, rowcount, (np.int32 if max(m, n) < 2**31 else np.int64)


def window_split(active, cols, row_perm, k: int, rowcount=None):
    """Fused row permute + column gather + row split of one window (pure
    contract: ``repro.sparse.window.window_split``)."""
    from ...sparse import window
    lib = load()
    m, n = active.shape
    inputs = _window_inputs(lib, active, row_perm, rowcount)
    if inputs is None:
        return window.window_split(active, cols, row_perm, k)
    if not 0 < k <= m:
        raise ValueError(f"invalid split size k={k} for {m} rows")
    ipos, rowcount, idx_dtype = inputs
    return _window_split(lib, active,
                         np.ascontiguousarray(window._column_ids(cols, n)),
                         ipos, k, rowcount, idx_dtype)


def permuted_blocks(active, col_perm, row_perm, k: int, rowcount=None):
    """Fused permute + 2x2 split (pure contract:
    ``repro.sparse.window.permuted_blocks``): the pivot window straight to
    dense ``A11`` + CSR ``A21``, the rest through :func:`window_split`'s
    kernel pair."""
    lib = load()
    m, n = active.shape
    inputs = _window_inputs(lib, active, row_perm, rowcount)
    if inputs is None:
        from ...sparse import window
        return window.permuted_blocks(active, col_perm, row_perm, k)
    if not 0 < k <= min(m, n):
        raise ValueError(f"invalid split size k={k} for shape {active.shape}")
    ipos, rowcount, idx_dtype = inputs
    q = np.ascontiguousarray(col_perm, dtype=np.int64)
    A11d, A21 = _window_split_topdense(lib, active, q[:k], ipos, k,
                                       rowcount, idx_dtype)
    A12, A22 = _window_split(lib, active, q[k:], ipos, k, rowcount,
                             idx_dtype)
    return A11d, A12, A21, A22


# ---------------------------------------------------------------------------
# CSR <-> CSC conversion (scipy tocsc/tocsr contract)
# ---------------------------------------------------------------------------

def _convert_arrays(lib, A, n_major, n_minor):
    """Run the counting-sort conversion over ``A``'s raw arrays with
    ``n_major`` outer slots (rows for CSR input, columns for CSC input).
    Returns ``(Bp, Bi, Bx)`` or ``None`` when the input falls outside the
    kernel contract (the caller then runs scipy's conversion)."""
    if lib is None or A.data.dtype != np.float64:
        return None
    idx = A.indices.dtype
    if A.indptr.dtype != idx or \
            np.dtype(idx) not in (np.dtype(np.int32), np.dtype(np.int64)):
        return None
    nnz = int(A.indptr[-1])
    # scipy's matrix-API conversions normalize the output index dtype
    # through the validating constructor's contents check: int32 whenever
    # both dimensions and the nnz fit, int64 otherwise — independent of
    # the INPUT index dtype (a small-content int64 matrix comes back
    # int32).  Pick the same dtype up front and cast the inputs to it
    # (lossless by the very rule that chose it).
    out_idx = np.int32 if max(n_major, n_minor, nnz) <= _INT32_MAX \
        else np.int64
    Ap = A.indptr.astype(out_idx, copy=False)
    Aj = A.indices.astype(out_idx, copy=False)
    Bp = np.empty(n_minor + 1, dtype=out_idx)
    Bi = np.empty(nnz, dtype=out_idx)
    Bx = np.empty(nnz, dtype=np.float64)
    fn = getattr(lib, "rk_csr_tocsc" + _idx_suffix(out_idx))
    fn(n_major, n_minor, Ap, Aj, A.data, Bp, Bi, Bx)
    return Bp, Bi, Bx


def csr_to_csc(A):
    """CSR -> canonical CSC; scipy ``tocsc()`` contract (same counting
    sort, same entry order, same index dtypes)."""
    m, n = A.shape
    arrays = _convert_arrays(load(), A, m, n)
    if arrays is None:
        return A.tocsc()
    Bp, Bi, Bx = arrays
    return raw_csc(Bx, Bi, Bp, (m, n), sorted_indices=True)


def csc_to_csr(A):
    """CSC -> canonical CSR; scipy ``tocsr()`` contract.  Same kernel as
    :func:`csr_to_csc` with the roles of rows and columns transposed —
    exactly how scipy's ``csc_tocsr`` delegates to ``csr_tocsc``."""
    m, n = A.shape
    arrays = _convert_arrays(load(), A, n, m)
    if arrays is None:
        return A.tocsr()
    Bp, Bj, Bx = arrays
    return raw_csr(Bx, Bj, Bp, (m, n), sorted_indices=True)


# ---------------------------------------------------------------------------
# column gather (CSC sub-panel extraction)
# ---------------------------------------------------------------------------

def gather_columns(A, cols):
    """``A[:, cols]`` for canonical CSC ``A`` (pure contract: the general
    gather path of ``repro.sparse.ops.extract_columns``) — one memcpy
    pair per requested column instead of a materialized entry-position
    array, same entries in the same stored order."""
    lib = load()
    m = A.shape[0]
    if lib is None or A.data.dtype != np.float64 \
            or A.indices.dtype != A.indptr.dtype \
            or np.dtype(A.indices.dtype) not in (np.dtype(np.int32),
                                                 np.dtype(np.int64)):
        from ..pure import gather_columns as _pure_gather
        return _pure_gather(A, cols)
    cols64 = np.ascontiguousarray(cols, dtype=np.int64)
    counts = A.indptr[cols64 + 1] - A.indptr[cols64]
    nnz = int(counts.sum())
    Bp = np.empty(cols64.size + 1, dtype=np.int64)
    Bi = np.empty(nnz, dtype=A.indices.dtype)
    Bx = np.empty(nnz, dtype=np.float64)
    fn = getattr(lib, "rk_gather_cols" + _idx_suffix(A.indices.dtype))
    fn(cols64.size, A.indptr, A.indices, A.data, cols64, Bp, Bi, Bx)
    idx_dtype = np.int32 if m < _INT32_MAX + 1 else np.int64
    return raw_csc(Bx, Bi.astype(idx_dtype, copy=False),
                   Bp.astype(idx_dtype), (m, cols64.size))


# ---------------------------------------------------------------------------
# dense cross-Gram of CSC panels
# ---------------------------------------------------------------------------

#: Dense-panel crossover of :func:`gram_csc`: the dense route runs when
#: ``nnz(B2) >= _GRAM_DENSE_MIN * m * c2``, which also bounds its panel
#: at ``5 * nnz(B2)`` doubles — tall, very sparse panels keep the sparse
#: route and its O(m + nnz) scratch.  Fixed from a sweep over uniformly
#: random 64-column panels (2-vCPU Xeon, SSE2 build): at density 0.1 the
#: dense route wins self-Grams by 1.1-1.4x but loses cross-Grams by up
#: to 1.4x (m = 20000); from 0.2 it wins both at m = 900-20000 (cross
#: 1.04-1.6x, self 1.5-2.1x), rising to 4-5x on the 80-100% dense panels
#: of a filled-in LU_CRTP solve.  The rows ``gram_filled`` and
#: ``gram_sparse`` of benchmarks/bench_micro_kernels.py time both sides.
_GRAM_DENSE_MIN = 0.2


def gram_csc(A, left, right, workspace=None):
    """One dense ``A[:, left[p]].T @ A[:, right[p]]`` per pair, read in
    place from canonical float64 CSC ``A`` by column id (pure contract:
    :func:`repro.kernels.pure.gram_csc`).  One C call serves the whole
    batch.  Each pair keeps its own route: filled-in right columns are
    zero-filled into a dense panel and accumulated in contiguous loops,
    the rest accumulate straight out of a counting-sort transpose — the
    same bits either way.  ``right[p] is left[p]`` marks a self-Gram
    (upper triangle computed, lower mirrored)."""
    from ...sparse.spgemm import SpGEMMWorkspace
    from ..pure import check_gram_pairs

    lib = load()
    if lib is None or A.data.dtype != np.float64 \
            or A.indices.dtype != A.indptr.dtype \
            or np.dtype(A.indices.dtype) not in (np.dtype(np.int32),
                                                 np.dtype(np.int64)):
        from ..pure import gram_csc as _pure_gram
        return _pure_gram(A, left, right)
    m, n = A.shape
    check_gram_pairs(left, right)
    # one row of the kernel's int64 pair table per pair (gram_impl.inc):
    # left offset, c1, right offset, c2, output offset, right-column
    # entries (filled in below), flags (1 self-Gram; 2 dense requested,
    # set below; 4 dense ran, set by the kernel)
    parts, rows = [], []
    pos = off = 0
    for lo, ro in zip(left, right):
        c1 = len(lo)
        parts.append(lo)
        lpos, pos = pos, pos + c1
        if ro is lo:
            rows.append((lpos, c1, lpos, c1, off, 0, 1))
        else:
            parts.append(ro)
            rows.append((lpos, c1, pos, len(ro), off, 0, 0))
            pos += len(ro)
        off += c1 * rows[-1][3]
    if not rows:
        return []
    ids = (np.concatenate(parts).astype(np.int64, copy=False) if pos
           else np.zeros(0, dtype=np.int64))
    if pos and (ids.min() < 0 or ids.max() >= n):
        raise IndexError(f"column id out of range for {n} columns")
    meta = np.array(rows, dtype=np.int64)
    npairs = len(rows)
    # stored entries of every pair's right columns, from A's column counts
    cs = np.zeros(pos + 1, dtype=np.int64)
    np.cumsum(A.indptr[ids + 1] - A.indptr[ids], out=cs[1:])
    c2s = meta[:, 3]
    nnz2 = meta[:, 5]
    nnz2[:] = cs[meta[:, 2] + c2s] - cs[meta[:, 2]]
    dense = (nnz2 > 0) & (nnz2 >= _GRAM_DENSE_MIN * m * c2s)
    meta[:, 6] |= 2 * dense
    out = np.empty(off, dtype=np.float64)
    if workspace is None:
        workspace = SpGEMMWorkspace()
    sparse_nnz = nnz2[~dense]
    tp, tj, tx = workspace.gram_buffers(
        m, int(sparse_nnz.max()) if sparse_nnz.size else 0)
    panel = workspace.panel_buffer(
        m * int(c2s[dense].max()) if dense.any() else 0)
    fn = getattr(lib, "rk_gram_batch" + _idx_suffix(A.indices.dtype))
    p = 0
    while True:
        p = int(fn(m, npairs, p, A.indptr, A.indices, A.data, ids, meta,
                   out, tp, tj, tx, tj.size, panel))
        if p == npairs:
            break
        # a requested dense route failed its precondition and the pair
        # needs more sparse scratch than the batch was sized for
        tp, tj, tx = workspace.gram_buffers(m, int(nnz2[p]))
    ndense = int(np.count_nonzero(meta[:, 6] & 4))
    if ndense:
        perf.incr("kernel_tier.gram_dense_calls", ndense)
    return [out[o:o + c1 * c2].reshape(c1, c2)
            for _, c1, _, c2, o, _, _ in rows]


# ---------------------------------------------------------------------------
# fused Schur difference
# ---------------------------------------------------------------------------

def schur_diff_csc(A, C, tol: float, workspace=None):
    """``(A - C).tocsc()`` with the zero/threshold drop fused in; ``A``
    and ``C`` are same-shape CSR (``C``'s rows may be unsorted — it is
    typically SpGEMM output).  Composition contract: scipy's
    ``csr_binop_csr`` subtraction, ``drop_explicit_zeros(..., tol)`` and
    ``tocsc()`` — one pass plus one counting sort instead of three
    materialized intermediates.  Returns ``None`` when the inputs fall
    outside the kernel contract (the caller runs the pure composition)."""
    from ...sparse.spgemm import SpGEMMWorkspace

    lib = load()
    m, n = A.shape
    if lib is None or A.data.dtype != np.float64 \
            or C.data.dtype != np.float64:
        return None
    for M in (A, C):
        if M.indices.dtype != M.indptr.dtype or \
                np.dtype(M.indices.dtype) not in (np.dtype(np.int32),
                                                  np.dtype(np.int64)):
            return None
    bound = int(A.indptr[-1]) + int(C.indptr[-1])
    if bound > _MATMUL_CAP:
        return None
    # scipy's binop computes at the common index dtype of the four input
    # index arrays, but the final ``tocsc()`` re-normalizes through the
    # validating constructor: int32 whenever both dimensions and the nnz
    # fit (``bound <= _MATMUL_CAP`` already guarantees nnz fits), int64
    # otherwise — independent of the binop intermediate's dtype.
    idx = np.promote_types(A.indices.dtype, C.indices.dtype)
    if np.dtype(idx) == np.dtype(np.int32) and max(bound, m) > _INT32_MAX:
        return None
    out_idx = np.dtype(np.int32) if max(m, n) <= _INT32_MAX \
        else np.dtype(np.int64)
    if workspace is None:
        workspace = SpGEMMWorkspace()
    mark, sums, _ = workspace.matmat_buffers(n)
    Dp = np.empty(m + 1, dtype=idx)
    Dj = np.empty(bound, dtype=idx)
    Dx = np.empty(bound, dtype=np.float64)
    fn = getattr(lib, "rk_schur_diff" + _idx_suffix(idx))
    nnz = int(fn(m, n,
                 A.indptr.astype(idx, copy=False),
                 A.indices.astype(idx, copy=False), A.data,
                 C.indptr.astype(idx, copy=False),
                 C.indices.astype(idx, copy=False), C.data,
                 Dp, Dj, Dx, mark, sums, float(tol)))
    if nnz < 0:
        return None  # A's rows not strictly ascending: scipy sums them
    if np.dtype(idx) != out_idx:
        Dp = Dp.astype(out_idx)
        Dj = Dj[:nnz].astype(out_idx)
    Sp = np.empty(n + 1, dtype=out_idx)
    Si = np.empty(nnz, dtype=out_idx)
    Sx = np.empty(nnz, dtype=np.float64)
    conv = getattr(lib, "rk_csr_tocsc" + _idx_suffix(out_idx))
    conv(m, n, Dp, Dj, Dx, Sp, Si, Sx)
    return raw_csc(Sx, Si, Sp, (m, n), sorted_indices=True)


#: Dense-panel crossover of :func:`schur_update_csc`: the dense route runs
#: when the SpGEMM's structural flop bound reaches
#: ``_SCHUR_DENSE_MIN * m * n * k`` (and at least ``m * n``, so its
#: per-call m x n block never outgrows the sparse route's product
#: arrays).  Fixed from a sweep over random F (density 0.6 and 1.0) and
#: A12 at m = n = 300-1000, k = 8-64 (2-vCPU Xeon, SSE2 build): at a
#: bound ratio of 0.1 the dense route wins every shape (1.07-1.7x), at
#: 0.03 it still loses small-k products (0.57x at k = 8), and on the
#: first, unfilled iterations of an LU_CRTP solve (ratio < 0.01) the
#: sparse route is 3-12x faster.  The rows ``schur_filled`` and
#: ``schur_sparse`` of benchmarks/bench_micro_kernels.py time both sides.
_SCHUR_DENSE_MIN = 0.1


def _schur_dense(lib, A22, F, A12, tol: float, workspace):
    """The dense-panel Schur route (``rk_schur_dense`` +
    ``rk_schur_dense_emit``), or ``None`` when a precondition fails."""
    m, n = A22.shape
    k = F.shape[1]
    out_idx = np.dtype(np.int32) if max(m, n) <= _INT32_MAX \
        else np.dtype(np.int64)
    if out_idx == np.dtype(np.int32) \
            and max(k, F.nnz, A12.nnz) > _INT32_MAX:
        return None
    Ap, Aj = (A22.indptr.astype(out_idx, copy=False),
              A22.indices.astype(out_idx, copy=False))
    Fp, Fj = (F.indptr.astype(out_idx, copy=False),
              F.indices.astype(out_idx, copy=False))
    Bp, Bj = (A12.indptr.astype(out_idx, copy=False),
              A12.indices.astype(out_idx, copy=False))
    mark, arow, _ = workspace.matmat_buffers(n)
    # the m x n block is per call: with flop bound >= m*n (checked by the
    # caller) it is never larger than the sparse route's product arrays
    R = np.empty(m * n, dtype=np.float64)
    Sp = np.empty(n + 1, dtype=out_idx)
    suffix = _idx_suffix(out_idx)
    nnz = int(getattr(lib, "rk_schur_dense" + suffix)(
        m, n, k, Ap, Aj, A22.data, Fp, Fj, F.data, Bp, Bj, A12.data,
        workspace.panel_buffer(k * n), mark, arow, R, Sp, float(tol)))
    if nnz < 0:
        return None
    Si = np.empty(nnz, dtype=out_idx)
    Sx = np.empty(nnz, dtype=np.float64)
    getattr(lib, "rk_schur_dense_emit" + suffix)(m, n, R, Sp, Si, Sx)
    return raw_csc(Sx, Si, Sp, (m, n), sorted_indices=True)


def schur_update_csc(A22, F, A12, tol: float | None = None,
                     workspace=None, threads: int = 1):
    """The Schur-complement update ``(A22 - F @ A12).tocsc()`` with the
    explicit-zero drop applied when ``tol`` is not ``None`` (pure
    contract: ``repro.kernels.pure.schur_update_csc``).  A filled-in
    product takes the dense-panel route; otherwise the row-merge SpGEMM
    feeds :func:`schur_diff_csc`.  Inputs outside both kernels' contract
    finish on the scipy composition."""
    from ...sparse.spgemm import SpGEMMWorkspace

    lib = load()
    if workspace is None:
        workspace = SpGEMMWorkspace()
    drop = 0.0 if tol is None else tol
    m, n = A22.shape
    k = F.shape[1]
    if lib is not None and m * n <= _MATMUL_CAP and all(
            M.data.dtype == np.float64
            and M.indices.dtype == M.indptr.dtype
            and np.dtype(M.indices.dtype) in (np.dtype(np.int32),
                                              np.dtype(np.int64))
            for M in (A22, F, A12)):
        bound = int(np.diff(A12.indptr)[F.indices].sum())
        if bound and bound >= max(m * n, _SCHUR_DENSE_MIN * m * n * k):
            S = _schur_dense(lib, A22, F, A12, drop, workspace)
            if S is not None:
                perf.incr("kernel_tier.schur_dense_calls")
                return S
    C = spgemm_csr(F, A12, workspace=workspace, threads=threads)
    S = schur_diff_csc(A22, C, drop, workspace=workspace)
    if S is not None:
        return S
    # inputs outside the fused kernel's contract: finish on scipy
    from ...sparse.utils import drop_explicit_zeros
    S = (A22 - C).tocsc()
    if tol is not None:
        drop_explicit_zeros(S, tol=tol)
    return S


# ---------------------------------------------------------------------------
# column ordering (COLAMD + column-etree postorder)
# ---------------------------------------------------------------------------

def _order_scratch(m: int, n: int, nnz: int) -> int:
    """int64 scratch slots of ``rk_colamd_postorder`` (``ord_scratch`` in
    order.c; the kernel refuses a shorter buffer)."""
    return 2 * m + 2 * (m + n) + 3 * nnz + 17 * n


def colamd_postorder(A):
    """The paper's preprocessing permutation of ``A``'s columns — COLAMD,
    then the postorder of the column etree of ``A[:, p1]`` — in one C
    call that reads ``A``'s CSC index arrays in place (pure contract:
    :func:`repro.kernels.pure.colamd_postorder`; no floating point, so
    the permutation is the same).  Patterns outside the kernel contract
    (duplicate entries, index dtypes other than int32/int64) take the
    pure route."""
    from ...ordering.colamd import dense_row_cut
    from ...sparse.utils import ensure_csc
    from ..pure import colamd_postorder as _pure_order

    lib = load()
    A = ensure_csc(A, dtype=None)
    m, n = A.shape
    idx = A.indices.dtype
    if lib is None or A.indptr.dtype != idx \
            or np.dtype(idx) not in (np.dtype(np.int32), np.dtype(np.int64)):
        return _pure_order(A)
    ws = np.empty(_order_scratch(m, n, int(A.indptr[-1])), dtype=np.int64)
    perm = np.empty(n, dtype=np.int64)
    fn = getattr(lib, "rk_colamd_postorder" + _idx_suffix(idx))
    status = int(fn(m, n, dense_row_cut(n), A.indptr, A.indices, ws,
                    ws.size, perm))
    if status == -1:
        return _pure_order(A)  # duplicate entries: pure counts each one
    if status != 0:
        raise RuntimeError(f"rk_colamd_postorder failed with status {status}")
    return perm.astype(np.intp, copy=False)


# ---------------------------------------------------------------------------
# batched QR with column pivoting (LAPACK dgeqp3 per block)
# ---------------------------------------------------------------------------

_geqp3_address: int | None = None


def _geqp3() -> int:
    """Address of the ``dgeqp3`` that ``scipy.linalg.cython_lapack``
    exports: the LAPACK routine behind scipy's f2py ``dgeqp3``."""
    global _geqp3_address
    if _geqp3_address is None:
        from scipy.linalg import cython_lapack
        capsule = cython_lapack.__pyx_capi__["dgeqp3"]
        api = ctypes.pythonapi
        name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
            ("PyCapsule_GetName", api))(capsule)
        _geqp3_address = ctypes.PYFUNCTYPE(
            ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
            ("PyCapsule_GetPointer", api))(capsule, name)
    return _geqp3_address


def qrcp_batch(blocks, lwork: int, workspace=None):
    """QR with column pivoting of every ``m x n`` block of a ``(p, m, n)``
    stack in one C call (pure contract:
    :func:`repro.kernels.pure.qrcp_batch`).  Each block is copied into
    scratch column-major, with a zeroed ``jpvt`` and the caller's
    ``lwork``, as scipy's f2py wrapper hands it to LAPACK; a stack whose
    blocks already store column-major (``blocks.transpose(0, 2, 1)``
    C-contiguous) is read in place."""
    lib = load()
    nb, m, n = blocks.shape
    if lib is None or max(m, n, lwork) > _INT32_MAX:
        from ..pure import qrcp_batch as _pure_qrcp
        return _pure_qrcp(blocks, lwork)
    cols = np.ascontiguousarray(blocks.transpose(0, 2, 1), dtype=np.float64)
    p = min(m, n)
    if workspace is None:
        from ...sparse.spgemm import SpGEMMWorkspace
        workspace = SpGEMMWorkspace()
    ws, jpvt = workspace.qrcp_buffers(m * n + p + lwork, n)
    piv = np.empty((nb, n), dtype=np.int64)
    rdiag = np.empty((nb, p), dtype=np.float64)
    info = int(lib.rk_qrcp_batch(_geqp3(), nb, m, n, cols, lwork, ws, jpvt,
                                 piv, rdiag))
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dgeqp3")
    return piv, rdiag
