"""Kernel tier registry and dispatch.

Two tiers serve the sparse hot-path kernels (row-merge SpGEMM — serial
and OpenMP row-parallel — fused ILUT thresholding, the Schur index-window
scatter/gather, CSR<->CSC conversion, the column gather, the batched
by-column-id Gram, the fused Schur difference, the COLAMD +
column-etree postorder ordering, and the batched QRCP of a tournament
level):

- ``pure``   — the existing NumPy/SciPy routes; always available and the
  default, so ``PYTHONPATH=src pytest`` never gains a build step.
- ``native`` — JIT-built C implementations (:mod:`repro.kernels.native`),
  bitwise-identical to ``pure`` by the parity contract and registered
  *unavailable* when the host has no C compiler.

Tier requests are three-valued: ``"pure"``, ``"native"``, or ``"auto"``.
``auto`` resolves to ``$REPRO_KERNEL_TIER`` when set, else to ``native``
only when a cached build for the current sources already exists on disk
(a stat probe — never a compile), else ``pure``.  An explicit ``native``
request compiles on first use and falls back to ``pure`` (with a
one-time warning) when that is impossible, so solves always succeed.

Dispatch functions accept ``tier=`` as a resolved tier name or a request
(``None`` means ``auto``).  Callers in solver loops resolve once per
solve via :func:`resolve_tier` and pass the result down.  Per-call
scratch (the window row-count buffer, the fallback SpGEMM workspace)
is thread-local, so concurrent solves — and the per-rank calls of the
threads SPMD backend — never share mutable kernel state.
"""

from __future__ import annotations

import os
import threading
import time
import warnings

import numpy as np

from .. import perf
from ..linalg.qrcp import _geqp3_lwork
from . import native
from . import pure
from .threads import blas_threads, kernel_threads

#: Registered tiers, in fallback order.
TIERS = ("pure", "native")

#: Tier requests accepted by configs / CLI / dispatch.
TIER_REQUESTS = ("auto",) + TIERS

#: Environment override consulted by ``auto`` (CI's native-kernels job
#: sets it to force the compiled tier under the whole test suite).
TIER_ENV = "REPRO_KERNEL_TIER"

_tl = threading.local()
_warned_unavailable = False


def _thread_state():
    ws = getattr(_tl, "state", None)
    if ws is None:
        ws = _tl.state = {}
    return ws


def validate_request(request: str) -> str:
    req = str(request).strip().lower()
    if req not in TIER_REQUESTS:
        raise ValueError(
            f"unknown kernel tier {request!r} "
            f"(choose {' | '.join(TIER_REQUESTS)})")
    return req


def native_available() -> bool:
    """Whether the native tier can serve calls (builds on first probe)."""
    return native.available()


def available_tiers() -> tuple[str, ...]:
    """The tiers that can actually serve calls right now.  Probing
    availability may trigger the one-time native build."""
    return TIERS if native_available() else ("pure",)


def resolve_tier(request: str | None = None) -> str:
    """Resolve a tier request to the tier that will actually run.

    ``None``/``"auto"``: ``$REPRO_KERNEL_TIER`` when set (itself resolved
    recursively, so ``auto`` in the environment is harmless), else
    ``native`` if a cached build already exists, else ``pure``.
    ``"native"``: build/load on first use; falls back to ``pure`` with a
    one-time :class:`RuntimeWarning` when unavailable — except when a C
    compiler *was* found and the compile itself failed, which raises
    :class:`repro.exceptions.KernelBuildError` with the compiler's
    stderr: an explicit native request on a host with a toolchain should
    never silently paper over broken sources or flags.
    """
    global _warned_unavailable
    req = validate_request(request if request is not None else "auto")
    if req == "auto":
        env = os.environ.get(TIER_ENV, "").strip().lower()
        if env and env != "auto":
            req = validate_request(env)
        else:
            return "native" if native.cached_build_exists() else "pure"
    if req == "native":
        if native_available():
            return "native"
        from .native import build as native_build
        failure = native_build.last_failure
        if failure is not None and failure.compiler is not None:
            from ..exceptions import KernelBuildError
            raise KernelBuildError(
                "kernel tier 'native' was explicitly requested and a C "
                f"compiler was found, but the build failed: {failure.message}",
                compiler=failure.compiler, stderr=failure.stderr)
        if not _warned_unavailable:
            _warned_unavailable = True
            from .native import build
            warnings.warn(
                "kernel tier 'native' requested but unavailable "
                f"({build.last_error or 'build not attempted'}); "
                "falling back to 'pure'", RuntimeWarning, stacklevel=2)
        return "pure"
    return req


def record_tier(tier: str) -> str:
    """Count one solve on ``tier`` in the perf counters; returns ``tier``.

    Every solve records the OpenBLAS pool size it runs with as the
    ``kernel_tier.blas_threads`` gauge (0 when no pool can be controlled;
    see :mod:`repro.kernels.threads`).  Native solves also record the
    rank-local SpGEMM thread count as the ``kernel_tier.threads`` gauge —
    the provenance that says what ``$REPRO_KERNEL_THREADS`` actually
    resolved to.  For both gauges the last solve wins."""
    perf.incr(f"kernel_tier.{tier}")
    if perf.is_enabled():
        counters = perf.get_recorder().counters
        counters["kernel_tier.blas_threads"] = float(blas_threads())
        if tier == "native":
            counters["kernel_tier.threads"] = float(kernel_threads())
    return tier


def reset() -> None:
    """Forget memoized tier state (tests re-probe after monkeypatching)."""
    global _warned_unavailable
    _warned_unavailable = False
    native.reset()
    _tl.state = {}


def _impl(tier: str | None):
    t = tier if tier in TIERS else resolve_tier(tier)
    return (native, t) if t == "native" else (pure, t)


# ---------------------------------------------------------------------------
# dispatch surface (one function per registered kernel)
# ---------------------------------------------------------------------------

def _thread_workspace(workspace=None):
    """The caller's workspace, or the thread-local shared one (created on
    first use).  Thread-locality keeps concurrent solves — and the
    per-rank calls of the threads SPMD backend — from sharing scratch."""
    if workspace is not None:
        return workspace
    state = _thread_state()
    ws = state.get("spgemm_ws")
    if ws is None:
        from ..sparse.spgemm import SpGEMMWorkspace
        ws = state["spgemm_ws"] = SpGEMMWorkspace()
    return ws


def spgemm_csr(A, B, *, tier: str | None = None, workspace=None):
    """``A @ B`` on canonical CSR operands — scipy accumulation order,
    bitwise-identical across tiers (and across
    ``$REPRO_KERNEL_THREADS`` values on the native tier).  ``workspace``
    (a :class:`repro.sparse.spgemm.SpGEMMWorkspace`) lets the native tier
    reuse its accumulator and output buffers across calls; when omitted a
    thread-local workspace is used."""
    mod, t = _impl(tier)
    if t == "native":
        return mod.spgemm_csr(A, B, workspace=_thread_workspace(workspace),
                              threads=kernel_threads())
    return mod.spgemm_csr(A, B, workspace=workspace)


def threshold_mask(A, mu: float, *, tier: str | None = None):
    """Fused mu-threshold accounting pass (mask, count, ||T~||_F^2, max)."""
    mod, _ = _impl(tier)
    return mod.threshold_mask(A, mu)


def apply_threshold_mask(A, mask, *, tier: str | None = None):
    """Apply a threshold mask in place and prune zeros."""
    mod, _ = _impl(tier)
    return mod.apply_threshold_mask(A, mask)


def _rowcount(m: int):
    """The thread-local row-count scratch of the native window kernels,
    grown to at least ``m`` slots."""
    state = _thread_state()
    rowcount = state.get("rowcount")
    if rowcount is None or rowcount.size < m:
        rowcount = state["rowcount"] = np.empty(
            max(1024, 2 * m), dtype=np.int64)
    return rowcount


def permuted_blocks(active, col_perm, row_perm, k: int, *,
                    tier: str | None = None):
    """Fused permute + 2x2 split of the active matrix."""
    mod, t = _impl(tier)
    if t == "native":
        return mod.permuted_blocks(active, col_perm, row_perm, k,
                                   rowcount=_rowcount(active.shape[0]))
    return mod.permuted_blocks(active, col_perm, row_perm, k)


def window_split(active, cols, row_perm, k: int, *,
                 tier: str | None = None):
    """Row permute + column gather + split at permuted row ``k`` of one
    window of a canonical CSC matrix: ``(top, bottom)`` canonical CSR,
    equal to ``active[row_perm][:, cols]`` cut into its first ``k`` rows
    and the rest (``0 < k <= m``; ``cols`` may be empty).  The right-window
    pass of :func:`permuted_blocks`, for callers that hold the pivot
    columns elsewhere (the SPMD rank program)."""
    mod, t = _impl(tier)
    if t == "native":
        return mod.window_split(active, cols, row_perm, k,
                                rowcount=_rowcount(active.shape[0]))
    return mod.window_split(active, cols, row_perm, k)


def pivot_argmin_consume(key, sentinel: int, *,
                         tier: str | None = None) -> int:
    """First-minimum argmin over an int64 key; winner slot <- sentinel.
    The pure ``colamd``'s pivot step; numpy's argmin serves both tiers
    (the native tier orders in one :func:`colamd_postorder` call)."""
    del tier
    return pure.pivot_argmin_consume(key, sentinel)


def colamd_postorder(A, *, tier: str | None = None):
    """The paper's column preprocessing permutation: COLAMD, then the
    postorder of the column elimination tree of the COLAMD-permuted
    matrix, as one ``intp`` permutation vector.  The ordering is integer
    work only, so both tiers return the same permutation; the native
    tier runs all three steps in one C call."""
    mod, _ = _impl(tier)
    return mod.colamd_postorder(A)


def _timed_convert(fn, A):
    """Run one conversion, feeding the ``kernel_tier.convert_*`` counter
    pair when perf recording is on (the timing ``perf_counter`` calls are
    only paid while enabled, like every other instrumented site)."""
    if not perf.is_enabled():
        return fn(A)
    t0 = time.perf_counter()
    out = fn(A)
    rec = perf.get_recorder()
    rec.incr("kernel_tier.convert_calls")
    rec.incr("kernel_tier.convert_seconds", time.perf_counter() - t0)
    return out


def csr_to_csc(A, *, tier: str | None = None):
    """CSR -> canonical CSC; scipy ``tocsc()`` contract on both tiers
    (same counting sort, same entry order, same index dtypes)."""
    mod, _ = _impl(tier)
    return _timed_convert(mod.csr_to_csc, A)


def csc_to_csr(A, *, tier: str | None = None):
    """CSC -> canonical CSR; scipy ``tocsr()`` contract on both tiers."""
    mod, _ = _impl(tier)
    return _timed_convert(mod.csc_to_csr, A)


def gather_columns(A, cols, *, tier: str | None = None):
    """Column gather ``A[:, cols]`` of a canonical CSC matrix (the
    general path of ``repro.sparse.ops.extract_columns``) — identical
    entries in identical stored order across tiers."""
    mod, _ = _impl(tier)
    return mod.gather_columns(A, cols)


def gram_csc(A, left, right, *, tier: str | None = None, workspace=None):
    """Dense Gram products read from a canonical float64 CSC matrix by
    column id: one ``A[:, left[p]].T @ A[:, right[p]]`` per pair, as a
    list.  A pair whose two id lists are the same object is a self-Gram.
    Every product equals the Gram of the gathered panels bit for bit,
    across tiers (and across the native tier's sparse and dense-panel
    routes); the tournament passes every match of a tree level in one
    call.  Ids outside ``[0, n)`` raise :class:`IndexError`."""
    mod, t = _impl(tier)
    if t == "native":
        return mod.gram_csc(A, left, right,
                            workspace=_thread_workspace(workspace))
    return mod.gram_csc(A, left, right)


def schur_update_csc(A22, F, A12, *, tol: float | None = None,
                     tier: str | None = None, workspace=None):
    """The Schur-complement update ``(A22 - F @ A12).tocsc()`` with the
    explicit-zero drop (``drop_explicit_zeros(..., tol)``) applied when
    ``tol`` is not ``None`` — one dispatch for the multiply, subtract,
    convert and drop chain so the native tier can fuse it (SpGEMM into
    workspace, one-pass difference, one counting sort; dense-panel loops
    once the product fills in) instead of materializing three scipy
    intermediates."""
    mod, t = _impl(tier)
    if t == "native":
        return mod.schur_update_csc(A22, F, A12, tol=tol,
                                    workspace=_thread_workspace(workspace),
                                    threads=kernel_threads())
    return mod.schur_update_csc(A22, F, A12, tol=tol)


def qrcp_batch(blocks, *, tier: str | None = None, workspace=None):
    """QR with column pivoting of every ``m x n`` block of a float64
    ``(p, m, n)`` stack: 0-based pivot orders ``(p, n)`` (int64) and
    ``|diag R|`` ``(p, min(m, n))``, per block the values
    :func:`repro.linalg.qrcp.qrcp` gives (LAPACK ``dgeqp3`` with scipy's
    workspace size), bit for bit across tiers.  The native tier runs
    the whole stack in one C call on the thread's workspace and reads
    column-major blocks (``blocks.transpose(0, 2, 1)`` C-contiguous: a
    stack of Gram factors ``L.transpose(0, 2, 1)``, or of gathered rows
    ``Q[ids].transpose(0, 2, 1)``) in place.  QR_TP pivots every clean
    match of a tree level with one call."""
    mod, t = _impl(tier)
    nb, m, n = blocks.shape
    if nb == 0 or min(m, n) == 0:
        return (np.tile(np.arange(n, dtype=np.int64), (nb, 1)),
                np.zeros((nb, min(m, n))))
    lwork = _geqp3_lwork(m, n)
    if t == "native":
        return mod.qrcp_batch(blocks, lwork,
                              workspace=_thread_workspace(workspace))
    return mod.qrcp_batch(blocks, lwork)
