"""Reusable SpGEMM buffers and exact flop accounting.

``C = A @ B`` is the kernel behind every Schur-complement update
(``F @ A12`` in Algorithm 2 line 12).  The multiply itself dispatches
through :mod:`repro.kernels` (``spgemm_csr`` / ``schur_update_csc``):
scipy's C implementation on the pure tier, the row-merge C kernel on the
native tier.  This module holds what both sides share:

- :class:`SpGEMMWorkspace` — scratch buffers of the native tier's
  row-merge SpGEMM, gram, dense-panel, parallel and QRCP kernels, grown
  geometrically and reused across block iterations so the
  fixed-precision loop allocates only on its highest-watermark
  iteration;
- :func:`spgemm_flops` — the exact multiply-add count the performance
  model charges for a Schur complement.
"""

from __future__ import annotations

import numpy as np

from .utils import ensure_csc


class SpGEMMWorkspace:
    """Reusable scratch buffers of the native-tier sparse kernels.

    Every buffer grows geometrically and never shrinks, so a driver loop
    that passes the same workspace allocates only on the
    highest-watermark iteration.

    Attributes
    ----------
    grown:
        How many times a buffer was (re)allocated — a diagnostic for
        verifying reuse in tests and benchmarks.
    """

    def __init__(self):
        self.grown = 0
        # native-tier csr_matmat accumulator buffers (see matmat_buffers)
        self._mm_acc_n = 0
        self._mm_mark: np.ndarray | None = None
        self._mm_sums: np.ndarray | None = None
        self._mm_touched: np.ndarray | None = None
        # per-row scratch of the parallel SpGEMM (see row_scratch)
        self._row_n = 0
        self._row_scratch: np.ndarray | None = None
        # counting-sort transpose buffers of the gram kernel (gram_buffers)
        self._gr_m = 0
        self._gr_ptr: np.ndarray | None = None
        self._gr_nnz = 0
        self._gr_ind: np.ndarray | None = None
        self._gr_val: np.ndarray | None = None
        # zero-filled operand panel of the dense routes (panel_buffer)
        self._panel_n = 0
        self._panel: np.ndarray | None = None
        # block copy, tau, work and jpvt of the batched QRCP (qrcp_buffers)
        self._qr_n = 0
        self._qr_ws: np.ndarray | None = None
        self._qr_cols = 0
        self._qr_jpvt: np.ndarray | None = None

    @staticmethod
    def _grow_cap(current: int, needed: int) -> int:
        """Doubling growth schedule: never an exact-fit reallocation, so a
        slowly-rising watermark costs O(log) reallocations, not one per
        iteration."""
        cap = max(2 * current, 1024)
        while cap < needed:
            cap *= 2
        return cap

    def matmat_buffers(self, n: int, threads: int = 1):
        """Accumulator buffers for the native-tier row-merge SpGEMM
        (:func:`repro.kernels.native.spgemm_csr`), grown geometrically and
        reused across calls.

        Returns ``(mark, sums, touched)`` where ``mark`` (int64, ≥
        ``threads * n`` — one ``n``-sized accumulator slice per OpenMP
        thread) is all ``-1`` — the kernels restore every slice they dirty
        before returning, so the invariant holds across calls (and across
        serial/parallel alternation) without re-initialization;
        ``sums``/``touched`` are scratch with no entry invariant.  The
        *output* arrays are allocated fresh per call (the result outlives
        the workspace; a bound-sized ``np.empty`` is cheaper than copying
        out of a reused buffer).
        """
        need = n * max(threads, 1)
        if self._mm_mark is None or self._mm_acc_n < need:
            self._mm_acc_n = self._grow_cap(self._mm_acc_n, need)
            self._mm_mark = np.full(self._mm_acc_n, -1, dtype=np.int64)
            self._mm_sums = np.empty(self._mm_acc_n, dtype=np.float64)
            self._mm_touched = np.empty(self._mm_acc_n, dtype=np.int64)
            self.grown += 1
        return (self._mm_mark, self._mm_sums, self._mm_touched)

    def row_scratch(self, m: int) -> np.ndarray:
        """Per-output-row int64 scratch (≥ m slots, no entry invariant)
        for the parallel SpGEMM's bound/nnz bookkeeping."""
        if self._row_scratch is None or self._row_n < m:
            self._row_n = self._grow_cap(self._row_n, m)
            self._row_scratch = np.empty(self._row_n, dtype=np.int64)
            self.grown += 1
        return self._row_scratch

    def gram_buffers(self, m: int, nnz: int):
        """Counting-sort transpose buffers of the native gram kernel
        (:func:`repro.kernels.native.gram_csc`): ``(tp, tj, tx)`` with
        ``tp`` int64 ≥ m and ``tj``/``tx`` int64/float64 ≥ nnz; scratch
        with no entry invariant."""
        if self._gr_ptr is None or self._gr_m < m:
            self._gr_m = self._grow_cap(self._gr_m, m)
            self._gr_ptr = np.empty(self._gr_m, dtype=np.int64)
            self.grown += 1
        if self._gr_ind is None or self._gr_nnz < nnz:
            self._gr_nnz = self._grow_cap(self._gr_nnz, nnz)
            self._gr_ind = np.empty(self._gr_nnz, dtype=np.int64)
            self._gr_val = np.empty(self._gr_nnz, dtype=np.float64)
            self.grown += 1
        return (self._gr_ptr, self._gr_ind, self._gr_val)

    def panel_buffer(self, size: int) -> np.ndarray:
        """float64 scratch (>= ``size`` slots, no entry invariant) for the
        zero-filled operand panel of the dense-panel Gram and Schur
        routes: ``m x c2`` for :func:`repro.kernels.native.gram_csc`,
        ``k x n`` for :func:`repro.kernels.native.schur_update_csc`."""
        if self._panel is None or self._panel_n < size:
            self._panel_n = self._grow_cap(self._panel_n, size)
            self._panel = np.empty(self._panel_n, dtype=np.float64)
            self.grown += 1
        return self._panel

    def qrcp_buffers(self, size: int, n: int):
        """Scratch of the native batched QRCP
        (:func:`repro.kernels.native.qrcp_batch`): ``(ws, jpvt)``, float64
        ``ws`` ≥ ``size`` slots (block copy, tau and LAPACK work) and int32
        ``jpvt`` ≥ ``n``; no entry invariant."""
        if self._qr_ws is None or self._qr_n < size:
            self._qr_n = self._grow_cap(self._qr_n, size)
            self._qr_ws = np.empty(self._qr_n, dtype=np.float64)
            self.grown += 1
        if self._qr_jpvt is None or self._qr_cols < n:
            self._qr_cols = self._grow_cap(self._qr_cols, n)
            self._qr_jpvt = np.empty(self._qr_cols, dtype=np.int32)
            self.grown += 1
        return self._qr_ws, self._qr_jpvt


def spgemm_flops(A, B) -> float:
    """Exact multiply-add count of ``A @ B`` without performing it."""
    A = ensure_csc(A, dtype=None)
    Bc = ensure_csc(B, dtype=None)
    a_colnnz = np.diff(A.indptr)
    b_rownnz = np.bincount(Bc.indices, minlength=A.shape[1])
    return float(2.0 * np.dot(a_colnnz, b_rownnz))
