"""Structural sparse operations: permutations, splits, factor assembly.

LU_CRTP permutes, partitions and re-assembles sparse matrices every
iteration (lines 8-11 of Algorithm 2).  scipy's fancy indexing covers the
semantics but with per-call overhead and format churn; these helpers pin the
formats (CSC for column ops, CSR for row ops) so each operation is a single
``O(nnz)`` pass.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

try:  # scipy's C kernel, used directly to skip the symbolic sizing pass
    from scipy.sparse import _sparsetools as _spt
except ImportError:  # pragma: no cover - very old scipy
    _spt = None

# guarded scipy-internal import above keeps this below the try block
from .utils import ensure_csc, ensure_csr, raw_csr  # noqa: E402


def permute_rows(A: sp.spmatrix, perm: np.ndarray) -> sp.csr_matrix:
    """Return ``A[perm, :]`` as CSR (row ``i`` of the result is ``A[perm[i]]``)."""
    A = ensure_csr(A)
    return A[np.asarray(perm, dtype=np.intp), :]


def permute_cols(A: sp.spmatrix, perm: np.ndarray) -> sp.csc_matrix:
    """Return ``A[:, perm]`` as CSC."""
    A = ensure_csc(A)
    return A[:, np.asarray(perm, dtype=np.intp)]


def permute(A: sp.spmatrix, row_perm: np.ndarray | None,
            col_perm: np.ndarray | None) -> sp.spmatrix:
    """Apply row and/or column permutations (either may be ``None``)."""
    if col_perm is not None:
        A = permute_cols(A, col_perm)
    if row_perm is not None:
        A = permute_rows(A, row_perm)
    return A


def split_2x2(A: sp.spmatrix, k: int) -> tuple[sp.spmatrix, sp.spmatrix,
                                               sp.spmatrix, sp.spmatrix]:
    """Split ``A`` into the 2x2 block structure of Algorithm 2, line 8:

    ``A11 (k,k)``, ``A12 (k, n-k)``, ``A21 (m-k, k)``, ``A22 (m-k, n-k)``.
    """
    A = ensure_csc(A)
    m, n = A.shape
    if not 0 < k <= min(m, n):
        raise ValueError(f"invalid split size k={k} for shape {A.shape}")
    left = A[:, :k].tocsr()
    right = A[:, k:].tocsr()
    return (left[:k].tocsc(), right[:k].tocsc(),
            left[k:].tocsc(), right[k:].tocsc())


def extract_columns(A: sp.spmatrix, cols: np.ndarray, *,
                    tier: str | None = None) -> sp.csc_matrix:
    """Column gather ``A[:, cols]`` as CSC (a tournament match's candidate
    block, which it needs only for the dense method or when its Gram
    factorization breaks down).

    Contiguous ascending ranges — every tournament *leaf* block — take the
    CSC slice fast path (one indptr offset + one data copy).  The general
    gather dispatches through the kernel tier registry
    (:func:`repro.kernels.gather_columns`): the pure route is the same
    vectorized position pass as the window kernels plus raw
    (validation-free) assembly, the native route one memcpy pair per
    column — identical entries in identical stored order to scipy's fancy
    indexing either way, without its per-call index validation and
    constructor re-checks.
    """
    A = ensure_csc(A)
    cols = np.asarray(cols, dtype=np.intp)
    if cols.size > 1 and cols[-1] - cols[0] == cols.size - 1 \
            and np.all(np.diff(cols) == 1):
        return A[:, cols[0]:cols[-1] + 1]
    from ..kernels import gather_columns  # lazy: kernels.pure imports ops
    return gather_columns(A, cols, tier=tier)


#: do not preallocate more than this many candidate output entries; beyond
#: it the symbolic sizing pass is cheaper than the wasted memory traffic
_MATMUL_CAP = 32_000_000


def csr_matmul_nosym(A: sp.csr_matrix, B: sp.csr_matrix) -> sp.csr_matrix:
    """``A @ B`` for canonical CSR operands without the symbolic pass.

    scipy's ``@`` runs ``csr_matmat_maxnnz`` — a full symbolic multiply —
    just to size the output, then the numeric ``csr_matmat``.  Here the
    output is preallocated at ``min(flop bound, m*n)`` slots and the numeric
    kernel is called directly; the accumulation order is scipy's own, so
    the values are bitwise identical to the operator.  Falls back to the
    operator when the bound is too large to be worth the memory, or when
    the private kernel is unavailable.  Like scipy's operator, the result
    rows are *not* sorted by column.
    """
    m, _ = A.shape
    n = B.shape[1]
    if _spt is None or A.nnz == 0 or B.nnz == 0:
        return A @ B
    bound = int(np.diff(B.indptr)[A.indices].sum())
    cap = min(bound, m * n)
    if cap > _MATMUL_CAP:
        return A @ B
    idx_dtype = np.promote_types(A.indices.dtype, B.indices.dtype)
    Ap = A.indptr.astype(idx_dtype, copy=False)
    Aj = A.indices.astype(idx_dtype, copy=False)
    Bp = B.indptr.astype(idx_dtype, copy=False)
    Bj = B.indices.astype(idx_dtype, copy=False)
    dt = np.result_type(A.dtype, B.dtype)
    Ax = A.data.astype(dt, copy=False)
    Bx = B.data.astype(dt, copy=False)
    Cp = np.empty(m + 1, dtype=idx_dtype)
    Cj = np.empty(cap, dtype=idx_dtype)
    Cx = np.empty(cap, dtype=dt)
    _spt.csr_matmat(m, n, Ap, Aj, Ax, Bp, Bj, Bx, Cp, Cj, Cx)
    nnz = int(Cp[m])
    # sorted_indices=None: rows are unsorted, same as scipy's operator —
    # leave the lazy canonicality check in place for downstream consumers
    return raw_csr(Cx[:nnz], Cj[:nnz], Cp, (m, n), sorted_indices=None)


def hstack_factors(blocks: list) -> sp.csc_matrix:
    """Horizontally concatenate sparse blocks (building ``H_K`` columns)."""
    if not blocks:
        raise ValueError("no blocks to stack")
    return sp.hstack([ensure_csc(b) for b in blocks], format="csc")


def vstack_factors(blocks: list) -> sp.csr_matrix:
    """Vertically concatenate sparse blocks (building ``W_K`` rows)."""
    if not blocks:
        raise ValueError("no blocks to stack")
    return sp.vstack([ensure_csr(b) for b in blocks], format="csr")


def assemble_truncated_L(blocks: list[sp.spmatrix], m: int) -> sp.csc_matrix:
    """Assemble ``L_K`` from per-iteration blocks ``L_k^(i)``.

    Block ``i`` (shape ``(m - i*k, k_i)``) occupies rows ``i*k .. m`` of
    column slice ``i*k .. i*k + k_i`` (line 11 of Algorithm 2): each
    iteration's block starts ``k`` rows further down the matrix.
    """
    cols = []
    offset = 0
    for blk in blocks:
        blk = ensure_csc(blk)
        pad = sp.csc_matrix((offset, blk.shape[1]))
        cols.append(sp.vstack([pad, blk], format="csc"))
        offset += blk.shape[1]
    return sp.hstack(cols, format="csc") if cols else sp.csc_matrix((m, 0))


def assemble_L_global(blocks: list[sp.spmatrix],
                      row_id_snapshots: list[np.ndarray],
                      final_row_perm: np.ndarray, m: int) -> sp.csc_matrix:
    """Assemble ``L_K`` against the *final* row permutation.

    Algorithm 2 line 9 requires earlier ``L`` blocks to be re-permuted by
    every later ``P_r^(i)``.  Instead of permuting repeatedly, each block
    records the original row ids its local rows referred to when it was
    created (``row_id_snapshots[i]``); at assembly time every entry is
    placed at that row's *final* position.  The leading ``k`` rows of each
    block land on their own diagonal slice automatically (those positions
    are frozen once an iteration completes).
    """
    pos = np.empty(m, dtype=np.intp)
    pos[np.asarray(final_row_perm, dtype=np.intp)] = np.arange(m, dtype=np.intp)
    rows_all, cols_all, vals_all = [], [], []
    offset = 0
    for blk, ids in zip(blocks, row_id_snapshots):
        coo = blk.tocoo()
        rows_all.append(pos[np.asarray(ids, dtype=np.intp)[coo.row]])
        cols_all.append(coo.col.astype(np.intp) + offset)
        vals_all.append(coo.data)
        offset += blk.shape[1]
    if not rows_all:
        return sp.csc_matrix((m, 0))
    return sp.csc_matrix(
        (np.concatenate(vals_all),
         (np.concatenate(rows_all), np.concatenate(cols_all))),
        shape=(m, offset))


def assemble_U_global(blocks: list[sp.spmatrix],
                      col_id_snapshots: list[np.ndarray],
                      final_col_perm: np.ndarray, n: int) -> sp.csr_matrix:
    """Assemble ``U_K`` against the *final* column permutation; the column
    analogue of :func:`assemble_L_global`."""
    pos = np.empty(n, dtype=np.intp)
    pos[np.asarray(final_col_perm, dtype=np.intp)] = np.arange(n, dtype=np.intp)
    rows_all, cols_all, vals_all = [], [], []
    offset = 0
    for blk, ids in zip(blocks, col_id_snapshots):
        coo = blk.tocoo()
        rows_all.append(coo.row.astype(np.intp) + offset)
        cols_all.append(pos[np.asarray(ids, dtype=np.intp)[coo.col]])
        vals_all.append(coo.data)
        offset += blk.shape[0]
    if not rows_all:
        return sp.csr_matrix((0, n))
    return sp.csr_matrix(
        (np.concatenate(vals_all),
         (np.concatenate(rows_all), np.concatenate(cols_all))),
        shape=(offset, n))


def assemble_truncated_U(blocks: list[sp.spmatrix], n: int) -> sp.csr_matrix:
    """Assemble ``U_K`` from per-iteration blocks ``U_k^(i)``.

    Block ``i`` (shape ``(k_i, n - i*k)``) occupies columns ``i*k .. n`` of
    row slice ``i*k .. i*k + k_i``.
    """
    rows = []
    offset = 0
    for blk in blocks:
        blk = ensure_csr(blk)
        pad = sp.csr_matrix((blk.shape[0], offset))
        rows.append(sp.hstack([pad, blk], format="csr"))
        offset += blk.shape[0]
    return sp.vstack(rows, format="csr") if rows else sp.csr_matrix((0, n))
