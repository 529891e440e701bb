"""Index-window views over the running Schur complement.

Spelled with scipy, every LU_CRTP/ILUT_CRTP iteration materializes the
fully permuted active matrix twice (``permute_cols`` then
``permute_rows``) and then converts formats four more times inside
``split_2x2`` — roughly eight ``O(nnz)`` passes to produce four blocks
whose combined size *is* ``nnz``.

This module replaces that with an index-window formulation: the active
matrix is kept untouched in CSC form and the column/row permutations are
treated as index maps.  :func:`permuted_blocks` gathers each entry once,
routes it directly to its destination block and emits

- ``A11`` **dense** ``(k, k)`` (it is inverted immediately afterwards),
- ``A12`` canonical CSR ``(k, n-k)`` (the right operand of ``F @ A12``),
- ``A21`` canonical CSR ``(m-k, k)`` (row-sliced to build ``F``),
- ``A22`` canonical CSR ``(m-k, n-k)`` (entrywise subtraction target),

in two gather passes plus one stable radix sort per window.  The
blocks are *bitwise identical* in values and canonical ordering to the
``permute`` + ``split_2x2`` composition, which keeps pivot selection and
the error indicator trajectory exactly reproducible — verified by the
``tests/test_opt_parity.py`` suite.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .utils import raw_csc, raw_csr


def _csr_from_sorted(vals, rows, cols, shape) -> sp.csr_matrix:
    """Canonical CSR from COO triples (sorted by the caller row-major)."""
    m = shape[0]
    idx_dtype = np.int32 if max(shape) < 2**31 else np.int64
    indptr = np.zeros(m + 1, dtype=idx_dtype)
    np.cumsum(np.bincount(rows, minlength=m), out=indptr[1:])
    return raw_csr(vals, cols.astype(idx_dtype), indptr, shape)


def _csc_from_sorted(vals, rows, cols, shape, *,
                     sorted_within: bool = True) -> sp.csc_matrix:
    """Canonical CSC from COO triples grouped by column.

    With ``sorted_within=False`` the rows inside each column may be out of
    order; scipy's C ``sort_indices`` canonicalizes them.
    """
    n = shape[1]
    idx_dtype = np.int32 if max(shape) < 2**31 else np.int64
    indptr = np.zeros(n + 1, dtype=idx_dtype)
    np.cumsum(np.bincount(cols, minlength=n), out=indptr[1:])
    M = raw_csc(vals, rows.astype(idx_dtype), indptr, shape,
                sorted_indices=sorted_within)
    if not sorted_within:
        # two C counting-sort passes beat sort_indices' per-column sorts
        M = M.tocsr().tocsc()
    return M


def _row_order(rows: np.ndarray, m: int) -> np.ndarray:
    """Stable argsort by row index (``rows`` values all below ``m``).

    Entries arrive column-grouped (CSC gather order), so a stable sort on
    the row key alone produces canonical row-major order.  Row indices below
    2^16 are downcast so numpy uses its radix sort; beyond that the int64
    stable sort is still correct, just slower.
    """
    if m < 2**16:
        return np.argsort(rows.astype(np.uint16), kind="stable")
    return np.argsort(rows, kind="stable")


def gather_positions(indptr: np.ndarray, cols: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Entry positions of CSC columns ``cols``, in column-gather order.

    Returns ``(pos, counts)``: ``pos`` indexes ``indices``/``data`` so that
    the entries of ``cols[0]`` come first (in stored order), then
    ``cols[1]``, ...  One vectorized pass, no scipy wrapper overhead.
    """
    counts = (indptr[cols + 1] - indptr[cols]).astype(np.int64)
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64), counts
    starts = indptr[cols].astype(np.int64)
    offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
    pos = np.arange(total, dtype=np.int64)
    pos += np.repeat(starts - offsets, counts)
    return pos, counts


def _inverse_permutation(row_perm: np.ndarray, m: int) -> np.ndarray:
    """Position of each original row after the permutation ``row_perm``."""
    ipos = np.empty(m, dtype=np.int64)
    ipos[np.asarray(row_perm, dtype=np.int64)] = np.arange(m, dtype=np.int64)
    return ipos


def _sorted_window(active: sp.csc_matrix, cols: np.ndarray,
                   ipos: np.ndarray):
    """Entries of the column window ``cols`` as ``(rows, cols, vals)``
    triples in canonical row-major order of the permuted rows (one gather
    plus one stable radix sort on the permuted row index)."""
    m = active.shape[0]
    pos, counts = gather_positions(active.indptr, cols)
    r_new = ipos[active.indices[pos]]
    order = _row_order(r_new, m)
    rows_s = r_new[order]
    cols_s = np.repeat(np.arange(len(cols), dtype=np.int64), counts)[order]
    return rows_s, cols_s, active.data[pos[order]]


def _split_window(active: sp.csc_matrix, cols: np.ndarray, ipos: np.ndarray,
                  k: int) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """One column window split at permuted row ``k``: rows below ``k`` form
    a prefix of the sorted entries (the top block), rows at or above ``k``
    the suffix (the bottom block), both canonical CSR."""
    m = active.shape[0]
    ncols = len(cols)
    rows_s, cols_s, vals_s = _sorted_window(active, cols, ipos)
    cut = int(np.searchsorted(rows_s, k))
    top = _csr_from_sorted(vals_s[:cut], rows_s[:cut], cols_s[:cut],
                           (k, ncols))
    bottom = _csr_from_sorted(vals_s[cut:], rows_s[cut:] - k, cols_s[cut:],
                              (m - k, ncols))
    return top, bottom


def _column_ids(ids, n: int) -> np.ndarray:
    """``ids`` as int64 column ids; ids outside ``[0, n)`` raise
    :class:`IndexError` (a negative id would otherwise wrap silently)."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= n):
        raise IndexError(f"column id out of range for {n} columns")
    return ids


def window_split(active: sp.csc_matrix, cols, row_perm: np.ndarray,
                 k: int) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """Fused row permute + column gather + row split of one window.

    Equivalent to ``P = active[row_perm][:, cols]`` followed by
    ``(P[:k].tocsr(), P[k:].tocsr())`` — the ``A12``/``A22`` pair of the
    Schur update — with each entry touched once and the permuted matrix
    never built.  ``active`` must be canonical CSC, ``row_perm`` a
    permutation of its rows, ``cols`` any column ids (empty allowed) and
    ``0 < k <= m``.  Both blocks come back as canonical CSR with the values
    and entry order of that composition.
    """
    m, n = active.shape
    if not 0 < k <= m:
        raise ValueError(f"invalid split size k={k} for {m} rows")
    return _split_window(active, _column_ids(cols, n),
                         _inverse_permutation(row_perm, m), k)


def permuted_blocks(active: sp.csc_matrix, col_perm: np.ndarray,
                    row_perm: np.ndarray, k: int):
    """Fused permute + 2x2 split of the active matrix.

    Equivalent to ``split_2x2(permute_rows(permute_cols(active, col_perm),
    row_perm), k)`` but with ``A11`` returned dense, ``A22`` returned as
    canonical *CSR*, and each entry touched once.  ``active`` must be
    canonical CSC (sorted indices); the result blocks carry identical values
    in identical canonical order to that composition.

    Each window (left: selected columns, right: the rest) is processed with
    a single stable radix sort on the permuted row index: rows below ``k``
    then form a prefix (the top block) and rows at or above ``k`` a suffix
    (the bottom block), both already in canonical row-major order.  The
    right window is :func:`window_split`'s pass.
    """
    m, n = active.shape
    if not 0 < k <= min(m, n):
        raise ValueError(f"invalid split size k={k} for shape {active.shape}")
    q = np.asarray(col_perm, dtype=np.int64)
    ipos = _inverse_permutation(row_perm, m)

    # ---- left window: the k selected columns -> A11 (dense) + A21 (CSR)
    rows_s, cols_s, vals_s = _sorted_window(active, q[:k], ipos)
    cut = int(np.searchsorted(rows_s, k))
    A11d = np.zeros((k, k), dtype=np.float64)
    A11d[rows_s[:cut], cols_s[:cut]] = vals_s[:cut]
    A21 = _csr_from_sorted(vals_s[cut:], rows_s[cut:] - k, cols_s[cut:],
                           (m - k, k))

    # ---- right window: the remaining columns -> A12 (CSR) + A22 (CSR)
    A12, A22 = _split_window(active, q[k:], ipos, k)
    return A11d, A12, A21, A22


def dense_rows_to_csr(Fsub: np.ndarray, rows: np.ndarray, m: int,
                      *, drop_below: float = 1e-300) -> sp.csr_matrix:
    """Scatter dense rows into a canonical ``(m, k)`` CSR matrix.

    ``Fsub[i]`` becomes row ``rows[i]``; entries with magnitude below
    ``drop_below`` are pruned (round-off debris from the triangular solve).
    Equal to assigning the rows into a ``lil_matrix`` and converting to
    CSR, without the per-row Python overhead of that route.
    """
    k = Fsub.shape[1]
    keep = np.abs(Fsub) >= drop_below
    flat = np.flatnonzero(keep.ravel())  # row-major == canonical CSR order
    sub_row = flat // k
    cols = flat % k
    vals = Fsub.ravel()[flat]
    full_rows = np.asarray(rows, dtype=np.int64)[sub_row]
    return _csr_from_sorted(vals, full_rows, cols, (m, k))


def csr_rows_to_dense(A: sp.csr_matrix, rows: np.ndarray) -> np.ndarray:
    """Dense ``A[rows].toarray()`` in one scatter pass (no scipy slicing).

    ``rows`` must be sorted unique row indices of the CSR matrix ``A``.
    """
    counts = (A.indptr[rows + 1] - A.indptr[rows]).astype(np.int64)
    out = np.zeros((len(rows), A.shape[1]), dtype=np.float64)
    if counts.sum() == 0:
        return out
    pos, _ = gather_positions(A.indptr, np.asarray(rows, dtype=np.int64))
    out[np.repeat(np.arange(len(rows)), counts), A.indices[pos]] = A.data[pos]
    return out


def extract_leading_columns(active: sp.csc_matrix, cols: np.ndarray
                            ) -> sp.csc_matrix:
    """Canonical CSC gather of ``active[:, cols]`` without materializing the
    fully permuted matrix first (the ``selected`` block of Algorithm 2
    line 6).  Row order inside each column is preserved, so the result is
    bitwise identical to ``permute_cols(active, perm)[:, :k]``."""
    cols = np.asarray(cols, dtype=np.int64)
    pos, counts = gather_positions(active.indptr, cols)
    idx_dtype = np.int32 if active.shape[0] < 2**31 else np.int64
    indptr = np.zeros(len(cols) + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return raw_csc(active.data[pos], active.indices[pos].astype(idx_dtype),
                   indptr.astype(idx_dtype),
                   (active.shape[0], len(cols)))


def csr_row_window(A: sp.csr_matrix, lo: int, hi: int) -> sp.csr_matrix:
    """Zero-copy CSR view of the contiguous row range ``[lo, hi)``.

    ``data`` and ``indices`` are slices (views) of ``A``'s arrays — nothing
    is copied except the ``hi - lo + 1`` rebased ``indptr`` entries.  This
    is how the SPMD rank programs take their local row block out of the
    shared-memory input matrix: the values are bitwise identical to
    ``A[lo:hi]`` while touching none of the nnz arrays, so P ranks hold one
    copy of the input between them instead of two.

    The view shares mutable state with ``A``; callers must treat it as
    read-only (the shm-backed input already is).  Under ``REPRO_SANITIZE=1``
    the shared ``data``/``indices`` buffers are handed out with
    ``writeable=False``, so an in-place write through the window raises at
    the faulting statement instead of silently corrupting the neighbor
    ranks' rows; take :func:`copy_for_write` when mutation is intended.
    """
    if not 0 <= lo <= hi <= A.shape[0]:
        raise ValueError(f"row window [{lo}, {hi}) out of bounds for "
                         f"{A.shape[0]} rows")
    start, stop = int(A.indptr[lo]), int(A.indptr[hi])
    indptr = A.indptr[lo:hi + 1] - A.indptr[lo]
    data = A.data[start:stop]
    indices = A.indices[start:stop]
    from ..parallel.sanitize import enabled as _sanitize_enabled
    if _sanitize_enabled():
        data.flags.writeable = False
        indices.flags.writeable = False
    return raw_csr(data, indices,
                   indptr.astype(A.indptr.dtype, copy=False),
                   (hi - lo, A.shape[1]),
                   sorted_indices=bool(A.has_sorted_indices))


def copy_for_write(M):
    """Deep, *writable* copy of a shared or zero-copy distribution view.

    The sanitizer escape hatch: :func:`csr_row_window` windows and
    shm-attached inputs (:mod:`repro.parallel.shm`) are read-only under
    ``REPRO_SANITIZE=1`` — a rank program that legitimately needs to
    mutate its local block takes ``copy_for_write(view)`` first, making
    the rank-private ownership transfer explicit (and lint-visible:
    SPMD002 treats it as clearing the shared-view taint).

    Accepts scipy sparse matrices and numpy arrays; the copy owns fresh
    writable buffers in both cases.
    """
    if sp.issparse(M):
        out = M.copy()
        for name in ("data", "indices", "indptr", "row", "col", "offsets"):
            part = getattr(out, name, None)
            if part is not None and not part.flags.writeable:
                setattr(out, name, part.copy())
        return out
    return np.array(M, copy=True)
