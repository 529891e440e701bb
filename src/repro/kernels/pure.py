"""Pure tier: the existing NumPy/SciPy kernel routes, unchanged.

These are thin bindings of the NumPy/SciPy implementations in
:mod:`repro.sparse` and :mod:`repro.linalg` onto the dispatch signatures
of :mod:`repro.kernels` — the always-available fallback tier and the
bitwise oracle the native tier is pinned against.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import lapack as _lapack

from ..sparse import thresholding as _thresholding
from ..sparse import window as _window
from ..sparse.ops import csr_matmul_nosym
from ..sparse.utils import drop_explicit_zeros


def spgemm_csr(A, B, workspace=None, threads: int = 1):
    """``A @ B`` on canonical CSR operands (scipy accumulation order).

    ``workspace`` and ``threads`` are accepted for signature parity with
    the native tier and ignored: scipy's kernel owns its intermediates
    and runs serially.
    """
    del workspace, threads
    return csr_matmul_nosym(A, B)


def csr_to_csc(A):
    """CSR -> canonical CSC (scipy's counting sort)."""
    return A.tocsc()


def csc_to_csr(A):
    """CSC -> canonical CSR (scipy's counting sort)."""
    return A.tocsr()


def gather_columns(A, cols):
    """``A[:, cols]`` of a canonical CSC matrix — the vectorized
    position-gather route (``gather_positions`` + validation-free
    assembly)."""
    from ..sparse.utils import raw_csc
    cols = np.asarray(cols)
    pos, counts = _window.gather_positions(A.indptr, cols.astype(np.int64))
    idx_dtype = np.int32 if A.shape[0] < 2**31 else np.int64
    indptr = np.zeros(cols.size + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return raw_csc(A.data[pos],
                   A.indices[pos].astype(idx_dtype, copy=False),
                   indptr.astype(idx_dtype),
                   (A.shape[0], cols.size))


def check_gram_pairs(left, right) -> None:
    """The pair lists of :func:`gram_csc` must have one entry each per
    pair."""
    if len(left) != len(right):
        raise ValueError(f"gram_csc needs one right id list per left one "
                         f"(got {len(left)} and {len(right)})")


def gram_csc(A, left, right, workspace=None):
    """One dense ``A[:, left[p]].T @ A[:, right[p]]`` per pair of column
    id lists, for canonical float64 CSC ``A``: the general gather of
    each panel, then the ``_cross_gram_kernel`` route of
    :mod:`repro.linalg.cholqr` (a self-Gram, ``right[p] is left[p]``,
    multiplies the one gathered panel by itself)."""
    del workspace
    from ..linalg.cholqr import _cross_gram_kernel
    check_gram_pairs(left, right)
    n = A.shape[1]
    out = []
    for lo, ro in zip(left, right):
        B1 = gather_columns(A, _window._column_ids(lo, n))
        B2 = B1 if ro is lo else gather_columns(A, _window._column_ids(ro, n))
        out.append(_cross_gram_kernel(B1, B2))
    return out


def qrcp_batch(blocks, lwork: int):
    """QR with column pivoting of every ``m x n`` block of a ``(p, m, n)``
    stack: one call of scipy's f2py ``dgeqp3`` per block, as
    :func:`repro.linalg.qrcp.qrcp` makes it.  Returns 0-based pivots
    ``(p, n)`` and ``|diag R|`` ``(p, min(m, n))``."""
    nb, m, n = blocks.shape
    piv = np.empty((nb, n), dtype=np.int64)
    rdiag = np.empty((nb, min(m, n)))
    for b, block in enumerate(blocks):
        qr, jpvt, _, _, info = _lapack.dgeqp3(block, lwork=lwork)
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of dgeqp3")
        piv[b] = jpvt - 1
        rdiag[b] = np.abs(np.diagonal(qr))
    return piv, rdiag


def schur_update_csc(A22, F, A12, tol: float | None = None,
                     workspace=None, threads: int = 1):
    """The Schur-complement update ``(A22 - F @ A12).tocsc()`` with the
    explicit-zero drop applied when ``tol`` is not ``None`` — the scipy
    composition, with the symbolic-free ``csr_matmul_nosym`` product."""
    del workspace, threads
    schur = (A22 - csr_matmul_nosym(F, A12)).tocsc()
    if tol is not None:
        drop_explicit_zeros(schur, tol=tol)
    return schur


def threshold_mask(A, mu: float):
    return _thresholding.threshold_mask(A, mu)


def apply_threshold_mask(A, mask):
    return _thresholding.apply_threshold_mask(A, mask)


def permuted_blocks(active, col_perm, row_perm, k: int, rowcount=None):
    del rowcount
    return _window.permuted_blocks(active, col_perm, row_perm, k)


def window_split(active, cols, row_perm, k: int):
    return _window.window_split(active, cols, row_perm, k)


def pivot_argmin_consume(key: np.ndarray, sentinel: int) -> int:
    v = int(np.argmin(key))
    key[v] = sentinel
    return v


def colamd_postorder(A):
    """The paper's preprocessing permutation: ``p1 = colamd(A)``, then the
    postorder ``p2`` of the column etree of ``A[:, p1]``; returns
    ``p1[p2]``."""
    from ..ordering.colamd import colamd
    from ..ordering.etree import col_etree, postorder
    from ..sparse.utils import ensure_csc
    p1 = colamd(A)
    Ap = ensure_csc(A)[:, p1]
    parent = col_etree(Ap)
    p2 = postorder(parent)
    return p1[p2]
