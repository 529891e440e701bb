"""CholeskyQR-family factorizations for (sparse) tall-skinny blocks.

QR_TP must factorize tall blocks whose columns are *sparse*.  Densifying an
``m x 2k`` block at every tournament node would destroy the ``O(k^2 nnz)``
complexity the paper relies on (Section IV).  The Gram-matrix route avoids
it: form ``G = B^T B`` (sparse product, ``O(c * nnz(B))``), factor the tiny
``c x c`` Gram matrix, and recover ``R`` (and ``Q = B R^{-1}`` only when
needed).  CholeskyQR2 repeats the process once on ``Q`` which restores
orthogonality to machine precision for condition numbers up to ~1e8.

On numerical breakdown (Cholesky failure for rank-deficient blocks) we fall
back to an eigendecomposition-based square root which always succeeds and
flags the deficiency to the caller.

The sparse Gram product itself is the kernel tier's
:func:`repro.kernels.gram_csc`, which reads its operands from a CSC
matrix by column id: :func:`_gram` passes one self-Gram pair covering the
whole block, and the tournament (:mod:`repro.pivoting.tournament`) passes
every match Gram of a tree level — leaf self-Grams and the cross terms
``B1^T B2`` of sibling winners — in one call.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

try:  # scipy's C kernel, used directly to skip the symbolic sizing pass
    from scipy.sparse import _sparsetools as _spt
except ImportError:  # pragma: no cover - very old scipy
    _spt = None

# guarded scipy-internal import above keeps this below the try block
from .. import perf  # noqa: E402


def _cross_gram_kernel(B1: sp.csc_matrix, B2: sp.csc_matrix) -> np.ndarray:
    """Dense ``B1^T B2`` via a direct ``csr_matmat`` call (no symbolic
    pass; the CSC arrays of ``B1`` are the CSR arrays of ``B1^T``)."""
    c1, c2 = B1.shape[1], B2.shape[1]
    B2r = B2.tocsr()
    if not B2r.has_sorted_indices:
        B2r.sort_indices()
    nnz_cap = c1 * c2
    Cp = np.empty(c1 + 1, dtype=np.int64)
    Cj = np.empty(nnz_cap, dtype=np.int64)
    Cx = np.empty(nnz_cap, dtype=np.float64)
    _spt.csr_matmat(
        c1, c2,
        B1.indptr.astype(np.int64, copy=False),
        B1.indices.astype(np.int64, copy=False),
        B1.data.astype(np.float64, copy=False),
        B2r.indptr.astype(np.int64, copy=False),
        B2r.indices.astype(np.int64, copy=False),
        B2r.data.astype(np.float64, copy=False),
        Cp, Cj, Cx)
    C = np.zeros((c1, c2), dtype=np.float64)
    nnz = Cp[c1]
    rows = np.repeat(np.arange(c1), np.diff(Cp))
    C[rows, Cj[:nnz]] = Cx[:nnz]
    return C


def _gram(B, *, tier: str | None = None) -> np.ndarray:
    """Dense ``B^T B`` for sparse or dense ``B`` (result is tiny: c x c).

    Sparse float64 CSC operands dispatch through the kernel tier registry
    as one self-Gram pair over all of ``B``'s columns
    (:func:`repro.kernels.gram_csc`) — native C kernel when ``tier``
    resolves to it, the ``csr_matmat`` route otherwise, bitwise-identical
    either way."""
    with perf.timer("gram"):
        if sp.issparse(B):
            if _spt is not None and isinstance(B, sp.csc_matrix) \
                    and B.dtype == np.float64:
                from .. import kernels
                ids = np.arange(B.shape[1])
                G, = kernels.gram_csc(B, [ids], [ids], tier=tier)
            else:
                G = (B.T @ B).toarray()
        else:
            B = np.asarray(B, dtype=np.float64)
            G = B.T @ B
        G = np.asarray(G, dtype=np.float64)
        perf.add_flops("gram", 2.0 * (B.nnz if sp.issparse(B) else B.size)
                       * G.shape[0])
    return G


def gram_r_factor(B, *, jitter: float = 0.0,
                  gram: np.ndarray | None = None,
                  tier: str | None = None) -> tuple[np.ndarray, bool]:
    """Upper-triangular ``R`` with ``R^T R = B^T B`` via the Gram matrix.

    Returns ``(R, clean)`` where ``clean`` is False when a rank-deficiency
    fallback (eigenvalue square root) was used; in that case ``R`` is upper
    triangular with some (near-)zero diagonal entries replaced by tiny
    positives so downstream triangular solves remain finite.  A precomputed
    ``gram`` matrix (``B^T B``) skips the Gram product entirely.
    """
    G = _gram(B, tier=tier) if gram is None else gram
    c = G.shape[0]
    if c == 0:
        return np.zeros((0, 0)), True
    if jitter:
        G = G + jitter * np.eye(c)
    try:
        L = np.linalg.cholesky(G)
        return L.T, True
    except np.linalg.LinAlgError:
        pass
    # eigh-based square root, re-triangularized by a small dense QR
    w, V = np.linalg.eigh(G)
    w = np.maximum(w, 0.0)
    X = (V * np.sqrt(w)) @ V.T  # symmetric sqrt of G
    _, R = np.linalg.qr(X)
    # enforce a safely-invertible diagonal
    d = np.abs(np.diag(R))
    floor = max(np.max(d), 1.0) * 1e-150
    Rf = R.copy()
    for i in range(c):
        if abs(Rf[i, i]) < floor:
            Rf[i, i] = floor
    return Rf, False


def cholqr(B, *, tier: str | None = None
           ) -> tuple[np.ndarray, np.ndarray, bool]:
    """Single-pass CholeskyQR: ``B = Q R`` with dense ``Q``.

    Returns ``(Q, R, clean)``; ``Q`` is dense ``(m, c)``.  Orthogonality of
    ``Q`` degrades like ``cond(B)^2 * eps`` — use :func:`cholqr2` when the
    basis itself is consumed downstream.
    """
    R, clean = gram_r_factor(B, tier=tier)
    Bd = B.toarray() if sp.issparse(B) else np.asarray(B, dtype=np.float64)
    if R.shape[0] == 0:
        return np.zeros((Bd.shape[0], 0)), R, clean
    Q = np.linalg.solve(R.T, Bd.T).T  # Q = B R^{-1} via one triangular solve
    return Q, R, clean


def cholqr2(B, *, recovery_log=None, tier: str | None = None
            ) -> tuple[np.ndarray, np.ndarray, bool]:
    """CholeskyQR2: two CholeskyQR passes, giving ``Q`` orthonormal to
    machine precision for moderately conditioned ``B``.

    Returns ``(Q, R, clean)`` with ``R`` the product of both passes' factors.
    Falls back to a dense Householder QR when either pass reports breakdown,
    so the returned basis is always usable.  When ``recovery_log`` (a
    :class:`repro.core.recovery.RecoveryLog`, or anything with a
    ``record(action, **kw)`` method) is given, every fallback is appended
    to it as a structured ``"cholqr_dense_fallback"`` event.
    """
    Q1, R1, clean1 = cholqr(B, tier=tier)
    if not clean1:
        return _dense_fallback(B, recovery_log, "first pass")
    Q2, R2, clean2 = cholqr(Q1, tier=tier)
    if not clean2:
        return _dense_fallback(B, recovery_log, "second pass")
    return Q2, R2 @ R1, True


def _dense_fallback(B, recovery_log=None, which: str = ""
                    ) -> tuple[np.ndarray, np.ndarray, bool]:
    Bd = B.toarray() if sp.issparse(B) else np.asarray(B, dtype=np.float64)
    if recovery_log is not None:
        recovery_log.record(
            "cholqr_dense_fallback",
            detail=f"Cholesky breakdown ({which}): dense Householder QR of "
                   f"a {Bd.shape[0]}x{Bd.shape[1]} block",
            shape=list(Bd.shape))
    Q, R = np.linalg.qr(Bd, mode="reduced")
    return Q, R, False
