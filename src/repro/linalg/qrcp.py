"""Householder QR, QR with column pivoting (QRCP) and strong RRQR.

These are the rank-revealing building blocks under QR_TP (Section II-B).
QR_TP reduces every tournament match to a rank-revealing factorization of a
small block with at most ``2k`` columns, so an ``O(m c^2)`` unblocked
Householder implementation is the right tool: ``c`` is small and the cost is
dominated by the two trailing-matrix GEMV/GER updates which numpy vectorizes.

``strong_rrqr`` upgrades QRCP pivoting with Gu-Eisenstat style swaps so the
selected ``k`` columns satisfy the bounds QR_TP's theory (reference [10])
assumes; in practice QRCP pivots almost always already satisfy them.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.linalg import lapack as _lapack

from .triangular import solve_upper


def householder_qr(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Economy Householder QR: ``A = Q @ R`` with ``Q (m, p)``, ``R (p, n)``,
    ``p = min(m, n)``.

    Unblocked; intended for tall-skinny or small blocks.
    """
    A = np.array(A, dtype=np.float64, copy=True, order="F")
    m, n = A.shape
    p = min(m, n)
    vs: list[np.ndarray] = []
    for j in range(p):
        v, beta = _house(A[j:, j])
        vs.append((v, beta))
        if beta != 0.0:
            # apply reflector H = I - beta v v^T to trailing A[j:, j:]
            w = beta * (v @ A[j:, j:])
            A[j:, j:] -= np.outer(v, w)
    R = np.triu(A[:p, :])
    Q = _accumulate_q(vs, m, p)
    return Q, R


def _house(x: np.ndarray) -> tuple[np.ndarray, float]:
    """Householder vector ``v`` (v[0] = 1) and scalar ``beta`` such that
    ``(I - beta v v^T) x = ||x|| e_1`` (sign chosen for stability)."""
    sigma = float(np.dot(x[1:], x[1:]))
    v = x.astype(np.float64).copy()
    v[0] = 1.0
    x0 = float(x[0])
    if sigma == 0.0:
        # already a multiple of e1; choose beta to flip the sign if negative
        beta = 2.0 if x0 < 0 else 0.0
        return v, beta
    mu = np.sqrt(x0 * x0 + sigma)
    if x0 <= 0:
        v0 = x0 - mu
    else:
        v0 = -sigma / (x0 + mu)
    beta = 2.0 * v0 * v0 / (sigma + v0 * v0)
    v[1:] = x[1:] / v0
    v[0] = 1.0
    return v, beta


def _accumulate_q(vs: list[tuple[np.ndarray, float]], m: int, p: int) -> np.ndarray:
    """Backward accumulation of the economy ``Q`` from stored reflectors."""
    Q = np.zeros((m, p), order="F")
    Q[np.arange(p), np.arange(p)] = 1.0
    for j in range(p - 1, -1, -1):
        v, beta = vs[j]
        if beta != 0.0:
            w = beta * (v @ Q[j:, j:])
            Q[j:, j:] -= np.outer(v, w)
    return Q


def qrcp(A: np.ndarray, k: int | None = None, *, want_q: bool = True,
         engine: str = "lapack"
         ) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """QR with column pivoting, optionally truncated after ``k`` steps.

    ``engine="lapack"`` dispatches to LAPACK's ``dgeqp3`` (the fast path
    used by the tournament); ``engine="native"`` runs the from-scratch
    Householder implementation below, which is the reference the LAPACK
    path is tested against and the only path supporting true truncated
    factorization (``k < min(m, n)`` skips trailing updates).
    """
    if engine == "lapack" and (k is None or k >= min(A.shape)):
        A = np.asarray(A, dtype=np.float64)
        if min(A.shape) == 0:
            return (np.zeros((A.shape[0], 0)) if want_q else None,
                    np.zeros((0, A.shape[1])), np.arange(A.shape[1]))
        if want_q:
            import scipy.linalg as sla
            # check_finite=False skips scipy's asarray_chkfinite scan —
            # no value changes, same LAPACK calls bit for bit
            Q, R, piv = sla.qr(A, mode="economic", pivoting=True,
                               check_finite=False)
            return Q, R, piv.astype(np.intp)
        # R only: the routine scipy.linalg.qr(mode="r", pivoting=True)
        # runs, called directly — same input, same lwork (scipy's own
        # workspace query, cached per shape), so the same bits — without
        # the wrapper's validation, per-call query and np.triu mask.  At
        # hundreds of tournament matches per solve that glue cost more
        # than the factorization.
        m, n = A.shape
        qr, jpvt, _, _, info = _lapack.dgeqp3(A, lwork=_geqp3_lwork(m, n))
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of dgeqp3")
        p = min(m, n)
        R = np.where(_upper_mask(p, n), qr[:p], 0.0)
        return None, R, jpvt.astype(np.intp) - 1
    return _qrcp_native(A, k, want_q=want_q)


@lru_cache(maxsize=256)
def _geqp3_lwork(m: int, n: int) -> int:
    """The workspace size scipy's ``safecall`` queries for an ``m x n``
    ``dgeqp3`` — the query depends on the shape only."""
    _, _, _, work, _ = _lapack.dgeqp3(np.zeros((m, n)), lwork=-1)
    return int(work[0].real)


@lru_cache(maxsize=256)
def _upper_mask(p: int, n: int) -> np.ndarray:
    """``np.triu``'s mask for a ``p x n`` block, built once per shape."""
    mask = ~np.tri(p, n, -1, dtype=bool)
    mask.flags.writeable = False
    return mask


def _qrcp_native(A: np.ndarray, k: int | None = None, *,
                 want_q: bool = True
                 ) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """From-scratch QRCP (see :func:`qrcp`).

    Computes a permutation ``piv`` and factors with
    ``A[:, piv] ~= Q @ R`` where the leading diagonal of ``R`` is
    non-increasing in magnitude (the classical greedy max-norm pivot rule
    with norm downdating and cancellation-safe recomputation).

    Parameters
    ----------
    A:
        Dense ``(m, n)`` block.
    k:
        Number of elimination steps (default ``min(m, n)``).  When truncated,
        ``Q`` is ``(m, k)`` and ``R`` is ``(k, n)``; the trailing columns of
        ``R`` hold the projected remainder used by tournament scoring.
    want_q:
        Skip the ``Q`` accumulation when only pivots/R are needed.

    Returns
    -------
    (Q, R, piv):
        ``Q`` is ``None`` if ``want_q`` is false; ``piv`` is the column
        permutation as an index vector of length ``n``.
    """
    A = np.array(A, dtype=np.float64, copy=True, order="F")
    m, n = A.shape
    kmax = min(m, n)
    k = kmax if k is None else min(k, kmax)
    piv = np.arange(n)
    norms = np.einsum("ij,ij->j", A, A)
    orig = norms.copy()
    vs: list[tuple[np.ndarray, float]] = []
    for j in range(k):
        # pivot selection with recomputation guard against cancellation
        rel = norms[j:]
        pidx = j + int(np.argmax(rel))
        if norms[pidx] <= 1e-14 * max(np.max(orig), 1e-300):
            # rest is numerically zero; still complete k steps on whatever is
            # left so Q has full column count
            pass
        if pidx != j:
            A[:, [j, pidx]] = A[:, [pidx, j]]
            piv[[j, pidx]] = piv[[pidx, j]]
            norms[[j, pidx]] = norms[[pidx, j]]
            orig[[j, pidx]] = orig[[pidx, j]]
        v, beta = _house(A[j:, j])
        vs.append((v, beta))
        if beta != 0.0:
            w = beta * (v @ A[j:, j:])
            A[j:, j:] -= np.outer(v, w)
        # downdate column norms; recompute when cancellation is severe
        if j + 1 < n:
            upd = norms[j + 1:] - A[j, j + 1:] ** 2
            recompute = upd < 1e-10 * orig[j + 1:]
            if np.any(recompute):
                idx = j + 1 + np.flatnonzero(recompute)
                upd[recompute] = np.einsum(
                    "ij,ij->j", A[j + 1:, idx], A[j + 1:, idx])
            norms[j + 1:] = np.maximum(upd, 0.0)
    R = np.triu(A[:k, :])
    Q = _accumulate_q(vs, m, k) if want_q else None
    return Q, R, piv


def strong_rrqr(A: np.ndarray, k: int, *, f: float = 2.0,
                max_swaps: int = 100) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Strong rank-revealing QR (Gu-Eisenstat) selecting ``k`` columns.

    Starts from QRCP pivots and performs column swaps until every entry of
    ``R11^{-1} R12`` is bounded by ``f`` in magnitude, which certifies the
    rank-revealing bounds used by QR_TP's theory.

    Returns ``(Q, R, piv)`` of the full factorization ``A[:, piv] = Q R``
    with the certified ``k`` columns leading.

    Notes
    -----
    Re-triangularization after a swap is done by refactorizing — blocks here
    are at most ``2k`` columns wide so the ``O(c^3)`` cost is negligible
    compared to the leaf factorization itself.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    m, n = A.shape
    k = min(k, m, n)
    _, R, piv = qrcp(A, want_q=False)
    if k >= min(m, n) or k >= n:
        Q, R, piv = qrcp(A)
        return Q, R, piv
    piv = piv.copy()
    for _ in range(max_swaps):
        R11 = R[:k, :k]
        R12 = R[:k, k:]
        diag = np.abs(np.diag(R11))
        if np.min(diag) <= 1e-14 * max(np.max(diag), 1e-300):
            break  # numerically rank-deficient leading block; QRCP is best effort
        W = solve_upper(R11, R12)
        i, j = np.unravel_index(int(np.argmax(np.abs(W))), W.shape)
        if abs(W[i, j]) <= f:
            break
        # swap column i (inside) with column k + j (outside) and refactorize
        piv[[i, k + j]] = piv[[k + j, i]]
        Ap = np.asarray(A, dtype=np.float64)[:, piv]
        _, R, sub = qrcp(Ap, want_q=False)
        piv = piv[sub]
    Q, R, sub = qrcp(np.asarray(A, dtype=np.float64)[:, piv])
    return Q, R, piv[sub]
