"""One tournament match: pick the ``k`` most linearly independent columns.

Every node of a QR_TP reduction tree performs the same primitive: given a
block ``B`` with ``c <= 2k`` candidate columns, run a rank-revealing QR and
keep the ``k`` winning columns.  Two execution strategies:

``gram`` (default)
    Compute the small ``c x c`` R factor of ``B`` through the Gram matrix
    (``O(c * nnz(B) + c^3)``, never densifying the tall dimension) and pivot
    on ``R``.  Pivot choices on ``R`` coincide with pivot choices on ``B``
    because QRCP decisions depend only on column norms of orthogonal
    projections, which ``R`` preserves.  This is what keeps QR_TP at the
    paper's ``O(k^2 nnz)`` complexity (Section IV).  The tournament
    computes every match Gram of a tree level in one kernel dispatch and
    passes it in with the candidates' column ids, so a match reads its
    block only if the Cholesky factorization breaks down; a caller
    without a Gram (a global SPMD round) gets one self-Gram dispatch.

``dense``
    Densify ``B`` and run QRCP directly — the numerically safest route, used
    automatically as a fallback when the Gram factorization reports rank
    deficiency, and the best choice when ``B`` is already dense (row
    tournaments on ``Q_k^T``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .. import kernels
from ..linalg.cholqr import gram_r_factor
from ..linalg.qrcp import qrcp, strong_rrqr
from ..sparse.ops import extract_columns
from ..sparse.utils import ensure_csc, nnz_of


@dataclass
class SelectionResult:
    """Winners of one tournament match.

    Attributes
    ----------
    order:
        Indices (into the block's columns) of all candidates, winners first
        in pivot order.
    k:
        Number of winners (``order[:k]`` are the selected columns).
    r_diag:
        ``|diag(R)|`` of the rank-revealing factorization, length
        ``min(c, rank budget)``; ``r_diag[0]`` approximates ``||B||_2``
        (bound (23) of the paper).
    used_fallback:
        True when the Gram route broke down and dense QRCP was used.
    flops:
        Estimated floating-point operations of this match (cost model).
    nnz:
        Stored entries of the candidate block (its size when dense).
    """

    order: np.ndarray
    k: int
    r_diag: np.ndarray
    used_fallback: bool
    flops: float
    nnz: int = 0

    @property
    def winners(self) -> np.ndarray:
        return self.order[:self.k]


def selection_flops(nnz: int, c: int, *, method: str = "gram") -> float:
    """Analytic flop estimate for one match on a block with ``nnz`` stored
    entries and ``c`` candidate columns.

    ``gram``: Gram product ``2 c nnz`` + Cholesky ``c^3/3`` + QRCP on R
    ``4 c^3 / 3``.  ``dense``: QRCP on the densified block ``4 m c^2``
    approximated through ``nnz`` as if dense (callers pass ``m*c``).
    """
    c = max(c, 1)
    if method == "gram":
        return 2.0 * c * nnz + c ** 3 / 3.0 + 4.0 * c ** 3 / 3.0
    return 4.0 * nnz * c  # nnz == m*c for dense blocks


def select_columns(B, k: int, *, method: str = "gram", strong: bool = False,
                   f: float = 2.0, gram: np.ndarray | None = None,
                   cols: np.ndarray | None = None,
                   tier: str | None = None) -> SelectionResult:
    """Select the ``k`` most linearly independent columns of ``B``.

    Parameters
    ----------
    B:
        Sparse or dense block, shape ``(m, c)`` — or, with ``cols``, the
        matrix whose columns ``cols`` are the candidates (CSC when
        sparse).  The block ``B[:, cols]`` is then gathered only where the
        match needs it: the dense method, or a Gram breakdown that falls
        back to dense QRCP.
    k:
        Number of winners; if ``k >= c`` all columns win in norm order.
    method:
        ``"gram"`` or ``"dense"`` (see module docstring).
    strong:
        Apply Gu-Eisenstat swaps on top of QRCP pivots (strong RRQR) with
        bound ``f``.
    gram:
        Precomputed ``B^T B`` (``c x c``); skips the Gram product.  The
        tournament driver assembles it from child matches' Grams.
    cols:
        Candidate column ids into ``B`` (see ``B``).
    tier:
        Kernel tier request for the Gram product (``repro.kernels``).
    """
    if cols is None:
        c = B.shape[1]
        nnz = nnz_of(B)
    else:
        cols = np.asarray(cols)
        c = cols.size
        if sp.issparse(B):
            B = ensure_csc(B)
            nnz = int((B.indptr[cols + 1] - B.indptr[cols]).sum())
        else:
            nnz = B.shape[0] * c
    if c == 0:
        return SelectionResult(np.zeros(0, dtype=np.intp), 0,
                               np.zeros(0), False, 0.0)
    k = min(k, c)
    if method not in ("gram", "dense"):
        raise ValueError(f"unknown selection method {method!r}")

    use_dense = method == "dense" or not sp.issparse(B)
    fallback = False
    if not use_dense:
        if gram is None and cols is not None:
            gram, = kernels.gram_csc(B, [cols], [cols], tier=tier)
        R, clean = gram_r_factor(B, gram=gram, tier=tier)
        if clean:
            small, flops = R, selection_flops(nnz, c, method="gram")
        else:
            use_dense = True
            fallback = True
    if use_dense:
        if cols is not None:
            B = (extract_columns(B, cols, tier=tier) if sp.issparse(B)
                 else np.asarray(B)[:, cols])
        small = B.toarray() if sp.issparse(B) else np.asarray(B, dtype=np.float64)
        flops = selection_flops(small.size, c, method="dense")

    if strong and k < min(small.shape):
        _, Rf, piv = strong_rrqr(small, k, f=f)
    else:
        _, Rf, piv = qrcp(small, want_q=False)
    return SelectionResult(order=np.asarray(piv, dtype=np.intp), k=k,
                           r_diag=np.abs(np.diag(Rf)), used_fallback=fallback,
                           flops=flops, nnz=nnz)
