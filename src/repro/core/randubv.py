"""RandUBV — block Golub-Kahan bidiagonalization with random start.

Hallman (2021), "A Block Bidiagonalization Method for Fixed-Accuracy
Low-Rank Matrix Approximation" (reference [13] of the paper).  Produces
``A ~= U B V^T`` with orthonormal ``U``/``V`` and block-bidiagonal ``B``
built from the recurrence

    U_j R_j     = qr(A V_j   - U_{j-1} L_{j-1})
    V_{j+1} L_j^T = qr(A^T U_j - V_j R_j^T)

The same Frobenius identity as RandQB_EI applies:
``||A - U B V^T||_F^2 = ||A||_F^2 - ||B||_F^2``, so the error indicator is
updated with ``||R_j||_F^2 + ||L_j||_F^2`` per step.  One-sided full
reorthogonalization (of ``V``, following Hallman) keeps the recurrence
accurate; ``U`` gets a cheap single-pass reorthogonalization.

The paper evaluates RandUBV sequentially (Section VI-B, its_UBV column of
Table II): per iteration it does roughly the work of RandQB_EI with p = 0
while typically needing fewer iterations.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..exceptions import ConvergenceError
from ..history import ConvergenceHistory, IterationRecord
from ..kernels.threads import one_blas_thread
from ..linalg.norms import fro_norm_sq
from ..linalg.orth import orth
from ..results import UBVApproximation
from .termination import RandErrorIndicator, check_tolerance


@dataclass
class RandUBV:
    """Fixed-precision block bidiagonalization solver.

    Parameters mirror :class:`repro.core.randqb_ei.RandQB_EI` (no power
    scheme — the bidiagonalization's two-sided products play that role).
    """

    k: int = 32
    tol: float = 1e-3
    max_rank: int | None = None
    seed: int | None = 0
    allow_unsafe_tolerance: bool = False
    raise_on_failure: bool = False
    callback: object = None  # optional per-iteration hook: f(IterationRecord)

    def __post_init__(self):
        if self.k <= 0:
            raise ValueError("block size k must be positive")

    @one_blas_thread()
    def solve(self, A) -> UBVApproximation:
        check_tolerance(self.tol, randomized=True,
                        allow_unsafe=self.allow_unsafe_tolerance)
        t0 = time.perf_counter()
        m, n = A.shape
        k = self.k
        max_rank = min(self.max_rank or min(m, n), min(m, n))
        rng = np.random.default_rng(self.seed)
        a_fro_sq = fro_norm_sq(A)
        a_fro = float(np.sqrt(a_fro_sq))
        indicator = RandErrorIndicator(a_fro_sq)
        history = ConvergenceHistory()

        cap = max(8 * k, k)
        U = np.zeros((m, cap))
        V = np.zeros((n, cap))
        Rblocks: list[np.ndarray] = []
        Lblocks: list[np.ndarray] = []
        K = 0

        Vj = orth(rng.standard_normal((n, k)))
        V[:, :k] = Vj
        Lprev = np.zeros((k, k))
        converged = False
        j = 0
        while K < max_rank:
            j += 1
            # U_j R_j = qr(A V_j - U_{j-1} L_{j-1})
            W = A @ Vj
            W = np.asarray(W)
            if j > 1:
                W -= U[:, K - k:K] @ Lprev
            if K > 0:  # safeguard reorthogonalization against all earlier U
                W -= U[:, :K] @ (U[:, :K].T @ W)
            Uj, Rj = np.linalg.qr(W, mode="reduced")

            if K + k > cap:
                cap = max(2 * cap, K + k)
                U = np.concatenate([U, np.zeros((m, cap - U.shape[1]))], axis=1)
                V = np.concatenate([V, np.zeros((n, cap - V.shape[1]))], axis=1)
                # V already holds V_{j}; ensure consistent storage
            U[:, K:K + k] = Uj
            Rblocks.append(Rj)
            K += k
            e = indicator.update(Rj)
            history.append(IterationRecord(
                iteration=j, rank=K, indicator=e,
                elapsed=time.perf_counter() - t0,
                factor_nnz=(m + n) * K + K * 2 * k))
            if self.callback is not None:
                self.callback(history[-1])
            if indicator.converged(self.tol):
                converged = True
                break
            if K >= max_rank:
                break

            # V_{j+1} L_j^T = qr(A^T U_j - V_j R_j^T), full reorth of V
            Z = A.T @ Uj
            Z = np.asarray(Z) - Vj @ Rj.T
            for _ in range(2):
                Z -= V[:, :K] @ (V[:, :K].T @ Z)
            Vnext, LjT = np.linalg.qr(Z, mode="reduced")
            Lj = LjT.T
            if V.shape[1] < K + k:
                V = np.concatenate([V, np.zeros((n, K + k - V.shape[1]))],
                                   axis=1)
            V[:, K:K + k] = Vnext
            Lblocks.append(Lj)
            # Note: Hallman folds ||L_j||^2 into the *next* step's indicator
            # (the L block extends B's subdiagonal); we keep the conservative
            # update order — indicator checked only after R blocks.
            indicator.update(Lj)
            Vj = Vnext
            Lprev = Lj

        if not converged and self.raise_on_failure:
            raise ConvergenceError(
                f"RandUBV did not reach tau={self.tol:g} within rank "
                f"{max_rank}", iterations=j,
                achieved=indicator.value / a_fro if a_fro else 0.0,
                requested=self.tol)

        B = self._assemble_B(Rblocks, Lblocks, k)
        nV = B.shape[1]  # V blocks consumed by B's column dimension
        return UBVApproximation(
            rank=K, tolerance=self.tol, indicator=indicator.value,
            a_fro=a_fro, converged=converged, history=history,
            elapsed=time.perf_counter() - t0,
            U=U[:, :K].copy(), Bmat=B, V=V[:, :nV].copy())

    @staticmethod
    def _assemble_B(Rblocks: list[np.ndarray], Lblocks: list[np.ndarray],
                    k: int) -> np.ndarray:
        """Assemble ``B = U^T A V``: block *upper* bidiagonal with ``R_j`` on
        the diagonal and ``L_j`` on the superdiagonal.

        When a trailing ``L`` block was computed (the run ended right after a
        ``V`` expansion), ``B`` is rectangular — ``nb x (nb+1)`` blocks — and
        pairs with one more ``V`` block than ``U`` blocks, exactly as in
        Hallman's fixed-accuracy analysis.
        """
        nb = len(Rblocks)
        ncols = nb + (1 if len(Lblocks) == nb else 0)
        B = np.zeros((nb * k, ncols * k))
        for j, Rj in enumerate(Rblocks):
            B[j * k:(j + 1) * k, j * k:(j + 1) * k] = Rj
        for j, Lj in enumerate(Lblocks):
            B[j * k:(j + 1) * k, (j + 1) * k:(j + 2) * k] = Lj
        return B


def randubv(A, k: int = 32, tol: float = 1e-3, **kwargs) -> UBVApproximation:
    """Functional convenience wrapper around :class:`RandUBV`."""
    return RandUBV(k=k, tol=tol, **kwargs).solve(A)
