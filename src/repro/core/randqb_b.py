"""RandQB_b — blocked randomized QB with explicit input updating.

Martinsson/Voronin (2016).  Identical iteration shape to RandQB_EI but the
residual is maintained *explicitly*: after each block, the input matrix is
updated ``A <- A - Q_k B_k``.  That update is dense, which is exactly why the
paper (Section I-A) rules the method out for sparse inputs — each iteration
densifies the residual.  We include it as the ablation baseline that
demonstrates the point: it produces the same factorization quality as
RandQB_EI while destroying sparsity (the bench measures the densification).
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from ..history import ConvergenceHistory, IterationRecord
from ..kernels.threads import one_blas_thread
from ..linalg.norms import fro_norm
from ..linalg.orth import orth, reorthogonalize
from ..results import QBApproximation
from .termination import check_tolerance


@dataclass
class RandQB_b:
    """Blocked randomized QB with explicit residual updates.

    Parameters mirror :class:`repro.core.randqb_ei.RandQB_EI`; ``power`` is
    applied on the *residual*, as in the original method.
    """

    k: int = 32
    tol: float = 1e-3
    power: int = 0
    max_rank: int | None = None
    seed: int | None = 0
    raise_on_failure: bool = False

    @one_blas_thread()
    def solve(self, A) -> QBApproximation:
        check_tolerance(self.tol, randomized=True, allow_unsafe=True)
        t0 = time.perf_counter()
        if sp.issparse(A):
            warnings.warn(
                "RandQB_b densifies its input (explicit residual updates); "
                "use RandQB_EI for sparse matrices", RuntimeWarning,
                stacklevel=3)  # past the one_blas_thread wrapper
            R = A.toarray()
        else:
            R = np.array(A, dtype=np.float64, copy=True)
        m, n = R.shape
        rng = np.random.default_rng(self.seed)
        a_fro = fro_norm(R)
        max_rank = min(self.max_rank or min(m, n), min(m, n))

        Qs: list[np.ndarray] = []
        Bs: list[np.ndarray] = []
        history = ConvergenceHistory()
        K = 0
        converged = False
        i = 0
        while K < max_rank:
            i += 1
            k_i = min(self.k, max_rank - K)
            Omega = rng.standard_normal((n, k_i))
            Y = R @ Omega
            Qk = orth(Y)
            for _ in range(self.power):
                Qk = orth(R.T @ Qk)
                Qk = orth(R @ Qk)
            if Qs:
                Qk = reorthogonalize(Qk, np.concatenate(Qs, axis=1))
            Bk = Qk.T @ R
            R -= Qk @ Bk  # the dense update that rules the method out
            Qs.append(Qk)
            Bs.append(Bk)
            K += k_i
            # exact residual norm is directly available here
            e = fro_norm(R)
            history.append(IterationRecord(
                iteration=i, rank=K, indicator=e,
                elapsed=time.perf_counter() - t0,
                schur_nnz=int(np.count_nonzero(np.abs(R) > 0)),
                schur_shape=(m, n), factor_nnz=(m + n) * K))
            if e < self.tol * a_fro:
                converged = True
                break
        Q = np.concatenate(Qs, axis=1) if Qs else np.zeros((m, 0))
        B = np.concatenate(Bs, axis=0) if Bs else np.zeros((0, n))
        ind = history[-1].indicator if len(history) else a_fro
        return QBApproximation(
            rank=K, tolerance=self.tol, indicator=ind, a_fro=a_fro,
            converged=converged, history=history,
            elapsed=time.perf_counter() - t0, Q=Q, B=B)


def randqb_b(A, k: int = 32, tol: float = 1e-3, **kwargs) -> QBApproximation:
    """Functional convenience wrapper around :class:`RandQB_b`."""
    return RandQB_b(k=k, tol=tol, **kwargs).solve(A)
