"""Adaptive RSVD — rank-doubling randomized SVD (Section I-A baseline).

"The algorithm computes a randomized SVD with an initial estimated rank k.
If the error of the approximation is too large, another RSVD with a larger k
is computed.  This is continued until the error is small enough." — the
restart-from-scratch strategy whose wasted work motivates the incremental
methods.  The bench compares its total cost against RandQB_EI's.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..history import ConvergenceHistory, IterationRecord
from ..kernels.threads import one_blas_thread
from ..linalg.norms import fro_norm
from ..results import QBApproximation
from .rrf import randomized_qb
from .termination import check_tolerance


@dataclass
class AdaptiveRSVD:
    """Restarting randomized SVD with geometric rank growth.

    Parameters
    ----------
    initial_rank:
        Rank of the first attempt.
    growth:
        Multiplicative rank growth per restart (2.0 = doubling).
    tol, power, seed, max_rank:
        As for the other randomized solvers.
    """

    initial_rank: int = 16
    growth: float = 2.0
    tol: float = 1e-3
    power: int = 0
    max_rank: int | None = None
    seed: int | None = 0

    def __post_init__(self):
        if self.growth <= 1.0:
            raise ValueError("growth factor must exceed 1")

    @one_blas_thread()
    def solve(self, A) -> QBApproximation:
        check_tolerance(self.tol, randomized=True, allow_unsafe=True)
        t0 = time.perf_counter()
        m, n = A.shape
        a_fro = fro_norm(A)
        a_fro_sq = a_fro * a_fro
        max_rank = min(self.max_rank or min(m, n), min(m, n))
        history = ConvergenceHistory()
        rank = min(self.initial_rank, max_rank)
        attempt = 0
        Q = B = None
        converged = False
        while True:
            attempt += 1
            Q, B = randomized_qb(A, rank, power=self.power,
                                 seed=None if self.seed is None
                                 else self.seed + attempt)
            # same Frobenius identity as indicator (4), exact for Q^T Q = I
            err_sq = max(a_fro_sq - float(np.vdot(B, B).real), 0.0)
            err = float(np.sqrt(err_sq))
            history.append(IterationRecord(
                iteration=attempt, rank=rank, indicator=err,
                elapsed=time.perf_counter() - t0, factor_nnz=(m + n) * rank))
            if err < self.tol * a_fro:
                converged = True
                break
            if rank >= max_rank:
                break
            rank = min(int(np.ceil(rank * self.growth)), max_rank)
        ind = history[-1].indicator
        return QBApproximation(
            rank=Q.shape[1], tolerance=self.tol, indicator=ind, a_fro=a_fro,
            converged=converged, history=history,
            elapsed=time.perf_counter() - t0, Q=Q, B=B)

    @staticmethod
    def total_sketch_columns(history: ConvergenceHistory) -> int:
        """Total sketch width processed over all restarts — the waste metric
        the incremental methods avoid (each restart re-does earlier work)."""
        return sum(r.rank for r in history)


def adaptive_rsvd(A, tol: float = 1e-3, **kwargs) -> QBApproximation:
    """Functional convenience wrapper around :class:`AdaptiveRSVD`."""
    return AdaptiveRSVD(tol=tol, **kwargs).solve(A)
