"""ARRF — Adaptive Randomized Range Finder (Halko et al., Algorithm 4.2).

Grows the basis one vector at a time and monitors convergence with the
probabilistic a-posteriori bound: with ``r`` probe vectors,

    ||(I - Q Q^T) A||_2  <=  10 sqrt(2/pi) max_i ||(I - Q Q^T) A omega_i||

holds with probability ``1 - 10^{-r}``.  This is the ancestor of RandQB_EI's
indicator; the paper's Section I-A notes its estimator is *less precise* than
the blocked indicator (4), which our tests and the ablation bench verify
(ARRF typically overshoots the rank needed).

The stopping rule targets the spectral norm; to make results comparable with
the Frobenius-targeting solvers, ``solve`` accepts the same relative ``tol``
and applies it to ``||A||_F`` scaled probes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..exceptions import ConvergenceError
from ..history import ConvergenceHistory, IterationRecord
from ..kernels.threads import one_blas_thread
from ..linalg.norms import fro_norm
from ..results import QBApproximation
from .termination import check_tolerance


@dataclass
class AdaptiveRangeFinder:
    """Vector-at-a-time adaptive range finder.

    Parameters
    ----------
    tol:
        Relative tolerance applied to ``||A||_F``.
    probes:
        Number of lookahead probe vectors ``r`` (failure probability
        ``10^-r``).
    max_rank:
        Rank cap.
    """

    tol: float = 1e-3
    probes: int = 10
    max_rank: int | None = None
    seed: int | None = 0
    raise_on_failure: bool = False

    @one_blas_thread()
    def solve(self, A) -> QBApproximation:
        check_tolerance(self.tol, randomized=True, allow_unsafe=True)
        t0 = time.perf_counter()
        m, n = A.shape
        rng = np.random.default_rng(self.seed)
        a_fro = fro_norm(A)
        max_rank = min(self.max_rank or min(m, n), min(m, n))
        r = self.probes
        threshold = self.tol * a_fro / (10.0 * np.sqrt(2.0 / np.pi))

        # rolling window of residual probe vectors y_i = (I - QQ^T) A omega_i
        Y = [np.asarray(A @ rng.standard_normal(n)) for _ in range(r)]
        Q = np.zeros((m, 0))
        history = ConvergenceHistory()
        converged = False
        j = 0
        while j < max_rank:
            y = Y.pop(0)
            y = y - Q @ (Q.T @ y)
            ny = np.linalg.norm(y)
            if ny < 1e-14 * max(a_fro, 1.0):
                # residual probe vanished; draw a fresh direction
                w = rng.standard_normal(n)
                y = np.asarray(A @ w)
                y = y - Q @ (Q.T @ y)
                ny = np.linalg.norm(y)
                if ny < 1e-14 * max(a_fro, 1.0):
                    converged = True
                    break
            q = y / ny
            q = q - Q @ (Q.T @ q)  # second orthogonalization pass
            q /= np.linalg.norm(q)
            Q = np.concatenate([Q, q[:, None]], axis=1)
            j += 1
            # draw replacement probe and downdate the window
            w = rng.standard_normal(n)
            ynew = np.asarray(A @ w)
            ynew = ynew - Q @ (Q.T @ ynew)
            Y.append(ynew)
            Y = [yi - q * (q @ yi) for yi in Y]
            est = max(np.linalg.norm(yi) for yi in Y)
            history.append(IterationRecord(
                iteration=j, rank=j, indicator=float(est),
                elapsed=time.perf_counter() - t0, factor_nnz=(m + n) * j))
            if est < threshold:
                converged = True
                break

        if not converged and self.raise_on_failure:
            raise ConvergenceError(
                f"ARRF did not reach tau={self.tol:g} within rank {max_rank}",
                iterations=j, requested=self.tol)
        B = np.asarray(Q.T @ A)
        ind = history[-1].indicator if len(history) else a_fro
        return QBApproximation(
            rank=Q.shape[1], tolerance=self.tol, indicator=float(ind),
            a_fro=a_fro, converged=converged, history=history,
            elapsed=time.perf_counter() - t0, Q=Q, B=B)


def adaptive_range_finder(A, tol: float = 1e-3, **kwargs) -> QBApproximation:
    """Functional convenience wrapper around :class:`AdaptiveRangeFinder`."""
    return AdaptiveRangeFinder(tol=tol, **kwargs).solve(A)
