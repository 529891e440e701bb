"""RandQB_EI — randomized QB factorization with error indicator (Algorithm 1).

Yu, Gu, Li (2018), "Efficient Randomized Algorithms for the Fixed-Precision
Low-Rank Matrix Approximation".  Each iteration sketches the input with a
fresh Gaussian block, orthogonalizes against everything computed so far and
grows ``Q_K``/``B_K`` by ``k`` columns/rows.  The power scheme (lines 6-9)
works on ``K = (A A^T)^p A`` which shares singular vectors with ``A`` and
accelerates singular-value decay at roughly ``(p+1)x`` the per-iteration
cost (Section IV).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .. import perf
from ..exceptions import ConvergenceError
from ..history import ConvergenceHistory, IterationRecord
from ..kernels.threads import one_blas_thread
from ..linalg.norms import fro_norm_sq
from ..linalg.orth import orth, reorth_workspace, reorthogonalize
from ..linalg.random_gen import SketchKind, gaussian_batch, make_sketch
from ..results import QBApproximation
from .termination import RandErrorIndicator, check_tolerance


@dataclass
class RandQB_EI:
    """Fixed-precision randomized QB solver.

    Parameters
    ----------
    k:
        Block size (columns added per iteration).
    tol:
        Relative tolerance ``tau`` on ``||A - Q B||_F / ||A||_F``.
    power:
        Power-scheme parameter ``p`` (0-3 in the paper; 1 was the best
        runtime/iterations trade-off in the evaluation).
    max_rank:
        Rank cap; default ``min(m, n)``.  Exceeding it without convergence
        raises :class:`ConvergenceError` when ``raise_on_failure`` else
        returns the partial factorization flagged unconverged.
    seed:
        Seed for the Gaussian test matrices (reproducibility).
    sketch:
        Test-matrix family (gaussian / rademacher / sparse_sign).
    reorth_passes:
        Gram-Schmidt passes in the re-orthogonalization (line 10).
    allow_unsafe_tolerance:
        Permit ``tol`` below the indicator's double-precision floor
        (Theorem 3) with a warning instead of raising.
    checkpoint_path / checkpoint_every / checkpoint_callback:
        Fault-tolerance hooks: every ``checkpoint_every`` completed block
        iterations the solver builds a state dict (factors so far, error
        indicator state, RNG bit-generator state, history) and hands it to
        ``checkpoint_callback`` and/or persists it to ``checkpoint_path``
        via :func:`repro.serialize.save_checkpoint`.  A later
        ``solve(A, resume_from=path_or_dict)`` restarts from the last
        completed iteration with identical RNG draws, so the resumed run
        reaches the same ``tau`` at the same rank as an uninterrupted one.
    """

    k: int = 32
    tol: float = 1e-3
    power: int = 0
    max_rank: int | None = None
    seed: int | None = 0
    sketch: SketchKind | str = SketchKind.GAUSSIAN
    reorth_passes: int = 1
    allow_unsafe_tolerance: bool = False
    raise_on_failure: bool = False
    extra_iterations: int = 0  # continue this many iterations past convergence
    target_rank: int | None = None  # fixed-RANK mode: run to this rank,
    # ignoring the tolerance test (the RRF/fixed-rank problem class)
    callback: object = None  # optional per-iteration hook: f(IterationRecord)
    checkpoint_path: object = None
    checkpoint_every: int = 1
    checkpoint_callback: object = None
    kernel_tier: str = "auto"  # kernel tier request; RandQB_EI's hot path
    # is dense BLAS so both tiers run identical code — the resolved tier is
    # still recorded on the result for uniform provenance
    _rng: np.random.Generator = field(init=False, repr=False, default=None)

    def __post_init__(self):
        if self.k <= 0:
            raise ValueError("block size k must be positive")
        if not 0 <= self.power <= 3:
            raise ValueError("power parameter p must be in [0, 3]")
        from ..kernels import validate_request
        self.kernel_tier = validate_request(self.kernel_tier)

    def _checkpoint(self, state: dict) -> None:
        if self.checkpoint_callback is not None:
            self.checkpoint_callback(state)
        if self.checkpoint_path is not None:
            from ..serialize import save_checkpoint
            save_checkpoint(self.checkpoint_path, state)

    @one_blas_thread()
    def solve(self, A, *, resume_from=None) -> QBApproximation:
        """Run Algorithm 1 on ``A`` and return the QB approximation.

        ``resume_from`` restarts from a checkpoint (path or state dict)
        written by an earlier run on the *same* matrix and parameters.
        """
        check_tolerance(self.tol, randomized=True,
                        allow_unsafe=self.allow_unsafe_tolerance)
        t0 = time.perf_counter()
        from ..kernels import record_tier, resolve_tier
        tier = record_tier(resolve_tier(self.kernel_tier))
        m, n = A.shape
        max_rank = min(self.max_rank or min(m, n), min(m, n))
        if self.target_rank is not None:
            max_rank = min(self.target_rank, min(m, n))
        rng = np.random.default_rng(self.seed)
        a_fro_sq = fro_norm_sq(A)
        a_fro = float(np.sqrt(a_fro_sq))
        indicator = RandErrorIndicator(a_fro_sq)
        history = ConvergenceHistory()

        # growing buffers for Q_K (m x cap) and B_K (cap x n)
        cap = max(self.k * 8, self.k)
        Q = np.zeros((m, cap))
        B = np.zeros((cap, n))
        K = 0
        converged = False
        extra_left = self.extra_iterations
        i = 0

        if resume_from is not None:
            from ..exceptions import CheckpointError
            from ..serialize import _history_from_payload, resolve_checkpoint
            st = resolve_checkpoint(resume_from)
            if st.get("kind") != "randqb_ei":
                raise CheckpointError(
                    f"checkpoint kind {st.get('kind')!r} is not 'randqb_ei'")
            K, i = int(st["K"]), int(st["iteration"])
            extra_left = int(st["extra_left"])
            indicator._e = float(st["e_sq"])
            indicator.underflowed = bool(st["underflowed"])
            rng.bit_generator.state = st["rng_state"]
            history = _history_from_payload(st["history"])
            cap = max(cap, K)
            Q = np.zeros((m, cap))
            B = np.zeros((cap, n))
            Q[:, :K] = st["Q"]
            B[:K] = st["B"]
            t0 = time.perf_counter() - float(st["elapsed"])
            if indicator.converged(self.tol) and self.target_rank is None \
                    and extra_left <= 0:
                converged = True
                max_rank = K  # already done: skip the loop below
        # Batched sketching: pre-draw several full-size Gaussian blocks in
        # one vectorized call.  ``gaussian_batch`` consumes the RNG stream
        # exactly as the per-iteration draws would, so every Omega the loop
        # *uses* is bitwise identical; only Gaussian sketches batch, and
        # checkpointing runs draw one block at a time (a checkpoint must
        # capture an RNG state that has not been advanced past unconsumed
        # draws).
        batch_sketch = (SketchKind(self.sketch) is SketchKind.GAUSSIAN
                        and self.checkpoint_path is None
                        and self.checkpoint_callback is None)
        omega_queue: list[np.ndarray] = []
        work = reorth_workspace(m, self.k)

        while K < max_rank:
            i += 1
            k_i = min(self.k, max_rank - K)
            with perf.timer("sketch"):
                if batch_sketch and k_i == self.k:
                    if not omega_queue:
                        b = max((max_rank - K) // self.k, 1)
                        batch = gaussian_batch(n, self.k, min(b, 8), rng)
                        omega_queue = list(batch[::-1])
                    Omega = omega_queue.pop()
                else:
                    Omega = make_sketch(self.sketch, n, k_i, rng)
                    Omega = Omega.toarray() \
                        if hasattr(Omega, "toarray") else Omega

            # line 5: Qk = orth(A Omega - Q_K (B_K Omega))
            with perf.timer("project"):
                Y = A @ Omega
                if K > 0:
                    Y -= Q[:, :K] @ (B[:K] @ Omega)
            with perf.timer("orth"):
                Qk = orth(np.asarray(Y))

            # lines 6-9: power scheme with interleaved projections
            for _ in range(self.power):
                with perf.timer("project"):
                    Z = A.T @ Qk
                    if K > 0:
                        Z = Z - B[:K].T @ (Q[:, :K].T @ Qk)
                with perf.timer("orth"):
                    Qhat = orth(np.asarray(Z))
                with perf.timer("project"):
                    Y = A @ Qhat
                    if K > 0:
                        Y -= Q[:, :K] @ (B[:K] @ Qhat)
                with perf.timer("orth"):
                    Qk = orth(np.asarray(Y))

            # line 10: re-orthogonalization against previous blocks
            with perf.timer("orth"):
                Qk = reorthogonalize(Qk, Q[:, :K] if K > 0 else None,
                                     passes=self.reorth_passes, work=work)
            # line 11
            with perf.timer("project"):
                Bk = np.asarray(Qk.T @ A)
            if hasattr(Bk, "toarray"):  # pragma: no cover - sparse edge
                Bk = Bk.toarray()

            # line 12: grow buffers
            if K + k_i > cap:
                cap = max(2 * cap, K + k_i)
                Q = np.concatenate([Q, np.zeros((m, cap - Q.shape[1]))], axis=1)
                B = np.concatenate([B, np.zeros((cap - B.shape[0], n))], axis=0)
            Q[:, K:K + k_i] = Qk
            B[K:K + k_i] = Bk
            K += k_i

            # lines 13-14: indicator update and stop test
            e = indicator.update(Bk)
            history.append(IterationRecord(
                iteration=i, rank=K, indicator=e,
                elapsed=time.perf_counter() - t0,
                factor_nnz=(m + n) * K))
            if self.callback is not None:
                self.callback(history[-1])
            if ((self.checkpoint_path is not None
                 or self.checkpoint_callback is not None)
                    and i % max(self.checkpoint_every, 1) == 0):
                from ..serialize import _history_payload
                self._checkpoint({
                    "kind": "randqb_ei", "K": K, "iteration": i,
                    "extra_left": extra_left, "e_sq": indicator._e,
                    "underflowed": indicator.underflowed,
                    "a_fro_sq": a_fro_sq,
                    "rng_state": rng.bit_generator.state,
                    "history": _history_payload(history),
                    "Q": Q[:, :K].copy(), "B": B[:K].copy(),
                    "elapsed": time.perf_counter() - t0})
            if indicator.converged(self.tol) and self.target_rank is None:
                if extra_left <= 0:
                    converged = True
                    break
                extra_left -= 1

        if not converged and indicator.converged(self.tol):
            converged = True
        if self.target_rank is not None:
            converged = K >= min(self.target_rank, min(m, n))
        if not converged and self.raise_on_failure:
            raise ConvergenceError(
                f"RandQB_EI did not reach tau={self.tol:g} within rank "
                f"{max_rank}", iterations=i,
                achieved=indicator.value / a_fro if a_fro else 0.0,
                requested=self.tol)
        return QBApproximation(
            rank=K, tolerance=self.tol, indicator=indicator.value,
            a_fro=a_fro, converged=converged, history=history,
            elapsed=time.perf_counter() - t0, kernel_tier=tier,
            Q=Q[:, :K].copy(), B=B[:K].copy())


def randqb_ei(A, k: int = 32, tol: float = 1e-3, power: int = 0,
              **kwargs) -> QBApproximation:
    """Functional convenience wrapper around :class:`RandQB_EI`."""
    return RandQB_EI(k=k, tol=tol, power=power, **kwargs).solve(A)
