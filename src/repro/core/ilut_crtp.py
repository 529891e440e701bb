"""ILUT_CRTP — incomplete LU_CRTP with thresholding (Algorithm 3).

The paper's contribution: mitigate LU_CRTP's fill-in by dropping entries of
the Schur complement that are smaller than a threshold ``mu`` in absolute
value.  The accumulated perturbation is tracked through
``t = sum_i ||T~^(i)||_F^2`` and compared against the control bound ``phi``
(equation (22)); if the bound would be violated, the drop is undone and
thresholding is disabled for the rest of the run (line 10 of Algorithm 3).

Threshold heuristic (equation (24)):

    mu = tau * |R^(1)(1,1)| / (u * sqrt(nnz(A)))

where ``|R^(1)(1,1)|`` (from the first column tournament) lower-bounds
``||A||_2`` (equation (23)) and ``u`` estimates the number of iterations.
The error *estimator* (26) is ``||A~^(i+1)||_F``, which estimates — but,
unlike LU_CRTP's indicator, does not bound — the true error (25); the gap is
at most ``||T^(i)||`` (Section III-D).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .. import perf
from ..exceptions import ConvergenceError, RankDeficiencyBreakdown
from ..history import ConvergenceHistory, IterationRecord
from ..kernels.threads import one_blas_thread
from ..linalg.norms import fro_norm
from ..ordering.etree import colamd_preprocess
from ..results import LUApproximation
from ..sparse.ops import assemble_L_global, assemble_U_global, permute_cols
from ..sparse.thresholding import drop_sorted_budget
from ..sparse.utils import ensure_csc
from .lu_crtp import LU_CRTP, NUMERICAL_RANK_RTOL
from .termination import check_tolerance


def default_threshold(tol: float, r11: float, nnz: int, u: int) -> float:
    """The paper's threshold heuristic, equation (24).

    Parameters
    ----------
    tol:
        Tolerance ``tau``.
    r11:
        ``|R^(1)(1,1)|`` — the tournament's estimate of ``||A||_2``.
    nnz:
        ``nnz(A)`` of the input matrix (stand-in for ``nnz(T)``).
    u:
        Estimated number of iterations ``i-bar``.
    """
    if u <= 0:
        raise ValueError("estimated iteration count u must be positive")
    if nnz <= 0:
        return 0.0
    return tol * r11 / (u * np.sqrt(nnz))


@dataclass
class ILUT_CRTP(LU_CRTP):
    """Incomplete LU_CRTP with thresholding.

    Inherits all LU_CRTP parameters, plus:

    Parameters
    ----------
    estimated_iterations:
        ``u`` in heuristic (24).  The paper sets it to the iteration count of
        a previous LU_CRTP run with the same parameters; any positive guess
        works, smaller guesses give larger (more aggressive) thresholds.
    mu:
        Explicit threshold overriding heuristic (24) (``None`` = use (24)).
    phi_factor:
        Threshold control ``phi = phi_factor * tau * |R^(1)(1,1)|``
        (Section III-B suggests ``phi <= tau |R^(1)(1,1)|``, i.e. factor 1).
    aggressive:
        Use the sorted-budget dropping of §VI-A instead of plain
        magnitude dropping: drop smallest entries first until bound (22)
        would be violated.
    """

    estimated_iterations: int | str = 10
    mu: float | None = None
    phi_factor: float = 1.0
    aggressive: bool = False

    @one_blas_thread()
    def solve(self, A, *, resume_from=None) -> LUApproximation:
        """Run Algorithm 3 on ``A``.

        ``resume_from`` restarts from a checkpoint of an earlier ILUT run
        with the threshold-control state (``mu``, ``phi``, accumulated
        perturbation mass) intact.  With a
        :class:`repro.core.recovery.RecoveryPolicy` in ``self.recovery``,
        a §III-A rank-deficiency breakdown is *recovered*: the last
        threshold drop is undone and the run continues with exact LU_CRTP
        iterations (thresholding disabled) instead of raising.
        """
        check_tolerance(self.tol, randomized=False)
        t0 = time.perf_counter()
        tier = self._resolve_kernel_tier()
        A = ensure_csc(A)
        m, n = A.shape
        a_fro = fro_norm(A)
        a_nnz = int(A.nnz)
        u_est = self.estimated_iterations
        if u_est == "auto":
            from ..analysis.convergence import estimate_iterations
            u_est = estimate_iterations(A, self.k, self.tol)
        u_est = int(u_est)
        max_rank = min(self.max_rank or min(m, n), min(m, n))

        col_perm = np.arange(n, dtype=np.intp)
        if self.use_colamd and A.nnz and resume_from is None:
            pre = colamd_preprocess(A, kernel_tier=tier)
            col_perm = col_perm[pre]
            A = permute_cols(A, pre)
        row_perm = np.arange(m, dtype=np.intp)

        Lblocks: list = []
        Ublocks: list = []
        row_snaps: list[np.ndarray] = []
        col_snaps: list[np.ndarray] = []
        history = ConvergenceHistory()
        active = A
        z = 0
        K = 0
        converged = False
        stop_reason = "max_rank"
        r11_first: float | None = None
        mu = self.mu  # resolved at i == 1 if None
        phi = 0.0
        t_acc_sq = 0.0  # running sum of ||T~^(j)||_F^2
        control_triggered = False
        thresholding_on = True
        recoveries = 0
        last_pre_drop = None  # previous iteration's Schur before its drop
        last_dropped_sq = 0.0

        i = 0
        if resume_from is not None:
            rs = self._restore(resume_from, "ilut_crtp")
            (i, K, z, r11_first, active, row_perm, col_perm, Lblocks,
             Ublocks, row_snaps, col_snaps, history) = rs
            st = self._resumed_state
            mu = st["mu"]
            phi = float(st["phi"])
            t_acc_sq = float(st["taccsq"])
            thresholding_on = bool(st["thresholdingon"])
            control_triggered = bool(st["controltriggered"])
            last_pre_drop = st.get("lastpredrop")
            last_dropped_sq = float(st.get("lastdroppedsq") or 0.0)
            t0 = time.perf_counter() - history[-1].elapsed if len(history) \
                else time.perf_counter()
            if len(history) and history[-1].indicator < self.tol * a_fro:
                converged = True
                stop_reason = "tolerance"
                max_rank = K  # already done: skip the loop below

        while K < max_rank:
            i += 1
            k_i = min(self.k, active.shape[0], active.shape[1], max_rank - K)
            if k_i <= 0:
                break
            if self.colamd_every_iteration and i > 1 and active.nnz:
                pre = colamd_preprocess(active, kernel_tier=tier)
                active = permute_cols(active, pre)
                col_perm[z:] = col_perm[z:][pre]
            try:
                art = self._iteration(active, k_i, i, r11_first)
            except RankDeficiencyBreakdown as exc:
                if thresholding_on and t_acc_sq > 0:
                    if (self.recovery is not None
                            and self.recovery.on_rank_deficiency
                            == "fallback_exact"
                            and recoveries < self.recovery.max_recoveries):
                        # Graceful degradation: the paper's line-10 undo
                        # (restore the pre-drop Schur complement, refund
                        # its perturbation mass) and exact LU_CRTP for the
                        # rest of the run.
                        recoveries += 1
                        undone = last_pre_drop is not None
                        if undone:
                            active = last_pre_drop
                            t_acc_sq = max(t_acc_sq - last_dropped_sq, 0.0)
                        thresholding_on = False
                        control_triggered = True
                        self.recovery.log.record(
                            "ilut_undo_exact_fallback", iteration=i,
                            detail="rank-deficiency breakdown: "
                                   + ("undid last drop and "
                                      if undone else "")
                                   + "disabled thresholding (exact "
                                     "LU_CRTP from here)",
                            rank=K, undone_drop=undone,
                            refunded_norm_sq=(last_dropped_sq
                                              if undone else 0.0))
                        last_pre_drop = None
                        last_dropped_sq = 0.0
                        i -= 1  # retry this block iteration
                        continue
                    # Section III-A: thresholding may have destroyed rank
                    # K+1; surface the dedicated breakdown to the caller.
                    raise RankDeficiencyBreakdown(
                        "ILUT_CRTP breakdown: thresholding perturbation "
                        "likely violated the rank bound (20)",
                        iteration=i, rank=K) from exc
                if self.stop_at_numerical_rank:
                    stop_reason = "numerical_rank"
                    break
                raise
            if i == 1:
                r11_first = float(art.r11_diag[0]) if art.r11_diag.size else 0.0
                # line 5 of Algorithm 3: resolve mu and phi
                if mu is None:
                    mu = default_threshold(self.tol, r11_first, a_nnz,
                                           u_est)
                phi = self.phi_factor * self.tol * r11_first
            rkk = art.r11_diag[min(k_i, art.r11_diag.size) - 1] \
                if art.r11_diag.size else 0.0
            if (self.stop_at_numerical_rank and r11_first
                    and rkk <= NUMERICAL_RANK_RTOL * r11_first):
                stop_reason = "numerical_rank"
                break

            Lblocks.append(art.Lk)
            Ublocks.append(art.Uk)
            row_perm[z:] = row_perm[z:][art.row_perm_local]
            col_perm[z:] = col_perm[z:][art.col_perm_local]
            row_snaps.append(row_perm[z:].copy())
            col_snaps.append(col_perm[z:].copy())

            schur = art.schur
            indicator = fro_norm(schur)
            done = indicator < self.tol * a_fro

            dropped_nnz = 0
            dropped_sq = 0.0
            last_pre_drop = None
            last_dropped_sq = 0.0
            if not done and thresholding_on and mu > 0:
                # lines 8-10: threshold, account, control
                if not self.aggressive:
                    # Fused single-pass route: compute the mask and the
                    # perturbation accounting first, check the line-10
                    # control bound *before* committing, and only then
                    # apply the drop in place.  A rejected drop costs no
                    # copy; a pre-drop copy is kept only when recovery or
                    # checkpointing can actually consume it.
                    from .. import kernels
                    with perf.timer("threshold"):
                        mask, d_nnz, d_sq, _ = kernels.threshold_mask(
                            schur, mu, tier=tier)
                        if np.sqrt(t_acc_sq + d_sq) >= phi:
                            # line 10: reject and disable thresholding
                            thresholding_on = False
                            control_triggered = True
                        else:
                            t_acc_sq += d_sq
                            dropped_nnz = d_nnz
                            dropped_sq = d_sq
                            if self.recovery is not None \
                                    or self._checkpointing():
                                # breakdown undo / checkpoint needs the
                                # pre-drop Schur (bound (20))
                                last_pre_drop = schur.copy()
                                last_dropped_sq = d_sq
                            schur = kernels.apply_threshold_mask(
                                schur, mask, tier=tier)
                else:
                    res = drop_sorted_budget(schur, phi, t_acc_sq, cap=phi)
                    if np.sqrt(t_acc_sq + res.dropped_norm_sq) >= phi:
                        # line 10: undo and disable thresholding
                        thresholding_on = False
                        control_triggered = True
                    else:
                        t_acc_sq += res.dropped_norm_sq
                        dropped_nnz = res.dropped_nnz
                        dropped_sq = res.dropped_norm_sq
                        # keep the pre-drop Schur so a breakdown next
                        # iteration can undo this drop (recovery policy /
                        # bound (20))
                        last_pre_drop = schur
                        last_dropped_sq = res.dropped_norm_sq
                        schur = res.matrix

            active = schur
            z += k_i
            K += k_i
            history.append(IterationRecord(
                iteration=i, rank=K, indicator=indicator,
                elapsed=time.perf_counter() - t0,
                schur_nnz=int(active.nnz), schur_shape=tuple(active.shape),
                factor_nnz=sum(b.nnz for b in Lblocks) +
                sum(b.nnz for b in Ublocks),
                dropped_nnz=dropped_nnz, dropped_norm_sq=dropped_sq,
                extra={"trace": art.stats}))
            if self.callback is not None:
                self.callback(history[-1])
            if self._checkpointing() \
                    and i % max(self.checkpoint_every, 1) == 0:
                state = self._lu_state_dict(
                    "ilut_crtp", i, K, z, r11_first, active, row_perm,
                    col_perm, Lblocks, Ublocks, row_snaps, col_snaps,
                    history)
                state.update(
                    mu=float(mu or 0.0), phi=phi, taccsq=t_acc_sq,
                    thresholdingon=thresholding_on,
                    controltriggered=control_triggered,
                    lastdroppedsq=last_dropped_sq)
                if last_pre_drop is not None:
                    state["lastpredrop"] = ensure_csc(
                        last_pre_drop, dtype=None)
                self._write_checkpoint(state)
            if done:
                converged = True
                stop_reason = "tolerance"
                break
            if active.shape[0] == 0 or active.shape[1] == 0:
                stop_reason = "exhausted"
                break

        if not converged and self.raise_on_failure:
            last = history[-1].indicator if len(history) else a_fro
            raise ConvergenceError(
                f"ILUT_CRTP stopped ({stop_reason}) before reaching "
                f"tau={self.tol:g}", iterations=i,
                achieved=last / a_fro if a_fro else 0.0, requested=self.tol)

        L = assemble_L_global(Lblocks, row_snaps, row_perm, m)
        U = assemble_U_global(Ublocks, col_snaps, col_perm, n)
        final_ind = history[-1].indicator if len(history) else a_fro
        return LUApproximation(
            rank=K, tolerance=self.tol, indicator=final_ind, a_fro=a_fro,
            converged=converged, history=history,
            elapsed=time.perf_counter() - t0, kernel_tier=tier,
            L=L, U=U, row_perm=row_perm, col_perm=col_perm,
            threshold=float(mu or 0.0), dropped_norm=float(np.sqrt(t_acc_sq)),
            control_triggered=control_triggered)


def ilut_crtp(A, k: int = 32, tol: float = 1e-3,
              estimated_iterations: int | str = 10, **kwargs) -> LUApproximation:
    """Functional convenience wrapper around :class:`ILUT_CRTP`."""
    return ILUT_CRTP(k=k, tol=tol,
                     estimated_iterations=estimated_iterations,
                     **kwargs).solve(A)
