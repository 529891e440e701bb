"""LU_CRTP — truncated block LU with column/row tournament pivoting.

Fixed-precision variant of Grigori/Cayrols/Demmel (2018) as developed by the
paper (Algorithm 2).  Each iteration:

1. column tournament QR_TP on the active matrix ``A^(i)`` selects the ``k``
   most linearly independent columns (``P_c^(i)``);
2. the selected columns are orthogonalized (sparse QR — CholeskyQR2 here,
   SuiteSparseQR in the paper) giving ``Q_k``;
3. a row tournament on ``Q_k^T`` selects ``k`` rows (``P_r^(i)``);
4. the permuted active matrix is split into the 2x2 block form; the
   truncated factors ``L_k = [I; A21 A11^{-1}]`` and ``U_k = [A11 A12]`` are
   appended, and the Schur complement ``S(A11) = A22 - A21 A11^{-1} A12``
   becomes the next active matrix.

Termination uses the paper's new indicator (9): ``||A^(i+1)||_F``, which
equals ``||P_r A P_c - L_K U_K||_F`` exactly, making the comparison with
RandQB_EI's indicator (4) fair.

The Schur complement is where fill-in appears (Section II-B3); the solver
records it per iteration through :class:`repro.sparse.fillin.FillInTracker`
and the history records, feeding Fig. 1.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from ..exceptions import ConvergenceError, RankDeficiencyBreakdown
from ..history import ConvergenceHistory, IterationRecord
from ..linalg.cholqr import cholqr2
from ..linalg.norms import fro_norm
from ..ordering.etree import colamd_preprocess
from ..pivoting.tournament import qr_tp, qr_tp_rows
from ..results import LUApproximation
from ..sparse.ops import assemble_L_global, assemble_U_global, permute_cols
from ..sparse.utils import ensure_csc, ensure_csr
from ..sparse.window import (
    csr_rows_to_dense,
    dense_rows_to_csr,
    extract_leading_columns,
)
from .termination import check_tolerance
from .. import perf
from ..kernels.threads import one_blas_thread

#: Relative magnitude of |R(k,k)| vs |R(1,1)| below which the active matrix
#: is declared numerically rank-deficient ("stop at the numerical rank", §VI-A).
NUMERICAL_RANK_RTOL = 1e-14


@dataclass
class IterationArtifacts:
    """Internal per-iteration products handed back to the driver loop."""

    Lk: sp.spmatrix
    Uk: sp.spmatrix
    schur: sp.csc_matrix
    row_perm_local: np.ndarray
    col_perm_local: np.ndarray
    r11_diag: np.ndarray
    tournament_stats: object
    stats: dict


@dataclass
class LU_CRTP:
    """Fixed-precision truncated LU with tournament pivoting.

    Parameters
    ----------
    k:
        Block size (rank added per iteration).
    tol:
        Relative tolerance ``tau``.
    max_rank:
        Rank cap (default: numerical-rank / dimension limited).
    use_colamd:
        Apply the COLAMD + elimination-tree-postorder preprocessing of
        Section V before factorizing (recommended; ablation in Fig. 1).
    colamd_every_iteration:
        Re-apply COLAMD to every Schur complement (the Fig. 1 yellow-dotted
        ablation; slightly better fill, intrinsically sequential).
    tree:
        Tournament reduction-tree shape, ``"binary"`` or ``"flat"``.
    selection_method:
        Column-selection strategy at tournament nodes (``"gram"``/``"dense"``).
    strong_rrqr:
        Use Gu-Eisenstat swaps at tournament nodes.
    l_formula:
        ``"schur"`` — ``L21 = A21 A11^{-1}`` (sparse-friendly);
        ``"orthogonal"`` — ``L21 = Qbar21 Qbar11^{-1}`` (the numerically
        stabler alternative of §II-B3 that introduces additional fill);
        ``"auto"`` — switch to orthogonal when ``A11`` is ill-conditioned.
    stop_at_numerical_rank:
        Stop (flagged converged=False unless tolerance already met) when the
        pivot block becomes numerically singular instead of raising.
    zero_drop_tol:
        Entries of the Schur complement at or below this magnitude are
        treated as exact cancellation noise and pruned (this is *not*
        ILUT thresholding; it only removes round-off debris).
    qr_engine:
        Factorization used on the k winning columns (Algorithm 2 line 6):
        ``"cholqr2"`` (default — Gram-based, fastest here) or
        ``"householder"`` — the library's left-looking sparse Householder
        QR (:mod:`repro.linalg.sparse_qr`), the direct counterpart of the
        paper's SuiteSparseQR.
    discard_small_columns:
        Cayrols-style work reduction (reference [2] of the paper):
        columns of the active matrix whose 2-norm falls below this fraction
        of the largest column norm are excluded from the tournament's
        candidate set (they cannot win a rank-revealing match anyway).
        They remain in the matrix and in every Schur update, so the
        factorization and its error are unchanged — only pivot-search work
        shrinks.  ``0`` disables.
    kernel_tier:
        Kernel tier request (``"auto"``/``"pure"``/``"native"``) for the
        hot-path kernels; see :mod:`repro.kernels`.  Both tiers produce
        bitwise-identical factorizations.
    """

    k: int = 32
    tol: float = 1e-3
    max_rank: int | None = None
    use_colamd: bool = True
    colamd_every_iteration: bool = False
    tree: str = "binary"
    selection_method: str = "gram"
    strong_rrqr: bool = False
    l_formula: str = "schur"
    stop_at_numerical_rank: bool = True
    zero_drop_tol: float = 0.0
    raise_on_failure: bool = False
    discard_small_columns: float = 0.0
    qr_engine: str = "cholqr2"
    kernel_tier: str = "auto"
    target_rank: int | None = None  # fixed-RANK mode (Grigori et al.'s
    # original problem): run to this rank, ignoring the tolerance test
    callback: object = None  # optional per-iteration hook: f(IterationRecord)
    checkpoint_path: object = None
    checkpoint_every: int = 1
    checkpoint_callback: object = None
    recovery: object = None  # optional repro.core.recovery.RecoveryPolicy

    def __post_init__(self):
        if self.k <= 0:
            raise ValueError("block size k must be positive")
        if self.l_formula not in ("schur", "orthogonal", "auto"):
            raise ValueError(f"unknown l_formula {self.l_formula!r}")
        from ..kernels import validate_request
        self.kernel_tier = validate_request(self.kernel_tier)

    def _resolve_kernel_tier(self) -> str:
        """Resolve the tier once per solve."""
        from ..kernels import record_tier, resolve_tier
        tier = resolve_tier(self.kernel_tier)
        self._kernel_tier_resolved = tier
        return record_tier(tier)

    # ------------------------------------------------------------------
    def _checkpointing(self) -> bool:
        return (self.checkpoint_path is not None
                or self.checkpoint_callback is not None)

    def _write_checkpoint(self, state: dict) -> None:
        if self.checkpoint_callback is not None:
            self.checkpoint_callback(state)
        if self.checkpoint_path is not None:
            from ..serialize import save_checkpoint
            save_checkpoint(self.checkpoint_path, state)

    def _recovery_log(self):
        return None if self.recovery is None else self.recovery.log

    # ------------------------------------------------------------------
    @one_blas_thread()
    def solve(self, A, *, resume_from=None) -> LUApproximation:
        """Run Algorithm 2 on ``A``.

        ``resume_from`` (checkpoint path or state dict) restarts from the
        last completed block iteration: the accumulated factor blocks,
        permutations, active Schur complement and indicator state are
        restored, so the resumed run is identical to an uninterrupted one.
        """
        check_tolerance(self.tol, randomized=False)
        t0 = time.perf_counter()
        tier = self._resolve_kernel_tier()
        A = ensure_csc(A)
        m, n = A.shape
        a_fro = fro_norm(A)
        max_rank = min(self.max_rank or min(m, n), min(m, n))
        if self.target_rank is not None:
            max_rank = min(self.target_rank, min(m, n))

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

        i = 0
        if resume_from is not None:
            st = self._restore(resume_from, "lu_crtp")
            (i, K, z, r11_first, active, row_perm, col_perm, Lblocks,
             Ublocks, row_snaps, col_snaps, history) = st
            t0 = time.perf_counter() - history[-1].elapsed if len(history) \
                else time.perf_counter()
            if len(history) and history[-1].indicator < self.tol * a_fro \
                    and self.target_rank is None:
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
            except RankDeficiencyBreakdown:
                if self.stop_at_numerical_rank:
                    stop_reason = "numerical_rank"
                    break
                raise
            if i == 1:
                r11_first = float(art.r11_diag[0]) if art.r11_diag.size else 0.0
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

            active = art.schur
            z += k_i
            K += k_i
            indicator = fro_norm(active)
            history.append(IterationRecord(
                iteration=i, rank=K, indicator=indicator,
                elapsed=time.perf_counter() - t0,
                schur_nnz=int(active.nnz), schur_shape=tuple(active.shape),
                factor_nnz=sum(b.nnz for b in Lblocks) +
                sum(b.nnz for b in Ublocks),
                extra={"trace": art.stats}))
            if self.callback is not None:
                self.callback(history[-1])
            if self._checkpointing() \
                    and i % max(self.checkpoint_every, 1) == 0:
                self._write_checkpoint(self._lu_state_dict(
                    "lu_crtp", i, K, z, r11_first, active, row_perm,
                    col_perm, Lblocks, Ublocks, row_snaps, col_snaps,
                    history))
            if indicator < self.tol * a_fro and self.target_rank is None:
                converged = True
                stop_reason = "tolerance"
                break
            if active.shape[0] == 0 or active.shape[1] == 0:
                converged = indicator < self.tol * a_fro
                stop_reason = "exhausted"
                break

        if self.target_rank is not None:
            converged = K >= min(self.target_rank, min(m, n))
        if not converged and self.raise_on_failure:
            last = history[-1].indicator if len(history) else a_fro
            raise ConvergenceError(
                f"LU_CRTP stopped ({stop_reason}) before reaching "
                f"tau={self.tol:g}", iterations=i,
                achieved=last / a_fro if a_fro else 0.0, requested=self.tol)

        L = assemble_L_global(Lblocks, row_snaps, row_perm, m)
        U = assemble_U_global(Ublocks, col_snaps, col_perm, n)
        final_ind = history[-1].indicator if len(history) else a_fro
        return LUApproximation(
            rank=K, tolerance=self.tol, indicator=final_ind, a_fro=a_fro,
            converged=converged, history=history,
            elapsed=time.perf_counter() - t0, kernel_tier=tier,
            L=L, U=U, row_perm=row_perm, col_perm=col_perm)

    # ------------------------------------------------------------------
    def _lu_state_dict(self, kind: str, i: int, K: int, z: int,
                       r11_first, active, row_perm, col_perm, Lblocks,
                       Ublocks, row_snaps, col_snaps, history) -> dict:
        """Complete mid-run state: enough to continue the driver loop as if
        it had never stopped (per-iteration ``extra`` traces excepted)."""
        from ..serialize import _history_payload
        return {
            "kind": kind, "iteration": i, "K": K, "z": z,
            "r11first": r11_first, "active": ensure_csc(active, dtype=None),
            "rowperm": np.asarray(row_perm).copy(),
            "colperm": np.asarray(col_perm).copy(),
            "Lblocks": [ensure_csc(b, dtype=None) for b in Lblocks],
            "Ublocks": [ensure_csr(b, dtype=None) for b in Ublocks],
            "rowsnaps": [s.copy() for s in row_snaps],
            "colsnaps": [s.copy() for s in col_snaps],
            "history": _history_payload(history),
        }

    def _restore(self, resume_from, kind: str):
        """Load and unpack a checkpoint written by :meth:`_lu_state_dict`."""
        from ..exceptions import CheckpointError
        from ..serialize import _history_from_payload, resolve_checkpoint
        st = resolve_checkpoint(resume_from)
        if st.get("kind") != kind:
            raise CheckpointError(
                f"checkpoint kind {st.get('kind')!r} is not {kind!r}")
        self._resumed_state = st  # subclasses pick up their extra fields
        r11_first = st["r11first"]
        return (int(st["iteration"]), int(st["K"]), int(st["z"]),
                None if r11_first is None else float(r11_first),
                ensure_csc(st["active"], dtype=None),
                np.asarray(st["rowperm"], dtype=np.intp),
                np.asarray(st["colperm"], dtype=np.intp),
                list(st["Lblocks"]), list(st["Ublocks"]),
                [np.asarray(s, dtype=np.intp) for s in st["rowsnaps"]],
                [np.asarray(s, dtype=np.intp) for s in st["colsnaps"]],
                _history_from_payload(st["history"]))

    # ------------------------------------------------------------------
    def _iteration(self, active: sp.csc_matrix, k_i: int, i: int,
                   r11_first: float | None) -> IterationArtifacts:
        """Lines 4-12 of Algorithm 2 on the active matrix.

        The active matrix is never materialized in permuted form: the
        permutations stay index maps and every entry is routed straight
        to its destination block (:func:`repro.sparse.window.permuted_blocks`),
        and ``F`` is assembled directly in CSR from the dense
        triangular-solve result.  The window split and the ``F @ A12``
        Schur product dispatch through :mod:`repro.kernels` on the tier
        resolved in :meth:`solve` (pure and native tiers are
        bitwise-identical).
        """
        from .. import kernels
        tier = getattr(self, "_kernel_tier_resolved", None) or "pure"

        # line 5: column tournament (optionally on a reduced candidate set)
        with perf.timer("col_qr_tp"):
            col_tp = self._column_tournament(active, k_i)

        # line 6: sparse QR of the k selected columns (gathered directly —
        # the fully permuted matrix is never built)
        with perf.timer("sparse_qr"):
            selected = extract_leading_columns(active, col_tp.perm[:k_i])
            if self.qr_engine == "householder":
                from ..linalg.sparse_qr import sparse_householder_qr
                fqr = sparse_householder_qr(selected)
                Qk = fqr.explicit_q()
            else:
                Qk, _Rk, _ = cholqr2(selected,
                                     recovery_log=self._recovery_log(),
                                     tier=tier)

        # line 7: row tournament on Q_k^T
        with perf.timer("row_qr_tp"):
            row_tp = qr_tp_rows(Qk, k_i, tree=self.tree, tier=tier)

        # line 8: fused permutation + 2x2 split (the index-window pass)
        with perf.timer("permute_split"):
            A11d, A12, A21, A22 = kernels.permuted_blocks(
                active, col_tp.perm, row_tp.perm, k_i, tier=tier)

        # line 10/12: F = A21 A11^{-1} (or the orthogonal-formula variant)
        with perf.timer("solve_F"):
            F = self._compute_F(A11d, A21, Qk, row_tp.perm, k_i, i)

        f_colnnz = np.bincount(F.indices, minlength=k_i)
        schur_flops = 2.0 * float(np.dot(f_colnnz, np.diff(A12.indptr)))
        with perf.timer("schur"):
            # one dispatch for multiply + subtract + convert + drop — the
            # native tier fuses the chain, pure runs the scipy composition
            schur = kernels.schur_update_csc(
                A22, F, A12, tol=self.zero_drop_tol, tier=tier)
            perf.add_flops("schur", schur_flops)

        Lk = sp.vstack([sp.identity(k_i, format="csc"), F], format="csc")
        Uk = sp.hstack([sp.csr_matrix(A11d), A12], format="csr")

        # Trace statistics consumed by the parallel performance model
        # (repro.parallel.perfmodel): enough to reconstruct per-rank flop and
        # byte counts for any process count without re-running.
        stats = {
            "m_i": int(active.shape[0]),
            "n_i": int(active.shape[1]),
            "k_i": int(k_i),
            "active_nnz": int(active.nnz),
            "col_nnz": np.diff(active.indptr).astype(np.int64),
            "sel_nnz": int(selected.nnz),
            "f_rows": int(np.count_nonzero(np.diff(F.indptr))),
            "f_nnz": int(F.nnz),
            "a12_nnz": int(A12.nnz),
            "schur_nnz": int(schur.nnz),
            "schur_flops": schur_flops,
            "tournament_flops": float(col_tp.stats.total_flops),
            "tournament_fallbacks": int(col_tp.stats.fallbacks),
        }
        return IterationArtifacts(
            Lk=Lk, Uk=Uk, schur=schur,
            row_perm_local=row_tp.perm, col_perm_local=col_tp.perm,
            r11_diag=col_tp.r11_diag, tournament_stats=col_tp.stats,
            stats=stats)

    # ------------------------------------------------------------------
    def _column_tournament(self, active: sp.csc_matrix, k_i: int):
        """QR_TP on the active matrix, optionally restricted to the
        candidate columns whose norm clears the discard threshold."""
        tier = getattr(self, "_kernel_tier_resolved", None)
        if self.discard_small_columns <= 0.0:
            return qr_tp(active, k_i, tree=self.tree,
                         method=self.selection_method,
                         strong=self.strong_rrqr, tier=tier)
        from ..linalg.norms import column_norms_sq
        norms = column_norms_sq(active)
        cutoff = (self.discard_small_columns ** 2) * float(norms.max())
        cand = np.flatnonzero(norms >= cutoff)
        if len(cand) < k_i:  # not enough candidates: fall back to all
            cand = np.arange(active.shape[1])
        sub = active[:, cand]
        res = qr_tp(sub, k_i, tree=self.tree,
                    method=self.selection_method, strong=self.strong_rrqr,
                    tier=tier)
        winners = cand[res.winners]
        mask = np.zeros(active.shape[1], dtype=bool)
        mask[winners] = True
        perm = np.concatenate([winners, np.flatnonzero(~mask)]).astype(np.intp)
        res.perm = perm
        res.winners = winners
        return res

    # ------------------------------------------------------------------
    def _compute_F(self, A11d: np.ndarray, A21: sp.csr_matrix,
                   Qk: np.ndarray, row_perm: np.ndarray, k_i: int,
                   i: int) -> sp.csr_matrix:
        """``F`` by ``l_formula``: the orthogonal variant here, the Schur
        formula through :func:`schur_multipliers`.

        Raises :class:`RankDeficiencyBreakdown` when the pivot block is
        numerically singular (the §III-A failure mode).
        """
        formula = self.l_formula
        if formula == "auto":
            cond = np.linalg.cond(A11d)
            formula = "orthogonal" if cond > 1e10 else "schur"

        if formula == "orthogonal":
            # Qbar = P_r Q_k; F = Qbar21 Qbar11^{-1}. Equal to A21 A11^{-1} in
            # exact arithmetic but bounded entries; dense (extra fill-in).
            Qbar = Qk[row_perm]
            Q11, Q21 = Qbar[:k_i], Qbar[k_i:]
            try:
                Fd = np.linalg.solve(Q11.T, Q21.T).T
            except np.linalg.LinAlgError as exc:
                raise RankDeficiencyBreakdown(
                    "orthogonal pivot block singular", iteration=i) from exc
            return dense_rows_to_csr(
                Fd, np.arange(Fd.shape[0]), Fd.shape[0])

        return schur_multipliers(A11d, A21, iteration=i)


def schur_multipliers(A11d: np.ndarray, A21: sp.csr_matrix, *,
                      iteration: int | None = None,
                      drop_below: float = 1e-300) -> sp.csr_matrix:
    """Algorithm 2's ``F = A21 A11^{-1}`` (the Schur formula, lines 10/12)
    restricted to the nonzero rows of the CSR block ``A21``, assembled
    directly in canonical CSR; multipliers below ``drop_below`` in
    magnitude are pruned.  The F step of :class:`LU_CRTP` and of the SPMD
    rank program (:func:`repro.parallel.spmd.spmd_lu_crtp`).

    Raises :class:`RankDeficiencyBreakdown` when the pivot block is
    numerically singular (the §III-A failure mode).
    """
    rows = np.flatnonzero(np.diff(A21.indptr))
    mrest, k = A21.shape
    if rows.size == 0:
        return sp.csr_matrix((mrest, k))
    try:
        # solve X A11 = A21[rows]  <=>  A11^T X^T = A21[rows]^T
        Fsub = np.linalg.solve(A11d.T, csr_rows_to_dense(A21, rows).T).T
    except np.linalg.LinAlgError as exc:
        raise RankDeficiencyBreakdown(
            "pivot block A11 numerically singular",
            iteration=iteration) from exc
    if not np.all(np.isfinite(Fsub)):
        raise RankDeficiencyBreakdown(
            "pivot block A11 produced non-finite multipliers",
            iteration=iteration)
    return dense_rows_to_csr(Fsub, rows, mrest, drop_below=drop_below)


def lu_crtp(A, k: int = 32, tol: float = 1e-3, **kwargs) -> LUApproximation:
    """Functional convenience wrapper around :class:`LU_CRTP`."""
    return LU_CRTP(k=k, tol=tol, **kwargs).solve(A)
