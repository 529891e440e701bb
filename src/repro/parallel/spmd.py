"""Executable SPMD versions of RandQB_EI and LU_CRTP.

These run on the thread-per-rank communicator (:func:`repro.parallel.comm.
run_spmd`) with real distributed data.  They exist to *validate* the
parallelization structure at small process counts — the unit tests check
parity with the sequential solvers — while the large-P evaluation of
Figs. 4-6 uses the trace-replay performance model.

Usage::

    out = run_spmd(4, spmd_randqb_ei, A, k=16, tol=1e-2)
    Q, B, rank = out["results"][0]        # replicated outputs
    modeled_seconds = out["elapsed"]
"""

from __future__ import annotations

import numpy as np

from ..core.lu_crtp import schur_multipliers
from ..exceptions import CheckpointError, PayloadIntegrityError
from ..kernels.threads import one_blas_thread
from ..linalg.cholqr import cholqr2
from ..linalg.norms import fro_norm_sq
from ..linalg.orth import orth
from ..pivoting.tournament import qr_tp_rows
from ..sparse.utils import ensure_csc
from ..sparse.window import extract_leading_columns
from .comm import SimComm
from .distribution import block_ranges, own_col_block, own_row_block
from .kernels import par_qt_a, par_spmm_rowdist, par_tournament_columns, par_tsqr

#: ``drop_below`` for the rank program's F: every nonzero multiplier is at
#: least the smallest subnormal in magnitude, so none is pruned.
_KEEP_NONZERO = float(np.finfo(np.float64).smallest_subnormal)


def _load_spmd_checkpoint(comm: SimComm, resume_from, kind: str) -> dict:
    """Rank 0 reads the checkpoint, everyone gets it by broadcast, and the
    stored process count must match (per-rank blocks are restored exactly
    so the resumed run is bitwise-identical to an uninterrupted one)."""
    from ..serialize import resolve_checkpoint
    st = comm.bcast(
        resolve_checkpoint(resume_from) if comm.rank == 0 else None, root=0)
    if st.get("kind") != kind:
        raise CheckpointError(
            f"checkpoint kind {st.get('kind')!r} is not {kind!r}")
    if int(st["nprocs"]) != comm.nprocs:
        raise CheckpointError(
            f"checkpoint was written by {st['nprocs']} ranks, cannot resume "
            f"on {comm.nprocs}")
    return st


def _write_spmd_checkpoint(comm: SimComm, state: dict, checkpoint_path,
                           checkpoint_callback) -> None:
    """Rank 0 persists the (already gathered) state dict."""
    if comm.rank != 0:
        return
    if checkpoint_callback is not None:
        checkpoint_callback(state)
    if checkpoint_path is not None:
        from ..serialize import save_checkpoint
        save_checkpoint(checkpoint_path, state)


def spmd_randqb_ei(comm: SimComm, A, *, k: int = 16, tol: float = 1e-2,
                   power: int = 0, seed: int = 0, max_rank: int | None = None,
                   checkpoint_path=None, checkpoint_every: int = 1,
                   checkpoint_callback=None, resume_from=None):
    """Algorithm 1 as a rank program: ``A`` row-distributed, ``Omega`` and
    ``B_K`` replicated, ``Q_K`` row-distributed, orthogonalization via TSQR.

    Every rank returns ``(Q_local_rows, B, rank)``; ``B`` is replicated.
    Uses the same RNG stream as the sequential solver (drawn on rank 0 and
    broadcast), so results are bitwise-comparable modulo reduction order.

    With ``checkpoint_path`` (or ``checkpoint_callback``), rank 0 persists
    the gathered run state every ``checkpoint_every`` block iterations;
    ``resume_from`` restarts a crashed run from the last checkpoint with
    the per-rank ``Q`` blocks and the RNG stream restored exactly.
    """
    m, n = A.shape
    ranges = block_ranges(m, comm.nprocs)
    lo, hi = ranges[comm.rank]
    A_local = own_row_block(A, comm.nprocs, comm.rank)
    max_rank = min(max_rank or min(m, n), min(m, n))
    rng = np.random.default_rng(seed) if comm.rank == 0 else None

    a_fro_sq_local = fro_norm_sq(A_local)
    a_fro_sq = float(comm.allreduce_sum(np.array([a_fro_sq_local]))[0])
    E = a_fro_sq

    Qloc = np.zeros((hi - lo, 0))
    B = np.zeros((0, n))
    K = 0
    converged = False
    checkpointing = (checkpoint_path is not None
                     or checkpoint_callback is not None)
    if resume_from is not None:
        st = _load_spmd_checkpoint(comm, resume_from, "spmd_randqb_ei")
        K = int(st["K"])
        E = float(st["E"])
        converged = bool(st["converged"])
        B = st["B"]
        Qloc = st["Qblocks"][comm.rank]
        if comm.rank == 0:
            rng.bit_generator.state = st["rngstate"]
    it = 0
    while not converged and K < max_rank:
        it += 1
        k_i = min(k, max_rank - K)
        Omega = comm.bcast(
            rng.standard_normal((n, k_i)) if comm.rank == 0 else None, root=0)
        Y = par_spmm_rowdist(comm, A_local, Omega)
        if K > 0:
            comm.kernel("gemm_project")
            BO = B @ Omega  # replicated small gemm
            comm.charge_flops(2.0 * K * n * k_i / comm.nprocs)
            Y = Y - Qloc @ BO
            comm.charge_flops(2.0 * Y.shape[0] * K * k_i)
        Qk_loc, _ = par_tsqr(comm, Y)
        for _ in range(power):
            Z = par_qt_a(comm, Qk_loc, A_local).T  # (n, k) replicated
            if K > 0:
                comm.kernel("gemm_project")
                QtQ = comm.allreduce_sum(Qloc.T @ Qk_loc)
                Z = Z - B.T @ QtQ
            Zq = orth(Z)  # replicated small orth
            Y = par_spmm_rowdist(comm, A_local, Zq)
            if K > 0:
                comm.kernel("gemm_project")
                BZ = B @ Zq
                Y = Y - Qloc @ BZ
            Qk_loc, _ = par_tsqr(comm, Y)
        if K > 0:
            # re-orthogonalization (line 10) against earlier blocks
            comm.kernel("reorth")
            QtQk = comm.allreduce_sum(Qloc.T @ Qk_loc)
            Yr = Qk_loc - Qloc @ QtQk
            comm.charge_flops(4.0 * Qloc.shape[0] * K * k_i)
            Qk_loc, _ = par_tsqr(comm, Yr)
        Bk = par_qt_a(comm, Qk_loc, A_local)
        Qloc = np.concatenate([Qloc, Qk_loc], axis=1)
        B = np.concatenate([B, Bk], axis=0)
        K += k_i
        E -= float(np.vdot(Bk, Bk).real)
        if np.sqrt(max(E, 0.0)) < tol * np.sqrt(a_fro_sq):
            converged = True
        if checkpointing and it % max(checkpoint_every, 1) == 0:
            qblocks = comm.gather(Qloc, root=0)
            _write_spmd_checkpoint(comm, {
                "kind": "spmd_randqb_ei", "nprocs": comm.nprocs, "K": K,
                "E": E, "converged": converged, "afrosq": a_fro_sq,
                "B": B, "Qblocks": qblocks,
                "rngstate": rng.bit_generator.state
                if comm.rank == 0 else None,
            }, checkpoint_path, checkpoint_callback)
        if converged:
            break
    return Qloc, B, K, converged


def spmd_lu_crtp(comm: SimComm, A, *, k: int = 16, tol: float = 1e-2,
                 max_rank: int | None = None, threshold: float = 0.0,
                 kernel_tier: str | None = None,
                 checkpoint_path=None, checkpoint_every: int = 1,
                 checkpoint_callback=None, resume_from=None):
    """Algorithm 2 (Algorithm 3 when ``threshold > 0``) as a rank program.

    ``A^(i)`` lives in a block-cyclic column distribution; the column
    tournament reduces locally then over the binary tree, and its final
    broadcast carries the ``k`` winning columns with their ids.  Every rank
    then runs the k-column steps itself on those same bytes: CholQR2 of the
    winners (``Q_k``), the row tournament on row blocks of ``Q_k``, the
    ``A11``/``A21`` split of the winners and ``F = A21 A11^{-1}``.  ``F``
    is replicated, not row-distributed, because every rank needs all of it
    for its column slice of the Schur update, and a row block's solve need
    not reproduce the bits of the whole.  Every rank splits its own
    non-winner columns into ``A12``/``A22`` in one window pass and runs the
    Schur update column-local.  Per iteration that is the tournament's
    point-to-point rounds and broadcast, the row tournament's allgather and
    the indicator allreduce (plus the checkpoint gather when
    checkpointing).  The winners reach rank 0 over the point-to-point
    rounds, so each owner compares the broadcast copy of its own winning
    columns with its block; the allgather carries the verdict, and on a
    mismatch every rank raises
    :class:`~repro.exceptions.PayloadIntegrityError` before any block is
    updated.  The rank-local steps are :class:`repro.core.LU_CRTP`'s own:
    the :func:`repro.kernels.window_split` / ``permuted_blocks`` window
    kernels and :func:`repro.core.lu_crtp.schur_multipliers`.

    Every rank returns ``(achieved_rank, converged, rel_indicator)``;
    factors are validated through the indicator (the sequential solver is
    the reference for factor values).

    With ``checkpoint_path`` (or ``checkpoint_callback``), rank 0 gathers
    every rank's active block and persists the run state once per
    ``checkpoint_every`` iterations; ``resume_from`` restores each rank's
    exact block, so a run killed by a rank crash and re-launched on the
    surviving state reaches the same ``tau`` at the same rank bound as an
    uninterrupted run.
    """
    A = ensure_csc(A)
    m, n = A.shape
    max_rank = min(max_rank or min(m, n), min(m, n))
    # Each rank resolves the tier itself: under the procs backend this is
    # the lazy per-process load of the cached kernel .so, under the threads
    # backend the memoized in-process handle.  Dispatch scratch is
    # thread-local, so per-rank Schur products never share buffers.
    from .. import kernels
    tier = kernels.resolve_tier(kernel_tier)
    if comm.rank == 0:
        kernels.record_tier(tier)
    checkpointing = (checkpoint_path is not None
                     or checkpoint_callback is not None)
    if resume_from is None:
        local, local_ids = own_col_block(A, comm.nprocs, comm.rank,
                                         block=max(2 * k, 1))
        local = local.tocsc()
        local_ids = local_ids.astype(np.intp)

        a_fro_sq = float(comm.allreduce_sum(
            np.array([fro_norm_sq(local)]))[0])
        K = 0
        converged = False
        ind_sq = a_fro_sq
        active_rows = np.arange(m)  # global rows still active, current order
    else:
        st = _load_spmd_checkpoint(comm, resume_from, "spmd_lu_crtp")
        local = st["blocks"][comm.rank].tocsc()
        local_ids = np.asarray(st["idsets"][comm.rank], dtype=np.intp)
        a_fro_sq = float(st["afrosq"])
        K = int(st["K"])
        converged = bool(st["converged"])
        ind_sq = float(st["indsq"])
        active_rows = np.asarray(st["activerows"])
    a_fro = np.sqrt(a_fro_sq)

    it = 0
    while not converged and K < max_rank:
        it += 1
        # max_rank <= min(m, n) also bounds the m - K active rows and the
        # n - K active columns the local blocks partition
        k_i = min(k, max_rank - K)
        if k_i <= 0:
            break
        winner_ids, sel, _ = par_tournament_columns(comm, local, local_ids,
                                                    k_i, tier=tier)
        won = np.isin(local_ids, winner_ids)
        # the winners reached rank 0 over point-to-point sends; each owner
        # checks its own against the broadcast copy, and the row
        # tournament's allgather carries the verdict
        altered = _altered_winners(sel, winner_ids, local, local_ids, won)

        # every rank runs the k-column steps on the broadcast winners:
        # the same bytes and the same kernels give the same bits everywhere
        comm.kernel("sparse_qr")
        Qk, _, _ = cholqr2(sel, tier=tier)
        comm.charge_flops(4.0 * sel.nnz * k_i + 8.0 * k_i ** 3)

        # row tournament on Q_k^T: each rank owns a block of rows
        comm.kernel("row_qr_tp")
        rranges = block_ranges(Qk.shape[0], comm.nprocs)
        rlo, rhi = rranges[comm.rank]
        if rhi - rlo >= 1:
            loc_res = qr_tp_rows(Qk[rlo:rhi], min(k_i, rhi - rlo))
            comm.charge_flops(loc_res.stats.total_flops)
            cand = rlo + loc_res.winners
        else:
            cand = np.zeros(0, dtype=np.intp)
        gathered = comm.allgather((cand, altered))
        bad = tuple(r for r, g in enumerate(gathered) if g[1])
        if bad:
            raise PayloadIntegrityError(
                f"iteration {it}: winning columns of rank(s) {list(bad)} "
                f"arrived altered in the tournament's broadcast",
                ranks=bad, iteration=it)
        all_cand = np.concatenate([g[0] for g in gathered])
        fin = qr_tp_rows(Qk[all_cand], k_i)
        row_winners = all_cand[fin.winners]

        # permute rows (winners first) and split the local non-winner
        # columns at k_i in one pass; ``local`` itself stays unpermuted and
        # ``active_rows`` tracks the order; A11/A21 from the winners
        comm.kernel("permute_rows")
        mask = np.zeros(len(active_rows), dtype=bool)
        mask[row_winners] = True
        new_order = np.concatenate([row_winners, np.flatnonzero(~mask)])
        A12_loc, A22_loc = kernels.window_split(
            local, np.flatnonzero(~won), new_order, k_i, tier=tier)
        comm.charge_mem(16.0 * local.nnz)
        active_rows = active_rows[new_order]
        A11, _, A21, _ = kernels.permuted_blocks(
            sel, np.arange(k_i), new_order, k_i, tier=tier)

        # F = A21 A11^{-1}, replicated: every rank needs all of it
        comm.kernel("solve")
        F = schur_multipliers(A11, A21, iteration=it,
                              drop_below=_KEEP_NONZERO)
        f_rows = np.count_nonzero(np.diff(A21.indptr))
        if f_rows:
            comm.charge_flops(2.0 * k_i * k_i * f_rows)

        # Schur update of the local non-winner columns
        comm.kernel("schur")
        # tol=0.0 is exactly the old ``.tocsc()`` + ``eliminate_zeros()``
        # composition (drop_explicit_zeros with tol=0 only prunes stored
        # zeros); the native tier fuses the whole chain
        S_loc = kernels.schur_update_csc(A22_loc, F, A12_loc,
                                         tol=0.0, tier=tier)
        comm.charge_flops(2.0 * F.nnz * max(A12_loc.nnz, 1) / max(k_i, 1))
        if threshold > 0 and S_loc.nnz:
            S_loc = kernels.apply_threshold_mask(
                S_loc, np.abs(S_loc.data) < threshold, tier=tier)
        local = S_loc
        local_ids = local_ids[~won]
        active_rows = active_rows[k_i:]
        K += k_i

        ind_sq = float(comm.allreduce_sum(
            np.array([fro_norm_sq(local)]))[0])
        if np.sqrt(ind_sq) < tol * a_fro:
            converged = True
        if checkpointing and it % max(checkpoint_every, 1) == 0:
            gathered = comm.gather((local_ids, local), root=0)
            _write_spmd_checkpoint(comm, {
                "kind": "spmd_lu_crtp", "nprocs": comm.nprocs, "K": K,
                "converged": converged, "indsq": ind_sq,
                "afrosq": a_fro_sq, "activerows": active_rows,
                "idsets": [np.asarray(g[0]) for g in gathered]
                if comm.rank == 0 else None,
                "blocks": [g[1].tocsc() for g in gathered]
                if comm.rank == 0 else None,
            }, checkpoint_path, checkpoint_callback)
    rel = float(np.sqrt(max(ind_sq, 0.0)) / a_fro) if K else 1.0
    return K, converged, rel


def _altered_winners(sel, winner_ids: np.ndarray, local,
                     local_ids: np.ndarray, won: np.ndarray) -> int:
    """1 when a winning column this rank owns (``won`` over its local
    columns) differs in the broadcast ``sel`` from the rank's own copy,
    else 0.

    The winners' values travel to rank 0 over the tournament's
    point-to-point sends, where a payload fault can reach them; every
    winner has exactly one owner, so the owners' checks cover them all.
    """
    cols = np.flatnonzero(won)
    if cols.size == 0:
        return 0
    order = np.argsort(winner_ids)
    pos = order[np.searchsorted(winner_ids, local_ids[cols], sorter=order)]
    mine = extract_leading_columns(local, cols)
    theirs = extract_leading_columns(sel, pos)
    same = (np.array_equal(mine.indptr, theirs.indptr)
            and np.array_equal(mine.indices, theirs.indices)
            and np.array_equal(mine.data, theirs.data, equal_nan=True))
    return 0 if same else 1


def spmd_randubv(comm: SimComm, A, *, k: int = 16, tol: float = 1e-2,
                 seed: int = 0, max_rank: int | None = None):
    """RandUBV as a rank program — the parallel implementation the paper's
    §VI-B motivates as future work.

    ``A`` is row-distributed; ``V`` blocks are replicated (they are
    ``n x k``); ``U`` blocks are row-distributed; both orthogonalizations
    run through TSQR.  Every rank returns ``(U_local, B, V, rank,
    converged)`` with ``B``/``V`` replicated.
    """
    m, n = A.shape
    ranges = block_ranges(m, comm.nprocs)
    lo, hi = ranges[comm.rank]
    A_local = own_row_block(A, comm.nprocs, comm.rank)
    max_rank = min(max_rank or min(m, n), min(m, n))
    rng = np.random.default_rng(seed) if comm.rank == 0 else None

    a_fro_sq = float(comm.allreduce_sum(
        np.array([fro_norm_sq(A_local)]))[0])
    E = a_fro_sq

    Vj = comm.bcast(
        orth(rng.standard_normal((n, k))) if comm.rank == 0 else None,
        root=0)
    V = Vj.copy()
    Uloc = np.zeros((hi - lo, 0))
    Rblocks: list[np.ndarray] = []
    Lblocks: list[np.ndarray] = []
    Lprev = np.zeros((k, k))
    K = 0
    converged = False
    while K < max_rank:
        W = par_spmm_rowdist(comm, A_local, Vj)
        if K > 0:
            comm.kernel("gemm_update")
            W = W - Uloc[:, K - k:K] @ Lprev
            W = W - Uloc @ comm.allreduce_sum(Uloc.T @ W)
        Uj_loc, Rj = par_tsqr(comm, W)
        Uloc = np.concatenate([Uloc, Uj_loc], axis=1)
        Rblocks.append(Rj)
        K += k
        E -= float(np.vdot(Rj, Rj).real)
        if np.sqrt(max(E, 0.0)) < tol * np.sqrt(a_fro_sq):
            converged = True
            break
        if K >= max_rank:
            break
        # V_{j+1} L_j^T = qr(A^T U_j - V_j R_j^T) with full reorth of V
        Z = par_qt_a(comm, Uj_loc, A_local).T  # replicated (n, k)
        comm.kernel("reorth_v")
        Z = Z - Vj @ Rj.T
        for _ in range(2):
            Z = Z - V @ (V.T @ Z)
        Vnext, LjT = np.linalg.qr(Z, mode="reduced")
        comm.charge_flops(4.0 * n * k * k / comm.nprocs)
        Lj = LjT.T
        V = np.concatenate([V, Vnext], axis=1)
        Lblocks.append(Lj)
        E -= float(np.vdot(Lj, Lj).real)
        Vj = Vnext
        Lprev = Lj

    nb = len(Rblocks)
    ncols = nb + (1 if len(Lblocks) == nb else 0)
    B = np.zeros((nb * k, ncols * k))
    for j, Rj in enumerate(Rblocks):
        B[j * k:(j + 1) * k, j * k:(j + 1) * k] = Rj
    for j, Lj in enumerate(Lblocks):
        B[j * k:(j + 1) * k, (j + 1) * k:(j + 2) * k] = Lj
    return Uloc, B, V[:, :B.shape[1]], K, converged


# ---------------------------------------------------------------------------
# Front door for the serving layer: run a method through the SPMD runtime by
# registry name and assemble a LowRankApproximation from the rank results.
# ---------------------------------------------------------------------------

@one_blas_thread()
def run_spmd_solver(method: str, A, nprocs: int, *, k: int = 16,
                    tol: float = 1e-2, power: int = 0, seed: int = 0,
                    max_rank: int | None = None, threshold: float = 0.0,
                    backend: str = "threads", kernel_tier: str = "auto",
                    run_info: dict | None = None,
                    **run_kwargs):
    """Run one registered method on ``nprocs`` simulated ranks.

    Dispatches through the :mod:`repro.api` registry (any alias works),
    executes the matching rank program under :func:`repro.parallel.comm.
    run_spmd` and assembles the distributed outputs into the same result
    types the sequential solvers return:

    - ``randqb`` → :class:`repro.results.QBApproximation` (``Q`` gathered
      from the row-distributed blocks, ``B`` replicated),
    - ``ubv`` → :class:`repro.results.UBVApproximation`,
    - ``lu`` → a summary-only :class:`repro.results.LUApproximation`
      (the SPMD LU program validates through the indicator and does not
      ship factors back),
    - ``ilut`` → the ``lu`` program with ``threshold > 0`` (Algorithm 3);
      requires an explicit threshold since heuristic (24) needs the
      sequential pre-run.

    ``backend`` selects the SPMD execution backend (``"threads"`` or
    ``"procs"``, see :func:`repro.parallel.comm.run_spmd`); when the caller
    passes a ``run_info`` dict it is filled in place with the run's
    metadata (``backend``, ``comm`` volume summary, ``wall_seconds``,
    modeled ``elapsed`` and ``kernel_seconds``) for reporting; on the
    procs backend also each rank process's peak resident set in MB under
    ``"rank_peak_rss_mb"``.  With ``trace=True`` it also carries the
    captured :class:`repro.trace.CommTrace` under ``"trace"`` and the
    per-rank ledger dicts under ``"ledgers"``.  ``run_kwargs`` pass through to
    ``run_spmd`` (``machine=``, ``trace=``, ``fault_plan=``,
    ``recv_timeout=``, ...).  Like every library call it runs BLAS
    single-threaded, the parent-side assembly included (see
    :mod:`repro.kernels.threads`).
    """
    from ..api import resolve_method
    from ..results import LUApproximation, QBApproximation, UBVApproximation
    from .comm import run_spmd

    def finish(out: dict):
        if run_info is not None:
            for key in ("backend", "comm", "wall_seconds", "elapsed",
                        "kernel_seconds"):
                run_info[key] = out.get(key)
            for key in ("trace", "ledgers", "rank_peak_rss_mb"):
                if key in out:
                    run_info[key] = out[key]
        return out

    name = resolve_method(method)
    a_fro_sq = fro_norm_sq(A)
    a_fro = float(np.sqrt(a_fro_sq))
    if name == "randqb":
        out = finish(run_spmd(nprocs, spmd_randqb_ei, A, k=k, tol=tol,
                              power=power, seed=seed, max_rank=max_rank,
                              backend=backend, **run_kwargs))
        Q = np.vstack([r[0] for r in out["results"]])
        B = out["results"][0][1]
        K, converged = out["results"][0][2], out["results"][0][3]
        e_sq = max(a_fro_sq - float(np.vdot(B, B).real), 0.0)
        return QBApproximation(rank=int(K), tolerance=tol,
                               indicator=float(np.sqrt(e_sq)), a_fro=a_fro,
                               converged=bool(converged), Q=Q, B=B)
    if name == "ubv":
        out = finish(run_spmd(nprocs, spmd_randubv, A, k=k, tol=tol,
                              seed=seed, max_rank=max_rank, backend=backend,
                              **run_kwargs))
        U = np.vstack([r[0] for r in out["results"]])
        _, B, V, K, converged = out["results"][0]
        e_sq = max(a_fro_sq - float(np.vdot(B, B).real), 0.0)
        return UBVApproximation(rank=int(K), tolerance=tol,
                                indicator=float(np.sqrt(e_sq)), a_fro=a_fro,
                                converged=bool(converged), U=U, Bmat=B, V=V)
    if name == "ilut" and not threshold > 0.0:
        raise ValueError(
            "the SPMD ILUT route needs an explicit threshold (mu); "
            "heuristic (24) requires a sequential pre-run")
    out = finish(run_spmd(nprocs, spmd_lu_crtp, A, k=k, tol=tol,
                          max_rank=max_rank, threshold=threshold,
                          kernel_tier=kernel_tier,
                          backend=backend, **run_kwargs))
    K, converged, rel = out["results"][0]
    from ..kernels import resolve_tier
    res = LUApproximation(rank=int(K), tolerance=tol,
                          indicator=float(rel) * a_fro, a_fro=a_fro,
                          converged=bool(converged), threshold=threshold,
                          factor_nnz_stored=0,
                          kernel_tier=resolve_tier(kernel_tier))
    return res
