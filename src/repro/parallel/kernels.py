"""Executable SPMD kernels over :class:`repro.parallel.comm.SimComm`.

Each kernel is a rank-local function: it receives the rank's communicator
and *local* data block, performs real numerics, communicates through the
simulated collectives and charges modeled time.  They mirror the kernels the
paper's implementations are built from (Section V):

- :func:`par_tsqr` — tall-skinny QR over block rows (``El::qr::ExplicitTS``);
- :func:`par_spmm_rowdist` — 1-D row-distributed sparse x dense multiply
  (``El::Multiply``);
- :func:`par_qt_a` — ``B = Q^T A`` via local products + allreduce;
- :func:`par_tournament_columns` — QR_TP's local + binary-tree global
  reduction over a block-cyclic column distribution.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .. import perf
from ..exceptions import CommTimeoutError
from ..pivoting.select import select_columns
from ..pivoting.tournament import qr_tp
from ..sparse.window import extract_leading_columns
from . import sanitize
from .comm import SimComm


def par_tsqr(comm: SimComm, local_rows: np.ndarray
             ) -> tuple[np.ndarray, np.ndarray]:
    """TSQR across ranks: each rank holds a block of rows.

    Returns ``(Q_local, R)`` with ``R`` replicated; stacking the per-rank
    ``Q_local`` blocks gives the orthonormal factor of the stacked input.

    The reduction here is allgather-based (every rank redundantly folds the
    small ``c x c`` R factors) — numerically identical to the binary tree
    and the modeled communication cost charged is the tree's.
    """
    comm.kernel("tsqr")
    local_rows = np.asarray(local_rows, dtype=np.float64)
    rows, c = local_rows.shape
    if rows < c:
        raise ValueError("each rank needs at least c rows for par_tsqr")
    with perf.timer("tsqr"):
        Qloc, Rloc = np.linalg.qr(local_rows, mode="reduced")
    comm.charge_flops(2.0 * rows * c * c)
    perf.add_flops("tsqr", 2.0 * rows * c * c)
    rs = comm.allgather(Rloc)

    # fold the R factors pairwise, tracking the (c x c) transform each leaf's
    # Q must be multiplied by — identical logic to repro.linalg.tsqr
    levels = []
    current = list(rs)
    while len(current) > 1:
        nxt, level = [], []
        for i in range(0, len(current), 2):
            if i + 1 < len(current):
                stacked = np.vstack([current[i], current[i + 1]])
                Qab, Rab = np.linalg.qr(stacked, mode="reduced")
                comm.charge_flops(2.0 * stacked.shape[0] * c * c
                                  / comm.nprocs)  # redundant fold, amortized
                ra = current[i].shape[0]
                level.append((Qab[:ra], Qab[ra:]))
                nxt.append(Rab)
            else:
                level.append((np.eye(current[i].shape[0]), None))
                nxt.append(current[i])
        levels.append(level)
        current = nxt
    R = current[0]

    factors = [np.eye(c)]
    for level in reversed(levels):
        expanded = []
        for node, Fmat in zip(level, factors):
            top, bottom = node
            expanded.append(top @ Fmat)
            if bottom is not None:
                expanded.append(bottom @ Fmat)
        factors = expanded
    with perf.timer("tsqr"):
        Qfinal = Qloc @ factors[comm.rank]
    comm.charge_flops(2.0 * rows * c * c)
    perf.add_flops("tsqr", 2.0 * rows * c * c)
    return Qfinal, R


def par_spmm_rowdist(comm: SimComm, A_local: sp.csr_matrix,
                     B: np.ndarray) -> np.ndarray:
    """Row-distributed SpMM: rank holds rows of ``A``, ``B`` is replicated.

    Returns the corresponding rows of ``A @ B``.
    """
    comm.kernel("spmm")
    with perf.timer("spmm"):
        Y = A_local @ B
    comm.charge_flops(2.0 * A_local.nnz * B.shape[1])
    perf.add_flops("spmm", 2.0 * A_local.nnz * B.shape[1])
    return np.asarray(Y)


def par_qt_a(comm: SimComm, Q_local: np.ndarray, A_local: sp.csr_matrix
             ) -> np.ndarray:
    """``B = Q^T A`` with both factors row-distributed; result replicated.

    Local partial products are summed with an allreduce (the row splits of
    ``Q^T`` and ``A`` contract against each other).
    """
    comm.kernel("gemm_qta")
    with perf.timer("gemm_qta"):
        part = np.asarray(Q_local.T @ A_local)
    comm.charge_flops(2.0 * A_local.nnz * Q_local.shape[1])
    perf.add_flops("gemm_qta", 2.0 * A_local.nnz * Q_local.shape[1])
    return comm.allreduce_sum(part)


def par_tournament_columns(comm: SimComm, local_block: sp.csc_matrix,
                           local_ids: np.ndarray, k: int,
                           *, method: str = "gram",
                           tier: str | None = None
                           ) -> tuple[np.ndarray, sp.csc_matrix, np.ndarray]:
    """QR_TP over a block-cyclic column distribution (Section V).

    Stage 1 (local, no communication): each rank runs a full sequential
    tournament over its own columns, producing ``k`` local candidates.
    Stage 2 (global): binary-tree reduction; at round ``t`` rank pairs
    ``(r, r + 2^t)`` play one match — the loser ships its candidate columns
    (values + global ids) to the winner.  Rank 0 broadcasts the final
    winners in one message: their global ids, their columns (the
    candidates of the final match, which rank 0 already holds) and the
    match's ``r_diag``.

    Returns ``(winner_ids, winner_cols, r_diag)`` replicated on all ranks;
    ``winner_cols`` is the canonical CSC block of the distributed matrix's
    columns ``winner_ids``, in that order.  Under the threads backend every
    rank receives the same object, so ranks must treat it as read-only;
    ``REPRO_SANITIZE=1`` hands its buffers out with ``writeable=False``.
    """
    comm.kernel("col_qr_tp")
    nloc = local_block.shape[1]
    r_diag = np.zeros(0)
    if nloc == 0:
        cand_ids = np.zeros(0, dtype=np.intp)
        cand_cols = sp.csc_matrix((local_block.shape[0], 0))
    else:
        with perf.timer("col_qr_tp"):
            res = qr_tp(local_block, min(k, nloc), method=method, tier=tier)
        comm.charge_flops(res.stats.total_flops)
        perf.add_flops("col_qr_tp", res.stats.total_flops)
        cand_ids = np.asarray(local_ids, dtype=np.intp)[res.winners]
        cand_cols = extract_leading_columns(local_block, res.winners)
        r_diag = res.r11_diag

    nprocs = comm.nprocs
    alive = True
    t = 0
    while (1 << t) < nprocs:
        step = 1 << t
        if alive:
            if comm.rank % (2 * step) == 0:
                partner = comm.rank + step
                if partner < nprocs:
                    try:
                        other_ids, other_cols = comm.recv(partner, tag=t)
                    except CommTimeoutError as exc:
                        # name the tournament round so chaos tests (and CI
                        # logs) show *where* in the reduction tree the
                        # candidates went missing
                        raise CommTimeoutError(
                            f"tournament reduction round {t}: rank "
                            f"{comm.rank} never received candidates from "
                            f"rank {partner}", src=partner, dst=comm.rank,
                            tag=t, timeout=exc.timeout,
                            retries=exc.retries) from exc
                    merged = sp.hstack([cand_cols, other_cols], format="csc")
                    ids = np.concatenate([cand_ids, other_ids])
                    if merged.shape[1] > 0:
                        with perf.timer("col_qr_tp"):
                            sel = select_columns(merged,
                                                 min(k, merged.shape[1]),
                                                 method=method, tier=tier)
                        comm.charge_flops(sel.flops)
                        perf.add_flops("col_qr_tp", sel.flops)
                        cand_ids = ids[sel.winners]
                        cand_cols = extract_leading_columns(merged,
                                                            sel.winners)
                        r_diag = sel.r_diag
            else:
                partner = comm.rank - step
                comm.send((cand_ids, cand_cols), partner, tag=t)
                alive = False
        t += 1
    winner_ids, winner_cols, r_diag = comm.bcast(
        (cand_ids, cand_cols, r_diag) if comm.rank == 0 else None, root=0)
    if sanitize.enabled():
        for part in (winner_cols.data, winner_cols.indices,
                     winner_cols.indptr):
            part.flags.writeable = False
    return np.asarray(winner_ids, dtype=np.intp), winner_cols, r_diag
