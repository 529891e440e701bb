"""The SPMD LU rank program against frozen copies of its scipy spelling.

``spmd_lu_crtp`` runs LU_CRTP's own rank-local steps: the
``repro.kernels.window_split`` / ``permuted_blocks`` window kernels, the
``extract_leading_columns`` gathers and ``schur_multipliers`` for F.  The
oracle below is the same rank program written with scipy slicing: a
materialized ``local[new_order].tocsc()`` row permute, fancy column
slices, and F assembled through ``lil_matrix`` — tournament included.
Both run through the same ``run_spmd``; results, modeled clocks and the
per-rank comm ledgers must agree bit for bit.

Both follow the lean schedule: the tournament's final broadcast carries
the winning columns and every rank runs the k-column steps (CholQR2, the
``A11``/``A21`` split, F) itself.  ``reference_spmd_lu_crtp`` keeps the
earlier rank-0 schedule (winners gathered on rank 0, which alone ran
those steps and broadcast ``Q_k``, ``A11`` and ``F``) as a results
reference: the lean schedule must reproduce its ``(K, converged, rel)``
bits, while clocks and ledgers legitimately differ.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.linalg.norms import fro_norm_sq
from repro.parallel.comm import SimComm, run_spmd
from repro.parallel.distribution import block_ranges, own_col_block
from repro.parallel.spmd import spmd_lu_crtp
from repro.pivoting.select import select_columns
from repro.pivoting.tournament import qr_tp
from repro.sparse.utils import ensure_csc


def _oracle_tournament(comm: SimComm, local_block, local_ids, k, *,
                       tier=None, ship_columns=True):
    """``par_tournament_columns`` with scipy fancy column slicing; with
    ``ship_columns=False`` the final broadcast carries only the ids and
    ``r_diag``, as in the rank-0 schedule."""
    comm.kernel("col_qr_tp")
    nloc = local_block.shape[1]
    r_diag = np.zeros(0)
    if nloc == 0:
        cand_ids = np.zeros(0, dtype=np.intp)
        cand_cols = sp.csc_matrix((local_block.shape[0], 0))
    else:
        res = qr_tp(local_block, min(k, nloc), method="gram", tier=tier)
        comm.charge_flops(res.stats.total_flops)
        cand_ids = np.asarray(local_ids, dtype=np.intp)[res.winners]
        cand_cols = local_block[:, res.winners]
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
                    other_ids, other_cols = comm.recv(partner, tag=t)
                    merged = sp.hstack([cand_cols, other_cols], format="csc")
                    ids = np.concatenate([cand_ids, other_ids])
                    if merged.shape[1] > 0:
                        sel = select_columns(merged, min(k, merged.shape[1]),
                                             method="gram", tier=tier)
                        comm.charge_flops(sel.flops)
                        cand_ids = ids[sel.winners]
                        cand_cols = merged[:, sel.winners]
                        r_diag = sel.r_diag
            else:
                partner = comm.rank - step
                comm.send((cand_ids, cand_cols), partner, tag=t)
                alive = False
        t += 1
    if not ship_columns:
        winner_ids, r_diag = comm.bcast(
            (cand_ids, r_diag) if comm.rank == 0 else None, root=0)
        return np.asarray(winner_ids, dtype=np.intp), r_diag
    winner_ids, winner_cols, r_diag = comm.bcast(
        (cand_ids, cand_cols, r_diag) if comm.rank == 0 else None, root=0)
    return np.asarray(winner_ids, dtype=np.intp), winner_cols, r_diag


def _rank_in(ids, reference):
    pos = {int(v): i for i, v in enumerate(reference)}
    return np.array([pos[int(v)] for v in ids], dtype=np.intp)


def reference_spmd_lu_crtp(comm: SimComm, A, *, k=16, tol=1e-2,
                           max_rank=None, threshold=0.0, kernel_tier=None):
    """The rank-0 schedule with the scipy composition for lines 8-12
    (checkpointing left out): a results reference only."""
    from repro import kernels
    from repro.linalg.cholqr import cholqr2
    from repro.pivoting.tournament import qr_tp_rows
    A = ensure_csc(A)
    m, n = A.shape
    max_rank = min(max_rank or min(m, n), min(m, n))
    tier = kernels.resolve_tier(kernel_tier)
    local, local_ids = own_col_block(A, comm.nprocs, comm.rank,
                                     block=max(2 * k, 1))
    local = local.tocsc()
    local_ids = local_ids.astype(np.intp)
    a_fro_sq = float(comm.allreduce_sum(np.array([fro_norm_sq(local)]))[0])
    K = 0
    converged = False
    ind_sq = a_fro_sq
    active_rows = np.arange(m)
    a_fro = np.sqrt(a_fro_sq)
    while not converged and K < max_rank:
        total_cols = int(comm.allreduce_sum(np.array([local.shape[1]]))[0])
        k_i = min(k, len(active_rows), total_cols, max_rank - K)
        if k_i <= 0:
            break
        winner_ids, _ = _oracle_tournament(comm, local, local_ids, k_i,
                                           tier=tier, ship_columns=False)
        mine = np.isin(local_ids, winner_ids)
        payload = (local_ids[mine], local[:, np.flatnonzero(mine)])
        gathered = comm.gather(payload, root=0)
        if comm.rank == 0:
            ids = np.concatenate([g[0] for g in gathered])
            cols = sp.hstack([g[1] for g in gathered], format="csc")
            order = np.argsort(_rank_in(ids, winner_ids))
            sel = cols[:, order]
            Qk, _, _ = cholqr2(sel, tier=tier)
            comm.kernel("sparse_qr")
            comm.charge_flops(4.0 * sel.nnz * k_i + 8.0 * k_i ** 3)
        else:
            Qk = None
        Qk = comm.bcast(Qk, root=0)

        comm.kernel("row_qr_tp")
        rranges = block_ranges(Qk.shape[0], comm.nprocs)
        rlo, rhi = rranges[comm.rank]
        if rhi - rlo >= 1:
            loc_res = qr_tp_rows(Qk[rlo:rhi], min(k_i, rhi - rlo))
            comm.charge_flops(loc_res.stats.total_flops)
            cand = rlo + loc_res.winners
        else:
            cand = np.zeros(0, dtype=np.intp)
        all_cand = np.concatenate(comm.allgather(cand))
        fin = qr_tp_rows(Qk[all_cand], k_i)
        row_winners = all_cand[fin.winners]

        comm.kernel("permute_rows")
        mask = np.zeros(len(active_rows), dtype=bool)
        mask[row_winners] = True
        new_order = np.concatenate([row_winners, np.flatnonzero(~mask)])
        local = local[new_order].tocsc()
        comm.charge_mem(16.0 * local.nnz)
        active_rows = active_rows[new_order]

        if comm.rank == 0:
            sel_perm = sel[new_order].tocsc()
            A11 = sel_perm[:k_i].toarray()
            A21 = sel_perm[k_i:].tocsr()
        else:
            A11 = None
        A11 = comm.bcast(A11, root=0)

        if comm.rank == 0:
            comm.kernel("solve")
            rows = np.flatnonzero(np.diff(A21.indptr))
            F = sp.lil_matrix((A21.shape[0], k_i))
            if rows.size:
                F[rows] = np.linalg.solve(A11.T, A21[rows].toarray().T).T
                comm.charge_flops(2.0 * k_i * k_i * rows.size)
            F = F.tocsr()
        else:
            F = None
        F = comm.bcast(F, root=0)

        comm.kernel("schur")
        keep = ~np.isin(local_ids, winner_ids)
        rest = local[:, np.flatnonzero(keep)]
        A12_loc = rest[:k_i].tocsr()
        A22_loc = rest[k_i:].tocsr()
        S_loc = kernels.schur_update_csc(A22_loc, F, A12_loc,
                                         tol=0.0, tier=tier)
        comm.charge_flops(2.0 * F.nnz * max(A12_loc.nnz, 1) / max(k_i, 1))
        if threshold > 0 and S_loc.nnz:
            S_loc = kernels.apply_threshold_mask(
                S_loc, np.abs(S_loc.data) < threshold, tier=tier)
        local = S_loc
        local_ids = local_ids[keep]
        active_rows = active_rows[k_i:]
        K += k_i

        ind_sq = float(comm.allreduce_sum(
            np.array([fro_norm_sq(local)]))[0])
        if np.sqrt(ind_sq) < tol * a_fro:
            converged = True
        if converged:
            break
        if len(active_rows) == 0 or total_cols - k_i == 0:
            break
    rel = float(np.sqrt(max(ind_sq, 0.0)) / a_fro) if K else 1.0
    return K, converged, rel


def oracle_spmd_lu_crtp(comm: SimComm, A, *, k=16, tol=1e-2, max_rank=None,
                        threshold=0.0, kernel_tier=None):
    """The lean schedule with the scipy composition for lines 8-12
    (checkpointing left out): every rank runs CholQR2, the ``A11``/``A21``
    split and F on the broadcast winners."""
    from repro import kernels
    from repro.linalg.cholqr import cholqr2
    from repro.pivoting.tournament import qr_tp_rows
    A = ensure_csc(A)
    m, n = A.shape
    max_rank = min(max_rank or min(m, n), min(m, n))
    tier = kernels.resolve_tier(kernel_tier)
    local, local_ids = own_col_block(A, comm.nprocs, comm.rank,
                                     block=max(2 * k, 1))
    local = local.tocsc()
    local_ids = local_ids.astype(np.intp)
    a_fro_sq = float(comm.allreduce_sum(np.array([fro_norm_sq(local)]))[0])
    K = 0
    converged = False
    ind_sq = a_fro_sq
    active_rows = np.arange(m)
    a_fro = np.sqrt(a_fro_sq)
    while not converged and K < max_rank:
        k_i = min(k, max_rank - K)
        if k_i <= 0:
            break
        winner_ids, sel, _ = _oracle_tournament(comm, local, local_ids, k_i,
                                                tier=tier)
        comm.kernel("sparse_qr")
        Qk, _, _ = cholqr2(sel, tier=tier)
        comm.charge_flops(4.0 * sel.nnz * k_i + 8.0 * k_i ** 3)

        comm.kernel("row_qr_tp")
        rranges = block_ranges(Qk.shape[0], comm.nprocs)
        rlo, rhi = rranges[comm.rank]
        if rhi - rlo >= 1:
            loc_res = qr_tp_rows(Qk[rlo:rhi], min(k_i, rhi - rlo))
            comm.charge_flops(loc_res.stats.total_flops)
            cand = rlo + loc_res.winners
        else:
            cand = np.zeros(0, dtype=np.intp)
        # each rank's verdict on its own winners rides along; it is 0 on
        # a run without payload faults
        all_cand = np.concatenate([g[0] for g in comm.allgather((cand, 0))])
        fin = qr_tp_rows(Qk[all_cand], k_i)
        row_winners = all_cand[fin.winners]

        comm.kernel("permute_rows")
        mask = np.zeros(len(active_rows), dtype=bool)
        mask[row_winners] = True
        new_order = np.concatenate([row_winners, np.flatnonzero(~mask)])
        local = local[new_order].tocsc()
        comm.charge_mem(16.0 * local.nnz)
        active_rows = active_rows[new_order]
        sel_perm = sel[new_order].tocsc()
        A11 = sel_perm[:k_i].toarray()
        A21 = sel_perm[k_i:].tocsr()

        comm.kernel("solve")
        rows = np.flatnonzero(np.diff(A21.indptr))
        F = sp.lil_matrix((A21.shape[0], k_i))
        if rows.size:
            F[rows] = np.linalg.solve(A11.T, A21[rows].toarray().T).T
            comm.charge_flops(2.0 * k_i * k_i * rows.size)
        F = F.tocsr()

        comm.kernel("schur")
        keep = ~np.isin(local_ids, winner_ids)
        rest = local[:, np.flatnonzero(keep)]
        A12_loc = rest[:k_i].tocsr()
        A22_loc = rest[k_i:].tocsr()
        S_loc = kernels.schur_update_csc(A22_loc, F, A12_loc,
                                         tol=0.0, tier=tier)
        comm.charge_flops(2.0 * F.nnz * max(A12_loc.nnz, 1) / max(k_i, 1))
        if threshold > 0 and S_loc.nnz:
            S_loc = kernels.apply_threshold_mask(
                S_loc, np.abs(S_loc.data) < threshold, tier=tier)
        local = S_loc
        local_ids = local_ids[keep]
        active_rows = active_rows[k_i:]
        K += k_i

        ind_sq = float(comm.allreduce_sum(
            np.array([fro_norm_sq(local)]))[0])
        if np.sqrt(ind_sq) < tol * a_fro:
            converged = True
    rel = float(np.sqrt(max(ind_sq, 0.0)) / a_fro) if K else 1.0
    return K, converged, rel


@pytest.fixture(scope="module")
def A120():
    from repro.matrices.generators import random_graded
    return random_graded(120, 120, nnz_per_row=7, decay_rate=7.0, seed=21)


def _run(program, A, nprocs, backend, **kw):
    return run_spmd(nprocs, program, A, backend=backend, trace=True, **kw)


def _assert_same_run(ref, got):
    assert ref["results"] == got["results"]
    for a, b in zip(ref["results"], got["results"]):
        assert np.float64(a[2]).tobytes() == np.float64(b[2]).tobytes()
    assert [float(c) for c in ref["clocks"]] == \
        [float(c) for c in got["clocks"]]
    assert ref["ledgers"] == got["ledgers"]
    assert ref["comm"]["bytes_sent"] == got["comm"]["bytes_sent"]
    assert ref["comm"]["msgs"] == got["comm"]["msgs"]


@pytest.mark.parametrize("threshold", [0.0, 1e-3], ids=["lu", "threshold"])
@pytest.mark.parametrize("backend", ["threads", "procs"])
@pytest.mark.parametrize("nprocs", [1, 2, 4])
def test_rank_program_matches_scipy_oracle(A120, nprocs, backend, threshold):
    kw = dict(k=8, tol=1e-2, threshold=threshold)
    ref = _run(oracle_spmd_lu_crtp, A120, nprocs, backend, **kw)
    got = _run(spmd_lu_crtp, A120, nprocs, backend, **kw)
    _assert_same_run(ref, got)
    assert got["results"][0][0] > 0


@pytest.mark.parametrize("tier", ["pure", "native"])
def test_rank_program_matches_oracle_with_fill(tier):
    """The filled-in M2 analogue: dense Schur panels, ILUT drops."""
    from repro.kernels import native_available
    if tier == "native" and not native_available():
        pytest.skip("native kernel tier unavailable on this host")
    from repro.matrices import suite_matrix
    A = suite_matrix("M2", scale=0.35)
    kw = dict(k=8, tol=1e-2, threshold=0.1, kernel_tier=tier)
    ref = _run(oracle_spmd_lu_crtp, A, 2, "threads", **kw)
    got = _run(spmd_lu_crtp, A, 2, "threads", **kw)
    _assert_same_run(ref, got)


@pytest.mark.parametrize("case", ["lu", "threshold", "filled_m2"])
@pytest.mark.parametrize("backend", ["threads", "procs"])
@pytest.mark.parametrize("nprocs", [1, 2, 4])
def test_lean_schedule_keeps_the_reference_results(A120, nprocs, backend,
                                                   case):
    """Replicating the k-column steps moves clocks and ledgers, never the
    ``(K, converged, rel)`` bits of the rank-0 schedule."""
    A, kw = A120, dict(k=8, tol=1e-2)
    if case == "threshold":
        kw["threshold"] = 1e-3
    elif case == "filled_m2":
        from repro.matrices import suite_matrix
        A, kw["threshold"] = suite_matrix("M2", scale=0.35), 0.1
    ref = run_spmd(nprocs, reference_spmd_lu_crtp, A, backend=backend, **kw)
    got = run_spmd(nprocs, spmd_lu_crtp, A, backend=backend, **kw)
    assert ref["results"] == got["results"]
    for a, b in zip(ref["results"], got["results"]):
        assert np.float64(a[2]).tobytes() == np.float64(b[2]).tobytes()


@pytest.mark.parametrize("nprocs", [2, 4])
def test_lean_schedule_ledger(A120, nprocs):
    """Per iteration no gather, and no broadcast of ``Q_k``, ``A11`` or F:
    the only broadcast is the tournament's (``col_qr_tp``)."""
    out = run_spmd(nprocs, spmd_lu_crtp, A120, k=8, tol=1e-2, trace=True)
    assert out["results"][0][0] > 0
    for ledger in out["ledgers"]:
        ops = {key.split("|", 1)[1] for key in ledger}
        assert "gather" not in ops, ledger
        for kernel in ("sparse_qr", "permute_rows", "solve"):
            assert f"{kernel}|bcast" not in ledger, ledger
