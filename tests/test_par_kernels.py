"""Tests for repro.parallel.kernels — SPMD kernels vs sequential references."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.parallel.comm import run_spmd
from repro.parallel.distribution import (
    block_ranges,
    partition_cols_csc,
    partition_rows_csr,
)
from repro.parallel.kernels import (
    par_qt_a,
    par_spmm_rowdist,
    par_tournament_columns,
    par_tsqr,
)


@pytest.mark.parametrize("nprocs", [1, 2, 4])
def test_par_tsqr_matches_sequential(rng, nprocs):
    A = rng.standard_normal((64, 6))

    def prog(comm):
        lo, hi = block_ranges(64, comm.nprocs)[comm.rank]
        Qloc, R = par_tsqr(comm, A[lo:hi])
        return Qloc, R

    out = run_spmd(nprocs, prog)
    Q = np.vstack([r[0] for r in out["results"]])
    R = out["results"][0][1]
    np.testing.assert_allclose(Q @ R, A, atol=1e-10)
    assert np.linalg.norm(Q.T @ Q - np.eye(6)) < 1e-10
    # R replicated across ranks
    for _, Rr in out["results"]:
        np.testing.assert_allclose(Rr, R)


def test_par_tsqr_requires_tall(rng):
    A = rng.standard_normal((4, 6))

    def prog(comm):
        par_tsqr(comm, A)

    with pytest.raises(ValueError):
        run_spmd(2, prog)


def test_par_spmm(small_sparse, rng):
    B = rng.standard_normal((60, 5))

    def prog(comm):
        loc = partition_rows_csr(small_sparse, comm.nprocs)[comm.rank]
        return par_spmm_rowdist(comm, loc, B)

    out = run_spmd(3, prog)
    Y = np.vstack(out["results"])
    np.testing.assert_allclose(Y, small_sparse @ B, atol=1e-12)


def test_par_qt_a(small_sparse, rng):
    Q = np.linalg.qr(rng.standard_normal((60, 4)))[0]

    def prog(comm):
        ranges = block_ranges(60, comm.nprocs)
        lo, hi = ranges[comm.rank]
        loc = partition_rows_csr(small_sparse, comm.nprocs)[comm.rank]
        return par_qt_a(comm, Q[lo:hi], loc)

    out = run_spmd(4, prog)
    ref = Q.T @ small_sparse.toarray()
    for res in out["results"]:
        np.testing.assert_allclose(res, ref, atol=1e-10)


@pytest.mark.parametrize("nprocs", [1, 2, 4])
def test_par_tournament_selects_quality(rng, nprocs):
    from repro.matrices.generators import random_graded
    A = random_graded(60, 48, nnz_per_row=5, decay_rate=8.0, seed=7)
    k = 6

    def prog(comm):
        blocks, ids = partition_cols_csc(A, comm.nprocs, block=2 * k)
        return par_tournament_columns(
            comm, blocks[comm.rank].tocsc(), ids[comm.rank], k)

    out = run_spmd(nprocs, prog)
    winners, _, r_diag = out["results"][0]
    assert winners.size == k
    assert r_diag.size >= 1
    # replicated result
    for w, _, _ in out["results"]:
        np.testing.assert_array_equal(w, winners)
    # quality: winners span the dominant subspace within an RRQR factor
    D = A.toarray()
    Q, _ = np.linalg.qr(D[:, winners])
    resid = np.linalg.norm(D - Q @ (Q.T @ D), 2)
    s = np.linalg.svd(D, compute_uv=False)
    assert resid <= 50 * s[k]


def test_par_tournament_matches_sequential_single_rank(rng):
    from repro.matrices.generators import random_graded
    from repro.pivoting.tournament import qr_tp
    A = random_graded(40, 32, nnz_per_row=4, decay_rate=6.0, seed=2)
    k = 4

    def prog(comm):
        blocks, ids = partition_cols_csc(A, comm.nprocs, block=2 * k)
        return par_tournament_columns(
            comm, blocks[comm.rank].tocsc(), ids[comm.rank], k)

    out = run_spmd(1, prog)
    winners, _, _ = out["results"][0]
    seq = qr_tp(A, k, leaf_cols=2 * k)
    np.testing.assert_array_equal(np.sort(winners), np.sort(seq.winners))


def test_par_tournament_empty_rank(rng):
    """More ranks than column blocks: some ranks own zero columns."""
    A = sp.csc_matrix(rng.standard_normal((10, 4)))
    k = 2

    def prog(comm):
        blocks, ids = partition_cols_csc(A, comm.nprocs, block=2 * k)
        return par_tournament_columns(
            comm, blocks[comm.rank].tocsc(), ids[comm.rank], k)

    out = run_spmd(4, prog)
    winners, _, _ = out["results"][0]
    assert winners.size == k


@pytest.mark.parametrize("nprocs", [1, 2, 3, 4])
def test_par_tournament_returns_the_winning_columns(nprocs):
    """The final broadcast carries ``A[:, winner_ids]`` to every rank, a
    rank that owns no columns included (three column blocks at P=4)."""
    from repro.matrices.generators import random_graded
    A = random_graded(30, 24, nnz_per_row=5, decay_rate=6.0, seed=11).tocsc()
    k = 4

    def prog(comm):
        blocks, ids = partition_cols_csc(A, comm.nprocs, block=2 * k)
        return (blocks[comm.rank].shape[1],) + par_tournament_columns(
            comm, blocks[comm.rank].tocsc(), ids[comm.rank], k)

    out = run_spmd(nprocs, prog)
    if nprocs == 4:
        assert out["results"][3][0] == 0
    for _, winners, cols, _ in out["results"]:
        ref = A[:, winners]
        assert winners.size == k
        assert cols.format == "csc" and cols.shape == ref.shape
        for part in ("data", "indices", "indptr"):
            np.testing.assert_array_equal(getattr(cols, part),
                                          getattr(ref, part))
