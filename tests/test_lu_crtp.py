"""Tests for repro.core.lu_crtp (Algorithm 2)."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro import LU_CRTP, lu_crtp
from repro.exceptions import ConvergenceError


def test_converges_and_indicator_is_exact(small_sparse):
    res = lu_crtp(small_sparse, k=8, tol=1e-2)
    assert res.converged
    # indicator (9) == ||P_r A P_c - L U||_F exactly
    assert res.error(small_sparse) == pytest.approx(
        res.relative_indicator(), rel=1e-8)


def test_factors_shapes_and_structure(small_sparse):
    res = lu_crtp(small_sparse, k=8, tol=1e-2)
    K = res.rank
    assert res.L.shape == (60, K)
    assert res.U.shape == (K, 60)
    Ld = res.L.toarray()
    # unit diagonal staircase: L[j, j] == 1 on each block's identity part
    assert np.allclose(np.diag(Ld[:K, :K]), 1.0)
    # L is lower "block-trapezoidal": zero above each block's diagonal
    assert np.allclose(np.triu(Ld[:K, :K], k=1), 0.0)


def test_u_is_block_upper(small_sparse):
    """U has the block staircase of line 11: block i occupies rows
    i*k..(i+1)*k and columns i*k..n — everything left of the block diagonal
    is zero (block-level, not elementwise)."""
    k = 8
    res = lu_crtp(small_sparse, k=k, tol=1e-2)
    Ud = res.U.toarray()
    for i in range(res.rank // k):
        block_rows = Ud[i * k:(i + 1) * k, :i * k]
        assert np.allclose(block_rows, 0.0), f"block {i} leaks left"


def test_permutations_are_permutations(small_sparse):
    res = lu_crtp(small_sparse, k=8, tol=1e-2)
    assert sorted(res.row_perm.tolist()) == list(range(60))
    assert sorted(res.col_perm.tolist()) == list(range(60))


def test_permutation_matrices(small_sparse):
    res = lu_crtp(small_sparse, k=8, tol=1e-2)
    Pr, Pc = res.permutation_matrices()
    Ad = small_sparse.toarray()
    np.testing.assert_allclose((Pr @ Ad @ Pc),
                               Ad[np.ix_(res.row_perm, res.col_perm)])


def test_exact_rank_recovery(rank_deficient):
    """On an exactly rank-12 matrix, LU_CRTP stops at rank <= 16 (one block
    over) with tiny error."""
    res = lu_crtp(rank_deficient, k=4, tol=1e-10)
    assert res.converged
    assert res.rank <= 16
    assert res.error(rank_deficient) < 1e-10


def test_indicator_monotone_decreasing(small_sparse):
    res = lu_crtp(small_sparse, k=4, tol=1e-2)
    ind = res.history.indicators
    assert all(a >= b - 1e-12 for a, b in zip(ind, ind[1:]))


def test_colamd_off(small_sparse):
    res = lu_crtp(small_sparse, k=8, tol=1e-2, use_colamd=False)
    assert res.converged
    assert res.error(small_sparse) == pytest.approx(
        res.relative_indicator(), rel=1e-8)


def test_colamd_every_iteration(small_sparse):
    res = lu_crtp(small_sparse, k=8, tol=1e-2, colamd_every_iteration=True)
    assert res.converged
    assert res.error(small_sparse) == pytest.approx(
        res.relative_indicator(), rel=1e-8)


@pytest.mark.parametrize("tree", ["binary", "flat"])
def test_tree_shapes(small_sparse, tree):
    res = lu_crtp(small_sparse, k=8, tol=1e-2, tree=tree)
    assert res.converged


def test_orthogonal_l_formula(small_sparse):
    res = lu_crtp(small_sparse, k=8, tol=1e-2, l_formula="orthogonal")
    assert res.converged
    assert res.error(small_sparse) == pytest.approx(
        res.relative_indicator(), rel=1e-6)


def test_orthogonal_formula_denser_factors(small_sparse):
    """The stable L computation introduces additional fill (§II-B3)."""
    schur = lu_crtp(small_sparse, k=8, tol=1e-2, l_formula="schur")
    orth = lu_crtp(small_sparse, k=8, tol=1e-2, l_formula="orthogonal")
    assert orth.L.nnz >= schur.L.nnz


def test_auto_l_formula(small_sparse):
    res = lu_crtp(small_sparse, k=8, tol=1e-2, l_formula="auto")
    assert res.converged


def test_max_rank_cap(small_sparse):
    res = lu_crtp(small_sparse, k=8, tol=1e-12, max_rank=16)
    assert res.rank <= 16
    assert not res.converged


def test_raise_on_failure(small_sparse):
    with pytest.raises(ConvergenceError):
        lu_crtp(small_sparse, k=8, tol=1e-12, max_rank=8,
                raise_on_failure=True)


def test_rectangular_matrices(rng):
    from repro.matrices.generators import random_graded
    for shape in ((80, 50), (50, 80)):
        A = random_graded(*shape, nnz_per_row=5, decay_rate=6.0, seed=3)
        res = lu_crtp(A, k=8, tol=1e-2)
        assert res.converged
        assert res.error(A) == pytest.approx(res.relative_indicator(),
                                             rel=1e-6)


def test_history_carries_trace(small_sparse):
    res = lu_crtp(small_sparse, k=8, tol=1e-2)
    tr = res.history[0].extra["trace"]
    for key in ("m_i", "n_i", "active_nnz", "col_nnz", "schur_flops"):
        assert key in tr
    assert tr["m_i"] == 60
    assert len(tr["col_nnz"]) == tr["n_i"]


def test_deterministic(small_sparse):
    r1 = lu_crtp(small_sparse, k=8, tol=1e-2)
    r2 = lu_crtp(small_sparse, k=8, tol=1e-2)
    assert r1.rank == r2.rank
    np.testing.assert_array_equal(r1.col_perm, r2.col_perm)
    np.testing.assert_allclose(r1.L.toarray(), r2.L.toarray())


def test_last_block_smaller_than_k(rng):
    """n not divisible by k: the final iteration uses a smaller block."""
    from repro.matrices.generators import random_graded
    A = random_graded(30, 30, nnz_per_row=4, decay_rate=1.0, seed=5)
    res = lu_crtp(A, k=8, tol=1e-14, max_rank=30,
                  stop_at_numerical_rank=False)
    assert res.rank == 30


def test_invalid_params():
    with pytest.raises(ValueError):
        LU_CRTP(k=0)
    with pytest.raises(ValueError):
        LU_CRTP(l_formula="bogus")


def test_strong_rrqr_variant(small_sparse):
    res = lu_crtp(small_sparse, k=8, tol=1e-2, strong_rrqr=True)
    assert res.converged


def test_identity_matrix():
    A = sp.identity(20, format="csc")
    res = lu_crtp(A, k=4, tol=1e-1)
    # identity has flat spectrum: needs nearly full rank
    assert res.rank >= 18 or res.converged


def test_column_discarding_preserves_quality(small_sparse):
    """Cayrols-style candidate discarding changes only pivot-search work:
    the result still converges to the tolerance."""
    dis = lu_crtp(small_sparse, k=8, tol=1e-2, discard_small_columns=1e-3)
    assert dis.converged
    assert dis.error(small_sparse) < 1e-2
    assert sorted(dis.col_perm.tolist()) == list(range(60))


def test_column_discarding_fallback_when_too_aggressive(small_sparse):
    """A cutoff excluding almost everything falls back to the full set."""
    dis = lu_crtp(small_sparse, k=8, tol=1e-2, discard_small_columns=0.999)
    assert dis.converged


def test_householder_qr_engine(small_sparse):
    """The sparse-Householder QR engine (SuiteSparseQR counterpart) yields
    the same-quality factorization as CholeskyQR2."""
    hh = lu_crtp(small_sparse, k=8, tol=1e-2, qr_engine="householder")
    ch = lu_crtp(small_sparse, k=8, tol=1e-2)
    assert hh.converged
    assert hh.rank == ch.rank
    assert hh.error(small_sparse) == pytest.approx(
        hh.relative_indicator(), rel=1e-8)
