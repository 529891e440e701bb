"""Bitwise parity of the solver hot paths against their plain spellings.

The hot paths (index-window blocks, symbolic-free matmul, raw
constructors, fused thresholding, batched sketching, colamd argmin scan)
promise *identical values in identical canonical order* — not merely
"close".  These tests pin that contract at two levels:

- kernel level: each fast kernel equals its scipy/numpy composition;
- solver level: LU_CRTP and ILUT_CRTP equal the same driver loop running
  the test-side :class:`_ScipyIteration`, and RandQB_EI with batched
  sketches equals RandQB_EI drawing one sketch per iteration.

Agreement is exact (``== 0.0`` max difference, ``array_equal`` pivots,
``==`` indicator trajectories), so any future drift is a hard failure.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.ilut_crtp import ILUT_CRTP
from repro.core.lu_crtp import IterationArtifacts, LU_CRTP
from repro.core.randqb_ei import RandQB_EI
from repro.linalg.cholqr import cholqr2
from repro.pivoting.tournament import qr_tp_rows
from repro.sparse.ops import (csr_matmul_nosym, permute, permute_cols,
                              permute_rows, split_2x2)
from repro.sparse.thresholding import (apply_threshold_mask, drop_small,
                                       threshold_mask)
from repro.sparse.utils import drop_explicit_zeros, raw_csc, raw_csr
from repro.sparse.window import (csr_rows_to_dense, dense_rows_to_csr,
                                 extract_leading_columns, permuted_blocks)


def _m2_analogue(n, seed=1, density=0.02):
    rng = np.random.default_rng(seed)
    A = sp.random(n, n, density=density, random_state=rng, format="csc")
    return (A + sp.diags(np.linspace(1, 0.01, n), format="csc")).tocsc()


class _ScipyIteration:
    """Lines 5-12 of Algorithm 2 in plain scipy: materialized permutations,
    a ``lil_matrix`` F and scipy ``@`` for the Schur update (``l_formula``
    ``"schur"`` only).  Mixed in front of a solver class it replaces the
    index-window iteration and shares the rest of the driver loop."""

    def _iteration(self, active, k_i, i, r11_first):
        col_tp = self._column_tournament(active, k_i)
        Apc = permute_cols(active, col_tp.perm)
        Qk, _, _ = cholqr2(Apc[:, :k_i], tier="pure")
        row_tp = qr_tp_rows(Qk, k_i, tree=self.tree, tier="pure")
        A11, A12, A21, A22 = split_2x2(permute_rows(Apc, row_tp.perm), k_i)
        A21r = A21.tocsr()
        rows = np.flatnonzero(np.diff(A21r.indptr))
        F = sp.lil_matrix(A21.shape)
        if rows.size:
            # solve X A11 = A21[rows]  <=>  A11^T X^T = A21[rows]^T
            F[rows] = np.linalg.solve(A11.toarray().T,
                                      A21r[rows].toarray().T).T
        F = F.tocsr()
        F.data[np.abs(F.data) < 1e-300] = 0.0
        F.eliminate_zeros()
        schur = (A22 - F @ A12).tocsc()
        drop_explicit_zeros(schur, tol=self.zero_drop_tol)
        return IterationArtifacts(
            Lk=sp.vstack([sp.identity(k_i, format="csc"), F], format="csc"),
            Uk=sp.hstack([A11, A12], format="csr"), schur=schur,
            row_perm_local=row_tp.perm, col_perm_local=col_tp.perm,
            r11_diag=col_tp.r11_diag, tournament_stats=col_tp.stats,
            stats={})


class _RefLU(_ScipyIteration, LU_CRTP):
    pass


class _RefILUT(_ScipyIteration, ILUT_CRTP):
    pass


def _assert_same_result(r1, r2):
    assert np.array_equal(r1.row_perm, r2.row_perm)
    assert np.array_equal(r1.col_perm, r2.col_perm)
    assert r1.rank == r2.rank and r1.iterations == r2.iterations
    assert abs(r1.L - r2.L).max() == 0.0
    assert abs(r1.U - r2.U).max() == 0.0
    assert len(r1.history) == len(r2.history)
    for a, b in zip(r1.history, r2.history):
        assert a.indicator == b.indicator


# -- end-to-end solver parity ------------------------------------------------

@pytest.mark.parametrize("n,k", [(120, 8), (250, 16)])
def test_lu_crtp_matches_scipy_iteration(n, k):
    A = _m2_analogue(n)
    common = dict(k=k, tol=1e-6, max_rank=min(4 * k, n),
                  raise_on_failure=False)
    _assert_same_result(_RefLU(kernel_tier="pure", **common).solve(A),
                        LU_CRTP(**common).solve(A))


@pytest.mark.parametrize("n,k", [(120, 8), (250, 16)])
def test_ilut_crtp_matches_scipy_iteration(n, k):
    A = _m2_analogue(n)
    common = dict(k=k, tol=1e-6, max_rank=min(4 * k, n),
                  raise_on_failure=False, estimated_iterations=6)
    r_ref = _RefILUT(kernel_tier="pure", **common).solve(A)
    r_opt = ILUT_CRTP(**common).solve(A)
    _assert_same_result(r_ref, r_opt)


def test_ilut_crtp_parity_with_active_thresholding():
    """A loose tolerance makes mu large enough that entries really drop,
    so the Schur complements both iterations see carry the drops."""
    A = _m2_analogue(200, density=0.05)
    common = dict(k=16, tol=5e-2, max_rank=128, raise_on_failure=False,
                  estimated_iterations=4)
    r_ref = _RefILUT(kernel_tier="pure", **common).solve(A)
    r_opt = ILUT_CRTP(**common).solve(A)
    _assert_same_result(r_ref, r_opt)
    assert r_opt.threshold > 0
    assert sum(r.dropped_nnz for r in r_opt.history) > 0


@pytest.mark.parametrize("power", [0, 1])
def test_randqb_batched_sketch_bitwise_parity(power):
    """Batched Gaussian draws reproduce Algorithm 1's per-iteration stream:
    a checkpointed run (one draw per iteration) equals a plain run."""
    A = _m2_analogue(200, density=0.05)
    common = dict(k=16, tol=1e-4, power=power, seed=7, max_rank=96,
                  raise_on_failure=False)
    seen = []
    r_step = RandQB_EI(checkpoint_callback=seen.append, **common).solve(A)
    r_batch = RandQB_EI(**common).solve(A)
    assert seen, "checkpoint callback never fired"
    assert r_step.rank == r_batch.rank
    assert abs(r_step.Q - r_batch.Q).max() == 0.0
    assert abs(r_step.B - r_batch.B).max() == 0.0
    assert len(r_step.history) == len(r_batch.history)
    for a, b in zip(r_step.history, r_batch.history):
        assert a.indicator == b.indicator


# -- kernel-level parity -----------------------------------------------------

def test_permuted_blocks_matches_permute_split():
    A = _m2_analogue(150, seed=2, density=0.06)
    rng = np.random.default_rng(3)
    rp, cp = rng.permutation(150), rng.permutation(150)
    k = 24
    P = permute(A, rp, cp).tocsc()
    A11r, A12r, A21r, A22r = split_2x2(P, k)
    A11d, A12, A21, A22 = permuted_blocks(A, cp, rp, k)
    np.testing.assert_array_equal(A11d, A11r.toarray())  # A11 comes back dense
    for ref, opt in [(A12r, A12), (A21r, A21), (A22r, A22)]:
        assert ref.nnz == opt.nnz
        if ref.nnz:
            assert abs(ref - opt).max() == 0.0


def test_csr_matmul_nosym_matches_scipy():
    rng = np.random.default_rng(4)
    for m, k, n, d in [(50, 30, 40, 0.2), (200, 16, 200, 0.3),
                       (5, 5, 5, 0.8)]:
        A = sp.random(m, k, density=d, random_state=rng,
                      data_rvs=rng.standard_normal).tocsr()
        B = sp.random(k, n, density=d, random_state=rng,
                      data_rvs=rng.standard_normal).tocsr()
        C = csr_matmul_nosym(A, B)
        ref = A @ B
        assert C.shape == ref.shape
        assert abs(C - ref).max() == 0.0


def test_threshold_mask_matches_drop_small():
    rng = np.random.default_rng(5)
    S = sp.random(120, 120, density=0.3, random_state=rng,
                  data_rvs=rng.standard_normal).tocsc()
    for mu in (0.0, 1e-3, 0.5, 10.0):
        res = drop_small(S, mu)  # copies internally; S is not mutated
        M = S.copy()
        mask, d_nnz, d_sq, d_max = threshold_mask(M, mu)
        apply_threshold_mask(M, mask)
        assert d_nnz == res.dropped_nnz
        assert d_sq == res.dropped_norm_sq
        assert M.nnz == res.matrix.nnz
        if M.nnz:
            assert abs(M - res.matrix).max() == 0.0
        if d_nnz:
            assert 0 < d_max < mu


def test_raw_constructors_roundtrip():
    rng = np.random.default_rng(6)
    A = sp.random(40, 30, density=0.2, random_state=rng,
                  data_rvs=rng.standard_normal).tocsr()
    A.sort_indices()
    R = raw_csr(A.data, A.indices, A.indptr, A.shape)
    assert R.format == "csr" and R.shape == A.shape
    assert R.has_sorted_indices
    assert abs(R - A).max() == 0.0
    assert R.data is A.data  # no hidden copy

    C = A.tocsc()
    C.sort_indices()
    R2 = raw_csc(C.data, C.indices, C.indptr, C.shape)
    assert R2.format == "csc" and abs(R2 - C).max() == 0.0


def test_dense_roundtrip_through_window_helpers():
    rng = np.random.default_rng(7)
    A = sp.random(30, 25, density=0.3, random_state=rng,
                  data_rvs=rng.standard_normal).tocsr()
    rows = np.array([2, 7, 11, 29])
    D = csr_rows_to_dense(A, rows)
    np.testing.assert_array_equal(D, A[rows].toarray())
    S = dense_rows_to_csr(D, rows, 30)
    ref = sp.lil_matrix((30, 25))
    ref[rows] = D
    assert S.shape == (30, 25)
    assert abs(S - ref.tocsr()).max() == 0.0


def test_extract_leading_columns_matches_slicing():
    A = _m2_analogue(80, seed=8, density=0.1)
    cols = np.random.default_rng(9).permutation(80)[:12]
    E = extract_leading_columns(A, cols)
    ref = A[:, cols].tocsc()
    assert abs(E - ref).max() == 0.0


def test_colamd_scan_and_heap_agree():
    """The argmin-scan selection and the lazy-deletion heap are two
    implementations of the same lexicographic minimum — identical perms."""
    import importlib
    colamd_mod = importlib.import_module("repro.ordering.colamd")
    rng = np.random.default_rng(10)
    for _trial in range(5):
        A = sp.random(60, 60, density=0.08, random_state=rng,
                      format="csc")
        p_scan = colamd_mod.colamd(A)
        cutoff = colamd_mod._SCAN_CUTOFF
        try:
            colamd_mod._SCAN_CUTOFF = -1  # force the heap route
            p_heap = colamd_mod.colamd(A)
        finally:
            colamd_mod._SCAN_CUTOFF = cutoff
        assert np.array_equal(p_scan, p_heap)


def test_randqb_checkpointing_draws_one_sketch_per_iteration():
    """Checkpointed runs must not batch: each captured RNG state is the
    state after exactly ``iteration`` block draws, so a resume continues
    the same Gaussian stream."""
    A = _m2_analogue(150, density=0.05)
    seen = []
    RandQB_EI(k=8, tol=1e-4, seed=3, max_rank=64, raise_on_failure=False,
              checkpoint_callback=seen.append).solve(A)
    assert len(seen) > 1
    rng = np.random.default_rng(3)
    for state in seen:
        rng.standard_normal((A.shape[1], 8))
        assert state["rng_state"] == rng.bit_generator.state
