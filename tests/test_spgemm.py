"""Tests for repro.sparse.spgemm (exact SpGEMM flop accounting)."""

import numpy as np
import scipy.sparse as sp

from repro.sparse.spgemm import spgemm_flops


def rand_sparse(m, n, density, seed):
    rng = np.random.default_rng(seed)
    return sp.random(m, n, density=density, random_state=rng,
                     data_rvs=rng.standard_normal).tocsc()


def test_flops_reporting():
    A = rand_sparse(20, 15, 0.3, 6)
    B = rand_sparse(15, 10, 0.3, 7)
    # exact count: 2 * sum_k nnz(A[:,k]) * nnz(B[k,:])
    a_colnnz = np.diff(A.indptr)
    b_rownnz = np.bincount(B.tocsc().indices, minlength=15)
    expected = 2.0 * np.dot(a_colnnz, b_rownnz)
    assert spgemm_flops(A, B) == expected
    # format-agnostic: CSR operands count the same products
    assert spgemm_flops(A.tocsr(), B.tocsr()) == expected
