"""Tests for repro.ordering (COLAMD, column etree, postorder, RCM)."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.ordering.colamd import colamd, dense_row_cut
from repro.ordering.etree import col_etree, colamd_preprocess, postorder
from repro.ordering.rcm import rcm
from repro.matrices.generators import grid_stiffness


def is_permutation(p, n):
    return sorted(np.asarray(p).tolist()) == list(range(n))


def qr_fill(A):
    """nnz of the R factor of a QR of A (the fill COLAMD targets)."""
    _, R = np.linalg.qr(A.toarray() if sp.issparse(A) else A)
    return int(np.sum(np.abs(R) > 1e-12))


def test_colamd_is_permutation(small_sparse):
    p = colamd(small_sparse)
    assert is_permutation(p, 60)


def test_colamd_reduces_fill_on_grid():
    A = grid_stiffness(8, 8, seed=1)
    p = colamd(A)
    assert qr_fill(A[:, p]) <= qr_fill(A)  # AMD should not hurt a grid


def test_colamd_beats_reverse_ordering():
    # dense-column arrow: eliminating the dense column first makes the R
    # factor dense; min-degree must push it (near-)last
    n = 30
    D = np.eye(n)
    D[:, 0] = 1.0
    A = sp.csc_matrix(D)
    p = colamd(A)
    # the dense column is kept to the very end (ties at the tail may order
    # it second-to-last)
    assert int(np.flatnonzero(p == 0)[0]) >= n - 2
    assert qr_fill(A[:, p]) < qr_fill(A)


def test_colamd_empty_and_tiny():
    assert colamd(sp.csc_matrix((0, 0))).size == 0
    p = colamd(sp.identity(3, format="csc"))
    assert is_permutation(p, 3)


def test_colamd_deterministic(small_sparse):
    np.testing.assert_array_equal(colamd(small_sparse), colamd(small_sparse))


def test_col_etree_matches_ata_etree(small_sparse):
    """Column etree of A == etree of A^T A (computed by definition)."""
    parent = col_etree(small_sparse)
    G = (small_sparse.T @ small_sparse).toarray()
    # reference etree of the symmetric matrix G via the standard algorithm
    n = G.shape[0]
    ref = np.full(n, -1)
    anc = np.full(n, -1)
    for k in range(n):
        for i in np.flatnonzero(G[:k, k] != 0):
            while i != -1 and i < k:
                nxt = anc[i]
                anc[i] = k
                if nxt == -1:
                    ref[i] = k
                i = nxt
    np.testing.assert_array_equal(parent, ref)


def test_col_etree_diagonal():
    parent = col_etree(sp.identity(5, format="csc"))
    np.testing.assert_array_equal(parent, [-1] * 5)


def test_postorder_is_valid():
    #      4
    #     / \
    #    2   3
    #   / \
    #  0   1
    parent = np.array([2, 2, 4, 4, -1])
    order = postorder(parent)
    pos = np.empty(5, dtype=int)
    pos[order] = np.arange(5)
    for v, p in enumerate(parent):
        if p != -1:
            assert pos[v] < pos[p], "child must precede parent"


def test_postorder_forest():
    parent = np.array([-1, 0, -1, 2])
    order = postorder(parent)
    assert is_permutation(order, 4)


def test_postorder_invalid_cycle():
    with pytest.raises(ValueError):
        postorder(np.array([1, 0]))  # 2-cycle is not a forest


def test_colamd_preprocess_is_permutation(small_sparse):
    p = colamd_preprocess(small_sparse)
    assert is_permutation(p, 60)


@pytest.mark.parametrize("tier", ["pure", "auto"])
def test_colamd_preprocess_is_colamd_then_etree_postorder(small_sparse, tier):
    # the paper's pipeline, spelled out: COLAMD, then the postorder of the
    # column etree of the COLAMD-permuted matrix
    p1 = colamd(small_sparse)
    p2 = postorder(col_etree(small_sparse.tocsc()[:, p1]))
    np.testing.assert_array_equal(
        colamd_preprocess(small_sparse, kernel_tier=tier), p1[p2])


def test_dense_row_cut():
    assert dense_row_cut(10) == 16
    assert dense_row_cut(100) == 50
    assert dense_row_cut(101) == 50
    assert dense_row_cut(100, dense_row_frac=0.25) == 25


def test_rcm_is_permutation(small_sparse):
    p = rcm(small_sparse)
    assert is_permutation(p, 60)


def test_rcm_reduces_bandwidth():
    rng = np.random.default_rng(0)
    # a random permutation of a banded matrix: RCM should recover low band
    n = 40
    B = sp.diags([np.ones(n - 1), np.ones(n), np.ones(n - 1)],
                 [-1, 0, 1]).tocsc()
    perm = rng.permutation(n)
    A = B[perm][:, perm].tocsc()
    p = rcm(A)
    Ap = A[p][:, p].toarray()
    rows, cols = np.nonzero(Ap)
    bw = int(np.max(np.abs(rows - cols)))
    assert bw <= 3


def test_rcm_rectangular(tall_sparse):
    p = rcm(tall_sparse)
    assert is_permutation(p, 40)


def test_nested_dissection_is_permutation(small_sparse):
    from repro.ordering.nested_dissection import nested_dissection
    p = nested_dissection(small_sparse, min_size=8)
    assert is_permutation(p, 60)


def test_nested_dissection_on_grid_reduces_fill():
    from repro.ordering.nested_dissection import nested_dissection
    A = grid_stiffness(10, 10, seed=2)
    p = nested_dissection(A, min_size=8)
    assert qr_fill(A[:, p].toarray()) <= qr_fill(A.toarray())


def test_nested_dissection_small_and_empty():
    from repro.ordering.nested_dissection import nested_dissection
    import scipy.sparse as _sp
    assert nested_dissection(_sp.csc_matrix((0, 0))).size == 0
    p = nested_dissection(_sp.identity(5, format="csc"), min_size=2)
    assert is_permutation(p, 5)


def test_nested_dissection_deterministic(small_sparse):
    from repro.ordering.nested_dissection import nested_dissection
    p1 = nested_dissection(small_sparse, min_size=8)
    p2 = nested_dissection(small_sparse, min_size=8)
    np.testing.assert_array_equal(p1, p2)
