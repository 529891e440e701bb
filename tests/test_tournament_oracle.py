"""QR_TP against a from-scratch tournament, bit for bit.

The solver-level parity tests run the library's own ``qr_tp`` on both
sides, so they cannot see a tournament fault.  The oracle here plays
the reduction tree on its own: every match gathers its candidates with
scipy fancy indexing, forms the Gram matrix ``(B.T @ B).toarray()`` from
scratch, factors it with ``np.linalg.cholesky`` and pivots the factor
with ``scipy.linalg.qr(..., pivoting=True)``; a Cholesky breakdown
pivots the densified block instead.  ``qr_tp`` must reproduce the
permutation, the winners, the bits of ``r11_diag`` and every
``MatchRecord`` — which pins the per-level Gram dispatch, the assembly
of parent Grams from the children's sub-Grams, the tree schedule and the
direct LAPACK call together.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from repro import kernels
from repro.core.lu_crtp import LU_CRTP
from repro.linalg.qrcp import strong_rrqr
from repro.pivoting.select import selection_flops
from repro.pivoting.tournament import MatchRecord, qr_tp

TIERS = ["pure", pytest.param("native", marks=pytest.mark.skipif(
    not kernels.native_available(), reason="native kernel tier unavailable"))]


def _oracle_match(A, cand, k, stage, strong, method):
    """One match from scratch: ``(winners, |diag R|, record, fell back)``."""
    B = A[:, cand]
    c = len(cand)
    small, fallback = None, method == "dense"
    if method == "gram":
        try:
            small = np.linalg.cholesky((B.T @ B).toarray()).T
            flops = selection_flops(B.nnz, c, method="gram")
        except np.linalg.LinAlgError:
            fallback = True
    if small is None:
        small = B.toarray()
        flops = selection_flops(small.size, c, method="dense")
    k = min(k, c)
    if strong and k < min(small.shape):
        _, R, piv = strong_rrqr(small, k)
    else:
        R, piv = sla.qr(small, mode="r", pivoting=True)
    rec = MatchRecord(stage=stage, candidates=c, nnz=B.nnz, flops=flops,
                      bytes_exchanged=16 * B.nnz)
    return cand[piv[:k]], np.abs(np.diag(R)), rec, fallback


def oracle_qr_tp(A, k, *, tree="binary", leaf_cols=None, strong=False,
                 method="gram"):
    """QR_TP written out plainly: ``(perm, winners, r11, records,
    fallbacks)``."""
    n = A.shape[1]
    k = min(k, n)
    leaf_cols = leaf_cols or 2 * k
    records, fallbacks = [], 0
    r11 = None

    def match(cand, stage):
        nonlocal r11, fallbacks
        win, r11, rec, fb = _oracle_match(A, cand, k, stage, strong, method)
        records.append(rec)
        fallbacks += fb
        return win

    level = [match(np.arange(s, min(s + leaf_cols, n)), "leaf")
             for s in range(0, n, leaf_cols)]
    if tree == "flat":
        acc = level[0]
        for t, nxt in enumerate(level[1:], start=1):
            acc = match(np.concatenate([acc, nxt]), f"round{t}")
        winners = acc
    else:
        t = 1
        while len(level) > 1:
            nxt = []
            for i in range(0, len(level), 2):
                if i + 1 < len(level):
                    nxt.append(match(np.concatenate(level[i:i + 2]),
                                     f"round{t}"))
                else:
                    nxt.append(level[i])  # bye
            level, t = nxt, t + 1
        winners = level[0]
    losers = np.setdiff1d(np.arange(n), winners)
    return (np.concatenate([winners, losers]), winners, r11, records,
            fallbacks)


def _graded(m, n, seed, *, idx=np.int32, empty_cols=()):
    """Sparse CSC with graded column scales (a clear pivot order), some
    columns left empty (their Gram rows are zero: Cholesky breaks)."""
    rng = np.random.default_rng(seed)
    A = sp.random(m, n, density=0.15, random_state=rng,
                  data_rvs=rng.standard_normal, format="csc")
    A = (A @ sp.diags(np.logspace(0, -6, n))).tocsc()
    A = A.tolil()
    for j in empty_cols:
        A[:, j] = 0.0
    A = A.tocsc()
    A.eliminate_zeros()
    A.sort_indices()
    A.indices = A.indices.astype(idx)
    A.indptr = A.indptr.astype(idx)
    return A


def _assert_same(res, oracle):
    perm, winners, r11, records, _ = oracle
    assert np.array_equal(res.perm, perm)
    assert np.array_equal(res.winners, winners)
    assert res.r11_diag.shape == r11.shape
    assert res.r11_diag.tobytes() == r11.tobytes()
    assert res.stats.matches == records


@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize("tree", ["binary", "flat"])
@pytest.mark.parametrize("idx", [np.int32, np.int64])
def test_tree_shapes_match_oracle(tier, tree, idx):
    # n = 95, k = 5: ten leaves, the last one 5 columns wide (narrower
    # than 2k); the binary tree meets byes at 5 and 3 contenders
    A = _graded(70, 95, 1, idx=idx)
    res = qr_tp(A, 5, tree=tree, tier=tier)
    oracle = oracle_qr_tp(A, 5, tree=tree)
    _assert_same(res, oracle)
    assert len(res.stats.leaf_matches) == 10


@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize("n,k", [(8, 5), (6, 9)])
def test_single_leaf_and_k_at_least_n(tier, n, k):
    A = _graded(30, n, 2)
    res = qr_tp(A, k, tier=tier)
    _assert_same(res, oracle_qr_tp(A, k))
    assert len(res.stats.matches) == 1


@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize("tree", ["binary", "flat"])
def test_cholesky_breakdown_matches_oracle(tier, tree):
    # empty columns in two leaves: those leaf Grams are singular and the
    # matches pivot the dense block; their winners' sub-Grams still feed
    # the next round
    A = _graded(60, 48, 3, empty_cols=(2, 3, 17))
    oracle = oracle_qr_tp(A, 4, tree=tree, leaf_cols=8)
    assert oracle[4] > 0
    _assert_same(qr_tp(A, 4, tree=tree, leaf_cols=8, tier=tier), oracle)


@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize("method", ["gram", "dense"])
def test_strong_and_dense_method_match_oracle(tier, method):
    A = _graded(50, 40, 4)
    for strong in (False, True):
        res = qr_tp(A, 4, strong=strong, method=method, tier=tier)
        _assert_same(res, oracle_qr_tp(A, 4, strong=strong, method=method))


@pytest.mark.parametrize("tier", TIERS)
def test_discarded_columns_match_oracle(tier):
    # LU_CRTP's discard rule runs the tournament on the surviving columns
    # only and maps the winners back
    A = _graded(60, 50, 5)
    solver = LU_CRTP(k=4, discard_small_columns=1e-3)
    solver._kernel_tier_resolved = tier
    res = solver._column_tournament(A, 4)
    norms = np.asarray(A.multiply(A).sum(axis=0)).ravel()
    cand = np.flatnonzero(norms >= 1e-6 * norms.max())
    assert 4 <= cand.size < 50
    _, winners, r11, records, _ = oracle_qr_tp(A[:, cand], 4)
    assert np.array_equal(res.winners, cand[winners])
    assert res.r11_diag.tobytes() == r11.tobytes()
    assert res.stats.matches == records
