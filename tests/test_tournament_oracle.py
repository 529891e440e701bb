"""QR_TP against a from-scratch tournament, bit for bit.

The solver-level parity tests run the library's own ``qr_tp`` on both
sides, so they cannot see a tournament fault.  The oracle here plays
the reduction tree on its own, one match at a time: every match gathers
its candidates with fancy indexing, forms the Gram matrix
``(B.T @ B).toarray()`` from scratch, factors it with
``np.linalg.cholesky`` and pivots the factor with
``scipy.linalg.qr(..., pivoting=True)``; a Cholesky breakdown pivots the
densified block instead, and a dense input (the row tournament's
``Q_k^T``) always pivots its block.  ``qr_tp`` and ``qr_tp_rows`` must
reproduce the permutation, the winners, the bits of ``r11_diag``, every
``MatchRecord`` and the breakdown count — which pins the per-level Gram
dispatch, the stacked Cholesky and QRCP of a level, the assembly of
parent Grams from the children's sub-Grams, the tree schedule and the
LAPACK calls together.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from repro import kernels
from repro.core.lu_crtp import LU_CRTP
from repro.linalg.qrcp import strong_rrqr
from repro.pivoting.select import select_columns, selection_flops
from repro.pivoting.tournament import MatchRecord, qr_tp, qr_tp_rows

TIERS = ["pure", pytest.param("native", marks=pytest.mark.skipif(
    not kernels.native_available(), reason="native kernel tier unavailable"))]


def _oracle_match(A, cand, k, stage, strong, method):
    """One match from scratch: ``(winners, |diag R|, record, fell back)``.
    A dense ``A`` pivots its block ``A[:, cand]`` (``rows x c`` stored
    entries, dense flops); a sparse one its Gram factor, or its densified
    block on a breakdown."""
    B = A[:, cand]
    c = len(cand)
    nnz = B.size if isinstance(A, np.ndarray) else B.nnz
    small, fallback = None, False
    if method == "gram" and sp.issparse(A):
        try:
            small = np.linalg.cholesky((B.T @ B).toarray()).T
            flops = selection_flops(nnz, c, method="gram")
        except np.linalg.LinAlgError:
            fallback = True
    if small is None:
        small = B.toarray() if sp.issparse(B) else np.array(B, dtype=float)
        flops = selection_flops(small.size, c, method="dense")
    k = min(k, c)
    if strong and k < min(small.shape):
        _, R, piv = strong_rrqr(small, k)
    else:
        R, piv = sla.qr(small, mode="r", pivoting=True)
    rec = MatchRecord(stage=stage, candidates=c, nnz=nnz, flops=flops,
                      bytes_exchanged=16 * nnz)
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
    perm, winners, r11, records, fallbacks = oracle
    assert np.array_equal(res.perm, perm)
    assert np.array_equal(res.winners, winners)
    assert res.r11_diag.shape == r11.shape
    assert res.r11_diag.tobytes() == r11.tobytes()
    assert res.stats.matches == records
    assert res.stats.fallbacks == fallbacks


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


# ---------------------------------------------------------------------------
# the row tournament: dense Q_k^T blocks
# ---------------------------------------------------------------------------

def _rows(m, k, seed, *, zero_frac=0.0, dup=()):
    """An orthonormal-ish ``m x k`` block like ``Q_k``: ``zero_frac`` of
    its rows zero (rows outside the winners' sparsity), and each pair in
    ``dup`` a repeated row."""
    rng = np.random.default_rng(seed)
    Q = rng.standard_normal((m, k)) * np.logspace(0, -4, k)
    Q[rng.random(m) < zero_frac] = 0.0
    for src, dst in dup:
        Q[dst] = Q[src]
    return Q


@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize("tree", ["binary", "flat"])
@pytest.mark.parametrize("m,k,zero_frac,dup", [
    (160, 8, 0.0, ()),             # 2k-wide leaves, ten of them
    (150, 8, 0.0, ()),             # a short last leaf (6 rows)
    (80, 8, 0.0, ()),              # five leaves: byes at 5 and 3
    (5, 8, 0.0, ()),               # fewer rows than k: one narrow leaf
    (8, 8, 0.0, ()),               # exactly k rows
    (120, 16, 0.8, ()),            # mostly zero rows, as in a solve
    (96, 6, 0.0, ((3, 40), (3, 41), (50, 90))),  # duplicate rows
])
def test_row_tournament_matches_oracle(tier, tree, m, k, zero_frac, dup):
    Q = _rows(m, k, 11, zero_frac=zero_frac, dup=dup)
    res = qr_tp_rows(Q, k, tree=tree, tier=tier)
    oracle = oracle_qr_tp(Q.T, k, tree=tree, leaf_cols=max(2 * k, 1),
                          method="dense")
    _assert_same(res, oracle)
    assert all(rec.nnz == k * rec.candidates for rec in res.stats.matches)


@pytest.mark.parametrize("tier", TIERS)
def test_dense_input_column_tournament_matches_oracle(tier):
    # a dense matrix plays the dense route whatever the method asks
    A = _graded(40, 70, 6).toarray()
    for method in ("gram", "dense"):
        _assert_same(qr_tp(A, 5, method=method, tier=tier),
                     oracle_qr_tp(A, 5, method="dense"))


# ---------------------------------------------------------------------------
# a level's stacks: Cholesky breakdowns inside a stack
# ---------------------------------------------------------------------------

def _with_duplicate_pairs(A, leaves, leaf_cols=8):
    """In each leaf of ``leaves``, columns 1 and 2 become the same
    integer column ``3 e_r + 4 e_s`` on rows no other column of the leaf
    touches: the leaf Gram is exactly singular (Cholesky meets a zero
    pivot) while no candidate column is empty."""
    A = A.tolil()
    for leaf in leaves:
        cols = range(leaf * leaf_cols, (leaf + 1) * leaf_cols)
        r, s = 2 * leaf, 2 * leaf + 1
        for j in cols:
            A[r, j] = 0.0
            A[s, j] = 0.0
        for j in (cols[1], cols[2]):
            A[:, j] = 0.0
            A[r, j] = 3.0
            A[s, j] = 4.0
    A = A.tocsc()
    A.eliminate_zeros()
    A.sort_indices()
    return A


def _leaf_grams(A, leaf_cols=8):
    return np.stack([(A[:, s:s + leaf_cols].T @ A[:, s:s + leaf_cols])
                     .toarray() for s in range(0, A.shape[1], leaf_cols)])


def _factors(G):
    ok = []
    for g in G:
        try:
            np.linalg.cholesky(g)
            ok.append(True)
        except np.linalg.LinAlgError:
            ok.append(False)
    return np.array(ok)


@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize("tree", ["binary", "flat"])
def test_stack_mixing_clean_and_broken_grams_matches_oracle(tier, tree):
    A = _with_duplicate_pairs(_graded(60, 48, 7), leaves=(1, 4))
    G = _leaf_grams(A)
    ok = _factors(G)
    assert list(np.flatnonzero(~ok)) == [1, 4]
    assert np.diff(A.indptr).all()            # no empty column anywhere
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(G)                 # the stacked call raises
    oracle = oracle_qr_tp(A, 4, tree=tree, leaf_cols=8)
    assert oracle[4] >= 2
    _assert_same(qr_tp(A, 4, tree=tree, leaf_cols=8, tier=tier), oracle)


@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize("how", ["duplicates", "empty"])
def test_level_where_every_match_breaks_matches_oracle(tier, how):
    if how == "duplicates":
        A = _with_duplicate_pairs(_graded(60, 48, 8), leaves=range(6))
        assert np.diff(A.indptr).all()
    else:
        A = _graded(60, 48, 8, empty_cols=range(3, 48, 8))
    assert not _factors(_leaf_grams(A)).any()
    oracle = oracle_qr_tp(A, 4, leaf_cols=8)
    res = qr_tp(A, 4, leaf_cols=8, tier=tier)
    _assert_same(res, oracle)
    assert res.stats.fallbacks >= len(res.stats.leaf_matches) == 6


@pytest.mark.parametrize("tier", TIERS)
def test_breakdown_match_skips_the_eigh_square_root(tier, monkeypatch):
    # a Gram that does not factor pivots the dense block straight away:
    # no eigenvalue square root of the Gram is formed and thrown away
    A = _graded(60, 48, 3, empty_cols=(2, 3, 17))
    B = _with_duplicate_pairs(_graded(60, 48, 7), leaves=(1, 4))
    expected = {id(M): oracle_qr_tp(M, 4, leaf_cols=8) for M in (A, B)}

    def no_eigh(*args, **kwargs):
        raise AssertionError("np.linalg.eigh called on a breakdown match")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    for M in (A, B):
        _assert_same(qr_tp(M, 4, leaf_cols=8, tier=tier), expected[id(M)])
    sel = select_columns(B, 4, cols=np.arange(8, 16), tier=tier)
    win, r, rec, fallback = _oracle_match(B, np.arange(8, 16), 4, "leaf",
                                          False, "gram")
    assert sel.used_fallback and fallback
    assert np.array_equal(np.arange(8, 16)[sel.winners], win)
    assert sel.r_diag.tobytes() == r.tobytes()
    assert (sel.nnz, sel.flops) == (rec.nnz, rec.flops)


# ---------------------------------------------------------------------------
# concurrent tournaments (the threads SPMD backend's ranks)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("tier", TIERS)
def test_concurrent_tournaments_equal_serial_runs(tier):
    # four threads play at once, as threads-backend ranks do, each on its
    # own matrix and on its own row block; any scratch shared between
    # threads would mix their stacks
    mats = [_graded(90, 130 + 10 * i, 20 + i, empty_cols=(5 * i,))
            for i in range(4)]
    rows = [_rows(150 + 7 * i, 8, 30 + i, zero_frac=0.3) for i in range(4)]

    def work(i):
        return (qr_tp(mats[i], 8, tier=tier),
                qr_tp_rows(rows[i], 8, tier=tier))

    serial = [work(i) for i in range(4)]
    got: dict = {}
    barrier = threading.Barrier(4, timeout=60)

    def run(i):
        barrier.wait()
        got[i] = [work(i) for _ in range(5)]

    threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for i in range(4):
        for pair in got[i]:
            for res, ref in zip(pair, serial[i]):
                assert np.array_equal(res.perm, ref.perm)
                assert res.r11_diag.tobytes() == ref.r11_diag.tobytes()
                assert res.stats.matches == ref.stats.matches
