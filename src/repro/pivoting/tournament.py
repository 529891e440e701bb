"""QR_TP — rank-revealing QR with tournament pivoting (Section II-B / V).

QR_TP finds the ``k`` "most linearly independent" columns of a matrix with a
reduction tree.  Leaves hold (at most) ``2k`` contiguous columns each and
select ``k`` local winners without any cross-leaf data movement — this is
the *local* reduction stage, embarrassingly parallel.  Winners then compete
pairwise up a binary tree (``log2(leaves)`` rounds — the *global* stage) or
sequentially against an accumulator (flat tree: a sequence of one-match
rounds).  The final match's winners are the global selection.

The tree is played level by level on column ids.  For a sparse matrix and
the default ``gram`` selection, one :func:`repro.kernels.gram_csc` dispatch
per level computes every match Gram straight from the matrix's CSC
arrays: the leaf self-Grams at level 0, and above it only the cross terms
``C = B1^T B2`` of sibling winner sets.  A parent match's Gram is
assembled as ``[[G1, C], [C^T, G2]]`` from its children's winner
sub-Grams: every Gram entry accumulates over ascending row index
independently of the other columns, so the assembled matrix is bitwise
identical to a from-scratch Gram of the merged block and pivot choices
are exactly reproducible.  A match then runs only Cholesky, QRCP and
bookkeeping; it gathers its candidate block only for the dense method or
when the Cholesky factorization breaks down and dense QRCP takes over.

The per-match statistics collected in :class:`TournamentStats` (stage,
candidate nnz, flops) are exactly what the simulated-parallel layer needs:
local-stage matches parallelize across ranks, global-stage rounds serialize
into ``log2 P`` communication steps (Fig. 4's scalability rolloff).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .. import kernels, perf
from ..sparse.utils import ensure_csc
from .select import select_columns


@dataclass
class MatchRecord:
    """Cost record of one tournament match."""

    stage: str            # "leaf" or "round<t>"
    candidates: int       # number of candidate columns entering the match
    nnz: int              # stored entries of the candidate block
    flops: float
    bytes_exchanged: int  # candidate-column payload a pairwise match moves


@dataclass
class TournamentStats:
    """All matches of one QR_TP invocation, grouped by stage."""

    matches: list[MatchRecord] = field(default_factory=list)

    def record(self, rec: MatchRecord) -> None:
        self.matches.append(rec)

    @property
    def leaf_matches(self) -> list[MatchRecord]:
        return [m for m in self.matches if m.stage == "leaf"]

    @property
    def rounds(self) -> int:
        return len({m.stage for m in self.matches if m.stage.startswith("round")})

    @property
    def total_flops(self) -> float:
        return sum(m.flops for m in self.matches)

    def stage_flops(self, stage: str) -> float:
        return sum(m.flops for m in self.matches if m.stage == stage)


@dataclass
class TournamentResult:
    """Outcome of QR_TP.

    Attributes
    ----------
    perm:
        Full column permutation (length ``n``): winners first (in pivot
        order), losers after in original relative order.  ``A[:, perm]`` is
        the matrix ``A P_c`` of Algorithm 2 line 5.
    winners:
        The ``k`` selected global column indices, ``perm[:k]``.
    r11_diag:
        ``|diag(R)|`` from the final match — ``r11_diag[0]`` is the
        ``|R^(1)(1,1)|`` estimate of ``||A||_2`` used by ILUT_CRTP's
        threshold heuristic (equations (23)/(24)).
    stats:
        Per-match cost records.
    """

    perm: np.ndarray
    winners: np.ndarray
    r11_diag: np.ndarray
    stats: TournamentStats


def _leaf_blocks(n: int, leaf_cols: int) -> list[np.ndarray]:
    return [np.arange(s, min(s + leaf_cols, n), dtype=np.intp)
            for s in range(0, n, leaf_cols)]


def _level_grams(A: sp.csc_matrix, left: list, right: list,
                 tier: str | None) -> list[np.ndarray]:
    """Every match Gram of one tree level, ``A[:, l].T @ A[:, r]`` per
    pair, in one kernel dispatch."""
    with perf.timer("gram"):
        grams = kernels.gram_csc(A, left, right, tier=tier)
        if perf.is_enabled():
            cnt = np.diff(A.indptr)
            perf.add_flops("gram", sum(
                2.0 * min(cnt[lo].sum() * len(ro), cnt[ro].sum() * len(lo))
                for lo, ro in zip(left, right)))
    return grams


@dataclass
class _Contender:
    """Winners of a match: global column ids, and (gram route) the match
    Gram with the winners' positions in it."""

    ids: np.ndarray
    gram: np.ndarray | None = None
    pos: np.ndarray | None = None

    def sub_gram(self) -> np.ndarray:
        return self.gram.take(self.pos, 0).take(self.pos, 1)


def _parent_gram(a: _Contender, b: _Contender, C: np.ndarray) -> np.ndarray:
    """``[[G_a, C], [C^T, G_b]]`` assembled from the children's winner
    sub-Grams and the cross term, entry for entry the values of
    ``np.block``."""
    c1, c2 = C.shape
    G = np.empty((c1 + c2, c1 + c2))
    G[:c1, :c1] = a.sub_gram()
    G[:c1, c1:] = C
    G[c1:, :c1] = C.T
    G[c1:, c1:] = b.sub_gram()
    return G


def qr_tp(A, k: int, *, tree: str = "binary", leaf_cols: int | None = None,
          method: str = "gram", strong: bool = False,
          tier: str | None = None) -> TournamentResult:
    """Tournament pivoting over the columns of ``A``.

    Parameters
    ----------
    A:
        Sparse (preferred) or dense matrix, shape ``(m, n)``.
    k:
        Number of columns to select (capped at ``min(m, n)`` callers' duty).
    tree:
        ``"binary"`` — pairwise reduction, ``log2`` rounds (the parallel
        shape); ``"flat"`` — sequential accumulator (the paper notes both
        have the same asymptotic cost, Section IV).
    leaf_cols:
        Columns per leaf; default ``2k`` as in the paper ("each process owns
        2k columns").
    method, strong:
        Passed through to :func:`repro.pivoting.select.select_columns`.
    tier:
        Kernel tier request threaded into every Gram dispatch (one per
        tree level); resolved once per solve by the callers.
    """
    m, n = A.shape
    if k <= 0:
        raise ValueError("k must be positive")
    k = min(k, n)
    if tree not in ("binary", "flat"):
        raise ValueError(f"unknown tree shape {tree!r}")
    stats = TournamentStats()
    leaf_cols = leaf_cols or max(2 * k, 1)
    if sp.issparse(A):
        A = ensure_csc(A)
    use_gram = sp.issparse(A) and method == "gram"
    r_diag = np.zeros(0)

    def play(cands: list[np.ndarray], grams: list, stage: str
             ) -> list[_Contender]:
        nonlocal r_diag
        out = []
        for cand, G in zip(cands, grams):
            sel = select_columns(A, k, method=method, strong=strong,
                                 gram=G, cols=cand, tier=tier)
            stats.record(MatchRecord(stage=stage, candidates=len(cand),
                                     nnz=sel.nnz, flops=sel.flops,
                                     bytes_exchanged=16 * sel.nnz))
            out.append(_Contender(cand[sel.winners], G, sel.winners))
            r_diag = sel.r_diag
        return out

    leaves = _leaf_blocks(n, leaf_cols)
    level = play(leaves, _level_grams(A, leaves, leaves, tier) if use_gram
                 else [None] * len(leaves), "leaf")
    t = 1
    while len(level) > 1:
        # binary: every adjacent pair plays (an odd last one has a bye);
        # flat: the accumulator plays the next leaf's winners
        npairs = 1 if tree == "flat" else len(level) // 2
        firsts, seconds = level[0:2 * npairs:2], level[1:2 * npairs:2]
        cands = [np.concatenate([a.ids, b.ids])
                 for a, b in zip(firsts, seconds)]
        grams = [None] * npairs
        if use_gram:
            cross = _level_grams(A, [a.ids for a in firsts],
                                 [b.ids for b in seconds], tier)
            grams = [_parent_gram(a, b, C)
                     for a, b, C in zip(firsts, seconds, cross)]
        level = play(cands, grams, f"round{t}") + level[2 * npairs:]
        t += 1
    winners = level[0].ids

    perm = _winners_first(winners, n)
    return TournamentResult(perm=perm, winners=winners, r11_diag=r_diag,
                            stats=stats)


def _winners_first(winners: np.ndarray, n: int) -> np.ndarray:
    mask = np.zeros(n, dtype=bool)
    mask[winners] = True
    losers = np.flatnonzero(~mask)
    return np.concatenate([winners, losers]).astype(np.intp)


def qr_tp_rows(Q: np.ndarray, k: int, *, tree: str = "binary",
               leaf_rows: int | None = None,
               tier: str | None = None) -> TournamentResult:
    """Row tournament: select the ``k`` most linearly independent *rows* of
    a dense tall block ``Q`` (Algorithm 2 line 7 runs QR_TP on ``Q_k^T``).

    Equivalent to :func:`qr_tp` on ``Q.T`` with dense matches (``Q`` is the
    explicit orthogonal factor, dense by construction); returns a
    *row* permutation in ``perm``.
    """
    Q = np.asarray(Q, dtype=np.float64)
    m, kc = Q.shape
    leaf_rows = leaf_rows or max(2 * k, 1)
    res = qr_tp(Q.T, k, tree=tree, leaf_cols=leaf_rows, method="dense",
                tier=tier)
    return res
