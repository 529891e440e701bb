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
are exactly reproducible.

A level is played as stacks, not match by match: consecutive matches of
equal shape share one ``np.linalg.cholesky`` call on their stacked Grams
and one :func:`repro.kernels.qrcp_batch` dispatch that pivots every clean
``R = L^T`` (the native tier loops over LAPACK's ``dgeqp3`` in C).
Winners, their sub-Grams and the next level's Grams are array indexing
on the stacks.  A dense input (the row tournament's ``Q_k^T``) stacks its
candidate blocks ``Q_k[ids]``, which already store column-major.  Every
factorization is the one a match-by-match run makes, so pivots,
``r11_diag`` and every :class:`MatchRecord` are the same bits.  A match
gathers its candidate block only for the dense method on a sparse
matrix, or when its Gram does not factor (a structurally empty candidate
column guarantees that): it then pivots the dense block through
:func:`repro.pivoting.select.select_columns`, as strong-RRQR matches do.

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
from ..sparse.ops import extract_columns
from ..sparse.utils import ensure_csc
from .select import select_columns, selection_flops


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
    #: matches whose Gram did not factor and that pivoted the dense block
    fallbacks: int = 0

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


class _Tournament:
    """The fixed inputs of one QR_TP run and its match records.

    :meth:`play` plays one tree level as a few stacks: each run of
    consecutive matches whose two contenders have the same sizes is one
    stack of candidate ids ``(p, c)`` and, on the gram route, of match
    Grams ``(p, c, c)``.  A stack's Grams are factored by one
    ``np.linalg.cholesky`` call and every clean factor is pivoted by one
    :func:`repro.kernels.qrcp_batch` dispatch; winners and their
    sub-Grams are read off the stacks by array indexing.  Strong-RRQR
    matches and matches whose Gram does not factor play one by one
    through :func:`repro.pivoting.select.select_columns` (the dense
    fallback).  Every value equals that of a match-by-match run.
    """

    def __init__(self, A, k: int, *, method: str, strong: bool,
                 tier: str | None):
        self.A, self.k = A, k
        self.method, self.strong, self.tier = method, strong, tier
        self.use_gram = sp.issparse(A) and method == "gram"
        self.colnnz = np.diff(A.indptr) if sp.issparse(A) else None
        self.stats = TournamentStats()
        self.r_diag = np.zeros(0)

    def play(self, first: list, second: list | None, stage: str,
             first_grams: list | None = None,
             second_grams: list | None = None) -> tuple[list, list]:
        """Play ``first[i]`` against ``second[i]``; at the leaf level
        (no ``second``) each ``first[i]`` holds a leaf's candidates.  The
        lists hold winner ids and, on the gram route, the winners'
        sub-Grams.  Returns the winner ids and sub-Grams (``None`` off
        the gram route) of each match, in play order."""
        if second is None:
            shapes = [(len(a), 0) for a in first]
        else:
            shapes = [(len(a), len(b)) for a, b in zip(first, second)]
        grams = None
        if self.use_gram:
            grams = _level_grams(self.A, first,
                                 first if second is None else second,
                                 self.tier)
        ids: list = []
        subs: list = []
        lo = 0
        while lo < len(shapes):
            hi = lo + 1
            while hi < len(shapes) and shapes[hi] == shapes[lo]:
                hi += 1
            ca, cb = shapes[lo]
            C = np.empty((hi - lo, ca + cb), dtype=np.intp)
            C[:, :ca] = first[lo:hi]
            if second is not None:
                C[:, ca:] = second[lo:hi]
            G = None
            if grams is not None:
                X = np.stack(grams[lo:hi])
                if second is None:
                    G = X
                else:
                    # [[G_a, X], [X^T, G_b]]: the children's winner
                    # sub-Grams and the cross terms X = B_a^T B_b
                    G = np.empty((hi - lo, ca + cb, ca + cb))
                    G[:, :ca, :ca] = first_grams[lo:hi]
                    G[:, :ca, ca:] = X
                    G[:, ca:, :ca] = X.transpose(0, 2, 1)
                    G[:, ca:, ca:] = second_grams[lo:hi]
            won, won_grams = self._play_stack(C, G, stage)
            ids += won
            subs += won_grams
            lo = hi
        return ids, subs

    def _play_stack(self, C: np.ndarray, G: np.ndarray | None,
                    stage: str) -> tuple[list, list]:
        """Matches of equal shape: candidates ``C`` ``(p, c)`` and, on
        the gram route, their Grams ``G`` ``(p, c, c)``."""
        A = self.A
        p, c = C.shape
        if self.colnnz is not None:
            counts = self.colnnz[C]
            nnz = counts.sum(axis=1)
        else:
            nnz = np.full(p, A.shape[0] * c)
        if self.strong:
            clean: list = []
        elif G is None:
            clean = list(range(p))
        else:
            # an empty candidate column zeroes a Gram's diagonal entry,
            # so that Gram has no Cholesky factor
            L, clean = _cholesky_stack(G, counts.all(axis=1))
        ids: list = [None] * p
        subs: list = [None] * p
        records: list = [None] * p
        if clean:
            z = nnz[clean]
            if G is not None:
                flops = selection_flops(z, c, method="gram").tolist()
                blocks = L.transpose(0, 2, 1)  # R = L^T
            else:
                flops = [selection_flops(A.shape[0] * c, c,
                                         method="dense")] * len(clean)
                blocks = self._dense_blocks(C[clean])
            piv, rdiag = kernels.qrcp_batch(blocks, tier=self.tier)
            pos = piv[:, :min(self.k, c)]
            at = np.array(clean)[:, None]
            won = C[at, pos]
            won_grams = (G[at[:, :, None], pos[:, :, None], pos[:, None, :]]
                         if G is not None else [None] * len(clean))
            for i, w, g, zi, f in zip(clean, won, won_grams, z.tolist(),
                                      flops):
                ids[i], subs[i] = w, g
                records[i] = MatchRecord(stage, c, zi, f, 16 * zi)
            self.r_diag = rdiag[-1]
        for i in sorted(set(range(p)) - set(clean)):
            g = None if G is None else G[i]
            sel = select_columns(A, self.k, method=self.method,
                                 strong=self.strong, gram=g, cols=C[i],
                                 tier=self.tier)
            self.stats.fallbacks += sel.used_fallback
            pos = sel.winners
            ids[i] = C[i][pos]
            if g is not None:
                subs[i] = g.take(pos, 0).take(pos, 1)
            records[i] = MatchRecord(stage, c, sel.nnz, sel.flops,
                                     16 * sel.nnz)
            if i == p - 1:
                self.r_diag = sel.r_diag
        self.stats.matches += records
        return ids, subs

    def _dense_blocks(self, C: np.ndarray) -> np.ndarray:
        """The candidate blocks ``A[:, C[j]]`` as one ``(p, m, c)``
        stack; for a dense ``A`` each block is column-major
        (``A.T[C]``, read in place by the native QRCP)."""
        A = self.A
        if not sp.issparse(A):
            return np.asarray(A, dtype=np.float64).T[C].transpose(0, 2, 1)
        return np.stack([extract_columns(A, cand, tier=self.tier).toarray()
                         for cand in C])


def _cholesky_stack(G: np.ndarray, tried: np.ndarray
                    ) -> tuple[np.ndarray, list]:
    """Lower Cholesky factors of the Grams ``G[tried]`` by one
    ``np.linalg.cholesky`` call, or Gram by Gram when that call raises
    (numpy factors a stack one matrix at a time, so a factor's bits do
    not depend on its neighbours).  Returns the factors of the Grams
    that factored and their positions in ``G``, in order."""
    at = np.flatnonzero(tried).tolist()
    try:
        return np.linalg.cholesky(G if len(at) == len(G) else G[at]), at
    except np.linalg.LinAlgError:
        pass
    factors, clean = [], []
    for j in at:
        try:
            factors.append(np.linalg.cholesky(G[j]))
            clean.append(j)
        except np.linalg.LinAlgError:
            pass
    return (np.stack(factors) if factors else G[:0]), clean


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
        Selection method and strong RRQR, as in
        :func:`repro.pivoting.select.select_columns`.
    tier:
        Kernel tier request threaded into every Gram and QRCP dispatch
        (one each per tree level); resolved once per solve by the callers.
    """
    m, n = A.shape
    if k <= 0:
        raise ValueError("k must be positive")
    k = min(k, n)
    if tree not in ("binary", "flat"):
        raise ValueError(f"unknown tree shape {tree!r}")
    if method not in ("gram", "dense"):
        raise ValueError(f"unknown selection method {method!r}")
    leaf_cols = leaf_cols or max(2 * k, 1)
    if sp.issparse(A):
        A = ensure_csc(A)
    tp = _Tournament(A, k, method=method, strong=strong, tier=tier)
    ids, grams = tp.play(_leaf_blocks(n, leaf_cols), None, "leaf")
    t = 1
    while len(ids) > 1:
        # binary: every adjacent pair plays (an odd last one has a bye);
        # flat: the accumulator plays the next leaf's winners
        npairs = 1 if tree == "flat" else len(ids) // 2
        pairs = slice(0, 2 * npairs, 2), slice(1, 2 * npairs, 2)
        won, won_grams = tp.play(ids[pairs[0]], ids[pairs[1]], f"round{t}",
                                 grams[pairs[0]], grams[pairs[1]])
        ids = won + ids[2 * npairs:]
        grams = won_grams + grams[2 * npairs:]
        t += 1
    winners = ids[0]

    perm = _winners_first(winners, n)
    return TournamentResult(perm=perm, winners=winners, r11_diag=tp.r_diag,
                            stats=tp.stats)


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
    *row* permutation in ``perm``.  A level's match blocks are the row
    stacks ``Q[ids]``, which store each ``Q_k^T`` block column-major, as
    the native QRCP reads them.
    """
    Q = np.asarray(Q, dtype=np.float64)
    leaf_rows = leaf_rows or max(2 * k, 1)
    return qr_tp(Q.T, k, tree=tree, leaf_cols=leaf_rows, method="dense",
                 tier=tier)
