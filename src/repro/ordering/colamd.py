"""Column approximate-minimum-degree ordering (COLAMD-style).

COLAMD (Davis/Gilbert/Larimore/Ng, reference [4] of the paper) orders the
columns of ``A`` so that a QR or LU factorization of the permuted matrix
produces less fill-in.  It is a minimum-degree algorithm on the graph of
``A^T A`` that never forms ``A^T A``: the *rows* of ``A`` act as the initial
elements of a quotient graph whose variables are the columns.

This implementation keeps the essential mechanism — quotient-graph
elimination with Amestoy-Davis-Duff approximate external degrees and element
absorption — and omits the engineering refinements of the reference code
(supercolumn detection, aggressive absorption, dense-row windowing).  It is
``O(nnz * avg_degree)``-ish in practice, fine for the matrix sizes this
library targets, and is exercised against fill-in reduction tests.

This module is the pure route and the parity oracle.  Solvers order through
:func:`repro.ordering.etree.colamd_preprocess`, whose native tier runs the
same elimination (the same dense-row rule, degrees, pivot pairs and
absorption) plus the etree postorder in one C call
(``repro.kernels.colamd_postorder``) and returns the same permutation.
"""

from __future__ import annotations

import heapq

import numpy as np
import scipy.sparse as sp

from ..sparse.utils import ensure_csc

#: widest matrix for which pivot selection uses the vectorized key scan
#: (O(n) per pivot but one C pass); beyond it the heap's O(log n) wins
_SCAN_CUTOFF = 32768

#: largest variable x element incidence table (in cells == bytes) kept as a
#: dense boolean matrix; beyond it the per-variable adjacency falls back to
#: append-only lists with lazy deletion.  Both representations feed the
#: degree updates the same integers and emit the identical permutation.
_ADJ_DENSE_CELLS = 2**25


def dense_row_cut(n: int, dense_row_frac: float = 0.5) -> int:
    """Largest row length that still makes a row an element of the
    quotient graph of an ``n``-column matrix; longer rows are dense."""
    return max(16, int(dense_row_frac * n))


def colamd(A: sp.spmatrix, *, dense_row_frac: float = 0.5) -> np.ndarray:
    """Compute a COLAMD-style column permutation of ``A``.

    Parameters
    ----------
    A:
        Sparse ``(m, n)`` matrix (pattern only is used).
    dense_row_frac:
        Rows with more than ``dense_row_frac * n`` entries are ignored when
        building the quotient graph (they would couple almost all columns and
        only add noise to the degrees); they are standard to drop in COLAMD.

    Returns
    -------
    ndarray
        Permutation vector ``perm`` such that ``A[:, perm]`` should be
        factorized; low-fill columns come first.
    """
    A = ensure_csc(A)
    m, n = A.shape
    if n == 0:
        return np.zeros(0, dtype=np.intp)
    R = A.tocsr()
    R.sort_indices()

    # --- quotient graph ----------------------------------------------------
    # elements: initial elements are the (non-dense, non-empty) rows of A.
    # element_vars[e] = set of still-uneliminated variables covered by e.
    # var_elems[v]   = set of live elements adjacent to variable v.
    # Variables have no direct var-var edges initially (all A^T A edges come
    # from shared rows), and the elimination process never creates them:
    # eliminating v only creates a new element.
    dense_cut = dense_row_cut(n, dense_row_frac)
    indptr, indices = R.indptr, R.indices
    row_len = np.diff(indptr)
    keep = (row_len > 0) & (row_len <= dense_cut)
    rows_kept = np.flatnonzero(keep)
    element_vars: dict[int, np.ndarray] = {
        int(i): indices[indptr[i]:indptr[i + 1]].astype(np.int64)
        for i in rows_kept.tolist()}  # members sorted (CSR canonical)
    next_element = m

    # Variable -> live-element adjacency.  Every pivot consumes its row
    # exactly once, so the structure only has to support "add element e
    # covering these variables" and "collect the live elements of v".  For
    # the sizes this library targets a dense boolean incidence table makes
    # both one vectorized numpy pass (element ids are bounded by
    # m initial rows + at most one created element per pivot); very large
    # problems fall back to append-only lists with lazy deletion against
    # ``elem_size``.  Same element sets either way, so the degree updates
    # below see identical integers and the permutation is unchanged.
    nel_cap = m + n
    use_dense_adj = n * nel_cap <= _ADJ_DENSE_CELLS
    var_elems: list[list[int]] = []
    if use_dense_adj:
        adj = np.zeros((n, nel_cap), dtype=bool)
        live = np.zeros(nel_cap, dtype=bool)
        entry_row = np.repeat(np.arange(m, dtype=np.int64), row_len)
        emask = keep[entry_row]
        adj[indices[emask], entry_row[emask]] = True
        live[rows_kept] = True
    else:
        adj = live = None  # type: ignore[assignment]
        var_elems = [[] for _ in range(n)]
        for e, vs in element_vars.items():
            for c in vs.tolist():
                var_elems[c].append(e)

    # --- approximate degree ------------------------------------------------
    # AMD-style upper bound: sum of external element sizes,
    #     degree(v) = sum_{e in var_elems[v]} (|element_vars[e]| - 1)
    #               = sum_sizes[v] - |var_elems[v]|.
    # Exact for variables touching a single element; an over-count when
    # elements overlap (the "approximate" in AMD/COLAMD).
    #
    # Key structural invariant that makes the second form cheap to maintain:
    # a live element's variable set never changes size.  An element e dies
    # exactly when one of its variables is eliminated (it is adjacent to
    # that variable by construction), so |element_vars[e]| is fixed from
    # creation to death and ``sum_sizes`` can be updated incrementally with
    # the *same integers* the direct sum would produce — the heap sees an
    # identical sequence of (degree, variable) entries and emits an
    # identical permutation.
    elem_size: dict[int, int] = {e: len(vs) for e, vs in element_vars.items()}
    # The per-batch degree updates are vectorized: every member
    # occurrence of a dying element contributes ``-size_e`` to its
    # variable's ``sum_sizes`` and ``-1`` to its live adjacency count, both
    # accumulated with one ``bincount`` pass, then the merged element's
    # ``+size_new``/``+1`` is applied to the union.  The integers are the
    # ones the scalar loop would produce, and the heap receives the same
    # multiset of (degree, variable) entries, so the emitted permutation is
    # identical.
    nelems = np.zeros(n, dtype=np.int64)
    sum_sizes = np.zeros(n, dtype=np.int64)
    for e, vs in element_vars.items():
        nelems[vs] += 1
        sum_sizes[vs] += elem_size[e]
    degree = sum_sizes - nelems
    # --- pivot selection ---------------------------------------------------
    # The classic structure is a lazy-deletion heap of (degree, variable)
    # entries with ties broken on the original index.  Because every live
    # variable always has one *valid* entry in such a heap (pushed when its
    # degree last changed), the popped pivot is exactly the live variable
    # minimizing the lexicographic pair (degree, index).  For the sizes this
    # library targets a vectorized argmin over a packed key array
    # ``degree * (n+1) + index`` selects the same minimizer with one
    # cache-friendly C scan and no per-update pushes; very wide matrices
    # fall back to the heap for its O(log n) updates.  Both routes emit the
    # identical permutation.
    use_scan = n <= _SCAN_CUTOFF
    stride = np.int64(n + 1)
    key = degree * stride + np.arange(n, dtype=np.int64)
    _SENT = np.iinfo(np.int64).max
    heap: list[tuple[int, int]] = []
    if not use_scan:
        # tiebreak on original index keeps the ordering deterministic
        heap = [(int(degree[v]), v) for v in range(n)]
        heapq.heapify(heap)
    eliminated = [False] * n
    perm: list[int] = []
    heappop = heapq.heappop
    heappush = heapq.heappush
    from ..kernels import pivot_argmin_consume

    while len(perm) < n:
        if use_scan:
            v = pivot_argmin_consume(key, _SENT, tier="pure")
        else:
            d, v = heappop(heap)
            if eliminated[v] or d != degree[v]:
                continue  # stale heap entry
        eliminated[v] = True
        perm.append(v)

        # live elements adjacent to v
        if use_dense_adj:
            cand = np.flatnonzero(adj[v])
            dead = cand[live[cand]].tolist()
            live[dead] = False
        else:
            # lazy filter of the append-only list
            dead = [e for e in var_elems[v] if e in elem_size]
            var_elems[v] = []
        if not dead:
            continue
        # merge all elements adjacent to v into one new element (absorption)
        if len(dead) == 1:
            e = dead[0]
            mem = element_vars.pop(e)
            size_e = elem_size.pop(e)
            new_vars = mem[mem != v]          # sorted, v removed
            if new_vars.size == 0:
                continue
            size_new = new_vars.size
            # single dead element: each member occurs once, so the net
            # update is simply (size_new - size_e, 0)
            sum_sizes[new_vars] += size_new - size_e
            nd = sum_sizes[new_vars] - nelems[new_vars]
        else:
            mems = [element_vars.pop(e) for e in dead]
            sizes = np.array([elem_size.pop(e) for e in dead],
                             dtype=np.int64)
            allmem = np.concatenate(mems)
            # per-variable decrements across all dying elements at once;
            # the occurrence counts double as the member union
            dec_sum = np.bincount(allmem, weights=np.repeat(sizes, sizes),
                                  minlength=n)
            dec_cnt = np.bincount(allmem, minlength=n)
            dec_cnt[v] = 0
            new_vars = np.flatnonzero(dec_cnt)
            if new_vars.size == 0:
                continue
            size_new = new_vars.size
            sum_sizes[new_vars] += size_new - dec_sum[new_vars].astype(
                np.int64)
            nelems[new_vars] += 1 - dec_cnt[new_vars]
            nd = sum_sizes[new_vars] - nelems[new_vars]

        e_new = next_element
        next_element += 1
        element_vars[e_new] = new_vars
        elem_size[e_new] = size_new
        if use_dense_adj:
            adj[new_vars, e_new] = True
            live[e_new] = True
        else:
            for u in new_vars.tolist():
                var_elems[u].append(e_new)
        if use_scan:
            degree[new_vars] = nd
            key[new_vars] = nd * stride + new_vars
        else:
            changed = nd != degree[new_vars]
            degree[new_vars] = nd
            for du, u in zip(nd[changed].tolist(),
                             new_vars[changed].tolist()):
                heappush(heap, (du, u))
    return np.array(perm, dtype=np.intp)
