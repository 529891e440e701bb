"""Failure-injection tests for the §III-A breakdown modes.

Section III-A warns that thresholding can destroy rank ``K+1`` of the
perturbed matrix (bound (20) violated) and break ILUT_CRTP.  These tests
exercise that path: the direct singular-pivot unit test, and end-to-end
scenarios where the library must either raise the dedicated
:class:`RankDeficiencyBreakdown` or degrade *gracefully* (converge on the
consistent thresholded system / stop at the numerical rank) — never return
silently-wrong factors.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro import ILUT_CRTP, LU_CRTP
from repro.exceptions import RankDeficiencyBreakdown


def test_compute_f_raises_on_singular_pivot():
    """The solve kernel itself: singular A11 with inconsistent A21."""
    solver = LU_CRTP(k=4, tol=1e-2)
    A11d = np.zeros((4, 4))
    A21 = sp.csr_matrix(np.ones((6, 4)))
    Qk = np.linalg.qr(np.random.default_rng(0).standard_normal((10, 4)))[0]
    with pytest.raises(RankDeficiencyBreakdown):
        solver._compute_F(A11d, A21, Qk, np.arange(10), 4, i=2)


def test_compute_f_orthogonal_raises_on_singular_q11():
    solver = LU_CRTP(k=3, tol=1e-2, l_formula="orthogonal")
    Qk = np.zeros((8, 3))  # Qbar11 singular
    A21 = sp.csr_matrix(np.ones((5, 3)))
    with pytest.raises(RankDeficiencyBreakdown):
        solver._compute_F(np.eye(3), A21, Qk, np.arange(8), 3, i=1)


def test_ilut_graceful_on_exactly_destroyed_rank():
    """Thresholding collapses the active matrix to exact low rank: the
    system stays *consistent*, so the factorization either terminates
    cleanly or flags the breakdown — and whatever it returns is accurate."""
    rng = np.random.default_rng(0)
    X = rng.standard_normal((40, 6))
    Y = rng.standard_normal((6, 40))
    A = sp.csc_matrix(X @ Y + 1e-10 * rng.standard_normal((40, 40)))
    try:
        res = ILUT_CRTP(k=4, tol=1e-12, mu=1e-6, phi_factor=1e12,
                        stop_at_numerical_rank=False,
                        use_colamd=False).solve(A)
    except RankDeficiencyBreakdown:
        return  # the documented failure mode — acceptable
    # graceful path: the result must be consistent with its own estimator
    # up to the perturbation mass (Section III-D bound)
    gap = abs(res.error(A) - res.relative_indicator()) * res.a_fro
    assert gap <= res.dropped_norm_bound() + 1e-6


def test_ilut_breakdown_reports_iteration():
    exc = RankDeficiencyBreakdown("boom", iteration=3, rank=12)
    assert exc.iteration == 3
    assert exc.rank == 12


def test_lu_numerical_rank_stop_on_exact_lowrank(rank_deficient):
    """LU_CRTP on an exactly rank-12 matrix with stop_at_numerical_rank:
    terminates at/near the numerical rank without error."""
    res = LU_CRTP(k=4, tol=1e-14).solve(rank_deficient)
    assert res.rank <= 16
    assert res.error(rank_deficient) < 1e-8


def test_lu_without_safeguard_still_terminates(rank_deficient):
    """Even with the safeguard off, the solver must terminate (graceful
    convergence on the consistent system or a raised breakdown)."""
    try:
        res = LU_CRTP(k=4, tol=1e-14,
                      stop_at_numerical_rank=False).solve(rank_deficient)
        assert res.rank <= 50
    except RankDeficiencyBreakdown:
        pass


def test_machine_precision_singular_values():
    """§III-A: 'If any of the singular values larger than sigma_{K+1} are
    smaller than machine precision, LU_CRTP may break down' — a spectrum
    plunging to 1e-300 must not produce non-finite factors."""
    rng = np.random.default_rng(1)
    U, _ = np.linalg.qr(rng.standard_normal((30, 30)))
    V, _ = np.linalg.qr(rng.standard_normal((30, 30)))
    s = np.concatenate([np.logspace(0, -3, 10), np.full(20, 1e-300)])
    A = sp.csc_matrix(U @ np.diag(s) @ V.T)
    try:
        res = LU_CRTP(k=4, tol=1e-13).solve(A)
        assert np.all(np.isfinite(res.L.data))
        assert np.all(np.isfinite(res.U.data))
    except RankDeficiencyBreakdown:
        pass
