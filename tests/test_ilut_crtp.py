"""Tests for repro.core.ilut_crtp (Algorithm 3 — the paper's contribution)."""

import numpy as np
import pytest

from repro import ILUT_CRTP, LU_CRTP, ilut_crtp, lu_crtp
from repro.core.ilut_crtp import default_threshold


@pytest.fixture
def filly(rng):
    """A matrix whose Schur complements fill in (scattered random pattern)."""
    from repro.matrices.generators import random_graded
    return random_graded(120, 120, nnz_per_row=10, decay_rate=7.0, seed=13)


def test_converges_with_estimator_agreement(filly):
    res = ilut_crtp(filly, k=8, tol=1e-2, estimated_iterations=8)
    assert res.converged
    # §VI-A: "In all cases, the error ... agreed with the corresponding
    # estimator": true error within tau even though (26) only estimates
    assert res.error(filly) < 1e-2
    assert res.relative_indicator() < 1e-2


def test_error_close_to_estimator(filly):
    res = ilut_crtp(filly, k=8, tol=1e-2, estimated_iterations=8)
    # |true - estimator| <= ||T|| (Section III-D)
    gap = abs(res.error(filly) - res.relative_indicator()) * res.a_fro
    assert gap <= res.dropped_norm_bound() + 1e-9


def test_thresholding_actually_drops(filly):
    res = ilut_crtp(filly, k=8, tol=1e-2, estimated_iterations=8)
    assert res.history.total_dropped_nnz > 0
    assert res.threshold > 0


def test_reduces_factor_nnz_on_filly_matrix(filly):
    lu = lu_crtp(filly, k=8, tol=1e-2)
    il = ilut_crtp(filly, k=8, tol=1e-2,
                   estimated_iterations=max(lu.iterations, 1))
    assert il.factor_nnz() < lu.factor_nnz()


def test_same_quality_as_lu(filly):
    """ILUT achieves the same approximation quality as LU_CRTP (abstract)."""
    lu = lu_crtp(filly, k=8, tol=1e-2)
    il = ilut_crtp(filly, k=8, tol=1e-2,
                   estimated_iterations=max(lu.iterations, 1))
    assert il.converged == lu.converged
    assert il.error(filly) < 1e-2


def test_iterations_not_fewer_than_lu_minus_slack(filly):
    """§III-A: ILUT converges in at least as many iterations as LU (up to
    effective-approximation slack); check it never converges dramatically
    earlier, which would indicate an accounting bug."""
    lu = lu_crtp(filly, k=8, tol=1e-2)
    il = ilut_crtp(filly, k=8, tol=1e-2,
                   estimated_iterations=max(lu.iterations, 1))
    assert il.iterations >= lu.iterations - 1


def test_explicit_mu_override(filly):
    res = ilut_crtp(filly, k=8, tol=1e-2, mu=1e-8)
    assert res.threshold == pytest.approx(1e-8)


def test_mu_zero_equals_lu_crtp(filly):
    il = ilut_crtp(filly, k=8, tol=1e-2, mu=0.0)
    lu = lu_crtp(filly, k=8, tol=1e-2)
    assert il.rank == lu.rank
    np.testing.assert_allclose(il.L.toarray(), lu.L.toarray())
    assert il.history.total_dropped_nnz == 0


def test_threshold_control_triggers_on_huge_mu(filly):
    """An absurd mu must trip the phi control (bound (22)) and disable
    thresholding rather than destroy the factorization."""
    res = ilut_crtp(filly, k=8, tol=1e-2, mu=1e6)
    assert res.control_triggered
    assert res.converged
    assert res.error(filly) < 1e-2


def test_control_never_triggered_with_heuristic(filly):
    """§VI-A: with mu from (24), 'the threshold control was never
    triggered'."""
    res = ilut_crtp(filly, k=8, tol=1e-2, estimated_iterations=8)
    assert not res.control_triggered


def test_dropped_norm_below_phi(filly):
    res = ilut_crtp(filly, k=8, tol=1e-2, estimated_iterations=8)
    r11 = None
    # phi = tau * |R^(1)(1,1)| >= accumulated perturbation
    # (reconstruct phi from the result: dropped_norm < tau * ||A||_2-ish)
    assert res.dropped_norm < res.tolerance * res.a_fro


def test_aggressive_variant(filly):
    res = ilut_crtp(filly, k=8, tol=1e-2, estimated_iterations=8,
                    aggressive=True)
    assert res.converged
    assert res.error(filly) < 1e-2
    assert res.history.total_dropped_nnz > 0


def test_default_threshold_formula():
    mu = default_threshold(1e-3, 10.0, 10000, 5)
    assert mu == pytest.approx(1e-3 * 10.0 / (5 * 100.0))
    with pytest.raises(ValueError):
        default_threshold(1e-3, 10.0, 100, 0)
    assert default_threshold(1e-3, 10.0, 0, 5) == 0.0


def test_smaller_u_larger_mu(filly):
    r_small = ilut_crtp(filly, k=8, tol=1e-2, estimated_iterations=2)
    r_large = ilut_crtp(filly, k=8, tol=1e-2, estimated_iterations=50)
    assert r_small.threshold > r_large.threshold


def test_permutations_valid(filly):
    res = ilut_crtp(filly, k=8, tol=1e-2, estimated_iterations=8)
    n = filly.shape[0]
    assert sorted(res.row_perm.tolist()) == list(range(n))
    assert sorted(res.col_perm.tolist()) == list(range(n))


def test_history_dropped_accounting(filly):
    res = ilut_crtp(filly, k=8, tol=1e-2, estimated_iterations=8)
    total_sq = sum(r.dropped_norm_sq for r in res.history)
    assert np.sqrt(total_sq) == pytest.approx(res.dropped_norm, rel=1e-10)


def test_inherits_lu_options(filly):
    res = ilut_crtp(filly, k=8, tol=1e-2, estimated_iterations=8,
                    tree="flat", use_colamd=False)
    assert res.converged


def test_dataclass_inheritance():
    solver = ILUT_CRTP(k=4, tol=1e-2, estimated_iterations=3)
    assert isinstance(solver, LU_CRTP)
    assert solver.k == 4


def test_dropped_norm_bound_dominates_control_quantity(filly):
    """Triangle bound >= the (22) control quantity, both zero without
    thresholding."""
    res = ilut_crtp(filly, k=8, tol=1e-2, estimated_iterations=8)
    assert res.dropped_norm_bound() >= res.dropped_norm - 1e-12
    plain = ilut_crtp(filly, k=8, tol=1e-2, mu=0.0)
    assert plain.dropped_norm_bound() == 0.0


def test_trace_counts_tournament_fallbacks(monkeypatch):
    # thresholding empties Schur columns; a match holding one cannot
    # factor its Gram and pivots the dense block.  The per-iteration
    # trace counts those matches next to the tournament's flops.
    import importlib

    from repro.matrices import suite_matrix
    tournament = importlib.import_module("repro.pivoting.tournament")
    seen = []
    select = tournament.select_columns

    def counted(*args, **kwargs):
        sel = select(*args, **kwargs)
        seen.append(sel.used_fallback)
        return sel

    monkeypatch.setattr(tournament, "select_columns", counted)
    A = suite_matrix("M2", scale=0.3)
    ilut = ILUT_CRTP(k=16, tol=2e-2).solve(A)
    per_iteration = [r.extra["trace"]["tournament_fallbacks"]
                     for r in ilut.history]
    assert sum(per_iteration) == sum(seen) > 0
    lu = LU_CRTP(k=16, tol=2e-2).solve(A)
    assert [r.extra["trace"]["tournament_fallbacks"]
            for r in lu.history] == [0] * len(lu.history)
