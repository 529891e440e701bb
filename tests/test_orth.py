"""Tests for repro.linalg.orth."""

import numpy as np
import pytest

from repro.linalg.orth import orth, reorth_workspace, reorthogonalize


def orthonormality_defect(Q):
    return np.linalg.norm(Q.T @ Q - np.eye(Q.shape[1]))


def test_orth_full_rank(rng):
    Y = rng.standard_normal((30, 8))
    Q = orth(Y)
    assert Q.shape == (30, 8)
    assert orthonormality_defect(Q) < 1e-12
    # spans the same space: projection of Y onto Q recovers Y
    np.testing.assert_allclose(Q @ (Q.T @ Y), Y, atol=1e-10)


def test_orth_rank_deficient_still_orthonormal(rng):
    Y = rng.standard_normal((20, 3)) @ rng.standard_normal((3, 6))
    Q = orth(Y)
    assert Q.shape == (20, 6)
    assert orthonormality_defect(Q) < 1e-10


def test_orth_zero_columns():
    Y = np.zeros((10, 4))
    Q = orth(Y)
    assert Q.shape == (10, 4)
    assert orthonormality_defect(Q) < 1e-10


def test_orth_empty():
    Q = orth(np.zeros((5, 0)))
    assert Q.shape == (5, 0)


def test_orth_single_column(rng):
    y = rng.standard_normal((15, 1))
    Q = orth(y)
    assert np.linalg.norm(Q) == pytest.approx(1.0)
    # parallel to y
    assert abs(abs(Q[:, 0] @ y[:, 0]) - np.linalg.norm(y)) < 1e-12


def test_reorthogonalize_against_previous(rng):
    Qprev = orth(rng.standard_normal((40, 6)))
    Yk = rng.standard_normal((40, 4)) + Qprev @ rng.standard_normal((6, 4))
    Qk = reorthogonalize(Yk, Qprev)
    assert orthonormality_defect(Qk) < 1e-12
    # orthogonal to the previous block
    assert np.linalg.norm(Qprev.T @ Qk) < 1e-10


def test_reorthogonalize_none_previous(rng):
    Yk = rng.standard_normal((12, 3))
    Qk = reorthogonalize(Yk, None)
    assert orthonormality_defect(Qk) < 1e-12


def test_reorthogonalize_two_passes_tighter(rng):
    Qprev = orth(rng.standard_normal((60, 20)))
    # Yk nearly inside span(Qprev): the hard case for single-pass GS
    Yk = Qprev @ rng.standard_normal((20, 5)) \
        + 1e-10 * rng.standard_normal((60, 5))
    Q2 = reorthogonalize(Yk, Qprev, passes=2)
    assert np.linalg.norm(Qprev.T @ Q2) < 1e-8


@pytest.mark.parametrize("passes", [1, 2])
def test_reorthogonalize_workspace_matches_allocating(rng, passes):
    """The in-place route through a preallocated workspace runs the same
    BLAS products in the same order as the allocating route, so the bases
    are bitwise equal — also for a block narrower than the workspace."""
    m, k = 50, 6
    Qprev = orth(rng.standard_normal((m, 12)))
    work = reorth_workspace(m, k)
    for width in (k, k - 2):
        Yk = rng.standard_normal((m, width)) \
            + Qprev @ rng.standard_normal((12, width))
        ref = reorthogonalize(Yk.copy(), Qprev, passes=passes)
        got = reorthogonalize(Yk.copy(), Qprev, passes=passes, work=work)
        assert np.array_equal(ref, got)
