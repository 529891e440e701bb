"""Tests for repro.linalg.random_gen (sketching operators)."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.linalg.random_gen import (
    SketchKind,
    gaussian,
    gaussian_batch,
    make_sketch,
    rademacher,
    sparse_sign,
)


def test_gaussian_shape_and_moments(rng):
    Om = gaussian(2000, 3, rng)
    assert Om.shape == (2000, 3)
    assert abs(Om.mean()) < 0.05
    assert Om.std() == pytest.approx(1.0, abs=0.05)


def test_rademacher_entries(rng):
    Om = rademacher(50, 4, rng)
    assert set(np.unique(Om)) <= {-1.0, 1.0}


def test_sparse_sign_structure(rng):
    Om = sparse_sign(100, 8, rng, density_rows=8)
    assert sp.issparse(Om)
    assert Om.shape == (100, 8)
    col_nnz = np.diff(Om.tocsc().indptr)
    assert np.all(col_nnz == 8)


def test_sparse_sign_small_n(rng):
    Om = sparse_sign(4, 3, rng, density_rows=8)  # zeta clamped to n
    assert np.all(np.diff(Om.tocsc().indptr) == 4)


def test_make_sketch_dispatch(rng):
    for kind in SketchKind:
        Om = make_sketch(kind, 30, 5, rng)
        assert Om.shape == (30, 5)
    Om = make_sketch("gaussian", 10, 2, rng)
    assert Om.shape == (10, 2)


def test_gaussian_batch_matches_sequential_draws():
    """One batched draw equals ``b`` successive Gaussian sketches bitwise
    and leaves the generator where the sequential draws leave it."""
    n, k, b = 37, 5, 4
    rng_batch, rng_seq = np.random.default_rng(11), np.random.default_rng(11)
    batch = gaussian_batch(n, k, b, rng_batch)
    seq = [make_sketch(SketchKind.GAUSSIAN, n, k, rng_seq) for _ in range(b)]
    assert batch.shape == (b, n, k)
    for j in range(b):
        assert np.array_equal(batch[j], seq[j])
    assert rng_batch.bit_generator.state == rng_seq.bit_generator.state


def test_make_sketch_unknown(rng):
    with pytest.raises(ValueError):
        make_sketch("bogus", 10, 2, rng)


def test_sketch_preserves_norms_statistically(rng):
    """E||A Omega||_F^2 = k ||A||_F^2 / ... sketches are isotropic."""
    A = rng.standard_normal((20, 200))
    a2 = np.linalg.norm(A) ** 2
    for kind in (SketchKind.GAUSSIAN, SketchKind.RADEMACHER):
        vals = []
        for seed in range(20):
            Om = make_sketch(kind, 200, 10, np.random.default_rng(seed))
            vals.append(np.linalg.norm(A @ Om) ** 2 / 10)
        assert np.mean(vals) == pytest.approx(a2, rel=0.2)


def test_fwht_matches_explicit_hadamard(rng):
    from repro.linalg.random_gen import fwht
    n = 16
    H = np.array([[1.0]])
    while H.shape[0] < n:
        H = np.block([[H, H], [H, -H]])
    x = rng.standard_normal((n, 3))
    np.testing.assert_allclose(fwht(x), H @ x, atol=1e-12)


def test_fwht_orthogonality(rng):
    from repro.linalg.random_gen import fwht
    x = rng.standard_normal(32)
    y = fwht(x) / np.sqrt(32)
    assert np.linalg.norm(y) == pytest.approx(np.linalg.norm(x))


def test_fwht_requires_power_of_two(rng):
    from repro.linalg.random_gen import fwht
    with pytest.raises(ValueError):
        fwht(rng.standard_normal(12))


def test_srht_shape_and_isotropy():
    from repro.linalg.random_gen import srht
    acc = np.zeros((12, 12))
    trials = 200
    for s in range(trials):
        Om = srht(12, 6, np.random.default_rng(s))
        assert Om.shape == (12, 6)
        acc += Om @ Om.T / trials
    assert np.linalg.norm(acc - np.eye(12)) / np.sqrt(12) < 0.2


def test_srht_non_power_of_two_n():
    from repro.linalg.random_gen import srht
    Om = srht(13, 4, np.random.default_rng(0))
    assert Om.shape == (13, 4)
    assert np.all(np.isfinite(Om))


def test_srht_in_randqb():
    from repro import randqb_ei
    from repro.matrices.generators import random_graded
    A = random_graded(100, 100, nnz_per_row=6, decay_rate=8.0, seed=2)
    res = randqb_ei(A, k=8, tol=1e-2, sketch="srht")
    assert res.converged
    assert res.error(A) < 1e-2
