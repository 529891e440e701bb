"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp


@pytest.fixture(scope="session", autouse=True)
def no_rank_or_segment_survives():
    """Fail the session if a procs rank process or a shared-memory segment
    of this process outlives it: the idle rank cohort is released first,
    so anything left is a leak."""
    yield
    import multiprocessing as mp

    from repro.parallel.procs import release_ranks
    from repro.parallel.shm import shm_segments
    release_ranks()
    alive = mp.active_children()
    leaked = shm_segments()
    assert not alive and not leaked, (
        f"rank processes {[p.pid for p in alive]} or shared-memory "
        f"segments {leaked} outlived the test session")


def _lu_supersteps(comm, A, **kw):
    from repro.parallel.spmd import spmd_lu_crtp
    spmd_lu_crtp(comm, A, checkpoint_callback=lambda state: None, **kw)
    return comm.superstep


@pytest.fixture(scope="session")
def lu_crash_superstep():
    """``pick(A, nprocs, rank, **kw)``: a superstep at which a crash of
    ``rank`` in a checkpointing ``spmd_lu_crtp`` run lands after the
    first checkpoint and before the run ends.

    Both ends come from clean threads-backend runs (a one-iteration run
    ends with the first checkpoint's gather), so no message count of the
    schedule is baked into a test; both backends count supersteps alike.
    """
    from repro.parallel.comm import run_spmd

    def pick(A, nprocs, rank, **kw):
        first = run_spmd(nprocs, _lu_supersteps, A, max_rank=kw["k"],
                         **kw)["results"][rank]
        last = run_spmd(nprocs, _lu_supersteps, A, **kw)["results"][rank]
        assert first < last
        return (first + last + 1) // 2
    return pick


@pytest.fixture
def rng():
    return np.random.default_rng(42)


@pytest.fixture
def small_sparse(rng):
    """A 60x60 sparse matrix with exponentially graded singular values."""
    from repro.matrices.generators import random_graded
    return random_graded(60, 60, nnz_per_row=6, decay_rate=6.0, seed=5)


@pytest.fixture
def tall_sparse(rng):
    """A 120x40 rectangular sparse matrix."""
    from repro.matrices.generators import random_graded
    return random_graded(120, 40, nnz_per_row=5, decay_rate=4.0, seed=6)


@pytest.fixture
def rank_deficient():
    """Exactly rank-12 sparse 50x50 matrix."""
    rng = np.random.default_rng(7)
    X = sp.random(50, 12, density=0.5, random_state=rng,
                  data_rvs=rng.standard_normal)
    Y = sp.random(12, 50, density=0.5, random_state=rng,
                  data_rvs=rng.standard_normal)
    return (X @ Y).tocsc()


def dense_of(A):
    return A.toarray() if sp.issparse(A) else np.asarray(A, dtype=float)


@pytest.fixture
def assert_fro_close():
    def _check(A, B, rtol=1e-10, msg=""):
        A, B = dense_of(A), dense_of(B)
        denom = max(np.linalg.norm(A), 1e-300)
        assert np.linalg.norm(A - B) <= rtol * denom, msg
    return _check
