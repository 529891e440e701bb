"""The library's thread budget (:mod:`repro.kernels.threads`).

Solves and SPMD runs hold the loaded OpenBLAS pools at one thread and
give the caller's pool sizes back afterwards; procs ranks pin their
pools and their OpenMP SpGEMM to one thread.  Tests that need a pool to
observe are skipped on hosts where none is found (MKL, Accelerate,
non-Linux); there the budget must be a no-op.
"""

from __future__ import annotations

import multiprocessing as mp
import sys
import threading
import warnings

import pytest

from repro import kernels, perf
from repro.core import (
    LU_CRTP,
    AdaptiveRangeFinder,
    AdaptiveRSVD,
    RandQB_b,
    RandQB_EI,
    RandUBV,
)
from repro.exceptions import ConvergenceError
from repro.kernels import threads
from repro.matrices import random_graded
from repro.parallel import run_spmd
from repro.parallel.spmd import run_spmd_solver

needs_pool = pytest.mark.skipif(not threads.blas_threads(),
                                reason="no OpenBLAS pool found")
needs_fork = pytest.mark.skipif("fork" not in mp.get_all_start_methods(),
                                reason="no fork start method")

#: The caller's pool size in these tests: not 1, so a pool the library
#: failed to give back shows.
CALLER = 3


@pytest.fixture
def caller_pool():
    before = threads.blas_threads()
    threads.set_blas_threads(CALLER)
    yield CALLER
    threads.set_blas_threads(before)


@pytest.fixture(scope="module")
def A():
    return random_graded(100, 100, nnz_per_row=6, decay_rate=5.0, seed=3)


def _budget(comm):
    return threads.blas_threads(), threads.kernel_threads()


# -- SPMD ranks --------------------------------------------------------------

@needs_pool
@pytest.mark.parametrize("backend,start", [
    ("threads", None),
    ("procs", "fork"),
    # a spawned rank starts a fresh interpreter with a full-size pool: the
    # rank pin, not an inherited scope, brings it to one thread
    ("procs", "spawn"),
])
def test_rank_programs_run_one_blas_thread(backend, start, caller_pool,
                                           monkeypatch):
    if start is not None and start not in mp.get_all_start_methods():
        pytest.skip(f"no {start} start method")
    monkeypatch.setenv(kernels.THREADS_ENV, "4")
    out = run_spmd(2, _budget, backend=backend, mp_context=start)
    assert [blas for blas, _ in out["results"]] == [1, 1]
    if backend == "procs":   # the rank pin overrides the caller's env
        assert [kt for _, kt in out["results"]] == [1, 1]
    assert threads.blas_threads() == CALLER


@needs_pool
def test_run_spmd_solver_restores_caller_pool(caller_pool, A):
    res = run_spmd_solver("lu", A, 2, k=8, tol=1e-2)
    assert res.converged
    assert threads.blas_threads() == CALLER


# -- solves ------------------------------------------------------------------

@needs_pool
def test_solve_runs_one_blas_thread_and_restores(caller_pool, A):
    seen = []
    res = LU_CRTP(k=8, tol=1e-2,
                  callback=lambda _: seen.append(threads.blas_threads())
                  ).solve(A)
    assert res.converged and seen and set(seen) == {1}
    assert threads.blas_threads() == CALLER


@needs_pool
def test_raising_solve_restores_caller_pool(caller_pool, A):
    with pytest.raises(ConvergenceError):
        LU_CRTP(k=8, tol=1e-2, max_rank=8, raise_on_failure=True).solve(A)
    assert threads.blas_threads() == CALLER


@needs_pool
def test_concurrent_solves_restore_after_the_last(caller_pool, A):
    entered = [threading.Event(), threading.Event()]
    release = [threading.Event(), threading.Event()]
    errors = []

    def solve(i):
        def hold(_record):
            entered[i].set()
            release[i].wait(60)
        try:
            LU_CRTP(k=8, tol=1e-2, callback=hold).solve(A)
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    workers = [threading.Thread(target=solve, args=(i,)) for i in range(2)]
    try:
        workers[0].start()
        assert entered[0].wait(60)
        assert threads.blas_threads() == 1
        workers[1].start()
        assert entered[1].wait(60)
        release[0].set()
        workers[0].join(60)
        assert not workers[0].is_alive()
        assert threads.blas_threads() == 1   # the second solve still runs
        release[1].set()
        workers[1].join(60)
        assert threads.blas_threads() == CALLER
    finally:
        for event in release:
            event.set()
        for worker in workers:
            if worker.is_alive():
                worker.join(60)
    assert not errors


@needs_pool
def test_scope_holds_under_contention(caller_pool):
    # more threads than cores entering and leaving at a short switch
    # interval: a lost update on the holder count would restore the pool
    # under a holder still inside, or never restore it
    seen, errors = set(), []

    def enter_and_leave():
        try:
            for _ in range(2000):
                with threads.one_blas_thread():
                    seen.add(threads.blas_threads())
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    workers = [threading.Thread(target=enter_and_leave) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert not errors
    assert seen == {1}
    assert threads.blas_threads() == CALLER


@pytest.mark.parametrize("make", [
    lambda: RandQB_EI(k=8, tol=1e-8, max_rank=8, raise_on_failure=False,
                      allow_unsafe_tolerance=True),
    lambda: RandUBV(k=8, tol=1e-8, max_rank=8, raise_on_failure=False,
                    allow_unsafe_tolerance=True),
    lambda: AdaptiveRangeFinder(tol=1e-8, max_rank=8),
    lambda: RandQB_b(k=8, tol=1e-8, max_rank=8),
    lambda: AdaptiveRSVD(tol=1e-8, initial_rank=8, max_rank=8),
], ids=["randqb_ei", "randubv", "arrf", "randqb_b", "rsvd"])
def test_solver_warnings_name_the_caller(make, A):
    # the scope wraps solve(): its warnings must skip the wrapper frame
    solver = make()
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        solver.solve(A)
    assert record
    assert "double-precision floor" in str(record[0].message)
    assert record[0].filename == __file__
    # RandQB_b's densify warning too
    assert all(w.filename == __file__ for w in record)


# -- gauge and no-pool hosts -------------------------------------------------

@needs_pool
def test_gauge_records_the_pool_the_solve_ran_with(caller_pool, A):
    perf.reset()
    perf.enable()
    try:
        LU_CRTP(k=8, tol=1e-2).solve(A)
        assert perf.get_recorder().counters["kernel_tier.blas_threads"] == 1
    finally:
        perf.disable()
        perf.reset()


def test_without_a_pool_everything_is_a_noop(A, monkeypatch):
    monkeypatch.setattr(threads, "_pools", ())
    monkeypatch.setenv(kernels.THREADS_ENV, "4")
    assert threads.blas_threads() == 0
    threads.set_blas_threads(2)
    with threads.one_blas_thread():
        assert threads.blas_threads() == 0
    threads.pin_rank()
    assert threads.kernel_threads() == 1
    perf.reset()
    perf.enable()
    try:
        assert LU_CRTP(k=8, tol=1e-2).solve(A).converged
        assert perf.get_recorder().counters["kernel_tier.blas_threads"] == 0
    finally:
        perf.disable()
        perf.reset()


# -- fork safety -------------------------------------------------------------

def _scope_in_child():
    with threads.one_blas_thread():
        pass


def _child_is_a_fresh_holder():
    threads.set_blas_threads(2)
    with threads.one_blas_thread():
        inside = threads.blas_threads()
    raise SystemExit(0 if (inside, threads.blas_threads()) == (1, 2) else 1)


def _exitcode(child) -> int | None:
    """Join a forked child; kill it and return None if it hangs."""
    child.join(60)
    if child.is_alive():
        child.kill()
        child.join()
        return None
    return child.exitcode


@needs_fork
def test_child_forked_under_the_lock_does_not_deadlock():
    # a procs fork taken while a service worker is entering or leaving
    # the scope: the child must not inherit the held lock
    with threads._lock:
        child = mp.get_context("fork").Process(target=_scope_in_child)
        child.start()
    assert _exitcode(child) == 0


@needs_pool
@needs_fork
def test_child_forked_inside_the_scope_starts_fresh(caller_pool):
    # the child inherits pools of 1 but none of the parent's holders: its
    # own scope saves the sizes it finds and gives them back
    with threads.one_blas_thread():
        child = mp.get_context("fork").Process(target=_child_is_a_fresh_holder)
        child.start()
    assert _exitcode(child) == 0
    assert threads.blas_threads() == CALLER
