"""Rank respawn-from-checkpoint in the procs backend (survivable SPMD).

The acceptance criterion under test: a seeded ``RankCrash`` at P=4 with
``max_rank_restarts > 0`` no longer kills the run — the parent quiesces
the survivors, respawns the dead rank, and resumes every rank from the
last durable checkpoint, producing factors *bitwise identical* to a
fault-free run of the same program.  Also covered: scratch restarts
(no checkpoint on disk yet), multi-round recovery, the restart budget,
non-crash errors staying fatal, the threads-backend guard, and the two
satellite fixes (atomic checkpoint writes, the shm atexit registry).
"""

import numpy as np
import pytest

from repro.exceptions import CheckpointError, CommunicatorError, RankFailure
from repro.parallel.comm import run_spmd
from repro.parallel.faults import FaultPlan, MessageDrop, RankCrash
from repro.parallel.shm import (
    SharedMatrix,
    cleanup_owned,
    shm_segments,
)
from repro.parallel.spmd import spmd_lu_crtp, spmd_randqb_ei
from repro.serialize import load_checkpoint, save_checkpoint


@pytest.fixture
def A120():
    from repro.matrices.generators import random_graded
    return random_graded(120, 120, nnz_per_row=7, decay_rate=7.0, seed=21)


def _assert_results_bitwise(a, b):
    assert len(a) == len(b)
    for ra, rb in zip(a, b):
        assert len(ra) == len(rb)
        for xa, xb in zip(ra, rb):
            if isinstance(xa, np.ndarray):
                assert np.array_equal(xa, xb)
            else:
                assert xa == xb


# ---------------------------------------------------------------------------
# Acceptance: crash → respawn → resume → bitwise-identical factors
# ---------------------------------------------------------------------------

def test_respawn_resumes_bitwise_identical_randqb(A120, tmp_path):
    clean = run_spmd(4, spmd_randqb_ei, A120, k=8, tol=1e-2, seed=0,
                     backend="procs")
    plan = FaultPlan([RankCrash(rank=1, superstep=40)], seed=0)
    out = run_spmd(4, spmd_randqb_ei, A120, k=8, tol=1e-2, seed=0,
                   backend="procs", fault_plan=plan,
                   checkpoint_path=str(tmp_path / "qb.ckpt.npz"),
                   max_rank_restarts=2, recv_timeout=5.0,
                   collective_timeout=20.0)
    assert out["restarts"] == 1
    _assert_results_bitwise(clean["results"], out["results"])
    assert shm_segments() == []


def test_respawn_resumes_bitwise_identical_lu(A120, tmp_path,
                                              lu_crash_superstep):
    clean = run_spmd(4, spmd_lu_crtp, A120, k=8, tol=1e-2, backend="procs")
    crash = lu_crash_superstep(A120, 4, 1, k=8, tol=1e-2)
    plan = FaultPlan([RankCrash(rank=1, superstep=crash)], seed=0)
    out = run_spmd(4, spmd_lu_crtp, A120, k=8, tol=1e-2, backend="procs",
                   fault_plan=plan,
                   checkpoint_path=str(tmp_path / "lu.ckpt.npz"),
                   max_rank_restarts=2, recv_timeout=5.0,
                   collective_timeout=20.0)
    assert out["restarts"] == 1
    _assert_results_bitwise(clean["results"], out["results"])
    K, conv, rel = out["results"][0]
    assert conv and rel < 1e-2


def test_respawn_without_checkpoint_restarts_from_scratch(A120):
    """No checkpoint on disk: the cohort restarts the program from the
    top, which is still deterministic → still bitwise identical."""
    clean = run_spmd(4, spmd_randqb_ei, A120, k=8, tol=1e-2, seed=0,
                     backend="procs")
    plan = FaultPlan([RankCrash(rank=2, superstep=10)], seed=0)
    out = run_spmd(4, spmd_randqb_ei, A120, k=8, tol=1e-2, seed=0,
                   backend="procs", fault_plan=plan, max_rank_restarts=1,
                   recv_timeout=5.0, collective_timeout=20.0)
    assert out["restarts"] == 1
    _assert_results_bitwise(clean["results"], out["results"])


def test_respawn_two_recovery_rounds(A120, tmp_path):
    """Two distinct crashes need two recovery rounds; each fired crash
    is filtered from the resumed plan so it cannot re-fire."""
    clean = run_spmd(4, spmd_randqb_ei, A120, k=8, tol=1e-2, seed=0,
                     backend="procs")
    plan = FaultPlan([RankCrash(rank=1, superstep=10),
                      RankCrash(rank=3, superstep=30)], seed=0)
    out = run_spmd(4, spmd_randqb_ei, A120, k=8, tol=1e-2, seed=0,
                   backend="procs", fault_plan=plan,
                   checkpoint_path=str(tmp_path / "qb2.ckpt.npz"),
                   max_rank_restarts=2, recv_timeout=5.0,
                   collective_timeout=20.0)
    assert out["restarts"] == 2
    _assert_results_bitwise(clean["results"], out["results"])
    assert shm_segments() == []


# ---------------------------------------------------------------------------
# Budget and failure classification
# ---------------------------------------------------------------------------

def test_restart_budget_default_zero_still_raises(A120):
    plan = FaultPlan([RankCrash(rank=1, superstep=40)], seed=0)
    with pytest.raises(RankFailure) as ei:
        run_spmd(4, spmd_randqb_ei, A120, k=8, tol=1e-2, seed=0,
                 backend="procs", fault_plan=plan, recv_timeout=5.0,
                 collective_timeout=20.0)
    assert (ei.value.rank, ei.value.superstep) == (1, 40)
    assert shm_segments() == []


def test_restart_budget_exhausted_raises(A120, tmp_path):
    plan = FaultPlan([RankCrash(rank=1, superstep=10),
                      RankCrash(rank=3, superstep=30)], seed=0)
    with pytest.raises(RankFailure):
        run_spmd(4, spmd_randqb_ei, A120, k=8, tol=1e-2, seed=0,
                 backend="procs", fault_plan=plan,
                 checkpoint_path=str(tmp_path / "qb3.ckpt.npz"),
                 max_rank_restarts=1, recv_timeout=5.0,
                 collective_timeout=20.0)
    assert shm_segments() == []


def test_program_error_is_not_respawned():
    """Respawn covers rank *crashes*; a deterministic program bug would
    just crash again, so it stays fatal even with budget left."""
    def bad(comm):
        comm.barrier_sync()
        if comm.rank == 2:
            raise ZeroDivisionError("rank 2 exploded")
        comm.barrier_sync()
        return comm.rank

    with pytest.raises(Exception, match="rank 2 exploded"):
        run_spmd(4, bad, backend="procs", max_rank_restarts=3,
                 recv_timeout=5.0, collective_timeout=20.0)
    assert shm_segments() == []


def test_clean_run_reports_zero_restarts(A120):
    out = run_spmd(4, spmd_randqb_ei, A120, k=8, tol=1e-2, seed=0,
                   backend="procs", max_rank_restarts=2)
    assert out["restarts"] == 0


def test_threads_backend_rejects_max_rank_restarts(A120):
    with pytest.raises(CommunicatorError, match="max_rank_restarts"):
        run_spmd(2, spmd_randqb_ei, A120, k=8, tol=1e-1, seed=0,
                 max_rank_restarts=1)


def test_fault_plan_without_crashes_for():
    plan = FaultPlan([RankCrash(rank=1, superstep=5),
                      RankCrash(rank=2, superstep=9),
                      MessageDrop(src=0, dst=1)], seed=7)
    pruned = plan.without_crashes_for([1])
    kinds = [type(s).__name__ for s in pruned]
    assert kinds == ["RankCrash", "MessageDrop"]  # rank 2's crash kept
    assert pruned.faults[0].rank == 2
    assert pruned.seed == 7
    # message-level faults model the channel, not a one-shot event
    assert any(isinstance(s, MessageDrop) for s in pruned)


# ---------------------------------------------------------------------------
# Satellite (a): checkpoint writes are atomic
# ---------------------------------------------------------------------------

def test_checkpoint_write_is_atomic(tmp_path, monkeypatch):
    path = tmp_path / "state.npz"
    save_checkpoint(path, {"K": 8, "X": np.arange(6.0)})
    good = load_checkpoint(path)
    assert good["K"] == 8

    # a crash at the final rename must leave the previous checkpoint
    # intact and no temp litter behind
    import repro.serialize as serialize

    def boom(src, dst):
        raise OSError("simulated crash at rename")
    monkeypatch.setattr(serialize.os, "replace", boom)
    with pytest.raises(OSError, match="simulated crash"):
        save_checkpoint(path, {"K": 9, "X": np.arange(7.0)})
    monkeypatch.undo()

    survived = load_checkpoint(path)
    assert survived["K"] == 8
    assert np.array_equal(survived["X"], np.arange(6.0))
    assert [p.name for p in tmp_path.iterdir()] == ["state.npz"]


def test_checkpoint_unserializable_value_fails_before_write(tmp_path):
    path = tmp_path / "never.npz"
    with pytest.raises(CheckpointError, match="not serializable"):
        save_checkpoint(path, {"bad": object()})
    assert not path.exists()
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# Satellite (c): atexit registry for owned shm segments
# ---------------------------------------------------------------------------

def test_shm_atexit_registry_sweeps_orphans():
    A = np.arange(64 * 80, dtype=float).reshape(64, 80)
    shared = SharedMatrix.publish(A)
    name = shared.meta["name"]
    assert name in shm_segments()
    # simulate abnormal parent death: nobody called close(); the atexit
    # sweep must unlink the orphan
    cleaned = cleanup_owned()
    assert name in cleaned
    assert shm_segments() == []
    shared.close()  # late close after the sweep must not raise


def test_shm_registry_empty_after_clean_close():
    A = np.arange(32 * 32, dtype=float).reshape(32, 32)
    shared = SharedMatrix.publish(A)
    shared.close()  # normal path: close() unlinks and unregisters
    assert cleanup_owned() == []
    assert shm_segments() == []
