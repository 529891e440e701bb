"""Tests for the process-per-rank SPMD backend (repro.parallel.procs).

The contract under test: ``run_spmd(..., backend="procs")`` is a drop-in
for the thread backend — bitwise-identical results, modeled clocks,
kernel attribution and comm ledgers — while actually running one OS
process per rank with the matrix shared via ``multiprocessing.
shared_memory``.  Also covered: the tree/ring collective algorithms,
cross-backend checkpointing, fault parity, shared-memory hygiene, and
the two satellite fixes (sparse ``_payload_bytes``, loud join timeout).
"""

import secrets
from multiprocessing import shared_memory
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from repro.exceptions import (
    CommTimeoutError,
    CommunicatorError,
    RankFailure,
)
from repro.parallel.comm import _payload_bytes, run_spmd
from repro.parallel.faults import FaultPlan, RankCrash
from repro.parallel.machine import MachineModel
from repro.parallel.report import CommReport
from repro.parallel.shm import SHM_PREFIX, shm_segments
from repro.parallel.spmd import spmd_lu_crtp, spmd_randqb_ei


@pytest.fixture
def A120():
    from repro.matrices.generators import random_graded
    return random_graded(120, 120, nnz_per_row=7, decay_rate=7.0, seed=21)


def _assert_clocks_equal(a, b):
    assert [float(x) for x in a] == [float(x) for x in b]


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
# Backend parity: procs vs threads must agree bitwise
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("nprocs", [1, 4])
def test_procs_matches_threads_randqb(A120, nprocs):
    thr = run_spmd(nprocs, spmd_randqb_ei, A120, k=8, tol=1e-2, seed=0)
    prc = run_spmd(nprocs, spmd_randqb_ei, A120, k=8, tol=1e-2, seed=0,
                   backend="procs")
    assert thr["backend"] == "threads" and prc["backend"] == "procs"
    _assert_results_bitwise(thr["results"], prc["results"])
    _assert_clocks_equal(thr["clocks"], prc["clocks"])
    assert thr["elapsed"] == prc["elapsed"]
    assert thr["kernel_seconds"] == prc["kernel_seconds"]


def test_procs_matches_threads_lu(A120):
    thr = run_spmd(4, spmd_lu_crtp, A120, k=8, tol=1e-2)
    prc = run_spmd(4, spmd_lu_crtp, A120, k=8, tol=1e-2, backend="procs")
    _assert_results_bitwise(thr["results"], prc["results"])
    _assert_clocks_equal(thr["clocks"], prc["clocks"])
    K, conv, rel = prc["results"][0]
    assert conv and rel < 1e-2


def test_procs_ledger_matches_threads(A120):
    thr = run_spmd(3, spmd_randqb_ei, A120, k=8, tol=1e-2, seed=0)
    prc = run_spmd(3, spmd_randqb_ei, A120, k=8, tol=1e-2, seed=0,
                   backend="procs")
    ct, cp = thr["comm"], prc["comm"]
    assert ct["bytes_sent"] == cp["bytes_sent"]
    assert ct["msgs"] == cp["msgs"]
    assert ct["by_op"] == cp["by_op"]
    assert ct["by_kernel"] == cp["by_kernel"]
    assert cp["bytes_sent"] > 0 and cp["msgs"] > 0


def test_procs_custom_program_p2p_and_collectives(A120):
    def prog(comm, base):
        comm.kernel("mix")
        x = comm.bcast(np.full(4, base + comm.rank), root=1)
        if comm.nprocs > 1:
            if comm.rank == 0:
                comm.send(np.arange(3.0), dst=1, tag=7)
            elif comm.rank == 1:
                x = x + comm.recv(src=0, tag=7)[:3].sum()
        parts = comm.allgather(float(comm.rank))
        s = comm.allreduce_sum(np.full(5, comm.rank, dtype=float))
        g = comm.gather(comm.rank * 2, root=0)
        sc = comm.scatter([i * 10 for i in range(comm.nprocs)]
                          if comm.rank == 0 else None, root=0)
        comm.barrier_sync()
        return (x.tolist(), parts, s.tolist(), g, sc, comm.clock())

    thr = run_spmd(4, prog, 5.0)
    prc = run_spmd(4, prog, 5.0, backend="procs")
    assert thr["results"] == prc["results"]
    _assert_clocks_equal(thr["clocks"], prc["clocks"])
    assert thr["comm"]["by_op"] == prc["comm"]["by_op"]


# ---------------------------------------------------------------------------
# Collective algorithms: tree/ring transport, flat-identical model
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("nprocs", [2, 4, 5])
def test_tree_algo_identical_model_clocks(A120, nprocs):
    flat = run_spmd(nprocs, spmd_randqb_ei, A120, k=8, tol=1e-2, seed=0,
                    backend="procs")
    tree = run_spmd(nprocs, spmd_randqb_ei, A120, k=8, tol=1e-2, seed=0,
                    backend="procs", machine=MachineModel(comm_algo="tree"))
    # ring allreduce reorders floating-point sums, so results are close
    # (not bitwise); the alpha-beta-gamma cost model is transport-
    # independent by design, so modeled clocks stay bitwise identical
    for rf, rt in zip(flat["results"], tree["results"]):
        for xf, xt in zip(rf, rt):
            if isinstance(xf, np.ndarray):
                np.testing.assert_allclose(xt, xf, rtol=1e-9, atol=1e-12)
            else:
                assert xf == xt
    _assert_clocks_equal(flat["clocks"], tree["clocks"])
    assert tree["comm"]["algo"] == "tree"


def test_machine_model_rejects_unknown_algo():
    with pytest.raises(ValueError, match="comm_algo"):
        MachineModel(comm_algo="hypercube")


def test_comm_report_renders(A120):
    out = run_spmd(2, spmd_randqb_ei, A120, k=8, tol=1e-1, seed=0,
                   backend="procs")
    rep = CommReport.from_run(out)
    txt = rep.table()
    assert "backend=procs" in txt and "total" in txt
    txt_k = rep.table(by="kernel")
    assert "kernel" in txt_k
    with pytest.raises(ValueError):
        rep.table(by="rank")


# ---------------------------------------------------------------------------
# Checkpoints across backends
# ---------------------------------------------------------------------------

def test_checkpoint_procs_write_threads_resume(A120, tmp_path,
                                               lu_crash_superstep):
    base = run_spmd(4, spmd_lu_crtp, A120, k=8, tol=1e-2)
    K0, conv0, rel0 = base["results"][0]

    ckpt = tmp_path / "lu_procs.ckpt.npz"
    crash = lu_crash_superstep(A120, 4, 1, k=8, tol=1e-2)
    plan = FaultPlan([RankCrash(rank=1, superstep=crash)])
    with pytest.raises(RankFailure) as ei:
        run_spmd(4, spmd_lu_crtp, A120, k=8, tol=1e-2, backend="procs",
                 checkpoint_path=str(ckpt), fault_plan=plan,
                 recv_timeout=5.0, collective_timeout=20.0)
    assert ei.value.rank == 1
    assert ckpt.exists()

    out = run_spmd(4, spmd_lu_crtp, A120, k=8, tol=1e-2,
                   resume_from=str(ckpt))  # thread backend resumes it
    assert out["results"][0] == (K0, conv0, rel0)


def test_checkpoint_callback_rejected_on_procs(A120):
    with pytest.raises(CommunicatorError, match="checkpoint_callback"):
        run_spmd(2, spmd_randqb_ei, A120, k=8, tol=1e-1, seed=0,
                 backend="procs", checkpoint_callback=[].append)


# ---------------------------------------------------------------------------
# Faults and failure reporting
# ---------------------------------------------------------------------------

def test_procs_injected_crash_matches_threads(A120):
    def crash_plan():
        return FaultPlan([RankCrash(rank=1, superstep=5)])

    with pytest.raises(RankFailure) as et:
        run_spmd(4, spmd_randqb_ei, A120, k=8, tol=1e-2, seed=0,
                 fault_plan=crash_plan(), recv_timeout=5.0,
                 collective_timeout=20.0)
    with pytest.raises(RankFailure) as ep:
        run_spmd(4, spmd_randqb_ei, A120, k=8, tol=1e-2, seed=0,
                 backend="procs", fault_plan=crash_plan(),
                 recv_timeout=5.0, collective_timeout=20.0)
    assert (et.value.rank, et.value.superstep) == \
        (ep.value.rank, ep.value.superstep) == (1, 5)
    assert ep.value.injected


def test_procs_program_error_propagates(A120):
    def bad(comm):
        comm.barrier_sync()
        if comm.rank == 2:
            raise ZeroDivisionError("rank 2 exploded")
        comm.barrier_sync()
        return comm.rank

    with pytest.raises(Exception, match="rank 2 exploded"):
        run_spmd(4, bad, backend="procs", recv_timeout=5.0,
                 collective_timeout=20.0)


# ---------------------------------------------------------------------------
# Shared-memory hygiene: no leaked /dev/shm segments, ever
# ---------------------------------------------------------------------------

def test_no_shm_leak_after_normal_run(A120):
    run_spmd(4, spmd_randqb_ei, A120, k=8, tol=1e-2, seed=0,
             backend="procs")
    assert shm_segments() == []


def test_no_shm_leak_after_fault(A120):
    plan = FaultPlan([RankCrash(rank=0, superstep=3)])
    with pytest.raises(RankFailure):
        run_spmd(4, spmd_randqb_ei, A120, k=8, tol=1e-2, seed=0,
                 backend="procs", fault_plan=plan, recv_timeout=5.0,
                 collective_timeout=20.0)
    assert shm_segments() == []


def test_no_shm_leak_after_program_error(A120):
    def bad(comm):
        raise RuntimeError("boom")

    with pytest.raises(RuntimeError):
        run_spmd(3, bad, backend="procs", recv_timeout=5.0,
                 collective_timeout=20.0)
    assert shm_segments() == []


@pytest.mark.skipif(not Path("/dev/shm").is_dir(),
                    reason="no /dev/shm to list segments from")
def test_no_shm_leak_check_ignores_foreign_segments(A120):
    """A segment another process holds meanwhile (a concurrent procs
    run) is not a leak of this one."""
    name = f"{SHM_PREFIX}foreign{secrets.token_hex(4)}"
    foreign = shared_memory.SharedMemory(create=True, size=64, name=name)
    try:
        run_spmd(2, spmd_randqb_ei, A120, k=8, tol=1e-2, seed=0,
                 backend="procs")
        assert foreign.name in {p.name for p in Path("/dev/shm").iterdir()}
        assert shm_segments() == []
    finally:
        foreign.close()
        foreign.unlink()


# ---------------------------------------------------------------------------
# Satellite fixes
# ---------------------------------------------------------------------------

def test_payload_bytes_sparse_counts_index_arrays():
    A = sp.random(60, 40, density=0.1, format="csr", random_state=0)
    expected = (A.data.nbytes + A.indices.nbytes + A.indptr.nbytes)
    assert _payload_bytes(A) == expected
    # and it is no longer the old flat nnz*16 charge
    assert _payload_bytes(A) != A.nnz * 16
    C = A.tocoo()
    assert _payload_bytes(C) == C.data.nbytes + C.row.nbytes + C.col.nbytes


def test_thread_join_timeout_names_stuck_ranks():
    def stuck(comm):
        comm.barrier_sync()
        if comm.rank == 1:
            # waits on a message nobody sends; recv_timeout outlives the
            # parent's join deadline so the rank is still alive then
            comm.recv(src=0, tag=99)
        return comm.rank

    with pytest.raises(CommTimeoutError, match=r"rank 1") as ei:
        run_spmd(2, stuck, recv_timeout=6.0, collective_timeout=6.0,
                 join_timeout=1.0)
    assert "failed to join" in str(ei.value)


def test_backend_validated():
    with pytest.raises(CommunicatorError, match="backend"):
        run_spmd(2, lambda comm: comm.rank, backend="mpi")
