"""Chaos tests: fault injection, timeout/retry, checkpoint-resume, recovery.

The fault model (docs/robustness.md) promises two behaviors:

- **masked** faults (clock-skew stalls, corrupted tournament candidates
  that lose) leave the factorization correct — ``||A - HW||_F < tau
  ||A||_F`` holds;
- **unmasked** faults (rank crash, dropped message, a corrupted candidate
  that wins) surface as *typed* exceptions naming the failing rank /
  route / superstep instead of deadlocking or a wrong answer, and a
  crashed run resumed from its last checkpoint reaches the same rank and
  tolerance as an uninterrupted one.
"""

import time

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core import ILUT_CRTP, LU_CRTP, RandQB_EI
from repro.core.recovery import RecoveryLog, RecoveryPolicy
from repro.exceptions import (
    CheckpointError,
    CommTimeoutError,
    PayloadIntegrityError,
    RankDeficiencyBreakdown,
    RankFailure,
)
from repro.linalg.cholqr import cholqr2
from repro.matrices.generators import random_graded
from repro.parallel.comm import run_spmd
from repro.parallel.faults import (
    DROP,
    ClockSkewStall,
    FaultPlan,
    MessageDrop,
    PayloadCorruption,
    RankCrash,
)
from repro.parallel.spmd import spmd_lu_crtp, spmd_randqb_ei


@pytest.fixture(scope="module")
def A100():
    return random_graded(100, 100, nnz_per_row=6, decay_rate=5.0, seed=3)


# ---------------------------------------------------------------------------
# Fault primitives
# ---------------------------------------------------------------------------

def test_fault_plan_reusable_and_deterministic():
    plan = FaultPlan([PayloadCorruption(src=0, dst=1, scale=1e-2)], seed=7)
    payload = np.linspace(0.0, 1.0, 32)
    out1 = plan.build().filter_send(0, 1, 0, payload.copy())
    out2 = plan.build().filter_send(0, 1, 0, payload.copy())
    np.testing.assert_array_equal(out1, out2)
    assert not np.array_equal(out1, payload)


def test_corruption_spares_integer_arrays():
    plan = FaultPlan([PayloadCorruption(src=0, dst=1)], seed=0)
    ids = np.arange(5)
    vals = np.ones(5)
    M = sp.random(6, 6, density=0.5, format="csc", random_state=1)
    out = plan.build().filter_send(0, 1, 0, (ids, vals, M))
    out_ids, out_vals, out_M = out
    np.testing.assert_array_equal(out_ids, ids)  # addressing untouched
    assert not np.array_equal(out_vals, vals)    # values perturbed
    assert out_M.nnz == M.nnz
    assert not np.array_equal(out_M.data, M.data)
    np.testing.assert_array_equal(M.data, sp.random(
        6, 6, density=0.5, format="csc", random_state=1).data)  # no aliasing


def test_message_drop_count_bounds():
    inj = FaultPlan([MessageDrop(src=0, dst=1, count=2)]).build()
    assert inj.filter_send(0, 1, 0, 1.0) is DROP
    assert inj.filter_send(0, 1, 0, 1.0) is DROP
    assert inj.filter_send(0, 1, 0, 1.0) == 1.0  # budget exhausted
    assert inj.filter_send(1, 0, 0, 1.0) == 1.0  # other routes untouched
    assert len(inj.injected) == 2


def test_unknown_fault_spec_rejected():
    with pytest.raises(TypeError):
        FaultPlan(["nonsense"]).build()


# ---------------------------------------------------------------------------
# Unmasked faults surface as typed errors, not deadlocks
# ---------------------------------------------------------------------------

def test_rank_crash_surfaces_typed_failure():
    def prog(comm):
        for _ in range(5):
            comm.allgather(comm.rank)

    plan = FaultPlan([RankCrash(rank=1, superstep=3)])
    with pytest.raises(RankFailure) as ei:
        run_spmd(4, prog, fault_plan=plan, collective_timeout=10.0)
    assert ei.value.rank == 1
    assert ei.value.superstep == 3
    assert ei.value.injected


def test_message_drop_raises_timeout_naming_route():
    def prog(comm):
        if comm.rank == 0:
            comm.send(np.ones(3), 1, tag=5)
        elif comm.rank == 1:
            return comm.recv(0, tag=5)
        return None

    plan = FaultPlan([MessageDrop(src=0, dst=1, tag=5)])
    start = time.perf_counter()
    with pytest.raises(CommTimeoutError) as ei:
        run_spmd(2, prog, fault_plan=plan, recv_timeout=0.3)
    assert time.perf_counter() - start < 30.0
    assert (ei.value.src, ei.value.dst, ei.value.tag) == (0, 1, 5)


def test_recv_fails_fast_on_dead_sender():
    def prog(comm):
        if comm.rank == 0:
            return comm.recv(1, timeout=30.0)
        comm.send(1.0, 0)  # never happens: rank 1 dies on its first op
        return None

    plan = FaultPlan([RankCrash(rank=1, superstep=1)])
    start = time.perf_counter()
    with pytest.raises(RankFailure):
        run_spmd(2, prog, fault_plan=plan)
    # the 30 s timeout is *not* awaited: the dead sender is detected early
    assert time.perf_counter() - start < 10.0


# ---------------------------------------------------------------------------
# Masked faults: the factorization stays within tolerance
# ---------------------------------------------------------------------------

def test_clock_skew_is_masked_but_costs_time(A100):
    base = run_spmd(4, spmd_randqb_ei, A100, k=8, tol=1e-2, seed=0)
    plan = FaultPlan([ClockSkewStall(rank=2, superstep=5, seconds=3.0)])
    out = run_spmd(4, spmd_randqb_ei, A100, k=8, tol=1e-2, seed=0,
                   fault_plan=plan)
    Q = np.vstack([r[0] for r in out["results"]])
    B = out["results"][0][1]
    err = np.linalg.norm(A100.toarray() - Q @ B)
    assert err < 1e-2 * np.linalg.norm(A100.toarray())
    assert out["results"][0][2] == base["results"][0][2]  # same rank
    # the straggler's stall shows up in the modeled wall-clock
    assert out["elapsed"] >= base["elapsed"] + 3.0


def test_corrupted_tournament_candidates_are_masked(A100):
    # perturb the p2p candidate exchanges of the column tournament in
    # iterations 1-3, where rank 6's candidates (the only columns on the
    # 6 -> 4 route: rank 7 owns none of A100's) lose the round-1 match: the
    # altered values never reach the factors, so the run is the fault-free
    # one bit for bit
    base = run_spmd(8, spmd_lu_crtp, A100, k=8, tol=1e-2)["results"][0]
    inj = FaultPlan([PayloadCorruption(src=6, dst=4, tag=1, scale=1e-2,
                                       count=3)], seed=5).build()
    out = run_spmd(8, spmd_lu_crtp, A100, k=8, tol=1e-2, fault_plan=inj)
    assert inj.injected == ["corrupt 6->4 tag=1"] * 3
    assert out["results"][0] == base
    K, conv, rel = base
    assert conv
    assert rel < 1e-2


@pytest.mark.parametrize("backend", ["threads", "procs"])
def test_corrupted_tournament_winner_is_caught(A100, backend):
    # a corrupted candidate that wins would feed altered values into A11,
    # A21 and F on every rank while the Schur update pairs them with the
    # owners' true A12/A22; its owner sees the broadcast copy differ from
    # its own and every rank raises before any block is updated
    plan = FaultPlan(
        [PayloadCorruption(src=1, dst=0, scale=1e-2, count=3)], seed=5)
    with pytest.raises(PayloadIntegrityError) as ei:
        run_spmd(4, spmd_lu_crtp, A100, k=8, tol=1e-2, fault_plan=plan,
                 backend=backend)
    assert ei.value.ranks == (1,)
    assert ei.value.iteration == 1


# ---------------------------------------------------------------------------
# Checkpoint -> crash -> resume (the acceptance scenario)
# ---------------------------------------------------------------------------

def test_spmd_lu_crash_checkpoint_resume(A100, tmp_path, lu_crash_superstep):
    base = run_spmd(4, spmd_lu_crtp, A100, k=8, tol=1e-2)
    K0, conv0, rel0 = base["results"][0]
    assert conv0

    ckpt = tmp_path / "lu.ckpt.npz"
    crash = lu_crash_superstep(A100, 4, 1, k=8, tol=1e-2)
    plan = FaultPlan([RankCrash(rank=1, superstep=crash)])
    with pytest.raises(RankFailure) as ei:
        run_spmd(4, spmd_lu_crtp, A100, k=8, tol=1e-2,
                 checkpoint_path=ckpt, fault_plan=plan,
                 recv_timeout=2.0, collective_timeout=10.0)
    assert ei.value.rank == 1
    assert ckpt.exists()  # at least one completed iteration was persisted

    out = run_spmd(4, spmd_lu_crtp, A100, k=8, tol=1e-2,
                   resume_from=str(ckpt))
    K, conv, rel = out["results"][0]
    assert (K, conv) == (K0, conv0)
    assert rel == pytest.approx(rel0, rel=1e-12)
    assert rel < 1e-2


def test_spmd_randqb_crash_checkpoint_resume(A100):
    base = run_spmd(4, spmd_randqb_ei, A100, k=8, tol=1e-2, seed=0)
    _, B0, K0, conv0 = base["results"][0]

    states = []
    plan = FaultPlan([RankCrash(rank=2, superstep=25)])
    with pytest.raises(RankFailure):
        run_spmd(4, spmd_randqb_ei, A100, k=8, tol=1e-2, seed=0,
                 checkpoint_callback=states.append, fault_plan=plan,
                 recv_timeout=2.0, collective_timeout=10.0)
    assert states

    out = run_spmd(4, spmd_randqb_ei, A100, k=8, tol=1e-2, seed=0,
                   resume_from=states[-1])
    _, B, K, conv = out["results"][0]
    assert (K, conv) == (K0, conv0)
    # the RNG stream is restored exactly, so the resumed factors match
    np.testing.assert_allclose(B, B0, rtol=0, atol=1e-12)


def test_spmd_checkpoint_nprocs_mismatch(A100):
    states = []
    run_spmd(2, spmd_randqb_ei, A100, k=8, tol=1e-1, seed=0,
             checkpoint_callback=states.append)
    assert states
    with pytest.raises(CheckpointError):
        run_spmd(4, spmd_randqb_ei, A100, k=8, tol=1e-1, seed=0,
                 resume_from=states[-1])


# ---------------------------------------------------------------------------
# Sequential drivers: resume reproduces the uninterrupted run
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("cls,kw", [
    (RandQB_EI, dict(k=8, tol=1e-2, seed=0)),
    (LU_CRTP, dict(k=8, tol=1e-2)),
    (ILUT_CRTP, dict(k=8, tol=1e-2, estimated_iterations=8)),
])
def test_sequential_resume_matches_uninterrupted(A100, cls, kw):
    baseline = cls(**kw).solve(A100)
    states = []
    cls(checkpoint_callback=states.append, **kw).solve(A100)
    assert len(states) >= 2
    mid = states[max(0, len(states) // 2 - 1)]
    resumed = cls(**kw).solve(A100, resume_from=mid)
    assert resumed.rank == baseline.rank
    assert resumed.converged == baseline.converged
    assert resumed.indicator == pytest.approx(baseline.indicator, rel=1e-12)


def test_resume_from_final_checkpoint_returns_immediately(A100):
    states = []
    base = LU_CRTP(k=8, tol=1e-2,
                   checkpoint_callback=states.append).solve(A100)
    res = LU_CRTP(k=8, tol=1e-2).solve(A100, resume_from=states[-1])
    assert res.converged
    assert res.rank == base.rank
    assert len(res.history) == len(base.history)


def test_resume_wrong_kind_rejected(A100):
    states = []
    LU_CRTP(k=8, tol=1e-1, checkpoint_callback=states.append).solve(A100)
    with pytest.raises(CheckpointError):
        ILUT_CRTP(k=8, tol=1e-1, estimated_iterations=8).solve(
            A100, resume_from=states[-1])
    with pytest.raises(CheckpointError):
        RandQB_EI(k=8, tol=1e-1).solve(A100, resume_from=states[-1])


def test_checkpoint_path_roundtrip_sequential(A100, tmp_path):
    ckpt = tmp_path / "qb.ckpt.npz"
    base = RandQB_EI(k=8, tol=1e-2, seed=0,
                     checkpoint_path=ckpt).solve(A100)
    assert ckpt.exists()
    resumed = RandQB_EI(k=8, tol=1e-2, seed=0).solve(
        A100, resume_from=str(ckpt))
    assert resumed.rank == base.rank
    assert resumed.converged


# ---------------------------------------------------------------------------
# Recovery policies
# ---------------------------------------------------------------------------

def test_recovery_policy_validation():
    with pytest.raises(ValueError):
        RecoveryPolicy(on_rank_deficiency="retry")
    with pytest.raises(ValueError):
        RecoveryPolicy(on_cholesky_breakdown="raise")


def test_cholqr2_dense_fallback_is_logged():
    rng = np.random.default_rng(0)
    B = rng.standard_normal((20, 4))
    B[:, 3] = 0.0  # exactly rank-deficient: Cholesky must break down
    log = RecoveryLog()
    Q, R, clean = cholqr2(B, recovery_log=log)
    assert not clean
    assert log.count("cholqr_dense_fallback") == 1
    assert log.events[0].context["shape"] == [20, 4]
    # the fallback basis is still orthonormal and usable
    assert np.allclose(Q.T @ Q, np.eye(4), atol=1e-8)


def _flaky_iteration(state, fail_at):
    """Wrap LU_CRTP._iteration to raise one synthetic breakdown."""
    orig = LU_CRTP._iteration

    def flaky(self, active, k_i, i, r11_first):
        if i == fail_at and not state["tripped"]:
            state["tripped"] = True
            raise RankDeficiencyBreakdown("synthetic breakdown", iteration=i)
        return orig(self, active, k_i, i, r11_first)

    return flaky


def test_ilut_breakdown_recovers_to_exact(A100, monkeypatch):
    policy = RecoveryPolicy(max_recoveries=2)
    state = {"tripped": False}
    monkeypatch.setattr(LU_CRTP, "_iteration", _flaky_iteration(state, 3))
    res = ILUT_CRTP(k=8, tol=1e-2, estimated_iterations=4,
                    phi_factor=100.0, recovery=policy).solve(A100)
    assert state["tripped"]
    assert policy.log.count("ilut_undo_exact_fallback") == 1
    assert res.converged
    assert res.control_triggered  # thresholding disabled after recovery
    ev = policy.log.events[0]
    assert ev.action == "ilut_undo_exact_fallback"
    assert "undone_drop" in ev.context


def test_ilut_breakdown_without_policy_raises(A100, monkeypatch):
    state = {"tripped": False}
    monkeypatch.setattr(LU_CRTP, "_iteration", _flaky_iteration(state, 3))
    with pytest.raises(RankDeficiencyBreakdown):
        ILUT_CRTP(k=8, tol=1e-2, estimated_iterations=4,
                  phi_factor=100.0).solve(A100)


def test_ilut_recovery_budget_exhausted(A100, monkeypatch):
    policy = RecoveryPolicy(max_recoveries=0)
    state = {"tripped": False}
    monkeypatch.setattr(LU_CRTP, "_iteration", _flaky_iteration(state, 3))
    with pytest.raises(RankDeficiencyBreakdown):
        ILUT_CRTP(k=8, tol=1e-2, estimated_iterations=4,
                  phi_factor=100.0, recovery=policy).solve(A100)
