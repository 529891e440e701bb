"""The long-lived rank cohort of the procs backend (repro.parallel.procs).

After a clean call the rank processes park on their command pipes and
serve the next call with the same P, start method and environment.  What
a call computes must not depend on whether its ranks are fresh or
pooled: results, modeled clocks and per-rank ledgers are compared bit
for bit.  Also covered: which calls reuse the ranks and which fork a
fresh cohort (programs a script defines in ``__main__`` among them),
teardown after every kind of failure, concurrent callers,
``release_ranks``, parked ranks whose parent is SIGKILLed, and the rank
memory in the run record.
"""

import multiprocessing as mp
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.exceptions import RankFailure
from repro.parallel import sanitize
from repro.parallel.comm import run_spmd
from repro.parallel.faults import FaultPlan, RankCrash
from repro.parallel.procs import release_ranks
from repro.parallel.shm import shm_segments
from repro.parallel.spmd import run_spmd_solver, spmd_lu_crtp, spmd_randqb_ei

SRC = Path(__file__).resolve().parent.parent / "src"

pytestmark = pytest.mark.skipif(not Path("/proc/self/stat").exists(),
                                reason="reads process states from /proc")

CASES = {
    "lu": (spmd_lu_crtp, dict(k=8, tol=1e-2)),
    "threshold": (spmd_lu_crtp, dict(k=8, tol=1e-2, threshold=1e-3)),
    "randqb": (spmd_randqb_ei, dict(k=8, tol=1e-2, seed=0)),
}


@pytest.fixture(scope="module")
def A120():
    from repro.matrices.generators import random_graded
    return random_graded(120, 120, nnz_per_row=7, decay_rate=7.0, seed=21)


@pytest.fixture(autouse=True)
def no_idle_cohort():
    """Every test starts with a fresh fork and leaves no rank behind."""
    release_ranks()
    yield
    release_ranks()


# module-level programs: they pickle, so parked ranks can run them

def _pid(comm):
    return os.getpid()


def _pid_and_sanitize(comm):
    return os.getpid(), sanitize.enabled()


def _with_pid(comm, A, program, **kw):
    return os.getpid(), program(comm, A, **kw)


def _rank1_raises(comm):
    if comm.rank == 1:
        raise ZeroDivisionError("rank 1 exploded")
    return comm.rank


def _kw_type(comm, obj):
    return type(obj).__name__


def _pids(nprocs=2, **kw) -> list[int]:
    return run_spmd(nprocs, _pid, backend="procs", **kw)["results"]


def _gone(pid: int) -> bool:
    """The process has exited (reaped, or a zombie nobody reaped yet)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except (FileNotFoundError, ProcessLookupError):
        return True
    return stat.rsplit(")", 1)[1].split()[0] == "Z"


def _assert_same_results(a: list, b: list):
    assert len(a) == len(b)
    for ra, rb in zip(a, b):
        assert len(ra) == len(rb)
        for xa, xb in zip(ra, rb):
            if isinstance(xa, np.ndarray):
                assert xa.dtype == xb.dtype and np.array_equal(xa, xb)
            elif isinstance(xa, float):
                assert np.float64(xa).tobytes() == np.float64(xb).tobytes()
            else:
                assert xa == xb


def _assert_same_run(a, b):
    _assert_same_results(a["results"], b["results"])
    assert [float(c) for c in a["clocks"]] == [float(c) for c in b["clocks"]]
    assert a["elapsed"] == b["elapsed"]
    assert a["kernel_seconds"] == b["kernel_seconds"]
    assert a["ledgers"] == b["ledgers"]
    assert a["comm"] == b["comm"]


# ---------------------------------------------------------------------------
# Parity: a pooled call computes what a fresh cohort computes
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("nprocs", [1, 2, 4])
@pytest.mark.parametrize("case", sorted(CASES))
def test_pooled_call_equals_fresh_cohort_bitwise(A120, case, nprocs):
    program, kw = CASES[case]
    runs = [run_spmd(nprocs, _with_pid, A120, program, backend="procs",
                     trace=True, **kw) for _ in range(2)]
    fresh, pooled = ({**out, "results": [r[1] for r in out["results"]]}
                     for out in runs)
    # the second call ran in the processes the first one forked
    assert [r[0] for r in runs[1]["results"]] == \
        [r[0] for r in runs[0]["results"]]
    _assert_same_run(fresh, pooled)
    ref = run_spmd(nprocs, program, A120, trace=True, **kw)  # threads
    _assert_same_run(ref, {**pooled, "comm": ref["comm"]})
    assert shm_segments() == []


# ---------------------------------------------------------------------------
# What reuses the ranks and what forks a fresh cohort
# ---------------------------------------------------------------------------

def test_consecutive_calls_keep_the_rank_processes(A120):
    first = _pids()
    assert len(set(first)) == 2 and os.getpid() not in first
    run_spmd(2, spmd_lu_crtp, A120, k=8, tol=1e-2, backend="procs")
    run_spmd(2, spmd_randqb_ei, A120, k=8, tol=1e-2, seed=0,
             backend="procs", max_rank_restarts=2)  # clean: no restart
    assert _pids(mp_context="fork") == first
    assert all(not _gone(p) for p in first)


@pytest.mark.parametrize("change", ["sanitize", "nprocs", "start_method"])
def test_a_changed_key_forks_a_fresh_cohort(monkeypatch, change):
    monkeypatch.delenv(sanitize.ENV_VAR, raising=False)
    if change == "start_method":
        if "spawn" not in mp.get_all_start_methods():
            pytest.skip("no spawn start method")
        before = _pids(1)
        after = _pids(1, mp_context="spawn")
    elif change == "nprocs":
        before = _pids(2)
        after = _pids(3)
    else:
        out = run_spmd(2, _pid_and_sanitize, backend="procs")["results"]
        before = [pid for pid, _ in out]
        monkeypatch.setenv(sanitize.ENV_VAR, "1")
        out = run_spmd(2, _pid_and_sanitize, backend="procs")["results"]
        after = [pid for pid, _ in out]
        assert [on for _, on in out] == [True, True]  # ranks see the flag
    assert not set(before) & set(after)
    assert all(_gone(p) for p in before)  # the old cohort was torn down


def test_closure_program_after_a_pooled_call(A120):
    pooled = _pids()
    offset = 7
    out = run_spmd(2, lambda comm: comm.rank + offset, backend="procs")
    assert out["results"] == [7, 8]
    solve = run_spmd(2, lambda comm: spmd_lu_crtp(comm, A120, k=8, tol=1e-2),
                     backend="procs")
    _assert_same_results(solve["results"], run_spmd(
        2, spmd_lu_crtp, A120, k=8, tol=1e-2)["results"])
    # the closures ran on fresh forks; the parked cohort is still there
    assert _pids() == pooled


def test_unpicklable_kwargs_fork_a_fresh_cohort():
    pooled = _pids()
    out = run_spmd(2, _kw_type, backend="procs", obj=threading.Lock())
    assert out["results"] == ["lock", "lock"]
    assert _pids() == pooled


def test_program_unknown_to_parked_ranks_forks_a_fresh_cohort(monkeypatch):
    """A program defined after the cohort was forked pickles in the
    parent but not in the ranks: they reject the call, and it runs on a
    fresh fork."""
    before = _pids()

    def late(comm):
        return os.getpid()

    late.__qualname__ = "_late_program"
    monkeypatch.setattr(sys.modules[__name__], "_late_program", late,
                        raising=False)
    after = run_spmd(2, late, backend="procs")["results"]
    assert not set(before) & set(after)
    assert all(_gone(p) for p in before)
    assert _pids() == after  # the fresh cohort was kept


# ---------------------------------------------------------------------------
# No reuse after trouble
# ---------------------------------------------------------------------------

def test_program_error_tears_the_cohort_down(A120):
    before = _pids()
    with pytest.raises(ZeroDivisionError, match="rank 1 exploded"):
        run_spmd(2, _rank1_raises, backend="procs", recv_timeout=5.0,
                 collective_timeout=20.0)
    # rank 0 reported ok and parked; the failed call still ends it
    assert all(_gone(p) for p in before)
    assert not set(before) & set(_pids())
    out = run_spmd(2, spmd_lu_crtp, A120, k=8, tol=1e-2, backend="procs")
    _assert_same_results(out["results"], run_spmd(
        2, spmd_lu_crtp, A120, k=8, tol=1e-2)["results"])
    assert shm_segments() == []


def test_injected_crash_tears_the_cohort_down(A120):
    before = _pids()
    kw = dict(k=8, tol=1e-2, seed=0)
    with pytest.raises(RankFailure) as ei:
        run_spmd(2, spmd_randqb_ei, A120, backend="procs",
                 fault_plan=FaultPlan([RankCrash(rank=1, superstep=5)]),
                 recv_timeout=5.0, collective_timeout=20.0, **kw)
    assert ei.value.injected
    assert all(_gone(p) for p in before)
    out = run_spmd(2, _with_pid, A120, spmd_randqb_ei, backend="procs", **kw)
    assert not set(before) & {pid for pid, _ in out["results"]}
    _assert_same_results([r for _, r in out["results"]],
                         run_spmd(2, spmd_randqb_ei, A120, **kw)["results"])


def test_respawn_round_tears_the_cohort_down(A120):
    before = _pids()
    out = run_spmd(2, spmd_randqb_ei, A120, k=8, tol=1e-2, seed=0,
                   backend="procs", max_rank_restarts=1,
                   fault_plan=FaultPlan([RankCrash(rank=1, superstep=10)]),
                   recv_timeout=5.0, collective_timeout=20.0)
    assert out["restarts"] == 1
    # rank 0 survived the round in place; the cohort still goes
    assert all(_gone(p) for p in before)
    assert not set(before) & set(_pids())


# ---------------------------------------------------------------------------
# Concurrency and teardown
# ---------------------------------------------------------------------------

def test_concurrent_callers_get_their_own_results(A120):
    refs = {name: run_spmd(2, program, A120, **kw)
            for name, (program, kw) in CASES.items()}
    outs: dict = {name: [] for name in CASES}
    errors: list = []

    def caller(name):
        program, kw = CASES[name]
        try:
            for _ in range(3):
                outs[name].append(run_spmd(2, program, A120,
                                           backend="procs", **kw))
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    workers = [threading.Thread(target=caller, args=(name,))
               for name in CASES]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for w in workers:
            w.start()
        for w in workers:
            w.join(120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert errors == []
    # one cohort parked at most: every other one was torn down
    assert len(mp.active_children()) <= 2
    for name, ref in refs.items():
        assert len(outs[name]) == 3
        for out in outs[name]:
            _assert_same_results(out["results"], ref["results"])
            assert [float(c) for c in out["clocks"]] == \
                [float(c) for c in ref["clocks"]]
    assert shm_segments() == []


def test_release_ranks_leaves_no_rank_alive():
    pids = _pids(3)
    assert all(not _gone(p) for p in pids)
    release_ranks()
    assert all(_gone(p) for p in pids)
    assert not {c.pid for c in mp.active_children()} & set(pids)
    release_ranks()  # nothing idle: a no-op


#: Programs a helper script imports: unlike the script's own functions
#: they are not in ``__main__``, so parked ranks can run them.
_RANK_PROGRAMS = """\
import os

def pid(comm):
    return os.getpid()

def apply(comm, fn):
    return fn(comm)
"""


def _helper(tmp_path, text: str, **popen) -> subprocess.Popen:
    (tmp_path / "rank_programs.py").write_text(_RANK_PROGRAMS)
    script = tmp_path / "helper.py"
    script.write_text(text)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC),
                                                       str(tmp_path)]))
    return subprocess.Popen([sys.executable, str(script)], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, **popen)


_PARKING_HELPER = """\
import time
from repro.parallel import run_spmd
from rank_programs import pid

if __name__ == "__main__":
    print(*run_spmd(2, pid, backend="procs")["results"], flush=True)
    time.sleep(120)
"""


def test_parked_ranks_exit_when_the_parent_is_killed(tmp_path):
    helper = _helper(tmp_path, _PARKING_HELPER)
    try:
        pids = [int(p) for p in helper.stdout.readline().split()]
        assert len(pids) == 2 and all(not _gone(p) for p in pids)
        helper.send_signal(signal.SIGKILL)
        helper.wait(10)
        deadline = time.monotonic() + 10.0
        while not all(_gone(p) for p in pids) \
                and time.monotonic() < deadline:
            time.sleep(0.1)
        assert all(_gone(p) for p in pids)
    finally:
        if helper.poll() is None:
            helper.kill()
            helper.wait()
        helper.stdout.close()
        helper.stderr.close()


_INTERRUPTED_HELPER = """\
import signal, threading, time
from repro.parallel import run_spmd
from rank_programs import pid

if __name__ == "__main__":
    print(*run_spmd(2, pid, backend="procs")["results"], flush=True)
    interrupted = threading.Event()
    signal.signal(signal.SIGINT, lambda *_: interrupted.set())
    print("parked", flush=True)
    # the handler runs in this thread between sleeps, whichever thread
    # the kernel delivered the signal to
    for _ in range(600):
        if interrupted.is_set():
            break
        time.sleep(0.1)
    print(*run_spmd(2, pid, backend="procs")["results"], flush=True)
"""


def test_parked_ranks_survive_a_ctrl_c_the_parent_handles(tmp_path):
    """A Ctrl-C at the terminal reaches the whole process group.  A
    parent that handles it keeps its parked ranks, and they serve its
    next call."""
    helper = _helper(tmp_path, _INTERRUPTED_HELPER, start_new_session=True)
    try:
        pids = helper.stdout.readline().split()
        assert helper.stdout.readline().strip() == "parked"
        os.killpg(helper.pid, signal.SIGINT)
        out, err = helper.communicate(timeout=60)
    finally:
        if helper.poll() is None:
            helper.kill()
            helper.communicate()
    assert helper.returncode == 0, err
    assert len(pids) == 2 and out.split() == pids
    assert "Traceback" not in err


_MAIN_PROGRAMS_HELPER = """\
import functools
from repro.parallel import run_spmd
from rank_programs import apply, pid

K = 0


def read_k(comm):
    return K


def version(comm):
    return "first"


def results(program, **kw):
    return run_spmd(2, program, backend="procs", **kw)["results"]


if __name__ == "__main__":
    pooled = results(pid)
    for K in (8, 16, 32):
        print("sweep", *results(read_k), flush=True)
    K = 64
    print("kwarg", *results(apply, fn=read_k), flush=True)
    print("partial", *results(functools.partial(read_k)), flush=True)
    print("redefined", *results(version), flush=True)

    def version(comm):
        return "second"

    print("redefined", *results(version), flush=True)
    print("pooled", results(pid) == pooled, flush=True)
"""


def test_main_programs_see_the_script_as_it_stands(tmp_path):
    """Ranks parked before a script changed a global or redefined a
    function would run the old ones, so whatever ``__main__`` defines
    runs on a fresh fork, and the parked cohort waits for the next
    library program."""
    helper = _helper(tmp_path, _MAIN_PROGRAMS_HELPER)
    try:
        out, err = helper.communicate(timeout=120)
    finally:
        if helper.poll() is None:
            helper.kill()
            helper.communicate()
    assert helper.returncode == 0, err
    assert out.splitlines() == [
        "sweep 8 8", "sweep 16 16", "sweep 32 32",
        "kwarg 64 64", "partial 64 64",
        "redefined first first", "redefined second second",
        "pooled True"]


# ---------------------------------------------------------------------------
# Rank memory in the run record
# ---------------------------------------------------------------------------

def test_run_record_carries_each_rank_peak_rss(A120):
    out = run_spmd(2, spmd_lu_crtp, A120, k=8, tol=1e-2, backend="procs")
    rss = out["rank_peak_rss_mb"]
    assert len(rss) == 2 and all(isinstance(r, float) and r > 1.0
                                 for r in rss)
    info: dict = {}
    run_spmd_solver("lu", A120, 2, k=8, tol=1e-2, backend="procs",
                    run_info=info)
    assert len(info["rank_peak_rss_mb"]) == 2
    # pooled ranks only grow their peak
    assert all(b >= a for a, b in zip(rss, info["rank_peak_rss_mb"]))
    threads_info: dict = {}
    run_spmd_solver("lu", A120, 2, k=8, tol=1e-2, run_info=threads_info)
    assert "rank_peak_rss_mb" not in threads_info
