"""Runtime SPMD sanitizer tests (``REPRO_SANITIZE=1``).

Covers the two sanitizers on both backends:

- collective fingerprinting — a rank-divergent collective raises a typed
  :class:`~repro.exceptions.CollectiveMismatchError` naming the divergent
  rank and both call sites, on the thread backend and on every procs
  transport (flat hub, binomial tree, chunked ring);
- read-only shared views — writing through a distributed matrix window
  raises instead of corrupting the neighbor ranks' input, with
  :func:`~repro.sparse.window.copy_for_write` as the escape hatch;

plus the regression the sanitizers must not break: with sanitizers *on*,
factors and comm ledgers stay bitwise identical to a plain run.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.exceptions import CollectiveMismatchError
from repro.parallel import MachineModel, run_spmd
from repro.parallel import sanitize
from repro.parallel.spmd import spmd_randqb_ei
from repro.sparse.window import copy_for_write, csr_row_window


@pytest.fixture
def A96():
    from repro.matrices.generators import random_graded
    return random_graded(96, 48, nnz_per_row=5, decay_rate=5.0, seed=3)


@pytest.fixture
def san(monkeypatch):
    monkeypatch.setenv(sanitize.ENV_VAR, "1")


def _divergent(comm):
    if comm.rank == 1:
        return comm.gather(np.ones(3))  # repro: noqa[SPMD001] - on purpose
    return comm.bcast(np.ones(3) if comm.rank == 0 else None)


def _divergent_allreduce(comm):
    x = np.arange(8.0)
    if comm.rank % 2 == 0:
        return comm.allreduce_sum(x)  # repro: noqa[SPMD001] - on purpose
    return comm.allreduce_sum(x + 1.0)  # repro: noqa[SPMD001] - on purpose


def _clean(comm):
    x = comm.bcast(np.arange(4.0) if comm.rank == 0 else None)
    return comm.allreduce_sum(x * (comm.rank + 1))


def _bitwise_equal(a, b):
    if isinstance(a, np.ndarray):
        return (isinstance(b, np.ndarray) and a.dtype == b.dtype
                and a.shape == b.shape and a.tobytes() == b.tobytes())
    if isinstance(a, (tuple, list)):
        return (len(a) == len(b)
                and all(_bitwise_equal(x, y) for x, y in zip(a, b)))
    if isinstance(a, dict):
        return (set(a) == set(b)
                and all(_bitwise_equal(a[k], b[k]) for k in a))
    return a == b


# ---------------------------------------------------------------------------
# sanitize module unit tests
# ---------------------------------------------------------------------------

def test_enabled_parses_truthy_values(monkeypatch):
    for val, want in [("1", True), ("true", True), (" ON ", True),
                      ("yes", True), ("0", False), ("", False),
                      ("off", False)]:
        monkeypatch.setenv(sanitize.ENV_VAR, val)
        assert sanitize.enabled() is want, val
    monkeypatch.delenv(sanitize.ENV_VAR)
    assert sanitize.enabled() is False


def test_is_wrapped_tolerates_array_payloads():
    # an (ndarray, x, y) tuple must not trip the elementwise == trap
    assert not sanitize.is_wrapped((np.ones(3), 1, 2))
    wrapped = sanitize.wrap(("k", "bcast", 0, "x.py:1"), np.ones(3))
    assert sanitize.is_wrapped(wrapped)


def test_check_fingerprints_ignores_kernel_label():
    # kernel labels are rank-local cost attribution, not lockstep state
    fp_a = ("sparse_qr", "bcast", 0, "spmd.py:232")
    fp_b = ("col_qr_tp", "bcast", 0, "spmd.py:232")
    deposits = {0: sanitize.wrap(fp_a, "p0"), 1: sanitize.wrap(fp_b, "p1")}
    assert sanitize.check_fingerprints(deposits) == {0: "p0", 1: "p1"}


def test_check_fingerprints_raises_on_divergence():
    fp_a = ("k", "bcast", 0, "prog.py:10")
    fp_b = ("k", "gather", 0, "prog.py:20")
    deposits = {0: sanitize.wrap(fp_a, None), 1: sanitize.wrap(fp_b, None)}
    with pytest.raises(CollectiveMismatchError) as exc:
        sanitize.check_fingerprints(deposits)
    err = exc.value
    assert (err.rank_a, err.op_a) == (0, "bcast")
    assert (err.rank_b, err.op_b) == (1, "gather")
    assert err.site_a.endswith(":10") and err.site_b.endswith(":20")


# ---------------------------------------------------------------------------
# collective-mismatch detection, all backends / transports
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("backend", ["threads", "procs"])
def test_mismatch_raises_flat(san, backend):
    with pytest.raises(CollectiveMismatchError) as exc:
        run_spmd(4, _divergent, backend=backend)
    err = exc.value
    assert err.rank_a == 0 and err.op_a == "bcast"
    assert err.rank_b == 1 and err.op_b == "gather"
    assert "test_sanitize.py" in err.site_a
    assert err.site_a != err.site_b


def test_mismatch_raises_procs_tree(san):
    with pytest.raises(CollectiveMismatchError) as exc:
        run_spmd(4, _divergent, backend="procs",
                 machine=MachineModel(comm_algo="tree"))
    err = exc.value
    assert {err.op_a, err.op_b} == {"bcast", "gather"}


def test_mismatch_raises_procs_ring(san):
    # even P + comm_algo="tree" routes allreduce_sum through the chunked
    # ring; neighbors compare fingerprints segment-by-segment
    with pytest.raises(CollectiveMismatchError) as exc:
        run_spmd(4, _divergent_allreduce, backend="procs",
                 machine=MachineModel(comm_algo="tree"))
    err = exc.value
    assert err.op_a == err.op_b == "allreduce"
    assert err.site_a != err.site_b


def test_mismatch_names_program_call_sites(san):
    with pytest.raises(CollectiveMismatchError) as exc:
        run_spmd(2, _divergent)
    msg = str(exc.value)
    # the fingerprint walks past the communicator internals to this file
    assert "test_sanitize.py" in msg
    assert "same order" in msg


# ---------------------------------------------------------------------------
# sanitizers must not perturb clean runs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("backend", ["threads", "procs"])
def test_clean_program_bitwise_stable_under_sanitize(monkeypatch, backend):
    monkeypatch.delenv(sanitize.ENV_VAR, raising=False)
    off = run_spmd(4, _clean, backend=backend)
    monkeypatch.setenv(sanitize.ENV_VAR, "1")
    on = run_spmd(4, _clean, backend=backend)
    assert _bitwise_equal(on["results"], off["results"])
    assert on["comm"] == off["comm"]  # FP_TAG wrappers are ledger-invisible


def test_procs_solver_factors_bitwise_identical_with_sanitizers(
        monkeypatch, A96):
    monkeypatch.delenv(sanitize.ENV_VAR, raising=False)
    off = run_spmd(4, spmd_randqb_ei, A96, k=8, tol=1e-2, seed=0,
                   backend="procs")
    monkeypatch.setenv(sanitize.ENV_VAR, "1")
    on = run_spmd(4, spmd_randqb_ei, A96, k=8, tol=1e-2, seed=0,
                  backend="procs")
    assert _bitwise_equal(on["results"], off["results"])
    assert on["comm"] == off["comm"]


# ---------------------------------------------------------------------------
# read-only shared views
# ---------------------------------------------------------------------------

def _window_probe(comm, M):
    from repro.parallel.distribution import block_ranges
    lo, hi = block_ranges(M.shape[0], comm.nprocs)[comm.rank]
    W = csr_row_window(M, lo, hi)
    try:
        W.data[0] = -1.0
        return "wrote"
    except ValueError:
        return "readonly"


def test_window_write_raises_under_sanitize(san):
    A = sp.random(20, 10, density=0.4, format="csr", random_state=0)
    W = csr_row_window(A, 5, 15)
    with pytest.raises(ValueError, match="read-only"):
        W.data[0] = 99.0
    with pytest.raises(ValueError, match="read-only"):
        W.data *= 2.0
    with pytest.raises(ValueError, match="read-only"):
        W.indices[0] = 0


def test_window_stays_writable_without_sanitize(monkeypatch):
    monkeypatch.delenv(sanitize.ENV_VAR, raising=False)
    A = sp.random(20, 10, density=0.4, format="csr", random_state=0)
    W = csr_row_window(A, 5, 15)
    W.data[0] = W.data[0]  # legacy behavior: zero-overhead, writable
    assert W.data.flags.writeable


def test_copy_for_write_gives_private_writable_copy(san):
    A = sp.random(20, 10, density=0.4, format="csr", random_state=0)
    W = csr_row_window(A, 5, 15)
    before = A.data.copy()
    C = copy_for_write(W)
    C.data[:] = 123.0
    C.sort_indices()
    assert np.array_equal(A.data, before)  # original untouched
    with pytest.raises(ValueError):
        W.data[0] = 0.0  # the window itself stays read-only


def test_copy_for_write_on_readonly_ndarray(san):
    arr = np.arange(5.0)
    arr.flags.writeable = False
    c = copy_for_write(arr)
    c[0] = 7.0
    assert arr[0] == 0.0 and c[0] == 7.0


@pytest.mark.parametrize("backend", ["threads", "procs"])
def test_rank_windows_readonly_on_both_backends(san, backend):
    A = sp.random(24, 12, density=0.4, format="csr", random_state=1)
    out = run_spmd(2, _window_probe, A, backend=backend)
    assert out["results"] == ["readonly", "readonly"]


def _winner_columns_probe(comm, A):
    from repro.parallel.distribution import own_col_block
    from repro.parallel.kernels import par_tournament_columns
    local, ids = own_col_block(A, comm.nprocs, comm.rank, block=8)
    _, cols, _ = par_tournament_columns(comm, local.tocsc(), ids, 4)
    try:
        cols.data[0] = -1.0
        return "wrote"
    except ValueError:
        return "readonly"


@pytest.mark.parametrize("backend", ["threads", "procs"])
def test_broadcast_winner_columns_readonly(san, backend, A96):
    """Under the threads backend every rank holds rank 0's winner columns,
    so a rank that wrote to them would change its peers' inputs."""
    out = run_spmd(2, _winner_columns_probe, A96, backend=backend)
    assert out["results"] == ["readonly", "readonly"]


@pytest.mark.parametrize("backend", ["threads", "procs"])
def test_spmd_lu_bitwise_identical_with_sanitizers(monkeypatch, A96,
                                                   backend):
    from repro.parallel.spmd import spmd_lu_crtp
    monkeypatch.delenv(sanitize.ENV_VAR, raising=False)
    off = run_spmd(4, spmd_lu_crtp, A96, k=4, tol=1e-2, backend=backend)
    monkeypatch.setenv(sanitize.ENV_VAR, "1")
    on = run_spmd(4, spmd_lu_crtp, A96, k=4, tol=1e-2, backend=backend)
    assert _bitwise_equal(on["results"], off["results"])
    assert on["comm"] == off["comm"]
    assert on["results"][0][0] > 0
