"""Tests for the ``repro.trace/v1`` comm-trace subsystem.

The core contract: a trace captured from a live SPMD run at P <= 8
reconstructs that run's per-rank comm ledgers **bitwise** via
:func:`repro.parallel.replay.replay_ledgers` — for every transport
algorithm (flat hub, binomial tree, chunked ring), on both backends,
with and without ``REPRO_SANITIZE=1``, and after a JSON
dump/load round trip.  On top sit the offline consumers: modeled
replay at any P (:func:`replay_costs`), Fig. 4-style extrapolation
(:func:`extrapolate`), structural diffing (:func:`trace_diff`),
re-execution against a real backend (:func:`replay_transport`), the
``SolverConfig`` ``machine=``/``trace=`` plumbing and the
``python -m repro trace`` CLI.
"""

import json

import numpy as np
import pytest

from repro.parallel import (
    CommReport,
    MachineModel,
    extrapolate,
    replay_costs,
    replay_ledgers,
    replay_transport,
    run_spmd,
    trace_diff,
)
from repro.parallel import sanitize
from repro.parallel.spmd import spmd_lu_crtp, spmd_randqb_ei
from repro.trace import TRACE_SCHEMA, CommTrace, CommTracer, TraceEvent


@pytest.fixture
def A96():
    from repro.matrices.generators import random_graded
    return random_graded(96, 48, nnz_per_row=5, decay_rate=5.0, seed=3)


def _capture(A, nprocs, *, backend="threads", algo="flat", k=4):
    machine = MachineModel(comm_algo=algo) if algo != "flat" else None
    out = run_spmd(nprocs, spmd_randqb_ei, A, k=k, tol=1e-1, seed=0,
                   backend=backend, machine=machine, trace=True)
    return out


def _assert_bitwise_ledgers(out):
    """Replayed ledgers equal the live run's, including float bit
    patterns (dict equality on floats is exact)."""
    trace = out["trace"]
    replayed = [led.to_dict() for led in replay_ledgers(trace)]
    assert replayed == out["ledgers"]


# ---------------------------------------------------------------------------
# the bitwise replay contract (tentpole)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("nprocs", [1, 2, 4, 8])
def test_replay_bitwise_threads_flat(A96, nprocs):
    _assert_bitwise_ledgers(_capture(A96, nprocs))


@pytest.mark.parametrize("nprocs", [1, 2, 4])
def test_replay_bitwise_procs_flat(A96, nprocs):
    _assert_bitwise_ledgers(_capture(A96, nprocs, backend="procs"))


@pytest.mark.parametrize("nprocs", [2, 4, 8])
def test_replay_bitwise_procs_tree_and_ring(A96, nprocs):
    # even P and large-enough arrays: allreduce takes the ring transport,
    # everything else the binomial tree — both must replay bitwise
    out = _capture(A96, nprocs, backend="procs", algo="tree")
    algos = {e.algo for stream in out["trace"].events for e in stream
             if e.coll is not None}
    assert "ring" in algos and "tree" in algos
    _assert_bitwise_ledgers(out)


def test_replay_bitwise_odd_p_tree(A96):
    # odd P: no ring (needs even P), pure binomial tree
    out = _capture(A96, 5, backend="procs", algo="tree")
    _assert_bitwise_ledgers(out)


def test_replay_bitwise_sanitized(A96, monkeypatch):
    # fingerprint wrappers must stay invisible to the trace byte sizes
    monkeypatch.setenv(sanitize.ENV_VAR, "1")
    for backend, algo in [("threads", "flat"), ("procs", "tree")]:
        out = _capture(A96, 4, backend=backend, algo=algo)
        assert out["trace"].sanitized is True
        _assert_bitwise_ledgers(out)


def test_replay_bitwise_with_p2p():
    # spmd_lu_crtp mixes collectives with send/recv tournament traffic
    from repro.matrices.generators import random_graded
    A = random_graded(96, 96, nnz_per_row=5, decay_rate=5.0, seed=3)
    out = run_spmd(4, spmd_lu_crtp, A, k=4, tol=1e-1, trace=True)
    assert any(e.op == "send" for s in out["trace"].events for e in s)
    _assert_bitwise_ledgers(out)


def test_replay_bitwise_after_json_round_trip(A96, tmp_path):
    out = _capture(A96, 4)
    path = tmp_path / "t.json"
    out["trace"].dump(path)
    loaded = CommTrace.load(path)
    assert loaded.nprocs == 4 and loaded.backend == "threads"
    replayed = [led.to_dict() for led in replay_ledgers(loaded)]
    assert replayed == out["ledgers"]


def test_trace_summary_matches_live_comm(A96):
    out = _capture(A96, 4, backend="procs")
    rep = CommReport.from_trace(out["trace"])
    assert rep.to_dict() == out["comm"]
    assert CommReport.from_run(out).to_dict() == out["comm"]
    # per-rank ledgers in their dict (wire) form summarize the same way
    assert CommReport.from_ledgers(out["ledgers"], backend="procs",
                                   algo="flat").to_dict() == out["comm"]


# ---------------------------------------------------------------------------
# schema / capture plumbing
# ---------------------------------------------------------------------------

def test_trace_schema_tag_checked(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema": "repro.trace/v999", "nprocs": 1}))
    with pytest.raises(ValueError, match="schema"):
        CommTrace.load(path)
    assert TRACE_SCHEMA == "repro.trace/v1"


def test_event_dict_round_trip():
    e = TraceEvent(op="allreduce", coll=3, root=0, kernel="tsqr",
                   site="repro/parallel/kernels.py:10", algo="ring",
                   bytes_in=64.0, bytes_out=0.0,
                   meta={"numel": 8, "itemsize": 8})
    assert TraceEvent.from_dict(e.to_dict()) == e
    lean = TraceEvent(op="barrier", coll=0)
    d = lean.to_dict()
    assert "meta" not in d and "tag" not in d and "kernel" not in d


def test_tracer_lockstep_counter():
    t = CommTracer(0)
    t.collective(op="bcast", root=0, kernel=None, algo="flat",
                 bytes_in=8.0, bytes_out=0.0, site="x.py:1")
    t.send(dst=1, tag=0, kernel="k", nbytes=16.0, site="x.py:2")
    t.collective(op="gather", root=0, kernel="k", algo="flat",
                 bytes_in=8.0, bytes_out=0.0, site="x.py:3")
    colls = [e.coll for e in t.events if e.coll is not None]
    assert colls == [0, 1]


def test_sites_are_checkout_stable(A96):
    # call-site fingerprints are trimmed to SITE_TRIM_DEPTH components,
    # never absolute paths — traces from different clones compare equal
    assert sanitize.SITE_TRIM_DEPTH == 3
    out = _capture(A96, 2)
    sites = {e.site for s in out["trace"].events for e in s}
    assert sites
    for site in sites:
        assert not site.startswith("/")
        path, _, line = site.rpartition(":")
        assert line.isdigit()
        assert 1 <= len(path.split("/")) <= sanitize.SITE_TRIM_DEPTH


def test_replay_rejects_incomplete_group():
    trace = CommTrace(nprocs=2, backend="threads", algo="flat", events=[
        [TraceEvent(op="bcast", coll=0, bytes_in=8.0)], []])
    with pytest.raises(ValueError, match="rank"):
        replay_ledgers(trace)


# ---------------------------------------------------------------------------
# modeled replay + extrapolation
# ---------------------------------------------------------------------------

def test_replay_costs_volume_is_machine_independent(A96):
    out = _capture(A96, 4)
    trace = out["trace"]
    a = replay_costs(trace, nprocs=64)
    b = replay_costs(trace, nprocs=64, machine="ethernet-cluster")
    assert a.bytes_total == b.bytes_total
    assert a.msgs_total == b.msgs_total
    assert a.seconds_total != b.seconds_total  # coefficients do differ
    assert "volume" in a.table()


def test_replay_costs_at_recorded_scale_matches_live_volume(A96):
    out = _capture(A96, 4, backend="procs")
    rep = replay_costs(out["trace"])
    assert rep.bytes_total == pytest.approx(out["comm"]["bytes_sent"])
    assert rep.msgs_total == out["comm"]["msgs"]


def test_extrapolate_reaches_4096(A96):
    out = _capture(A96, 4)
    rep = extrapolate(out["trace"], algo="tree")
    assert [r["nprocs"] for r in rep.rows] == [1, 4, 16, 64, 256, 1024,
                                              4096]
    base = next(r for r in rep.rows if r["nprocs"] == 4)
    assert base["speedup"] == pytest.approx(1.0)
    assert all(r["total_seconds"] > 0 for r in rep.rows)
    assert "4096" in rep.table()


def test_replay_transport_reproduces_volume(A96):
    out = _capture(A96, 2)
    redo = replay_transport(out["trace"], backend="threads")
    assert redo["comm"]["bytes_sent"] == out["comm"]["bytes_sent"]
    assert redo["comm"]["msgs"] == out["comm"]["msgs"]


def test_replay_transport_tree_needs_procs(A96):
    out = _capture(A96, 2, backend="procs", algo="tree")
    # the threads backend is flat-only: a tree trace cannot replay there
    with pytest.raises(ValueError, match="flat transport"):
        replay_transport(out["trace"], backend="threads")
    redo = replay_transport(out["trace"], backend="procs")
    assert redo["comm"]["bytes_sent"] == out["comm"]["bytes_sent"]
    assert redo["comm"]["msgs"] == out["comm"]["msgs"]


def test_trace_diff_equal_and_drift(A96):
    out = _capture(A96, 2)
    a, b = out["trace"], CommTrace.from_json(out["trace"].to_json())
    assert trace_diff(a, b)["equal"] is True
    for e in b.events[1]:
        if e.coll is not None:
            e.bytes_in += 8.0
            break
    res = trace_diff(a, b)
    assert res["equal"] is False and res["differences"]


# ---------------------------------------------------------------------------
# SolverConfig machine= / trace= plumbing
# ---------------------------------------------------------------------------

def test_config_machine_normalized_and_cache_key():
    from repro.api import SolverConfig
    base = SolverConfig(k=8)
    coeff = SolverConfig(k=8, machine={"alpha": 5e-5})
    preset = SolverConfig(k=8, machine="ethernet-cluster")
    tree = SolverConfig(k=8, machine={"comm_algo": "tree"})
    traced = SolverConfig(k=8, trace=True)
    assert isinstance(coeff.machine, MachineModel)
    assert isinstance(preset.machine, MachineModel)
    # cost coefficients and trace capture never change the factorization
    assert coeff.cache_key() == base.cache_key()
    assert preset.cache_key() == base.cache_key()
    assert traced.cache_key() == base.cache_key()
    # ...but a non-flat transport reorders reductions: new identity
    assert tree.cache_key() != base.cache_key()
    with pytest.raises(ValueError, match="preset"):
        SolverConfig(machine="no-such-cluster")
    rt = SolverConfig.from_dict(tree.to_dict())
    assert rt.machine.comm_algo == "tree"
    assert rt.cache_key() == tree.cache_key()


# ---------------------------------------------------------------------------
# CLI: solve --trace / trace replay|extrapolate|diff
# ---------------------------------------------------------------------------

def run_cli(capsys, *argv):
    from repro.cli import main
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_cli_trace_round_trip(capsys, tmp_path):
    path = tmp_path / "m4.trace.json"
    code, out = run_cli(capsys, "solve", "M4", "--scale", "0.25",
                        "--method", "randqb", "-k", "8",
                        "--nprocs", "2", "--trace", str(path))
    assert code == 0 and "trace written to" in out
    trace = CommTrace.load(path)
    assert trace.nprocs == 2

    code, out = run_cli(capsys, "trace", "replay", str(path),
                        "--nprocs", "64")
    assert code == 0 and "P=64" in out

    code, out = run_cli(capsys, "trace", "extrapolate", str(path),
                        "--algo", "tree", "--machine", "ib-cluster")
    assert code == 0 and "4096" in out

    code, out = run_cli(capsys, "trace", "diff", str(path), str(path))
    assert code == 0 and "equivalent" in out

    # a drifted copy must flip the exit code
    other = tmp_path / "drift.trace.json"
    d = trace.to_json()
    for stream in d["events"]:
        for e in stream:
            if "coll" in e:
                e["bytes_in"] = float(e["bytes_in"]) + 8.0
    other.write_text(json.dumps(d))
    code, out = run_cli(capsys, "trace", "diff", str(path), str(other))
    assert code == 1 and "bytes" in out


def test_cli_trace_requires_spmd(capsys, tmp_path):
    with pytest.raises(SystemExit, match="nprocs"):
        run_cli(capsys, "solve", "M4", "--scale", "0.25",
                "--trace", str(tmp_path / "t.json"))
