"""Robustness of the serving stack: durable cache, supervision, chaos.

Covers the survivability contracts added around the solve service:

- **Durable cache tier** — a restarted service pointed at the same
  ``cache_dir`` serves previous (and τ-dominated) requests from disk
  without recomputation; corrupted spills are quarantined, never fatal.
- **Supervision** — a killed worker is restarted and its in-flight jobs
  requeued idempotently; requeues are bounded by a typed
  ``WorkerCrashError``; nothing accepted is ever lost.
- **Overload + breaker** — saturation sheds with a typed
  ``ServiceOverloadError`` carrying ``retry_after``; a failing method
  opens its circuit breaker and recovers through a half-open probe.
- **TCP robustness** — typed errors cross the wire with their retry
  metadata; a severed connection is survived by the reconnecting
  client (idempotent resend through the content-addressed cache).
- Satellite (d): a job evicted at its deadline while the LRU cache is
  churning resolves exactly once, with one typed error — no hang, no
  double completion.
"""

import asyncio
import contextlib
import errno
import os
import struct
import threading
import time
import zipfile
from pathlib import Path

import numpy as np
import pytest

from repro.api import SolverConfig, make_solver
from repro.exceptions import (
    CircuitOpenError,
    QueueFullError,
    ServiceError,
    ServiceOverloadError,
)
from repro.parallel.faults import CacheCorruption, ConnectionSever, WorkerKill
from repro.service import (
    ChaosDriver,
    CircuitBreaker,
    DiskCacheTier,
    JobRecord,
    JobState,
    MatrixSpec,
    ServiceClient,
    SolveRequest,
    SolveService,
    matrix_fingerprint,
)

M4 = MatrixSpec(suite="M4", scale=0.5)


def lu_request(tol=1e-2, **kw):
    return SolveRequest(matrix=M4, method="lu",
                        config=SolverConfig(k=16, tol=tol), **kw)


def _tcp_server(**service_opts):
    """Start serve_tcp on an ephemeral port; returns (thread, port)."""
    from repro.service import serve_tcp
    port_box = {}
    ready = threading.Event()

    def on_ready(server):
        port_box["port"] = server.sockets[0].getsockname()[1]
        ready.set()

    thread = threading.Thread(
        target=lambda: asyncio.run(
            serve_tcp("127.0.0.1", 0, ready_callback=on_ready,
                      **service_opts)),
        daemon=True)
    thread.start()
    assert ready.wait(30), "server never came up"
    return thread, port_box["port"]


# ---------------------------------------------------------------------------
# Durable cache tier
# ---------------------------------------------------------------------------

def test_disk_tier_survives_service_restart(tmp_path):
    cache_dir = tmp_path / "spill"
    with ServiceClient(workers=1, cache_dir=str(cache_dir)) as client:
        first = client.solve(lu_request())
        assert first["state"] == "done" and first["cache"] == "miss"

    # a *fresh* service process image: empty memory cache, same directory
    with ServiceClient(workers=1, cache_dir=str(cache_dir)) as client:
        again = client.solve(lu_request())
        assert again["cache"] == "disk"
        assert again["result"] == first["result"]
        disk = client.metrics()["cache"]["disk"]
        assert disk["hits"] == 1 and disk["entries"] == 1
        # promoted into memory: the next lookup is a plain hit
        third = client.solve(lu_request())
        assert third["cache"] == "hit"


def test_disk_tier_tau_dominance_across_restart(tmp_path):
    cache_dir = tmp_path / "spill"
    with ServiceClient(workers=1, cache_dir=str(cache_dir)) as client:
        tight = client.solve(lu_request(tol=1e-3))
        assert tight["cache"] == "miss"

    with ServiceClient(workers=1, cache_dir=str(cache_dir)) as client:
        loose = client.solve(lu_request(tol=1e-1))
        assert loose["cache"] == "disk"  # tighter spill dominates τ=1e-1
        assert loose["result"] == tight["result"]


def _store_one_entry(tier, tol=1e-2):
    A = M4.load()
    result = make_solver("lu", SolverConfig(k=16, tol=tol)).solve(A)
    key = (matrix_fingerprint(A), "lu",
           SolverConfig(k=16, tol=tol).cache_key())
    assert tier.store(key, tol, result, result.to_json())
    return key, result


@pytest.mark.parametrize("kind", ["truncate", "garbage"])
def test_corrupted_spill_is_quarantined_not_fatal(tmp_path, kind):
    tier = DiskCacheTier(tmp_path / "spill")
    key, _ = _store_one_entry(tier)
    driver = ChaosDriver(seed=3)
    hit = driver.apply(CacheCorruption(kind=kind, count=1), tier=tier)
    assert len(hit) == 1

    assert tier.lookup(key, 1e-2) is None  # damaged entry == miss
    assert tier.corrupt == 1
    assert tier.entry_count() == 0
    assert len(list(tier.quarantine_dir.iterdir())) == 2  # npz + sidecar
    ops = [r["op"] for r in tier.journal_records()]
    assert ops == ["store", "quarantine"]

    # the tier still accepts and serves fresh stores after the damage
    key2, result2 = _store_one_entry(tier, tol=1e-3)
    got = tier.lookup(key2, 1e-3)
    assert got is not None and got[0] == 1e-3


def test_repeated_quarantine_keeps_every_copy(tmp_path):
    tier = DiskCacheTier(tmp_path / "spill")
    chaos = ChaosDriver(seed=3)
    for _ in range(2):
        key, _ = _store_one_entry(tier)
        chaos.apply(CacheCorruption(kind="garbage", count=1), tier=tier)
        assert tier.lookup(key, 1e-2) is None
    records = [r for r in tier.journal_records() if r["op"] == "quarantine"]
    assert len(records) == 2
    kept = sorted(p.name for p in tier.quarantine_dir.iterdir())
    assert len(kept) == 4  # two archives + two sidecars, none overwritten
    assert sorted(f for r in records for f in r["files"]) == kept


def _assert_same_lu(got, result):
    for name in ("L", "U"):
        a, b = getattr(got, name).tocsr(), getattr(result, name).tocsr()
        for part in ("data", "indices", "indptr"):
            np.testing.assert_array_equal(getattr(a, part), getattr(b, part))
    np.testing.assert_array_equal(got.row_perm, result.row_perm)
    np.testing.assert_array_equal(got.col_perm, result.col_perm)


def test_disk_lookup_serves_archive_written_compressed(tmp_path,
                                                      monkeypatch):
    """A cache directory written before archives were stored
    uncompressed still serves its entries bit for bit."""
    with monkeypatch.context() as m:
        m.setattr(np, "savez", np.savez_compressed)
        key, result = _store_one_entry(DiskCacheTier(tmp_path / "spill"))
    tier = DiskCacheTier(tmp_path / "spill")
    (npz,) = tier.entries_dir.glob("*.npz")
    with zipfile.ZipFile(npz) as zf:
        assert {i.compress_type for i in zf.infolist()} == {
            zipfile.ZIP_DEFLATED}
    got = tier.lookup(key, 1e-2)
    assert got is not None and tier.corrupt == 0
    _assert_same_lu(got[1], result)


def _flip_last_payload_byte(npz: Path, member: str) -> None:
    """Flip one bit in the last byte of a stored zip member's data."""
    data = bytearray(npz.read_bytes())
    with zipfile.ZipFile(npz) as zf:
        info = zf.getinfo(member)
    assert info.compress_type == zipfile.ZIP_STORED
    name_len, extra_len = struct.unpack_from("<HH", data,
                                             info.header_offset + 26)
    start = info.header_offset + 30 + name_len + extra_len
    data[start + info.compress_size - 1] ^= 0x01
    npz.write_bytes(bytes(data))


def test_flipped_factor_byte_fails_the_checksum_before_loading(tmp_path):
    from repro import serialize
    tier = DiskCacheTier(tmp_path / "spill")
    key, _ = _store_one_entry(tier)
    (npz,) = tier.entries_dir.glob("*.npz")
    _flip_last_payload_byte(npz, "L_data.npy")

    assert tier.lookup(key, 1e-2) is None
    (record,) = [r for r in tier.journal_records()
                 if r["op"] == "quarantine"]
    # the SHA-256 of the bytes read rejects the entry before np.load,
    # whose zip CRC check would report it as unreadable instead
    assert record["reason"] == "checksum mismatch"
    copy = tier.quarantine_dir / next(f for f in record["files"]
                                      if f.endswith(".npz"))
    with pytest.raises(zipfile.BadZipFile, match="CRC"):
        serialize.load_result(copy)


def _full_disk_once(monkeypatch, suffix: str) -> None:
    """Make the first atomic write of a ``suffix`` file fail with ENOSPC
    after its temp file already holds bytes."""
    from repro import serialize
    real = serialize.atomic_write
    armed = [True]

    @contextlib.contextmanager
    def atomic_write(path):
        with real(path) as fh:
            if armed[0] and Path(path).suffix == suffix:
                armed[0] = False
                fh.write(b"partial")
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            yield fh
    monkeypatch.setattr(serialize, "atomic_write", atomic_write)


@pytest.mark.parametrize("suffix", [".npz", ".json"])
def test_failed_write_through_completes_the_request(tmp_path, monkeypatch,
                                                    suffix):
    """A disk that refuses the archive or the sidecar costs the durable
    copy, never the solved request."""
    _full_disk_once(monkeypatch, suffix)
    cache_dir = tmp_path / "spill"
    with ServiceClient(workers=1, cache_dir=str(cache_dir)) as client:
        first = client.solve(lu_request())
        assert first["state"] == "done" and first["cache"] == "miss"
        again = client.solve(lu_request())
        assert again["state"] == "done" and again["cache"] == "hit"
        disk = client.metrics()["cache"]["disk"]
        assert disk["spill_failed"] == 1
        assert disk["stores"] == 0 and disk["entries"] == 0
    # no temp file and no archive without its sidecar
    assert list((cache_dir / "entries").iterdir()) == []


def test_disk_tier_verify_reports_damage(tmp_path):
    tier = DiskCacheTier(tmp_path / "spill")
    _store_one_entry(tier)
    ChaosDriver(seed=0).corrupt_cache(tier, kind="garbage", count=1)
    problems = tier.verify()
    assert len(problems) == 1
    assert problems[0].reason == "checksum"
    assert tier.entry_count() == 0


def test_unserializable_result_degrades_to_memory_only(tmp_path):
    class SummaryOnly:
        converged = True
    tier = DiskCacheTier(tmp_path / "spill")
    stored = tier.store(("fp", "lu", "cfg"), 1e-2, SummaryOnly(), {})
    assert stored is False
    assert tier.spill_skipped == 1
    assert tier.entry_count() == 0  # no half-written entry either


def test_corrupted_spill_end_to_end_recompute(tmp_path):
    """Service path: corrupt the spill between restarts; the restarted
    service quarantines it and recomputes instead of failing."""
    cache_dir = tmp_path / "spill"
    with ServiceClient(workers=1, cache_dir=str(cache_dir)) as client:
        client.solve(lu_request())

    tier = DiskCacheTier(cache_dir)
    ChaosDriver(seed=1).corrupt_cache(tier, kind="truncate", count=1)

    with ServiceClient(workers=1, cache_dir=str(cache_dir)) as client:
        resp = client.solve(lu_request())
        assert resp["state"] == "done"
        assert resp["cache"] == "miss"  # recomputed, not served from rot
        assert client.metrics()["cache"]["disk"]["corrupt"] == 1


def test_quarantine_that_cannot_journal_recomputes(tmp_path, monkeypatch):
    """A disk too full for the quarantine record still moves the damaged
    entry aside, and the request recomputes instead of failing."""
    cache_dir = tmp_path / "spill"
    with ServiceClient(workers=1, cache_dir=str(cache_dir)) as client:
        client.solve(lu_request())
    ChaosDriver(seed=0).corrupt_cache(DiskCacheTier(cache_dir),
                                      kind="garbage", count=1)

    def full_disk(self, record):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
    monkeypatch.setattr(DiskCacheTier, "_journal", full_disk)

    with ServiceClient(workers=1, cache_dir=str(cache_dir)) as client:
        resp = client.solve(lu_request())
        assert resp["state"] == "done"
        assert resp["cache"] == "miss"
        assert client.metrics()["cache"]["disk"]["corrupt"] == 1
    moved = sorted(p.suffix for p in (cache_dir / "quarantine").iterdir())
    assert moved == [".json", ".npz"]


# ---------------------------------------------------------------------------
# Supervision: worker kills, bounded requeues
# ---------------------------------------------------------------------------

def test_worker_kill_requeues_and_completes():
    service = SolveService(workers=1, supervisor_interval=0.02)
    A = M4.load()
    real = make_solver("lu", SolverConfig(k=16, tol=1e-2)).solve(A)
    calls = []

    def fake_execute(lead, A_, timeout):
        calls.append(1)
        if len(calls) == 1:
            time.sleep(0.6)  # slow first attempt: killable mid-flight
        return real
    service._execute = fake_execute

    driver = ChaosDriver(seed=0)
    with ServiceClient(service=service) as client:
        jid = client.submit(lu_request())
        time.sleep(0.15)  # let worker 0 pick the job up
        assert driver.apply(WorkerKill(worker=0), client=client)
        resp = client.wait(jid, timeout=30)
        assert resp["state"] == "done"
        counters = client.metrics()["counters"]
        assert counters["worker_restarts"] >= 1
        assert counters["requeued"] == 1
        assert counters["failed"] == 0
    assert len(calls) == 2  # original attempt + post-requeue attempt
    assert driver.report.worker_kills == 1


def test_requeue_is_idempotent_and_bounded():
    async def scenario():
        svc = SolveService(workers=1, supervise=False, max_requeues=1)
        job = JobRecord(job_id="j1", request=lu_request())
        svc.jobs[job.job_id] = job

        svc._requeue(job)  # crash 1: within budget, back on the queue
        assert svc.queue.depth == 1
        assert job.state is JobState.PENDING
        assert svc.metrics.counters["requeued"] == 1

        svc._requeue(job)  # crash 2: budget exhausted → typed failure
        assert job.state is JobState.FAILED
        assert job.error_type == "WorkerCrashError"
        assert job.done.is_set()

        depth = svc.queue.depth
        svc._requeue(job)  # already terminal: a strict no-op
        assert svc.queue.depth == depth
        assert job.error_type == "WorkerCrashError"

        done = JobRecord(job_id="j2", request=lu_request())
        done.finish(JobState.DONE)
        svc._requeue(done)  # completed despite the crash: never re-run
        assert svc.queue.depth == depth
        assert done.state is JobState.DONE
    asyncio.run(scenario())


def test_requeue_bypasses_queue_capacity():
    async def scenario():
        svc = SolveService(workers=1, supervise=False, queue_limit=1)
        await svc.submit(lu_request())  # queue now at capacity
        crashed = JobRecord(job_id="jX", request=lu_request())
        svc.jobs[crashed.job_id] = crashed
        # an admitted job must survive its worker's crash even when the
        # queue refilled meanwhile — force-requeue over the bound
        svc._requeue(crashed)
        assert svc.queue.depth == 2
        assert crashed.state is JobState.PENDING
    asyncio.run(scenario())


# ---------------------------------------------------------------------------
# Overload shedding + circuit breaker
# ---------------------------------------------------------------------------

def test_overload_sheds_typed_with_retry_after():
    async def scenario():
        async with SolveService(workers=1, queue_limit=1,
                                batching=False) as svc:
            orig = svc._execute
            svc._execute = lambda lead, A, t: (time.sleep(0.3),
                                               orig(lead, A, t))[1]
            first = await svc.submit(lu_request())
            await asyncio.sleep(0.1)   # worker dequeues the first job
            second = await svc.submit(lu_request(tol=5e-2))
            with pytest.raises(ServiceOverloadError) as ei:
                await svc.submit(lu_request(tol=1e-1))
            assert isinstance(ei.value, QueueFullError)  # typed subclass
            assert ei.value.retry_after > 0
            assert ei.value.limit == 1
            # every *accepted* job still completes — shedding loses nothing
            r1 = await svc.wait(first, timeout=60)
            r2 = await svc.wait(second, timeout=60)
            assert r1["state"] == "done" and r2["state"] == "done"
            counters = svc.metrics_snapshot()["counters"]
            assert counters["shed"] == 1 and counters["rejected"] == 1
    asyncio.run(scenario())


def test_circuit_breaker_unit_transitions():
    br = CircuitBreaker(threshold=2, cooldown=0.1)
    br.allow("lu")  # closed: admits
    br.record_failure()
    br.allow("lu")  # still below threshold
    br.record_failure()
    with pytest.raises(CircuitOpenError) as ei:
        br.allow("lu")
    assert ei.value.method == "lu"
    assert ei.value.failures == 2
    assert 0 < ei.value.retry_after <= 0.1
    time.sleep(0.12)
    br.allow("lu")  # half-open: the probe is admitted
    br.record_failure()  # probe failed: re-armed for a full cooldown
    with pytest.raises(CircuitOpenError):
        br.allow("lu")
    time.sleep(0.12)
    br.allow("lu")
    br.record_success()  # probe succeeded: breaker closes
    br.allow("lu")


def test_breaker_opens_on_execution_failures_and_recovers():
    async def scenario():
        async with SolveService(workers=1, breaker_threshold=2,
                                breaker_cooldown=0.2,
                                max_retries=0) as svc:
            # resume_from with no checkpoint fails inside execution, so
            # it counts against the method's breaker
            for _ in range(2):
                resp = await svc.solve(lu_request(resume_from="job-404"),
                                       timeout=60)
                assert resp["state"] == "failed"
            with pytest.raises(CircuitOpenError) as ei:
                await svc.submit(lu_request())
            assert ei.value.failures == 2
            assert svc.metrics_snapshot()["counters"]["breaker_open"] == 1

            await asyncio.sleep(0.25)  # cooldown over: half-open probe
            resp = await svc.solve(lu_request(), timeout=60)
            assert resp["state"] == "done"
            # success closed the breaker: submissions flow freely again
            resp = await svc.solve(lu_request(tol=1e-1), timeout=60)
            assert resp["state"] == "done"
    asyncio.run(scenario())


# ---------------------------------------------------------------------------
# TCP: typed errors over the wire, reconnect after a sever
# ---------------------------------------------------------------------------

def test_breaker_error_crosses_the_wire():
    thread, port = _tcp_server(workers=1, breaker_threshold=1,
                               breaker_cooldown=60.0, max_retries=0)
    client = ServiceClient.connect("127.0.0.1", port)
    try:
        resp = client.solve(lu_request(resume_from="job-404").to_dict())
        assert resp["state"] == "failed"
        with pytest.raises(CircuitOpenError) as ei:
            client.submit(lu_request().to_dict())
        assert ei.value.failures == 1
        assert ei.value.method == resp["method"]
        assert ei.value.retry_after > 0
    finally:
        client.close()
    thread.join(timeout=30)


def test_client_survives_connection_sever():
    thread, port = _tcp_server(workers=1)
    client = ServiceClient.connect(
        "127.0.0.1", port, reconnect_retries=3, reconnect_backoff=0.02)
    driver = ChaosDriver(seed=0)
    try:
        first = client.solve(lu_request().to_dict())
        assert first["state"] == "done"
        driver.apply(ConnectionSever(at_request=1), client=client)
        # resend is idempotent: the content-addressed cache serves it
        again = client.solve(lu_request().to_dict())
        assert again["state"] == "done"
        assert again["cache"] in ("hit", "dominated")
        assert client.reconnects >= 1
        assert driver.report.connection_severs == 1
    finally:
        client.close()
    thread.join(timeout=30)


def test_sever_with_no_reconnect_budget_fails_typed():
    thread, port = _tcp_server(workers=1)
    client = ServiceClient.connect("127.0.0.1", port, reconnect_retries=0)
    closer = None
    try:
        client.solve(lu_request().to_dict())
        ChaosDriver(seed=0).sever_connection(client)
        with pytest.raises(ServiceError):
            client.solve(lu_request().to_dict())
        assert client.reconnects == 0
    finally:
        # the severed socket cannot carry the shutdown op; reopen
        closer = ServiceClient.connect("127.0.0.1", port)
        closer.close()
    thread.join(timeout=30)


# ---------------------------------------------------------------------------
# Satellite (d): eviction racing deadline expiry
# ---------------------------------------------------------------------------

def test_eviction_race_resolves_once_with_one_typed_error():
    matrix = MatrixSpec(suite="M2", scale=0.5)

    def slow_req(**kw):
        return SolveRequest(matrix=matrix, method="lu",
                            config=SolverConfig(k=8, tol=1e-3), **kw)

    # cache_capacity=1 keeps the LRU churning while the deadline fires;
    # a long hang_grace pins the outcome to the *cooperative* eviction
    # path so exactly one completion route can win
    with ServiceClient(workers=2, cache_capacity=1,
                       supervisor_interval=0.01, hang_grace=30.0) as client:
        jid = client.submit(slow_req(timeout=0.05))
        churn = [client.submit(lu_request(tol=t)) for t in (1e-1, 5e-2)]

        resp = client.wait(jid, timeout=60)
        assert resp["state"] == "evicted"
        assert resp["error_type"] == "JobTimeoutError"
        assert resp["resumable"] is True
        # no hang and no double completion: a second wait returns the
        # same terminal response immediately
        resp2 = client.wait(jid, timeout=1)
        assert resp2 == resp
        for cj in churn:
            assert client.wait(cj, timeout=60)["state"] == "done"

        counters = client.metrics()["counters"]
        assert counters["evicted"] == 1      # exactly one typed eviction
        assert counters["hung_failed"] == 0  # the hung path never fired
        assert counters["failed"] == 0

        # the checkpoint survived the race: the job resumes to done
        resumed = client.solve(slow_req(resume_from=jid))
        assert resumed["state"] == "done"
