"""Thread-per-rank SPMD communicator with MPI-like semantics.

This is the *executable* half of the simulated parallel layer: rank
programs are ordinary Python functions ``program(comm, ...)`` executed on
one thread per rank, communicating through :class:`SimComm`.  Collectives
use a ``threading.Barrier`` whose barrier-action assembles the result once
all ranks have deposited their contribution; point-to-point messages go
through per-``(src, dst, tag)`` queues.

Every operation also *charges simulated time*: local compute via
:meth:`SimComm.charge_flops` / :meth:`charge_mem`, communication via the
:class:`repro.parallel.machine.CollectiveCosts` formulas.  Collectives
synchronize the simulated clocks (all participants leave at the max), so
``max(clock)`` after a run is the modeled parallel wall-clock.

This layer is meant for small process counts (tests run P <= 8); the
performance model in :mod:`repro.parallel.perfmodel` covers the paper's
P = 4096 regime.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from ..exceptions import (
    CollectiveMismatchError,
    CommTimeoutError,
    CommunicatorError,
    PayloadIntegrityError,
    RankFailure,
)
from ..kernels.threads import one_blas_thread
from . import sanitize
from .collectives import CommLedger, summarize_ledgers
from .faults import DROP, FaultInjector, FaultPlan
from .machine import MachineModel

#: Default real-time bound on a blocking ``recv`` (seconds).  Finite so a
#: misbehaving rank program fails the test suite instead of hanging it.
DEFAULT_RECV_TIMEOUT = 30.0

#: Default real-time bound on barrier waits inside collectives.
DEFAULT_COLLECTIVE_TIMEOUT = 120.0

#: Default real-time bound on joining the whole run (thread join / process
#: wait).  A rank stuck past this raises :class:`CommTimeoutError` naming
#: the stuck ranks and their supersteps instead of silently returning
#: partial results.
DEFAULT_JOIN_TIMEOUT = 300.0

#: SPMD execution backends accepted by :func:`run_spmd`.
BACKENDS = ("threads", "procs")


@dataclass
class _SharedState:
    """State shared by all ranks of one SPMD run."""

    nprocs: int
    machine: MachineModel
    clocks: np.ndarray
    clock_lock: threading.Lock = field(default_factory=threading.Lock)
    barrier: threading.Barrier = None
    slot: dict = field(default_factory=dict)
    queues: dict = field(default_factory=dict)
    queues_lock: threading.Lock = field(default_factory=threading.Lock)
    kernel_times: dict = field(default_factory=dict)
    injector: FaultInjector | None = None
    recv_timeout: float = DEFAULT_RECV_TIMEOUT
    collective_timeout: float = DEFAULT_COLLECTIVE_TIMEOUT
    failed_ranks: dict = field(default_factory=dict)  # rank -> superstep
    ledgers: list = field(default_factory=list)  # per-rank CommLedger
    tracers: list | None = None  # per-rank CommTracer when tracing
    sanitize_error: BaseException | None = None  # first sanitizer trip

    def queue_for(self, src: int, dst: int, tag: int) -> queue.Queue:
        key = (src, dst, tag)
        with self.queues_lock:
            q = self.queues.get(key)
            if q is None:
                q = self.queues[key] = queue.Queue()
            return q

    def mark_failed(self, rank: int, superstep: int) -> None:
        self.failed_ranks.setdefault(rank, superstep)

    def any_failed(self) -> int | None:
        """Some failed rank (lowest), or None while everyone is alive."""
        return min(self.failed_ranks) if self.failed_ranks else None


class SimComm:
    """Per-rank handle of the simulated communicator."""

    def __init__(self, rank: int, state: _SharedState):
        self.rank = rank
        self._state = state
        self._kernel: str | None = None
        self._superstep = 0
        self.ledger = state.ledgers[rank] if rank < len(state.ledgers) \
            else CommLedger()
        self.tracer = state.tracers[rank] if state.tracers else None

    @property
    def superstep(self) -> int:
        """Number of communication operations this rank has started."""
        return self._superstep

    def _step(self, op: str) -> None:
        """Superstep accounting + fault-injection hook for one comm op.

        Raises :class:`RankFailure` when the fault plan kills this rank
        here; the failure is registered in shared state *before* raising so
        peers blocked in ``recv`` detect the death promptly.
        """
        self._superstep += 1
        inj = self._state.injector
        if inj is None:
            return
        try:
            stall = inj.before_op(self.rank, self._superstep, op)
        except RankFailure:
            self._state.mark_failed(self.rank, self._superstep)
            raise
        if stall:
            self.charge(stall)

    # -- introspection ----------------------------------------------------
    @property
    def nprocs(self) -> int:
        return self._state.nprocs

    @property
    def machine(self) -> MachineModel:
        return self._state.machine

    def clock(self) -> float:
        """This rank's simulated time."""
        return float(self._state.clocks[self.rank])

    # -- simulated-time charging ------------------------------------------
    def charge(self, seconds: float) -> None:
        """Advance this rank's simulated clock by ``seconds``."""
        self._state.clocks[self.rank] += max(seconds, 0.0)
        if self._kernel is not None:
            key = (self._kernel, self.rank)
            self._state.kernel_times[key] = \
                self._state.kernel_times.get(key, 0.0) + max(seconds, 0.0)

    def charge_flops(self, count: float) -> None:
        self.charge(self._state.machine.flops(count))

    def charge_mem(self, nbytes: float) -> None:
        self.charge(self._state.machine.mem(nbytes))

    def kernel(self, name: str) -> "SimComm":
        """Set the kernel label subsequent charges are attributed to."""
        self._kernel = name
        return self

    # -- synchronization helpers -------------------------------------------
    def _sync_max(self) -> None:
        """All participants' clocks jump to the max (collective exit time)."""
        clocks = self._state.clocks
        with self._state.clock_lock:
            pass  # barrier action already synced; this is a fence only

    def _collective(self, deposit, combine, comm_cost: float, *,
                    op: str = "collective", root: int = 0,
                    ledger_result=None):
        """Generic collective: every rank deposits, the barrier action runs
        ``combine`` once, everyone picks up the result and pays
        ``comm_cost`` on a clock synchronized to the slowest participant.

        ``op`` / ``root`` / ``ledger_result`` only feed the comm-volume
        ledger, which records what the flat hub exchange of the process
        backend would put on the wire for this collective (the thread
        backend moves no real bytes): non-hub ranks ship their deposit to
        the hub, the hub ships ``ledger_result(r, result)`` (default: the
        combined result) back to each of the others.

        A participant that died (injected crash or any uncaught error)
        breaks the barrier; survivors fail fast with a :class:`RankFailure`
        naming the dead rank instead of hanging.

        Under ``REPRO_SANITIZE=1`` each deposit additionally carries a
        ``(kernel, op, root, call-site)`` fingerprint; the combining rank
        verifies all ranks issued the *same* collective and raises
        :class:`~repro.exceptions.CollectiveMismatchError` otherwise (see
        :mod:`repro.parallel.sanitize`).  The ledger keeps recording the
        unwrapped payload sizes, so sanitized runs stay byte-identical.
        """
        self._step("collective")
        state = self._state
        entry, combine_fn = deposit, combine
        if sanitize.enabled():
            fp = sanitize.fingerprint(self._kernel, op, root)
            entry = sanitize.wrap(fp, deposit)

            def combine_fn(dep):
                return combine(sanitize.check_fingerprints(dep))

        state.slot.setdefault("in", {})[self.rank] = entry
        try:
            idx = state.barrier.wait(timeout=state.collective_timeout)
        except threading.BrokenBarrierError as exc:
            raise self._collective_failure() from exc
        if idx == 0:
            # exactly one rank assembles the result and syncs the clocks
            with state.clock_lock:
                tmax = float(np.max(state.clocks))
                state.clocks[:] = tmax
            try:
                state.slot["out"] = combine_fn(state.slot["in"])
            except CollectiveMismatchError as exc:
                # peers blocked on the second barrier should report the
                # mismatch too, not a generic broken-barrier RankFailure
                state.sanitize_error = exc
                raise
            state.slot["in"] = {}
        try:
            state.barrier.wait(timeout=state.collective_timeout)
        except threading.BrokenBarrierError as exc:
            raise self._collective_failure() from exc
        result = state.slot["out"]
        if self.nprocs > 1:
            if self.rank == root:
                total_out = 0.0
                for r in range(self.nprocs):
                    if r == root:
                        continue
                    out_r = result if ledger_result is None \
                        else ledger_result(r, result)
                    total_out += _payload_bytes(out_r)
                self.ledger.record(self._kernel, op, total_out,
                                   self.nprocs - 1)
            else:
                self.ledger.record(self._kernel, op,
                                   _payload_bytes(deposit), 1)
        if self.tracer is not None:
            out_self = 0.0
            if self.rank != root:
                out_r = result if ledger_result is None \
                    else ledger_result(self.rank, result)
                out_self = _payload_bytes(out_r)
            meta = None
            if op == "allreduce" and isinstance(deposit, np.ndarray):
                meta = {"numel": int(deposit.size),
                        "itemsize": int(deposit.itemsize)}
            self.tracer.collective(
                op=op, root=root, kernel=self._kernel, algo="flat",
                bytes_in=_payload_bytes(deposit), bytes_out=out_self,
                site=sanitize.call_site(), meta=meta)
        self.charge(comm_cost)
        return result

    def _collective_failure(self) -> CommunicatorError:
        """Typed error for a broken collective: the sanitizer's mismatch if
        one tripped, else name the dead rank if the break was caused by a
        failure, generic abort otherwise."""
        if self._state.sanitize_error is not None:
            return self._state.sanitize_error
        dead = self._state.any_failed()
        if dead is not None:
            return RankFailure(
                f"collective aborted on rank {self.rank}: rank {dead} died "
                f"at superstep {self._state.failed_ranks[dead]}", rank=dead,
                superstep=self._state.failed_ranks[dead])
        return CommunicatorError("collective aborted")

    # -- collectives ---------------------------------------------------------
    def barrier_sync(self) -> None:
        """Plain barrier (clock synchronization, latency-only cost)."""
        costs = self._state.machine.collectives
        self._collective(None, lambda d: None,
                         costs.bcast(0, self.nprocs), op="barrier")

    def bcast(self, obj, root: int = 0):
        """Broadcast ``obj`` from ``root`` to all ranks."""
        costs = self._state.machine.collectives
        payload = obj if self.rank == root else None

        def combine(dep):
            return dep[root]

        # every rank pays the same modeled bcast cost; size from root's view
        out = self._collective(payload, combine, 0.0, op="bcast", root=root)
        self.charge(costs.bcast(_payload_bytes(out), self.nprocs))
        return out

    def scatter(self, chunks: list | None, root: int = 0):
        """Scatter a list of ``nprocs`` chunks from ``root``."""
        if self.rank == root and (chunks is None
                                  or len(chunks) != self.nprocs):
            raise CommunicatorError(
                "scatter needs exactly one chunk per rank at the root")
        costs = self._state.machine.collectives

        def combine(dep):
            return dep[root]

        allc = self._collective(
            chunks if self.rank == root else None, combine, 0.0,
            op="scatter", root=root,
            ledger_result=lambda r, ac: (
                ac[r], float(sum(_payload_bytes(c) for c in ac))))
        total = sum(_payload_bytes(c) for c in allc)
        self.charge(costs.scatter(total, self.nprocs))
        return allc[self.rank]

    def gather(self, obj, root: int = 0) -> list | None:
        """Gather one object per rank to ``root`` (others get ``None``)."""
        costs = self._state.machine.collectives

        def combine(dep):
            return [dep[r] for r in range(self.nprocs)]

        res = self._collective(
            obj, combine, 0.0, op="gather", root=root,
            ledger_result=lambda r, out: (
                None, float(sum(_payload_bytes(c) for c in out))))
        total = sum(_payload_bytes(c) for c in res)
        self.charge(costs.gather(total, self.nprocs))
        return res if self.rank == root else None

    def allgather(self, obj) -> list:
        """Gather one object per rank onto every rank."""
        costs = self._state.machine.collectives

        def combine(dep):
            return [dep[r] for r in range(self.nprocs)]

        res = self._collective(obj, combine, 0.0, op="allgather")
        total = sum(_payload_bytes(c) for c in res)
        self.charge(costs.allgather(total, self.nprocs))
        return res

    def allreduce_sum(self, arr: np.ndarray) -> np.ndarray:
        """Elementwise sum of numpy arrays across ranks."""
        costs = self._state.machine.collectives

        def combine(dep):
            out = None
            for r in range(self.nprocs):
                out = dep[r].copy() if out is None else out + dep[r]
            return out

        res = self._collective(np.asarray(arr), combine, 0.0,
                               op="allreduce")
        self.charge(costs.allreduce(_payload_bytes(res), self.nprocs))
        return res.copy()

    # -- point to point -----------------------------------------------------
    def send(self, obj, dst: int, tag: int = 0) -> None:
        if not 0 <= dst < self.nprocs:
            raise CommunicatorError(f"invalid destination rank {dst}")
        self._step("send")
        costs = self._state.machine.collectives
        self.charge(costs.p2p(_payload_bytes(obj)))
        self.ledger.record(self._kernel, "send", _payload_bytes(obj), 1)
        if self.tracer is not None:
            self.tracer.send(dst=dst, tag=tag, kernel=self._kernel,
                             nbytes=_payload_bytes(obj),
                             site=sanitize.call_site())
        inj = self._state.injector
        if inj is not None:
            obj = inj.filter_send(self.rank, dst, tag, obj)
            if obj is DROP:
                return  # lost on the wire: cost paid, nothing delivered
        self._state.queue_for(self.rank, dst, tag).put(
            (obj, self.clock()))

    def recv(self, src: int, tag: int = 0, *, timeout: float | None = None,
             max_retries: int = 0, retry_backoff: float = 1e-3):
        """Blocking receive with a finite timeout and bounded retries.

        Parameters
        ----------
        timeout:
            Real-time bound per attempt (seconds); defaults to the run's
            ``recv_timeout`` (:func:`run_spmd`).  A missing message raises
            :class:`CommTimeoutError` naming the route instead of blocking
            pytest forever.
        max_retries:
            Additional wait rounds after the first attempt times out.
        retry_backoff:
            *Simulated* seconds charged to this rank's clock per retry,
            doubling each round — the modeled cost of a retry protocol.

        A ``recv`` from a rank known to have died fails fast with
        :class:`RankFailure` regardless of the timeout.
        """
        if not 0 <= src < self.nprocs:
            raise CommunicatorError(f"invalid source rank {src}")
        self._step("recv")
        state = self._state
        timeout = state.recv_timeout if timeout is None else float(timeout)
        q = state.queue_for(src, self.rank, tag)
        poll = min(0.02, max(timeout / 20.0, 1e-4))
        for attempt in range(max_retries + 1):
            waited = 0.0
            while waited < timeout:
                if src in state.failed_ranks:
                    raise RankFailure(
                        f"recv on rank {self.rank}: source rank {src} died "
                        f"at superstep {state.failed_ranks[src]}", rank=src,
                        superstep=state.failed_ranks[src])
                try:
                    obj, sent_at = q.get(timeout=poll)
                except queue.Empty:
                    waited += poll
                    continue
                # receiving rank cannot proceed before the message existed
                with state.clock_lock:
                    state.clocks[self.rank] = max(state.clocks[self.rank],
                                                  sent_at)
                if self.tracer is not None:
                    self.tracer.recv(src=src, tag=tag, kernel=self._kernel,
                                     nbytes=_payload_bytes(obj),
                                     site=sanitize.call_site())
                return obj
            if attempt < max_retries:
                self.charge(retry_backoff * (2.0 ** attempt))
        raise CommTimeoutError(
            f"recv on rank {self.rank} from rank {src} (tag {tag}) timed "
            f"out after {max_retries + 1} attempt(s) of {timeout:g}s",
            src=src, dst=self.rank, tag=tag, timeout=timeout,
            retries=max_retries)


def _payload_bytes(obj) -> float:
    """Approximate wire size of a payload."""
    if obj is None:
        return 0.0
    if isinstance(obj, np.ndarray):
        return float(obj.nbytes)
    if hasattr(obj, "nnz") and hasattr(obj, "data"):  # scipy sparse
        # real wire size: the value array plus every index array the format
        # carries (CSR/CSC: indices + indptr; COO: row + col; DIA: offsets)
        total = float(obj.data.nbytes)
        for name in ("indices", "indptr", "row", "col", "offsets"):
            part = getattr(obj, name, None)
            if part is not None:
                total += float(part.nbytes)
        return total
    if sanitize.is_wrapped(obj):
        # sanitizer fingerprint wrappers are free on the ledger, so
        # REPRO_SANITIZE=1 runs report byte-identical comm volumes
        return _payload_bytes(obj[2])
    if isinstance(obj, (list, tuple)):
        return float(sum(_payload_bytes(o) for o in obj))
    if isinstance(obj, (int, float, np.integer, np.floating)):
        return 8.0
    return 64.0  # misc python objects: headers only


def _error_priority(exc: BaseException) -> int:
    """Rank the per-thread errors of one run so the most *causal* one is
    re-raised: the injected crash first, then a sanitizer-detected
    collective mismatch or an altered payload, then genuine program
    errors, then the secondary failures healthy ranks observe (dead peer,
    lost message), then generic aborted-collective noise."""
    if isinstance(exc, RankFailure) and exc.injected:
        return 0
    if isinstance(exc, (CollectiveMismatchError, PayloadIntegrityError)):
        return 1
    if not isinstance(exc, CommunicatorError):
        return 2
    if isinstance(exc, RankFailure):
        return 3
    if isinstance(exc, CommTimeoutError):
        return 4
    return 5


def _record_comm_perf(out: dict) -> None:
    """Mirror a run's comm summary into the perf counters (when enabled)."""
    from .. import perf
    if not perf.is_enabled():
        return
    comm = out.get("comm") or {}
    backend = out.get("backend", "threads")
    perf.add_bytes(f"spmd.{backend}.comm", comm.get("bytes_sent", 0.0))
    perf.incr(f"spmd.{backend}.comm.msgs", comm.get("msgs", 0))
    for op, entry in (comm.get("by_op") or {}).items():
        perf.add_bytes(f"spmd.{backend}.comm.{op}", entry["bytes_sent"])
    if "wall_seconds" in out:
        perf.incr(f"spmd.{backend}.wall_seconds", out["wall_seconds"])


@one_blas_thread()
def run_spmd(nprocs: int, program, *args, machine: MachineModel | None = None,
             fault_plan: FaultPlan | FaultInjector | None = None,
             recv_timeout: float = DEFAULT_RECV_TIMEOUT,
             collective_timeout: float = DEFAULT_COLLECTIVE_TIMEOUT,
             backend: str = "threads",
             join_timeout: float = DEFAULT_JOIN_TIMEOUT,
             mp_context: str | None = None,
             max_rank_restarts: int = 0,
             trace: bool = False,
             **kwargs) -> dict:
    """Run ``program(comm, *args, **kwargs)`` on ``nprocs`` SPMD ranks.

    Returns a dict with per-rank ``results``, the synchronized final
    ``clocks`` (modeled seconds), per-kernel max-over-ranks times
    (``kernel_seconds``), the comm-volume summary (``comm``), the real
    ``wall_seconds`` and the ``backend`` used.  Exceptions on any rank
    abort the run and are re-raised on the caller's thread; with several
    failing ranks the most causal error wins (injected crash > program
    error > observed failure).

    The run holds the OpenBLAS pools at one thread on both backends and
    restores the caller's pool sizes afterwards (see
    :mod:`repro.kernels.threads`): the ranks are the parallelism.

    Parameters
    ----------
    backend:
        ``"threads"`` (default) runs one thread per rank in this process —
        deterministic, cheap, but GIL-serialized.  ``"procs"`` runs one OS
        process per rank with the input matrix shared read-only via
        ``multiprocessing.shared_memory`` (see
        :mod:`repro.parallel.procs`) — true multicore, numerically
        identical, modeled clocks bitwise identical.
    fault_plan:
        Optional :class:`repro.parallel.faults.FaultPlan` (or a prebuilt
        injector) consulted on every communication operation.
    recv_timeout:
        Default real-time bound for :meth:`SimComm.recv` (seconds).
    collective_timeout:
        Real-time bound on barrier waits inside collectives.
    join_timeout:
        Real-time bound on the whole run; stuck ranks raise
        :class:`CommTimeoutError` naming them and their supersteps.
    mp_context:
        Process start method for the procs backend (default ``fork``
        where available); ignored by the thread backend.
    max_rank_restarts:
        Procs backend only: number of rank-respawn recovery rounds a
        :class:`RankFailure` may trigger before it becomes fatal (see
        :mod:`repro.parallel.procs`).  The thread backend shares one
        address space with the failed rank and cannot respawn — asking
        for restarts there is a :class:`CommunicatorError`.
    trace:
        Capture a full communication trace: every collective and
        point-to-point op on every rank, with payload sizes, call sites
        and the transport algorithm used.  The trace is returned under
        ``out["trace"]`` as a :class:`repro.trace.CommTrace` (dump it
        with ``.dump(path)``), next to the per-rank ledger dicts under
        ``out["ledgers"]``; replay and extrapolation live in
        :mod:`repro.trace`.
    """
    if backend not in BACKENDS:
        raise CommunicatorError(
            f"unknown SPMD backend {backend!r}; expected one of {BACKENDS}")
    if backend == "procs":
        from .procs import run_spmd_procs
        out = run_spmd_procs(
            nprocs, program, *args, machine=machine, fault_plan=fault_plan,
            recv_timeout=recv_timeout, collective_timeout=collective_timeout,
            join_timeout=join_timeout, mp_context=mp_context,
            max_rank_restarts=max_rank_restarts, trace=trace, **kwargs)
        _record_comm_perf(out)
        return out
    if int(max_rank_restarts) > 0:
        raise CommunicatorError(
            "max_rank_restarts requires backend='procs': thread ranks "
            "share one address space and cannot be respawned")
    if nprocs <= 0:
        raise CommunicatorError("nprocs must be positive")
    machine = machine or MachineModel()
    injector = fault_plan.build() if isinstance(fault_plan, FaultPlan) \
        else fault_plan
    t_wall = time.perf_counter()
    state = _SharedState(nprocs=nprocs, machine=machine,
                         clocks=np.zeros(nprocs), injector=injector,
                         recv_timeout=float(recv_timeout),
                         collective_timeout=float(collective_timeout),
                         ledgers=[CommLedger() for _ in range(nprocs)])
    if trace:
        from ..trace.capture import CommTracer
        state.tracers = [CommTracer(r) for r in range(nprocs)]
    state.barrier = threading.Barrier(nprocs)
    results: list = [None] * nprocs
    errors: list = [None] * nprocs
    comms: list = [None] * nprocs

    def runner(rank: int):
        comm = comms[rank] = SimComm(rank, state)
        try:
            results[rank] = program(comm, *args, **kwargs)
        except BaseException as exc:  # noqa: BLE001 - must cross threads
            errors[rank] = exc
            state.mark_failed(rank, comm.superstep)
            state.barrier.abort()

    threads = [threading.Thread(target=runner, args=(r,), daemon=True)
               for r in range(nprocs)]
    for t in threads:
        t.start()
    deadline = time.monotonic() + float(join_timeout)
    for t in threads:
        t.join(timeout=max(deadline - time.monotonic(), 0.0))
    raised = [e for e in errors if e is not None]
    stuck = [r for r, t in enumerate(threads) if t.is_alive()]
    if stuck and not raised:
        detail = ", ".join(
            f"rank {r} at superstep "
            f"{comms[r].superstep if comms[r] is not None else 0}"
            for r in stuck)
        raise CommTimeoutError(
            f"run_spmd: {len(stuck)} rank(s) failed to join within "
            f"{join_timeout:g}s ({detail})", timeout=float(join_timeout))
    if raised:
        raise min(raised, key=_error_priority)

    kernel_seconds: dict[str, float] = {}
    for (kname, _rank), secs in state.kernel_times.items():
        kernel_seconds[kname] = max(kernel_seconds.get(kname, 0.0), secs)
    out = {
        "results": results,
        "clocks": state.clocks.copy(),
        "elapsed": float(np.max(state.clocks)),
        "kernel_seconds": kernel_seconds,
        "comm": summarize_ledgers(state.ledgers, backend="threads",
                                  algo="flat"),
        "backend": "threads",
        "wall_seconds": time.perf_counter() - t_wall,
    }
    if trace:
        from ..trace.capture import assemble_trace
        out["trace"] = assemble_trace(
            [t.events for t in state.tracers],
            nprocs=nprocs, backend="threads", algo="flat",
            machine=machine, sanitized=sanitize.enabled(),
            elapsed=out["elapsed"], kernel_seconds=kernel_seconds)
        out["ledgers"] = [led.to_dict() for led in state.ledgers]
    _record_comm_perf(out)
    return out
