"""Process-per-rank SPMD backend: true multicore execution.

``run_spmd(..., backend="procs")`` lands here.  One OS process per rank
runs the *same* rank programs as the thread backend, with three
differences under the hood:

- the input matrix is distributed zero-copy through
  :mod:`repro.parallel.shm` (one shared segment, per-rank windows are
  views);
- rank-to-rank messages travel over per-route pipes using the pickle-free
  numpy buffer transport (:mod:`repro.parallel.transport`);
- collectives are *algorithms over p2p messages* — flat hub exchange
  (bitwise-identical to the thread backend's barrier semantics, the
  default) or binomial-tree / chunked-ring transports
  (:mod:`repro.parallel.collectives`), selected by
  ``MachineModel.comm_algo``.

Modeled clocks charge exactly the formulas the thread backend charges, so
``clocks`` / ``elapsed`` / ``kernel_seconds`` are bitwise identical across
backends; ``wall_seconds`` is where the backends differ — this one scales
with real cores.

Failure handling: a dying rank stamps its superstep into a small shared
control block before exiting, so peers blocked in ``recv`` or a
collective fail fast with :class:`~repro.exceptions.RankFailure` instead
of waiting out their timeouts; the parent re-raises the most causal error
(same priority rule as the thread backend) and always unlinks every
shared-memory segment on the way out.

**Rank respawn** (``max_rank_restarts > 0``): instead of killing the
whole job on a :class:`RankFailure`, the parent runs a recovery round —

1. survivors observe the death through the shared control block at their
   next superstep (or mid-``recv``, via the dead-peer poll), unwind their
   rank program, and *quiesce*: they report ``quiesced`` on the result
   pipe and block on their command pipe;
2. the parent respawns the dead rank's process, handing it the same
   per-route pipe ends and shared-memory metadata (the input segments
   are still published — the replacement re-attaches its views);
3. every rank — survivors via a ``resume`` command, the replacement at
   spawn — re-enters the rank program in a new *generation* with
   ``resume_from`` pointing at the last checkpoint ``checkpoint_path``
   wrote (or from scratch when none exists yet).  Stale frames from the
   dead generation are dropped by the generation tag every envelope
   carries, and fired :class:`~repro.parallel.faults.RankCrash` specs are
   filtered out of the fault plan so an injected crash fires exactly
   once.

Because checkpoint resume is bitwise-identical (PR 1's contract), a
respawned run's factors, pivots and indicators match the fault-free run
exactly; modeled clocks restart from the resume point and therefore
count post-recovery work only.
"""

from __future__ import annotations

import multiprocessing as mp
import time
from multiprocessing import shared_memory
from pathlib import Path

import numpy as np

from .. import exceptions as _exc
from ..exceptions import CommTimeoutError, CommunicatorError, RankFailure
from ..kernels.threads import pin_rank
from . import sanitize, transport
from .collectives import (
    CommLedger,
    ring_allreduce_sum,
    summarize_ledgers,
    tree_exchange,
)
from .faults import DROP, FaultInjector, FaultPlan
from .machine import MachineModel
from .shm import (
    attach_untracked,
    publish_args,
    register_owned,
    resolve_args,
    unregister_owned,
    _fresh_name,
)

#: Collective-internal messages use this negative tag space (user tags are
#: >= 0); the per-collective sequence number keeps frames distinguishable
#: in logs — correctness only needs per-route FIFO, which pipes guarantee.
_COLL_TAG_BASE = -1


class _CtrlBlock:
    """Shared int64 control block: ``[failed_superstep x P, superstep x P]``.

    Single-writer-per-slot (each rank writes only its own two slots), so no
    locking is needed.  A value >= 0 in the first half marks the rank dead.
    """

    def __init__(self, nprocs: int, name: str | None = None):
        self.owner = name is None
        if self.owner:
            self.shm = shared_memory.SharedMemory(
                create=True, size=16 * nprocs, name=_fresh_name())
            register_owned(self.shm.name)
            self.arr = np.frombuffer(self.shm.buf, dtype=np.int64)
            self.arr[:] = -1
        else:
            self.shm = attach_untracked(name)
            self.arr = np.frombuffer(self.shm.buf, dtype=np.int64)
        self.nprocs = nprocs

    @property
    def name(self) -> str:
        return self.shm.name

    def mark_failed(self, rank: int, superstep: int) -> None:
        if self.arr[rank] < 0:
            self.arr[rank] = superstep

    def failed(self) -> dict[int, int]:
        half = self.arr[:self.nprocs]
        return {int(r): int(half[r]) for r in np.flatnonzero(half >= 0)}

    def heartbeat(self, rank: int, superstep: int) -> None:
        self.arr[self.nprocs + rank] = superstep

    def superstep_of(self, rank: int) -> int:
        return int(self.arr[self.nprocs + rank])

    def reset(self) -> None:
        """Clear failure flags and heartbeats for a new generation
        (parent only, while every rank is quiesced or dead)."""
        self.arr[:] = -1

    def close(self) -> None:
        arr, self.arr = self.arr, None
        del arr
        try:
            self.shm.close()
        except BufferError:
            return
        if self.owner:
            try:
                self.shm.unlink()
            except FileNotFoundError:
                pass
            unregister_owned(self.shm.name)


class ProcComm:
    """Per-rank communicator of the process backend.

    Implements the same surface as :class:`repro.parallel.comm.SimComm`
    (the rank programs are backend-agnostic) with identical modeled-time
    semantics; see the module docstring for the transport differences.
    """

    def __init__(self, rank: int, nprocs: int, machine: MachineModel,
                 channels: dict, send_conns: dict, ctrl: _CtrlBlock,
                 injector: FaultInjector | None,
                 recv_timeout: float, collective_timeout: float,
                 gen: int = 0, trace: bool = False):
        self.rank = rank
        self.nprocs = nprocs
        self.machine = machine
        self._channels = channels          # src -> transport.Channel
        self._send_conns = send_conns      # dst -> Connection
        self._ctrl = ctrl
        self._injector = injector
        self._recv_timeout = float(recv_timeout)
        self._collective_timeout = float(collective_timeout)
        self._gen = int(gen)               # respawn generation (envelopes)
        self._clock = 0.0
        self._kernel: str | None = None
        self._superstep = 0
        self._coll_seq = 0
        self.kernel_times: dict = {}       # (kernel, rank) -> seconds
        self.ledger = CommLedger()
        if trace:
            from ..trace.capture import CommTracer
            self.tracer = CommTracer(rank)
        else:
            self.tracer = None

    # -- introspection (SimComm-compatible) -----------------------------
    @property
    def superstep(self) -> int:
        return self._superstep

    def clock(self) -> float:
        return float(self._clock)

    # -- simulated-time charging ----------------------------------------
    def charge(self, seconds: float) -> None:
        self._clock += max(seconds, 0.0)
        if self._kernel is not None:
            key = (self._kernel, self.rank)
            self.kernel_times[key] = \
                self.kernel_times.get(key, 0.0) + max(seconds, 0.0)

    def charge_flops(self, count: float) -> None:
        self.charge(self.machine.flops(count))

    def charge_mem(self, nbytes: float) -> None:
        self.charge(self.machine.mem(nbytes))

    def kernel(self, name: str) -> "ProcComm":
        self._kernel = name
        return self

    # -- fault / superstep hook (mirrors SimComm._step) ------------------
    def _step(self, op: str) -> None:
        self._superstep += 1
        self._ctrl.heartbeat(self.rank, self._superstep)
        inj = self._injector
        if inj is None:
            return
        try:
            stall = inj.before_op(self.rank, self._superstep, op)
        except RankFailure:
            self._ctrl.mark_failed(self.rank, self._superstep)
            raise
        if stall:
            self.charge(stall)

    # -- channel protocol used by the collective algorithms ---------------
    def payload_bytes(self, obj) -> float:
        from .comm import _payload_bytes
        return _payload_bytes(obj)

    def ledger_record(self, op: str, nbytes: float, msgs: int = 1) -> None:
        self.ledger.record(self._kernel, op, nbytes, msgs)

    def coll_send(self, dst: int, payload) -> int:
        tag = _COLL_TAG_BASE - self._coll_seq
        return self._raw_send(dst, tag, payload, clock=self._clock)

    def coll_recv(self, src: int):
        tag = _COLL_TAG_BASE - self._coll_seq
        env, obj = self._raw_recv(src, tag, self._collective_timeout,
                                  op="collective")
        return obj

    # -- raw transport ----------------------------------------------------
    def _raw_send(self, dst: int, tag: int, obj, *, clock: float) -> int:
        conn = self._send_conns[dst]
        frame = transport.encode(
            {"tag": tag, "clock": clock, "src": self.rank,
             "gen": self._gen}, obj)
        conn.send_bytes(frame)
        return len(frame)

    def _raw_recv(self, src: int, tag: int, timeout: float, *, op: str):
        """One blocking receive attempt; raises on dead peer or timeout.

        The dead-peer poll fails fast on *any* dead rank, not just the
        source: a death anywhere dooms the current generation (every
        collective spans all ranks), and prompt unwinding is what lets
        survivors quiesce for respawn instead of waiting out timeouts.
        """
        ch = self._channels[src]

        def dead_check():
            failed = self._ctrl.failed()
            if failed:
                dead = src if src in failed else min(failed)
                raise RankFailure(
                    f"{op} on rank {self.rank}: rank {dead} died at "
                    f"superstep {failed[dead]}", rank=dead,
                    superstep=failed[dead])

        got = ch.recv(tag, dead_check, timeout)
        if got is None:
            failed = self._ctrl.failed()
            if failed:
                dead = min(failed)
                raise RankFailure(
                    f"{op} aborted on rank {self.rank}: rank {dead} died "
                    f"at superstep {failed[dead]}", rank=dead,
                    superstep=failed[dead])
            raise CommTimeoutError(
                f"{op} on rank {self.rank} from rank {src} (tag {tag}) "
                f"timed out after {timeout:g}s", src=src, dst=self.rank,
                tag=tag, timeout=timeout)
        return got

    # -- generic collective -----------------------------------------------
    def _collective(self, deposit, combine, comm_cost: float, *, op: str,
                    root: int = 0, result_for=None):
        """Flat / tree dispatch with thread-backend clock semantics.

        ``combine(dep_dict)`` runs once on the hub over ``{rank: deposit}``
        (rank-ordered consumption keeps flat bitwise-identical to the
        thread barrier action); ``result_for(rank, combined)`` selects
        per-rank return payloads (scatter/gather), default: everyone gets
        the combined value.

        Under ``REPRO_SANITIZE=1`` deposits ride the wire with a
        ``(kernel, op, root, call-site)`` fingerprint the combining rank
        verifies — see :mod:`repro.parallel.sanitize`.  The ledger treats
        the wrapper as free, so sanitized ledgers stay byte-identical.
        """
        self._step("collective")
        entry, combine_fn = deposit, combine
        if sanitize.enabled():
            fp = sanitize.fingerprint(self._kernel, op, root)
            entry = sanitize.wrap(fp, deposit)

            def combine_fn(dep):
                return combine(sanitize.check_fingerprints(dep))

        seq_guard = self._coll_seq
        try:
            if self.nprocs == 1:
                tmax = self._clock
                combined = combine_fn({self.rank: entry})
                result = (combined if result_for is None
                          else result_for(self.rank, combined))
            elif self.machine.comm_algo == "tree":
                tmax, result = tree_exchange(
                    self, op, self._clock, entry,
                    lambda items: combine_fn(dict(enumerate(items))),
                    root=root, result_for=result_for)
            else:
                tmax, result = self._flat_exchange(
                    entry, combine_fn, op=op, root=root,
                    result_for=result_for)
        finally:
            assert self._coll_seq == seq_guard
            self._coll_seq += 1
        self._clock = max(self._clock, tmax) if self.nprocs == 1 else tmax
        if self.tracer is not None:
            from .comm import _payload_bytes
            algo = "tree" if (self.machine.comm_algo == "tree"
                              and self.nprocs > 1) else "flat"
            meta = None
            if op == "allreduce" and isinstance(deposit, np.ndarray):
                meta = {"numel": int(deposit.size),
                        "itemsize": int(deposit.itemsize)}
            self.tracer.collective(
                op=op, root=root, kernel=self._kernel, algo=algo,
                bytes_in=_payload_bytes(deposit),
                bytes_out=(0.0 if self.rank == root
                           else _payload_bytes(result)),
                site=sanitize.call_site(), meta=meta)
        self.charge(comm_cost)
        return result

    def _flat_exchange(self, deposit, combine, *, op: str, root: int,
                       result_for):
        """Hub exchange replicating the thread backend's barrier action."""
        P = self.nprocs
        if self.rank == root:
            dep = {root: deposit}
            clocks = {root: self._clock}
            for r in range(P):
                if r == root:
                    continue
                env, obj = self._raw_recv(r, _COLL_TAG_BASE - self._coll_seq,
                                          self._collective_timeout, op=op)
                dep[r] = obj
                clocks[r] = float(env["clock"])
            tmax = max(clocks.values())
            combined = combine(dep)
            total_out = 0.0
            for r in range(P):
                if r == root:
                    continue
                out_r = (combined if result_for is None
                         else result_for(r, combined))
                self._raw_send(r, _COLL_TAG_BASE - self._coll_seq,
                               out_r, clock=tmax)
                total_out += self.payload_bytes(out_r)
            self.ledger_record(op, total_out, P - 1)
            return tmax, (combined if result_for is None
                          else result_for(root, combined))
        self._raw_send(root, _COLL_TAG_BASE - self._coll_seq, deposit,
                       clock=self._clock)
        self.ledger_record(op, self.payload_bytes(deposit), 1)
        env, result = self._raw_recv(root, _COLL_TAG_BASE - self._coll_seq,
                                     self._collective_timeout, op=op)
        return float(env["clock"]), result

    # -- collectives (SimComm-compatible surface) --------------------------
    def barrier_sync(self) -> None:
        costs = self.machine.collectives
        self._collective(None, lambda d: None,
                         costs.bcast(0, self.nprocs), op="barrier")

    def bcast(self, obj, root: int = 0):
        from .comm import _payload_bytes
        costs = self.machine.collectives
        payload = obj if self.rank == root else None
        out = self._collective(payload, lambda dep: dep[root], 0.0,
                               op="bcast", root=root)
        self.charge(costs.bcast(_payload_bytes(out), self.nprocs))
        return out

    def scatter(self, chunks: list | None, root: int = 0):
        if self.rank == root and (chunks is None
                                  or len(chunks) != self.nprocs):
            raise CommunicatorError(
                "scatter needs exactly one chunk per rank at the root")
        costs = self.machine.collectives
        # each rank receives its own chunk plus the full modeled total
        # (the thread backend charges the scatter cost on the total size)
        chunk, total = self._collective(
            chunks if self.rank == root else None,
            lambda dep: dep[root], 0.0, op="scatter", root=root,
            result_for=lambda r, allc: (allc[r], _total(allc)))
        self.charge(costs.scatter(total, self.nprocs))
        return chunk

    def gather(self, obj, root: int = 0) -> list | None:
        costs = self.machine.collectives

        def combine(dep):
            return [dep[r] for r in range(self.nprocs)]

        res = self._collective(
            obj, combine, 0.0, op="gather", root=root,
            result_for=lambda r, combined: (combined, _total(combined))
            if r == root else (None, _total(combined)))
        res, total = res
        self.charge(costs.gather(total, self.nprocs))
        return res

    def allgather(self, obj) -> list:
        from .comm import _payload_bytes
        costs = self.machine.collectives

        def combine(dep):
            return [dep[r] for r in range(self.nprocs)]

        res = self._collective(obj, combine, 0.0, op="allgather")
        total = sum(_payload_bytes(c) for c in res)
        self.charge(costs.allgather(total, self.nprocs))
        return res

    def allreduce_sum(self, arr: np.ndarray) -> np.ndarray:
        from .comm import _payload_bytes
        costs = self.machine.collectives
        arr = np.asarray(arr)
        if (self.machine.comm_algo == "tree" and self.nprocs > 1
                and self.nprocs % 2 == 0 and arr.size >= self.nprocs):
            self._step("collective")
            fp = (sanitize.fingerprint(self._kernel, "allreduce", 0)
                  if sanitize.enabled() else None)
            try:
                tmax, res = ring_allreduce_sum(
                    self, "allreduce", self._clock, arr, fp=fp)
            finally:
                self._coll_seq += 1
            self._clock = tmax
            if self.tracer is not None:
                self.tracer.collective(
                    op="allreduce", root=0, kernel=self._kernel,
                    algo="ring", bytes_in=_payload_bytes(arr),
                    bytes_out=0.0, site=sanitize.call_site(),
                    meta={"numel": int(arr.size),
                          "itemsize": int(arr.itemsize)})
            self.charge(0.0)
        else:
            def combine(dep):
                out = None
                for r in range(self.nprocs):
                    out = (dep[r].copy() if out is None
                           else out + dep[r])
                return out

            res = self._collective(arr, combine, 0.0, op="allreduce")
        self.charge(costs.allreduce(_payload_bytes(res), self.nprocs))
        return res.copy()

    # -- point to point -----------------------------------------------------
    def send(self, obj, dst: int, tag: int = 0) -> None:
        from .comm import _payload_bytes
        if not 0 <= dst < self.nprocs:
            raise CommunicatorError(f"invalid destination rank {dst}")
        self._step("send")
        costs = self.machine.collectives
        self.charge(costs.p2p(_payload_bytes(obj)))
        self.ledger_record("send", self.payload_bytes(obj), 1)
        if self.tracer is not None:
            self.tracer.send(dst=dst, tag=tag, kernel=self._kernel,
                             nbytes=_payload_bytes(obj),
                             site=sanitize.call_site())
        if self._injector is not None:
            obj = self._injector.filter_send(self.rank, dst, tag, obj)
            if obj is DROP:
                return  # lost on the wire: cost paid, nothing delivered
        self._raw_send(dst, tag, obj, clock=self._clock)

    def recv(self, src: int, tag: int = 0, *, timeout: float | None = None,
             max_retries: int = 0, retry_backoff: float = 1e-3):
        if not 0 <= src < self.nprocs:
            raise CommunicatorError(f"invalid source rank {src}")
        self._step("recv")
        timeout = self._recv_timeout if timeout is None else float(timeout)
        for attempt in range(max_retries + 1):
            try:
                env, obj = self._raw_recv(src, tag, timeout, op="recv")
            except CommTimeoutError:
                if attempt < max_retries:
                    self.charge(retry_backoff * (2.0 ** attempt))
                    continue
                raise CommTimeoutError(
                    f"recv on rank {self.rank} from rank {src} (tag {tag}) "
                    f"timed out after {max_retries + 1} attempt(s) of "
                    f"{timeout:g}s", src=src, dst=self.rank, tag=tag,
                    timeout=timeout, retries=max_retries) from None
            self._clock = max(self._clock, float(env["clock"]))
            if self.tracer is not None:
                from .comm import _payload_bytes
                self.tracer.recv(src=src, tag=tag, kernel=self._kernel,
                                 nbytes=_payload_bytes(obj),
                                 site=sanitize.call_site())
            return obj


def _total(items: list) -> float:
    from .comm import _payload_bytes
    return float(sum(_payload_bytes(c) for c in items))


# ---------------------------------------------------------------------------
# child process entry
# ---------------------------------------------------------------------------

def _exc_to_wire(exc: BaseException) -> dict:
    attrs = {k: v for k, v in getattr(exc, "__dict__", {}).items()
             if isinstance(v, (int, float, str, bool, type(None)))}
    return {"type": type(exc).__name__, "message": str(exc),
            "attrs": attrs}


def _exc_from_wire(d: dict, rank: int) -> BaseException:
    cls = getattr(_exc, d["type"], None)
    if cls is None:
        import builtins
        cls = getattr(builtins, d["type"], None)
    if cls is not None and isinstance(cls, type) \
            and issubclass(cls, BaseException):
        try:
            return cls(d["message"], **d["attrs"])
        except TypeError:
            try:
                return cls(d["message"])
            except TypeError:
                pass
    return CommunicatorError(
        f"rank {rank} failed: {d['type']}: {d['message']}")


def _await_command(cmd_conn) -> dict | None:
    """Block on the command pipe until the parent speaks (or dies)."""
    try:
        while True:
            if cmd_conn.poll(1.0):
                return cmd_conn.recv()
    except (EOFError, OSError):
        return None  # parent gone: exit


def _rank_main(rank: int, nprocs: int, program, args: tuple, kwargs: dict,
               machine: MachineModel, plan: FaultPlan | None,
               recv_timeout: float, collective_timeout: float,
               recv_conns: dict, send_conns: dict, result_conn, cmd_conn,
               ctrl_name: str, start_gen: int, respawn: bool,
               trace: bool = False) -> None:
    """Child entry: run ``program`` once per generation until told to exit.

    Without respawn (``respawn=False``) this is one shot: run, report
    ``ok`` or ``err``, exit.  With respawn, a rank that unwinds with a
    *peer's* :class:`RankFailure` reports ``quiesced`` and blocks on the
    command pipe; a ``resume`` command carries the next generation number,
    the filtered fault plan, and the checkpoint to resume from.  A rank's
    *own* death (injected crash, program error) is always fatal to the
    process — the parent respawns a fresh one.
    """
    attached = []
    ctrl = None
    # P rank processes already occupy P cores: one BLAS thread and one
    # OpenMP SpGEMM thread per rank, so ranks never oversubscribe the host
    pin_rank()
    try:
        ctrl = _CtrlBlock(nprocs, name=ctrl_name)
        args, attached = resolve_args(args)
        channels = {src: transport.Channel(conn)
                    for src, conn in recv_conns.items()}
        gen = int(start_gen)
        kwargs = dict(kwargs)
        while True:
            for ch in channels.values():
                ch.set_generation(gen)
            injector = plan.build() if plan is not None else None
            comm = ProcComm(rank, nprocs, machine, channels, send_conns,
                            ctrl, injector, recv_timeout,
                            collective_timeout, gen=gen, trace=trace)
            fatal = False
            try:
                result = program(comm, *args, **kwargs)
                kind, payload = "ok", {
                    "result": result,
                    "clock": comm.clock(),
                    "kernel_times": {k: v for (k, _r), v
                                     in comm.kernel_times.items()},
                    "ledger": comm.ledger.to_dict(),
                    "superstep": comm.superstep,
                }
                if comm.tracer is not None:
                    payload["trace"] = comm.tracer.to_wire()
            except RankFailure as exc:
                if (respawn and not exc.injected
                        and exc.rank is not None and exc.rank != rank):
                    # a peer died: unwound cleanly, park for the respawn
                    kind, payload = "quiesced", {
                        "superstep": comm.superstep,
                        "cause_rank": int(exc.rank),
                    }
                else:
                    ctrl.mark_failed(rank, comm.superstep)
                    kind, payload, fatal = "err", _exc_to_wire(exc), True
            except BaseException as exc:  # noqa: BLE001 - crosses processes
                ctrl.mark_failed(rank, comm.superstep)
                kind, payload, fatal = "err", _exc_to_wire(exc), True
            try:
                result_conn.send_bytes(
                    transport.encode({"kind": kind, "gen": gen}, payload))
            except OSError:
                return
            if fatal or not respawn:
                return
            cmd = _await_command(cmd_conn)
            if cmd is None or cmd.get("op") != "resume":
                return
            gen = int(cmd["gen"])
            plan = cmd.get("plan")
            if cmd.get("resume_from") is not None:
                kwargs["resume_from"] = cmd["resume_from"]
    except BaseException as exc:  # noqa: BLE001 - setup failure
        if ctrl is not None:
            ctrl.mark_failed(rank, 0)
        try:
            result_conn.send_bytes(
                transport.encode({"kind": "err", "gen": int(start_gen)},
                                 _exc_to_wire(exc)))
        except OSError:
            pass
    finally:
        for h in attached:
            h.close()
        if ctrl is not None:
            ctrl.close()
        for conn in (result_conn, cmd_conn):
            try:
                conn.close()
            except OSError:
                pass


# ---------------------------------------------------------------------------
# parent driver
# ---------------------------------------------------------------------------

def _default_context() -> mp.context.BaseContext:
    methods = mp.get_all_start_methods()
    return mp.get_context("fork" if "fork" in methods else "spawn")


def run_spmd_procs(nprocs: int, program, *args,
                   machine: MachineModel | None = None,
                   fault_plan: FaultPlan | FaultInjector | None = None,
                   recv_timeout: float = 30.0,
                   collective_timeout: float = 120.0,
                   join_timeout: float = 300.0,
                   mp_context: str | None = None,
                   max_rank_restarts: int = 0,
                   quiesce_timeout: float = 30.0,
                   trace: bool = False,
                   **kwargs) -> dict:
    """Run ``program`` on ``nprocs`` OS processes (see module docstring).

    Called through :func:`repro.parallel.comm.run_spmd` with
    ``backend="procs"``; the signature mirrors the thread path.  Extra
    knobs: ``join_timeout`` bounds each generation in real time,
    ``mp_context`` overrides the start method (default ``fork`` where
    available — rank startup is milliseconds; ``spawn`` re-imports the
    library per rank).

    ``max_rank_restarts > 0`` enables rank respawn: up to that many
    recovery rounds turn a :class:`RankFailure` into a respawn of the
    dead rank(s) plus a cohort-wide resume from the last
    ``checkpoint_path`` checkpoint (from scratch when none exists yet) —
    see the module docstring for the protocol.  Program errors
    (``ZeroDivisionError``, mismatched collectives, ...) are never
    respawned: a deterministic bug would fail identically again.
    ``quiesce_timeout`` bounds how long the parent waits for survivors to
    notice a death and park; stragglers past it are terminated and
    respawned too.  The returned dict reports the recovery count under
    ``"restarts"``.
    """
    from .comm import _error_priority

    if nprocs <= 0:
        raise CommunicatorError("nprocs must be positive")
    for bad in ("checkpoint_callback",):
        if kwargs.get(bad) is not None:
            raise CommunicatorError(
                f"{bad} is not supported by the procs backend (rank "
                "processes cannot call back into the parent); use "
                "checkpoint_path instead")
    max_rank_restarts = int(max_rank_restarts)
    if max_rank_restarts < 0:
        raise CommunicatorError("max_rank_restarts must be >= 0")
    respawn = max_rank_restarts > 0
    machine = machine or MachineModel()
    plan = fault_plan.plan if isinstance(fault_plan, FaultInjector) \
        else fault_plan
    ctx = mp.get_context(mp_context) if mp_context else _default_context()

    t_wall = time.perf_counter()
    shm_args, published = publish_args(args)
    ctrl = _CtrlBlock(nprocs)
    procs: list = [None] * nprocs
    result_conns: list = [None] * nprocs
    child_result_conns: list = [None] * nprocs
    cmd_conns: list = [None] * nprocs
    child_cmd_conns: list = [None] * nprocs
    child_recv: list = [None] * nprocs
    child_send: list = [None] * nprocs
    all_conns: list = []
    restarts = 0
    active_plan = plan

    def spawn(rank: int, gen: int, extra_kwargs: dict | None) -> None:
        p = ctx.Process(
            target=_rank_main,
            args=(rank, nprocs, program,
                  shm_args, extra_kwargs or kwargs, machine, active_plan,
                  float(recv_timeout), float(collective_timeout),
                  child_recv[rank], child_send[rank],
                  child_result_conns[rank], child_cmd_conns[rank],
                  ctrl.name, gen, respawn, bool(trace)),
            daemon=True)
        procs[rank] = p
        p.start()

    try:
        # one half-duplex pipe per ordered rank pair, plus a result pipe
        # and a duplex command pipe per rank.  The parent keeps *both*
        # ends of every pipe so a respawned process can be handed the
        # exact same routes its predecessor used (works under fork and
        # spawn alike).
        route_r: dict[tuple[int, int], object] = {}
        route_w: dict[tuple[int, int], object] = {}
        for s in range(nprocs):
            for d in range(nprocs):
                if s == d:
                    continue
                r_conn, w_conn = ctx.Pipe(duplex=False)
                route_r[(s, d)] = r_conn
                route_w[(s, d)] = w_conn
                all_conns.extend([r_conn, w_conn])
        for rank in range(nprocs):
            pr, pw = ctx.Pipe(duplex=False)
            cparent, cchild = ctx.Pipe(duplex=True)
            result_conns[rank] = pr
            child_result_conns[rank] = pw
            cmd_conns[rank] = cparent
            child_cmd_conns[rank] = cchild
            all_conns.extend([pr, pw, cparent, cchild])
            child_recv[rank] = {s: route_r[(s, rank)]
                                for s in range(nprocs) if s != rank}
            child_send[rank] = {d: route_w[(rank, d)]
                                for d in range(nprocs) if d != rank}
        gen = 0
        for rank in range(nprocs):
            spawn(rank, gen, None)

        reports: list = [None] * nprocs
        while True:
            # -- collect one generation: every rank reports or dies -----
            status: dict[int, tuple[str, object]] = {}
            pending = set(range(nprocs))
            deadline = time.monotonic() + float(join_timeout)
            quiesce_deadline = None
            while pending:
                progressed = False
                for rank in list(pending):
                    conn = result_conns[rank]
                    if conn.poll(0.01):
                        env, payload = transport.decode(conn.recv_bytes())
                        if int(env.get("gen", 0)) != gen:
                            progressed = True
                            continue  # stale report from a dead generation
                        kind = env["kind"]
                        if kind == "err":
                            status[rank] = (
                                "err", _exc_from_wire(payload, rank))
                        else:
                            status[rank] = (kind, payload)
                        pending.discard(rank)
                        progressed = True
                    elif procs[rank].exitcode is not None:
                        # died without reporting (hard crash / kill)
                        status[rank] = ("dead", RankFailure(
                            f"rank {rank} process exited with code "
                            f"{procs[rank].exitcode} without reporting",
                            rank=rank, superstep=ctrl.superstep_of(rank)))
                        ctrl.mark_failed(rank,
                                         max(ctrl.superstep_of(rank), 0))
                        pending.discard(rank)
                        progressed = True
                if pending and respawn and quiesce_deadline is None \
                        and any(k in ("err", "dead")
                                for k, _ in status.values()):
                    quiesce_deadline = (time.monotonic()
                                        + float(quiesce_timeout))
                if pending and quiesce_deadline is not None \
                        and time.monotonic() > quiesce_deadline:
                    for rank in pending:  # straggler: respawn it too
                        procs[rank].terminate()
                    quiesce_deadline = time.monotonic() + 5.0
                if pending and not progressed \
                        and time.monotonic() > deadline:
                    stuck = sorted(pending)
                    detail = ", ".join(
                        f"rank {r} at superstep {ctrl.superstep_of(r)}"
                        for r in stuck)
                    raise CommTimeoutError(
                        f"procs backend: {len(stuck)} rank(s) still "
                        f"running after join timeout {join_timeout:g}s "
                        f"({detail})", timeout=float(join_timeout))

            failed = {r: e for r, (k, e) in status.items()
                      if k in ("err", "dead")}
            if not failed:
                if all(status[r][0] == "ok" for r in range(nprocs)):
                    reports = [status[r][1] for r in range(nprocs)]
                    break
                # all-quiesced without a recorded death (e.g. a stale
                # ctrl flag): treat as one more recovery round
                failed = {}
            causal = (min(failed.values(), key=_error_priority)
                      if failed else None)
            respawnable = respawn and all(
                isinstance(e, RankFailure) for e in failed.values())
            if not respawnable or restarts >= max_rank_restarts:
                if causal is not None:
                    raise causal
                raise CommunicatorError(
                    "procs backend: every rank quiesced but no failure "
                    "was recorded")

            # -- recovery round ----------------------------------------
            restarts += 1
            gen += 1
            if active_plan is not None:
                active_plan = active_plan.without_crashes_for(failed)
            ckpt = kwargs.get("checkpoint_path")
            resume = (str(ckpt) if ckpt is not None
                      and Path(ckpt).exists() else None)
            ctrl.reset()
            resume_cmd = {"op": "resume", "gen": gen, "plan": active_plan,
                          "resume_from": resume}
            for rank in range(nprocs):
                kind = status[rank][0]
                if kind in ("ok", "quiesced") and procs[rank].is_alive():
                    cmd_conns[rank].send(resume_cmd)
                else:
                    procs[rank].join(timeout=5.0)
                    spawn(rank, gen,
                          dict(kwargs, resume_from=resume) if resume
                          else None)

        if respawn:
            for conn in cmd_conns:
                try:
                    conn.send({"op": "exit"})
                except (OSError, BrokenPipeError):
                    pass
    finally:
        for p in procs:
            if p is not None and p.is_alive():
                p.terminate()
        for p in procs:
            if p is not None and p.pid is not None:
                p.join(timeout=5.0)
        for conn in all_conns:
            try:
                conn.close()
            except OSError:
                pass
        for shared in published:
            shared.close()
        ctrl.close()

    clocks = np.array([rep["clock"] for rep in reports])
    kernel_seconds: dict[str, float] = {}
    for rep in reports:
        for kname, secs in rep["kernel_times"].items():
            kernel_seconds[kname] = max(kernel_seconds.get(kname, 0.0),
                                        secs)
    ledgers = [CommLedger.from_dict(rep["ledger"]) for rep in reports]
    out = {
        "results": [rep["result"] for rep in reports],
        "clocks": clocks,
        "elapsed": float(np.max(clocks)),
        "kernel_seconds": kernel_seconds,
        "comm": summarize_ledgers(ledgers, backend="procs",
                                  algo=machine.comm_algo),
        "backend": "procs",
        "restarts": restarts,
        "wall_seconds": time.perf_counter() - t_wall,
    }
    if trace:
        from ..trace.capture import assemble_trace
        out["trace"] = assemble_trace(
            [rep.get("trace") or [] for rep in reports],
            nprocs=nprocs, backend="procs", algo=machine.comm_algo,
            machine=machine, sanitized=sanitize.enabled(),
            elapsed=out["elapsed"], kernel_seconds=kernel_seconds)
        out["ledgers"] = [rep["ledger"] for rep in reports]
    return out
