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

**Rank lifecycle.**  Ranks outlive the call that forked them, as MPI
ranks outlive one solve: a fresh rank process spends about 0.1 s more
CPU on its first solve than on the same solve again.  After a call in
which every rank reported ``ok`` in the first generation, the ranks park
on their command pipes and the cohort becomes this process's one *idle
cohort*, keyed by P, the start method and the environment (a forked
child forgets its parent's idle cohort).  The next call with the same
key sends its program, the refs of its published arguments and its
kwargs, pickled, in a ``run`` command; every call is a new generation,
so frames left over from the last one are dropped.  A new fork serves a
call whose key differs (the idle cohort is torn down), whose program or
arguments do not pickle or refer to anything defined in ``__main__``
(ranks would see the script's globals and functions as they were at
their fork), or that finds the slot empty (a concurrent call holds the
cohort).  After an error, a dead rank, a timeout or a respawn round the
cohort is terminated.  The control block and the published matrices
are still created and unlinked per call.  Parked ranks exit on
``exit`` (:func:`release_ranks`, also run at interpreter exit) and when
their parent dies, and ignore SIGINT: only a running program takes a
Ctrl-C.
"""

from __future__ import annotations

import atexit
import io
import multiprocessing as mp
import os
import pickle
import signal
import threading
import time
import types
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

_WIRE_SCALARS = (int, float, str, bool, type(None))


def _exc_to_wire(exc: BaseException) -> dict:
    attrs = {k: v for k, v in getattr(exc, "__dict__", {}).items()
             if isinstance(v, _WIRE_SCALARS)
             or (isinstance(v, tuple)
                 and all(isinstance(x, _WIRE_SCALARS) for x in v))}
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


def _peak_rss_mb() -> float:
    """Peak resident set of this process so far, in MB (``ru_maxrss`` is
    in KiB on Linux)."""
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _report(result_conn, kind: str, gen: int, payload) -> bool:
    """Send one report to the parent; False once the pipe is gone."""
    try:
        result_conn.send_bytes(
            transport.encode({"kind": kind, "gen": gen}, payload))
    except OSError:
        return False
    return True


def _await_command(cmd_conn, parent: int) -> dict | None:
    """Block on the command pipe until the parent speaks, or return None
    once it is gone.

    EOF alone cannot signal the parent's death: under fork every rank
    inherits a copy of the parent's end of this pipe.  So every poll
    timeout also compares the parent pid with the one the rank started
    under.
    """
    try:
        while True:
            if cmd_conn.poll(1.0):
                return cmd_conn.recv()
            if os.getppid() != parent:
                return None
    except (EOFError, OSError):
        return None


def _run_generation(rank: int, nprocs: int, call: dict, args: tuple,
                    kwargs: dict, plan: FaultPlan | None, gen: int,
                    channels: dict, send_conns: dict,
                    ctrl: _CtrlBlock) -> tuple[str, object]:
    """Run the call's program once; returns ``(kind, payload)`` to report.

    A rank that unwinds with a *peer's* :class:`RankFailure` under respawn
    reports ``quiesced``; any other failure is the rank's own and ``err``.
    """
    for ch in channels.values():
        ch.set_generation(gen)
    injector = plan.build() if plan is not None else None
    comm = ProcComm(rank, nprocs, call["machine"], channels, send_conns,
                    ctrl, injector, call["recv_timeout"],
                    call["collective_timeout"], gen=gen,
                    trace=call["trace"])
    try:
        result = call["program"](comm, *args, **kwargs)
        payload = {
            "result": result,
            "clock": comm.clock(),
            "kernel_times": {k: v for (k, _r), v
                             in comm.kernel_times.items()},
            "ledger": comm.ledger.to_dict(),
            "superstep": comm.superstep,
            "peak_rss_mb": _peak_rss_mb(),
        }
        if comm.tracer is not None:
            payload["trace"] = comm.tracer.to_wire()
        return "ok", payload
    except RankFailure as exc:
        if (call["respawn"] and not exc.injected
                and exc.rank is not None and exc.rank != rank):
            # a peer died: unwound cleanly, park for the respawn
            return "quiesced", {"superstep": comm.superstep,
                                "cause_rank": int(exc.rank)}
        ctrl.mark_failed(rank, comm.superstep)
        return "err", _exc_to_wire(exc)
    except BaseException as exc:  # noqa: BLE001 - crosses processes
        ctrl.mark_failed(rank, comm.superstep)
        return "err", _exc_to_wire(exc)


def _serve_call(rank: int, nprocs: int, call: dict, channels: dict,
                send_conns: dict, result_conn, cmd_conn, parent: int,
                sigint) -> dict | None:
    """Serve one ``run_spmd`` call: one program run per generation.

    Returns the command that follows the call (``run`` or ``exit``), or
    None when the rank must exit: its own failure, a lost pipe or a gone
    parent.  The call's shared memory is unmapped before the rank parks.
    SIGINT takes its ``sigint`` handler only while the program runs.
    """
    gen = int(call["gen"])
    attached: list = []
    ctrl = args = None
    try:
        # P rank processes already occupy P cores: one BLAS thread and
        # one OpenMP SpGEMM thread per rank, whatever the last call left
        pin_rank()
        ctrl = _CtrlBlock(nprocs, name=call["ctrl"])
        args, attached = resolve_args(call["args"])
        kwargs, plan = dict(call["kwargs"]), call["plan"]
        while True:
            signal.signal(signal.SIGINT, sigint)
            try:
                kind, payload = _run_generation(
                    rank, nprocs, call, args, kwargs, plan, gen, channels,
                    send_conns, ctrl)
            finally:
                signal.signal(signal.SIGINT, signal.SIG_IGN)
            if not _report(result_conn, kind, gen, payload) \
                    or kind == "err":
                return None
            if not call["respawn"]:
                break
            cmd = _await_command(cmd_conn, parent)
            if cmd is None or cmd.get("op") != "resume":
                return cmd
            gen = int(cmd["gen"])
            plan = cmd.get("plan")
            if cmd.get("resume_from") is not None:
                kwargs["resume_from"] = cmd["resume_from"]
    except BaseException as exc:  # noqa: BLE001 - setup failure
        if ctrl is not None:
            ctrl.mark_failed(rank, 0)
        _report(result_conn, "err", gen, _exc_to_wire(exc))
        return None
    finally:
        args = None  # drop the views before unmapping
        for h in attached:
            h.close()
        if ctrl is not None:
            ctrl.close()
    return _await_command(cmd_conn, parent)


def _rank_main(rank: int, nprocs: int, call: dict, recv_conns: dict,
               send_conns: dict, result_conn, cmd_conn) -> None:
    """Child entry: serve calls until told to exit or orphaned.

    ``call`` is the first call, handed over at start.  After reporting
    ``ok`` (or ``quiesced``) the rank parks on its command pipe, which
    takes three commands: ``resume`` (the next generation of the current
    call, under respawn), ``run`` (the next call, pickled) and ``exit``.
    A rank's *own* failure (injected crash, program error) is always
    fatal to the process.  A ``run`` this process cannot unpickle (a
    program defined after the fork) is reported as ``reject``, and the
    parent forks a fresh cohort for it.

    A Ctrl-C at the terminal reaches the whole process group, ranks
    included.  Only a running program takes it, with the handler the
    rank started with; between programs a rank ignores SIGINT, and the
    parent decides whether its ranks go.
    """
    sigint = signal.signal(signal.SIGINT, signal.SIG_IGN)
    if sigint is None:  # installed outside Python
        sigint = signal.default_int_handler
    parent = os.getppid()
    channels = {src: transport.Channel(conn)
                for src, conn in recv_conns.items()}
    try:
        while True:
            cmd = _serve_call(rank, nprocs, call, channels, send_conns,
                              result_conn, cmd_conn, parent, sigint)
            if cmd is None or cmd.get("op") != "run":
                return
            try:
                call = dict(pickle.loads(cmd["call"]), gen=cmd["gen"])
            except Exception as exc:  # noqa: BLE001 - reported, not run
                _report(result_conn, "reject", cmd["gen"],
                        _exc_to_wire(exc))
                return
    finally:
        for conn in (result_conn, cmd_conn):
            try:
                conn.close()
            except OSError:
                pass


# ---------------------------------------------------------------------------
# rank cohorts: forked once, parked between calls
# ---------------------------------------------------------------------------

def _default_context() -> mp.context.BaseContext:
    methods = mp.get_all_start_methods()
    return mp.get_context("fork" if "fork" in methods else "spawn")


class _Cohort:
    """P rank processes and every pipe they were started with.

    One half-duplex pipe per ordered rank pair, plus a result pipe and a
    duplex command pipe per rank.  The parent keeps *both* ends of every
    pipe so a respawned process can be handed the exact routes its
    predecessor used (works under fork and spawn alike).
    """

    def __init__(self, nprocs: int, ctx: mp.context.BaseContext, key):
        self.nprocs = nprocs
        self.ctx = ctx
        self.key = key
        self.next_gen = 0
        self.procs: list = [None] * nprocs
        self.conns: list = []
        route_r: dict[tuple[int, int], object] = {}
        route_w: dict[tuple[int, int], object] = {}
        for s in range(nprocs):
            for d in range(nprocs):
                if s != d:
                    route_r[(s, d)], route_w[(s, d)] = self._pipe(False)
        self.result_conns: list = []
        self.cmd_conns: list = []
        self._child_ends: list = []
        for rank in range(nprocs):
            pr, pw = self._pipe(False)
            cparent, cchild = self._pipe(True)
            self.result_conns.append(pr)
            self.cmd_conns.append(cparent)
            self._child_ends.append((
                {s: route_r[(s, rank)] for s in range(nprocs) if s != rank},
                {d: route_w[(rank, d)] for d in range(nprocs) if d != rank},
                pw, cchild))

    def _pipe(self, duplex: bool) -> tuple:
        ends = self.ctx.Pipe(duplex=duplex)
        self.conns.extend(ends)
        return ends

    def spawn(self, rank: int, call: dict) -> None:
        p = self.ctx.Process(
            target=_rank_main,
            args=(rank, self.nprocs, call, *self._child_ends[rank]),
            daemon=True)
        self.procs[rank] = p
        p.start()

    def alive(self) -> bool:
        return all(p is not None and p.is_alive() for p in self.procs)

    def kill(self) -> None:
        """Terminate every live rank, reap them all, close every pipe."""
        for p in self.procs:
            if p is not None and p.is_alive():
                p.terminate()
        for p in self.procs:
            if p is not None and p.pid is not None:
                p.join(timeout=5.0)
        for conn in self.conns:
            try:
                conn.close()
            except OSError:
                pass

    def release(self) -> None:
        """Tell parked ranks to exit, then :meth:`kill` the stragglers."""
        for conn in self.cmd_conns:
            try:
                conn.send({"op": "exit"})
            except OSError:
                pass
        deadline = time.monotonic() + 5.0
        for p in self.procs:
            if p is not None and p.pid is not None:
                p.join(timeout=max(deadline - time.monotonic(), 0.0))
        self.kill()


#: The one idle cohort of this process, and the lock that guards only
#: taking it out of and putting it into the slot.
_idle_lock = threading.Lock()
_idle: _Cohort | None = None


def _cohort_key(nprocs: int, ctx: mp.context.BaseContext) -> tuple:
    """What a cohort must match to serve a call.  Ranks read
    ``REPRO_SANITIZE``, the kernel tier, cache and thread variables from
    their own environment, fixed when they were started."""
    return (nprocs, ctx.get_start_method(),
            tuple(sorted(os.environ.items())))


def _pop_idle() -> _Cohort | None:
    global _idle
    with _idle_lock:
        cohort, _idle = _idle, None
    return cohort


def _take_idle(key: tuple) -> _Cohort | None:
    """The idle cohort if it matches ``key`` and every rank still lives;
    an idle cohort that does not is torn down."""
    cohort = _pop_idle()
    if cohort is not None and (cohort.key != key or not cohort.alive()):
        cohort.release()
        cohort = None
    return cohort


def _park(cohort: _Cohort) -> None:
    """Keep ``cohort`` for the next call; torn down if the slot is full."""
    global _idle
    with _idle_lock:
        if _idle is None:
            _idle, cohort = cohort, None
    if cohort is not None:
        cohort.release()


def release_ranks() -> None:
    """Tear down this process's idle rank cohort, if any.

    Parked ranks are told to exit, joined with a timeout, and terminated
    if they have not gone by then.  Registered with :mod:`atexit`; tests
    and benchmarks call it to start from a fresh fork.
    """
    cohort = _pop_idle()
    if cohort is not None:
        cohort.release()


def _forget_idle() -> None:
    """A forked child neither uses nor tears down its parent's ranks."""
    global _idle_lock, _idle
    _idle_lock = threading.Lock()
    _idle = None


atexit.register(release_ranks)
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_idle)


def _fork_cohort(nprocs: int, ctx: mp.context.BaseContext, key: tuple,
                 call: dict) -> _Cohort:
    cohort = _Cohort(nprocs, ctx, key)
    try:
        for rank in range(nprocs):
            cohort.spawn(rank, dict(call, gen=0))
    except BaseException:
        cohort.kill()
        raise
    return cohort


class _CallPickler(pickle.Pickler):
    """Pickles a call for parked ranks, refusing whatever ``__main__``
    defines: a rank would look it up in its own copy of the script's
    module, frozen when the rank was forked, and run a redefined
    function's old body or read a global's old value."""

    def reducer_override(self, obj):
        if isinstance(obj, (type, types.FunctionType)) \
                and getattr(obj, "__module__", None) == "__main__":
            raise pickle.PicklingError(
                f"{obj.__qualname__} is defined in __main__")
        return NotImplemented


def _pickle_call(call: dict) -> bytes | None:
    """``call`` as parked ranks receive it, or None when only a fresh fork
    can carry it (closures, lambdas, locks, anything from ``__main__``)."""
    buf = io.BytesIO()
    try:
        _CallPickler(buf, protocol=pickle.HIGHEST_PROTOCOL).dump(call)
    except Exception:  # noqa: BLE001 - whatever the reason, a fork carries it
        return None
    return buf.getvalue()


def _start_call(nprocs: int, ctx: mp.context.BaseContext,
                call: dict) -> tuple[_Cohort, int]:
    """Hand ``call`` to the idle cohort when it matches, else fork one.

    Only a call that :func:`_pickle_call` accepts travels to parked
    ranks; any other reaches its ranks by being inherited at a fresh fork
    and leaves the idle cohort parked.  Returns the cohort and the call's
    first generation.
    """
    key = _cohort_key(nprocs, ctx)
    cohort = _take_idle(key)
    blob = _pickle_call(call) if cohort is not None else None
    if cohort is not None and blob is None:
        _park(cohort)
        cohort = None
    if cohort is None:
        return _fork_cohort(nprocs, ctx, key, call), 0
    gen = cohort.next_gen
    try:
        for conn in cohort.cmd_conns:
            conn.send({"op": "run", "gen": gen, "call": blob})
    except BaseException:
        cohort.kill()
        raise
    return cohort, gen


def _collect(cohort: _Cohort, ctrl: _CtrlBlock, gen: int, *,
             respawn: bool, join_timeout: float,
             quiesce_timeout: float) -> dict | None:
    """Collect one generation: every rank reports or dies.

    Returns ``{rank: (kind, payload_or_error)}``, or None as soon as a
    rank rejects the call (it could not load it; see :func:`_rank_main`).
    """
    status: dict[int, tuple[str, object]] = {}
    pending = set(range(cohort.nprocs))
    deadline = time.monotonic() + float(join_timeout)
    quiesce_deadline = None
    while pending:
        progressed = False
        for rank in list(pending):
            conn = cohort.result_conns[rank]
            proc = cohort.procs[rank]
            if conn.poll(0.01):
                env, payload = transport.decode(conn.recv_bytes())
                if int(env.get("gen", 0)) != gen:
                    progressed = True
                    continue  # stale report from a dead generation
                kind = env["kind"]
                if kind == "reject":
                    return None
                if kind == "err":
                    status[rank] = ("err", _exc_from_wire(payload, rank))
                else:
                    status[rank] = (kind, payload)
                pending.discard(rank)
                progressed = True
            elif proc.exitcode is not None:
                # died without reporting (hard crash / kill)
                status[rank] = ("dead", RankFailure(
                    f"rank {rank} process exited with code "
                    f"{proc.exitcode} without reporting",
                    rank=rank, superstep=ctrl.superstep_of(rank)))
                ctrl.mark_failed(rank, max(ctrl.superstep_of(rank), 0))
                pending.discard(rank)
                progressed = True
        if pending and respawn and quiesce_deadline is None \
                and any(k in ("err", "dead") for k, _ in status.values()):
            quiesce_deadline = time.monotonic() + float(quiesce_timeout)
        if pending and quiesce_deadline is not None \
                and time.monotonic() > quiesce_deadline:
            for rank in pending:  # straggler: respawn it too
                cohort.procs[rank].terminate()
            quiesce_deadline = time.monotonic() + 5.0
        if pending and not progressed and time.monotonic() > deadline:
            stuck = sorted(pending)
            detail = ", ".join(
                f"rank {r} at superstep {ctrl.superstep_of(r)}"
                for r in stuck)
            raise CommTimeoutError(
                f"procs backend: {len(stuck)} rank(s) still running after "
                f"join timeout {join_timeout:g}s ({detail})",
                timeout=float(join_timeout))
    return status


# ---------------------------------------------------------------------------
# parent driver
# ---------------------------------------------------------------------------

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
    available; ``spawn`` re-imports the library per rank).  Ranks are
    kept alive between calls: a call that matches the idle cohort runs
    on it, any other forks a fresh one (see "Rank lifecycle" in the
    module docstring).

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
    ``"restarts"`` and each rank process's peak resident set under
    ``"rank_peak_rss_mb"``.
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
    call = {"program": program, "args": shm_args, "kwargs": kwargs,
            "machine": machine, "plan": plan,
            "recv_timeout": float(recv_timeout),
            "collective_timeout": float(collective_timeout),
            "ctrl": ctrl.name, "respawn": respawn, "trace": bool(trace)}
    cohort = None
    clean = False
    restarts = 0
    active_plan = plan

    try:
        cohort, gen = _start_call(nprocs, ctx, call)
        while True:
            status = _collect(cohort, ctrl, gen, respawn=respawn,
                              join_timeout=join_timeout,
                              quiesce_timeout=quiesce_timeout)
            if status is None:  # parked ranks could not load the call
                cohort.kill()
                ctrl.reset()
                cohort, gen = _fork_cohort(nprocs, ctx, cohort.key, call), 0
                continue
            failed = {r: e for r, (k, e) in status.items()
                      if k in ("err", "dead")}
            if not failed:
                if all(status[r][0] == "ok" for r in range(nprocs)):
                    reports = [status[r][1] for r in range(nprocs)]
                    clean = restarts == 0
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
                proc = cohort.procs[rank]
                if kind in ("ok", "quiesced") and proc.is_alive():
                    cohort.cmd_conns[rank].send(resume_cmd)
                else:
                    proc.join(timeout=5.0)
                    cohort.spawn(rank, dict(
                        call, gen=gen, plan=active_plan,
                        kwargs=(dict(kwargs, resume_from=resume)
                                if resume else kwargs)))
    finally:
        # only a cohort whose every rank reported ok in the call's first
        # generation is kept; after any trouble it goes, as it came
        if cohort is not None:
            if clean:
                cohort.next_gen = gen + 1
                _park(cohort)
            else:
                cohort.kill()
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
        "rank_peak_rss_mb": [float(rep["peak_rss_mb"]) for rep in reports],
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
