"""Zero-copy input distribution over ``multiprocessing.shared_memory``.

The process-per-rank backend maps the read-only input matrix into one
POSIX shared-memory segment per matrix — CSR/CSC as its three arrays
(``data`` | ``indices`` | ``indptr`` packed back to back), dense as one
buffer — and every rank process attaches the same segment and rebuilds the
matrix as numpy *views* into the mapping.  No per-rank copy of the input
is ever made; per-rank row windows are taken as views through
:func:`repro.sparse.window.csr_row_window`.

Lifecycle (leak-freedom is an acceptance criterion, see
``tests/test_spmd_procs.py``):

- the **parent** creates segments with the ``repro_spmd_`` name prefix and
  is the only unlinker — always in a ``finally``, so error paths and
  injected faults clean up too;
- **children** attach read-only, immediately de-register the segment from
  their ``resource_tracker`` (the parent owns the lifetime; without this
  the tracker would double-unlink and spam warnings at child exit), and
  close their mapping when the rank program returns;
- segment names carry the creating pid (``repro_spmd_<pid>_<token>``),
  and :func:`shm_segments` lists this process's live segments on
  ``/dev/shm`` so tests can assert nothing survived a run, whatever
  other processes hold at the time.
"""

from __future__ import annotations

import atexit
import os
import secrets
from multiprocessing import shared_memory
from pathlib import Path

import numpy as np
import scipy.sparse as sp

#: All segments created by this module carry this name prefix.
SHM_PREFIX = "repro_spmd_"

_SHM_DIR = Path("/dev/shm")

#: Names of segments *owned* (created) by this process and not yet
#: unlinked.  An ``atexit`` sweep unlinks whatever is left so abnormal
#: parent death (unhandled exception past the run_spmd ``finally``,
#: ``sys.exit`` mid-run) does not leak ``/dev/shm`` blocks.  Only the
#: creating pid ever unlinks: forked children inherit the set but the
#: guard below makes their sweep a no-op.
_OWNED_SEGMENTS: set[str] = set()
_OWNER_PID = os.getpid()


def register_owned(name: str) -> None:
    """Record a segment this process created (see :func:`cleanup_owned`)."""
    global _OWNER_PID
    if os.getpid() != _OWNER_PID:  # forked child re-registering fresh
        _OWNED_SEGMENTS.clear()
        _OWNER_PID = os.getpid()
    _OWNED_SEGMENTS.add(name)


def unregister_owned(name: str) -> None:
    _OWNED_SEGMENTS.discard(name)


def cleanup_owned() -> list[str]:
    """Unlink every still-registered owned segment; returns their names.

    Registered with :mod:`atexit`; also callable from tests and signal
    handlers.  Safe to call repeatedly and from forked children (no-op:
    children never own segments they did not create).
    """
    if os.getpid() != _OWNER_PID:
        return []
    cleaned = []
    for name in sorted(_OWNED_SEGMENTS):
        try:
            seg = shared_memory.SharedMemory(name=name)
        except FileNotFoundError:
            continue
        try:
            seg.close()
            seg.unlink()
            cleaned.append(name)
        except FileNotFoundError:  # pragma: no cover - raced another exit
            pass
    _OWNED_SEGMENTS.clear()
    return cleaned


atexit.register(cleanup_owned)


def _own_prefix() -> str:
    return f"{SHM_PREFIX}{os.getpid()}_"


def shm_segments() -> list[str]:
    """Names of live shared-memory segments this process created."""
    if not _SHM_DIR.is_dir():  # non-Linux: nothing to report
        return []
    prefix = _own_prefix()
    return sorted(p.name for p in _SHM_DIR.iterdir()
                  if p.name.startswith(prefix))


def _fresh_name() -> str:
    return f"{_own_prefix()}{secrets.token_hex(6)}"


def _as_view(buf, offset: int, dtype, count: int) -> np.ndarray:
    arr = np.frombuffer(buf, dtype=dtype, count=count, offset=offset)
    arr.flags.writeable = False  # the input is shared and read-only
    return arr


class SharedMatrix:
    """One matrix published into (or attached from) a shm segment.

    Parent side: ``SharedMatrix.publish(A)`` copies the matrix arrays into
    a fresh segment once and exposes picklable :attr:`meta`.  Child side:
    ``SharedMatrix.attach(meta)`` maps the segment and :attr:`matrix` is a
    zero-copy reconstruction (scipy CSR/CSC via the validation-free raw
    constructors, dense as a plain ndarray view).
    """

    def __init__(self, shm: shared_memory.SharedMemory, meta: dict,
                 matrix, *, owner: bool):
        self._shm = shm
        self.meta = meta
        self.matrix = matrix
        self._owner = owner
        self._closed = False

    # -- parent side --------------------------------------------------------
    @classmethod
    def publish(cls, A) -> "SharedMatrix":
        from ..sparse.utils import raw_csc, raw_csr
        if sp.issparse(A):
            if not isinstance(A, (sp.csr_matrix, sp.csc_matrix)):
                A = A.tocsr()
            fmt = A.format
            parts = [np.ascontiguousarray(A.data),
                     np.ascontiguousarray(A.indices),
                     np.ascontiguousarray(A.indptr)]
        else:
            fmt = "dense"
            parts = [np.ascontiguousarray(A)]
        total = sum(p.nbytes for p in parts)
        shm = shared_memory.SharedMemory(
            create=True, size=max(total, 1), name=_fresh_name())
        register_owned(shm.name)
        meta = {"name": shm.name, "format": fmt,
                "shape": tuple(int(s) for s in A.shape), "parts": []}
        offset = 0
        for p in parts:
            dst = _as_view(shm.buf, offset, p.dtype, p.size)
            dst.flags.writeable = True
            dst[:] = p.reshape(-1) if fmt == "dense" else p
            dst.flags.writeable = False
            meta["parts"].append({"dtype": p.dtype.str, "size": int(p.size),
                                  "offset": offset})
            offset += p.nbytes
        matrix = cls._rebuild(shm, meta, raw_csr, raw_csc)
        return cls(shm, meta, matrix, owner=True)

    # -- child side ---------------------------------------------------------
    @classmethod
    def attach(cls, meta: dict) -> "SharedMatrix":
        from ..sparse.utils import raw_csc, raw_csr
        shm = attach_untracked(meta["name"])  # the parent owns unlinking
        matrix = cls._rebuild(shm, meta, raw_csr, raw_csc)
        return cls(shm, meta, matrix, owner=False)

    @staticmethod
    def _rebuild(shm, meta: dict, raw_csr, raw_csc):
        views = [_as_view(shm.buf, p["offset"], np.dtype(p["dtype"]),
                          p["size"]) for p in meta["parts"]]
        shape = tuple(meta["shape"])
        fmt = meta["format"]
        if fmt == "dense":
            return views[0].reshape(shape)
        ctor = raw_csr if fmt == "csr" else raw_csc
        data, indices, indptr = views
        # sortedness was established by the parent's canonical matrix
        return ctor(data, indices, indptr, shape, sorted_indices=True)

    # -- lifecycle ----------------------------------------------------------
    def close(self) -> None:
        """Drop this process's mapping (parent also unlinks the segment).

        Safe to call twice; numpy views into the buffer must not be used
        afterwards, so the matrix reference is dropped first.
        """
        if self._closed:
            return
        self._closed = True
        self.matrix = None
        try:
            self._shm.close()
        except BufferError:  # a view still alive somewhere: leak the map,
            return           # not the segment (parent still unlinks)
        if self._owner:
            try:
                self._shm.unlink()
            except FileNotFoundError:
                pass
            unregister_owned(self._shm.name)

    def __enter__(self) -> "SharedMatrix":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without resource-tracker registration.

    Python < 3.13 has no ``track=False``: a plain attach registers the
    segment with the resource tracker, which under ``fork`` is *shared
    with the parent* — the first child exit would strip the parent's own
    registration and later exits would crash the tracker with KeyErrors
    (and under ``spawn`` the child tracker would unlink a segment the
    parent still owns).  Suppressing ``register`` for the duration of the
    attach keeps ownership where it belongs: only the creating parent ever
    unlinks.
    """
    try:
        from multiprocessing import resource_tracker
        orig = resource_tracker.register
        resource_tracker.register = lambda *a, **k: None
    except Exception:  # pragma: no cover - tracker internals shifted
        return shared_memory.SharedMemory(name=name)
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = orig


class ShmRef:
    """Picklable placeholder for a matrix argument published to shm.

    The parent swaps matrix args for refs before spawning ranks; each rank
    process resolves the ref back into the shm-backed matrix.
    """

    def __init__(self, meta: dict):
        self.meta = meta


def publish_args(args: tuple) -> tuple[tuple, list[SharedMatrix]]:
    """Replace scipy-sparse / large-ndarray positional args with shm refs.

    Returns the substituted args and the published segments (the caller
    must ``close()`` every one of them in a ``finally``).
    """
    published: list[SharedMatrix] = []
    out = []
    for a in args:
        if sp.issparse(a) or (isinstance(a, np.ndarray) and a.nbytes > 4096):
            shared = SharedMatrix.publish(a)
            published.append(shared)
            out.append(ShmRef(shared.meta))
        else:
            out.append(a)
    return tuple(out), published


def resolve_args(args: tuple) -> tuple[tuple, list[SharedMatrix]]:
    """Child-side inverse of :func:`publish_args`."""
    attached: list[SharedMatrix] = []
    out = []
    for a in args:
        if isinstance(a, ShmRef):
            shared = SharedMatrix.attach(a.meta)
            attached.append(shared)
            out.append(shared.matrix)
        else:
            out.append(a)
    return tuple(out), attached
