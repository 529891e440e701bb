"""The library's thread budget: who may run how many threads.

Parallelism comes from three places only — SPMD ranks, service workers
and the OpenMP SpGEMM of the native kernel tier (``$REPRO_KERNEL_THREADS``,
default 1).  The OpenBLAS pools that NumPy and SciPy load (one each:
``libscipy_openblas64_`` and ``libscipy_openblas``, each sized to the
host's cores) are *not* a source of parallelism here:

- every solver ``solve()`` in :mod:`repro.core` and every
  :func:`repro.parallel.comm.run_spmd` /
  :func:`repro.parallel.spmd.run_spmd_solver` call holds the pools at one
  thread (:func:`one_blas_thread`) and restores the caller's sizes when
  the last concurrent call returns or raises;
- each procs rank pins its pools, and its OpenMP SpGEMM, to one thread
  (:func:`pin_rank`), since P rank processes already occupy P cores.

One fixed pool size also makes factor bits independent of the host:
threaded BLAS reductions (``dot``, ``nrm2``, ``gemm``) split their sums
by thread count, so the same solve on a 1-core and a 2-core host could
differ in the last bits.

The pools are found by scanning the shared objects this process has
mapped (``/proc/self/maps``) for OpenBLAS builds exporting a
``*_set_num_threads*`` / ``*_get_num_threads*`` pair.  Where none is
found (MKL, Accelerate, non-Linux hosts) every function here is a no-op
and :func:`blas_threads` reads 0.

Two consequences callers should know: user callbacks (``callback=``,
checkpoint hooks) run inside the scope, and while a library call is in
flight the caller's own BLAS calls on other threads also see one thread.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
import threading

#: Rank-local thread count of the OpenMP parallel SpGEMM.  Parsed fresh
#: per dispatched call (an env read — :func:`pin_rank` sets it to 1 in
#: each procs rank so P ranks never oversubscribe P cores).  The result
#: is bitwise-independent of this value: every output row is computed by
#: the identical per-row code at any thread count.
THREADS_ENV = "REPRO_KERNEL_THREADS"

#: ``(set, get)`` symbol pairs of the OpenBLAS builds NumPy and SciPy
#: ship (64-bit and 32-bit integer interfaces) and of a plain OpenBLAS;
#: the first pair a library exports is bound.
_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)

_pools: tuple | None = None          # ((set, get), ...) once discovered
_lock = threading.Lock()
_holders = 0                         # concurrent one_blas_thread() scopes
_saved: list[int] = []               # the caller's pool sizes


def kernel_threads() -> int:
    """The rank-local SpGEMM thread count from ``$REPRO_KERNEL_THREADS``
    (default and floor 1; non-numeric values read as 1)."""
    raw = os.environ.get(THREADS_ENV, "").strip()
    if not raw:
        return 1
    try:
        return max(int(raw), 1)
    except ValueError:
        return 1


def _mapped_openblas() -> list[str]:
    """Paths of the OpenBLAS shared objects mapped into this process."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {parts[5].strip() for parts in
                     (line.split(None, 5) for line in fh) if len(parts) == 6}
    except OSError:
        return []
    return sorted(p for p in paths
                  if "openblas" in os.path.basename(p).lower() and ".so" in p)


def _bind(path: str):
    lib = ctypes.CDLL(path)
    for set_name, get_name in _SYMBOLS:
        setter = getattr(lib, set_name, None)
        getter = getattr(lib, get_name, None)
        if setter is not None and getter is not None:
            setter.argtypes, setter.restype = [ctypes.c_int], None
            getter.argtypes, getter.restype = [], ctypes.c_int
            return setter, getter
    return None


def _discover() -> tuple:
    """The loaded OpenBLAS pools, found once per process.  NumPy and
    ``scipy.linalg`` are imported first: SciPy's own OpenBLAS copy is
    loaded only with ``scipy.linalg``, which solvers import lazily."""
    global _pools
    if _pools is None:
        import numpy  # noqa: F401
        import scipy.linalg  # noqa: F401
        found = []
        for path in _mapped_openblas():
            try:
                pair = _bind(path)
            except OSError:
                pair = None
            if pair is not None:
                found.append(pair)
        _pools = tuple(found)
    return _pools


def blas_threads() -> int:
    """Size of the loaded OpenBLAS pools (the largest, if they differ),
    or 0 when no pool can be controlled."""
    return max((get() for _, get in _discover()), default=0)


def set_blas_threads(n: int) -> None:
    """Size every loaded OpenBLAS pool to ``n`` threads (no-op without
    one).  For callers between library calls: a call in flight restores
    the sizes it found on entry when it returns."""
    for setter, _ in _discover():
        setter(int(n))


@contextlib.contextmanager
def one_blas_thread():
    """Hold every OpenBLAS pool at one thread for the duration.

    Re-entrant and shared across threads: the first holder saves the
    pool sizes and sets them to 1, the last one to leave restores the
    saved sizes (also when its body raises).  Usable as a decorator,
    ``@one_blas_thread()``, which adds one stack frame.
    """
    global _holders, _saved
    pools = _discover()
    with _lock:
        if _holders == 0:
            _saved = [get() for _, get in pools]
            for setter, _ in pools:
                setter(1)
        _holders += 1
    try:
        yield
    finally:
        with _lock:
            if _holders:   # 0 in a child forked inside the scope
                _holders -= 1
                if _holders == 0:
                    for (setter, _), n in zip(pools, _saved):
                        setter(n)


def pin_rank() -> None:
    """Pin this procs rank process to one BLAS and one kernel thread.

    Sets the pools directly, without the scope's lock: a rank is a
    process of its own and never restores.  Fork-started ranks already
    inherit pools of 1 from the :func:`one_blas_thread` scope of
    ``run_spmd``; this covers spawn-started and respawned ranks too."""
    os.environ[THREADS_ENV] = "1"
    set_blas_threads(1)


def _after_fork_in_child() -> None:
    """A child forked while some thread held the scope must not inherit
    the held lock or a holder count no thread of its own will release."""
    global _lock, _holders, _saved
    _lock = threading.Lock()
    _holders = 0
    _saved = []


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_after_fork_in_child)
