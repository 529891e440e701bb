"""Save and load solver results and checkpoints (.npz archives).

Factorizations of large matrices are expensive; downstream users want to
compute once and reuse.  ``save_result``/``load_result`` round-trip the
three result families (QB, UBV, LU) including permutations, convergence
metadata and the per-iteration history.

``save_checkpoint``/``load_checkpoint`` persist *mid-run* solver state: a
flat dict whose values are numpy arrays, scipy sparse matrices, lists of
either, or JSON-serializable scalars/dicts.  The fixed-precision drivers
write one checkpoint per completed block iteration and can resume from the
last one with the error-indicator state intact (see ``resume_from=`` on
:class:`repro.core.randqb_ei.RandQB_EI` and friends).
"""

from __future__ import annotations

import json
import os
import secrets
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .exceptions import CheckpointError
from .history import ConvergenceHistory
from .results import (
    KIND_OF,
    LUApproximation,
    QBApproximation,
    UBVApproximation,
)


@contextmanager
def atomic_write(path):
    """Open a binary temp file that atomically replaces ``path`` on exit.

    Data goes to a uniquely-named temp file in the same directory, is
    fsynced, and then replaces ``path`` via ``os.replace``: a crash at
    any point leaves either the previous file or nothing, never a torn
    one.  The random token in the temp name keeps two concurrent writers
    (e.g. a checkpointing rank racing a respawned one) from clobbering
    each other's partial writes; a failed write removes its temp.
    """
    path = Path(path)
    tmp = path.with_name(
        f".{path.name}.{secrets.token_hex(4)}.tmp{path.suffix}")
    try:
        with open(tmp, "wb") as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            tmp.unlink()
        except OSError:
            pass
        raise


def _atomic_savez(path, **arrays) -> None:
    """Write an ``.npz`` archive atomically, its members stored
    uncompressed.

    On the service's factorizations (``BENCH_cache_io.json``) zlib saves
    2.6% of the dense QB bytes and 39-51% of the sparse LU/ILUT ones, 6%
    in all, for 15x the write time.  ``np.load`` reads stored and
    deflated members alike, so archives written compressed still load.
    """
    with atomic_write(path) as fh:
        np.savez(fh, **arrays)


def _history_payload(history: ConvergenceHistory) -> str:
    """JSON-encode a history trace (shared with solver checkpoints)."""
    return json.dumps(history.to_json_records())


def _history_from_payload(payload: str) -> ConvergenceHistory:
    return ConvergenceHistory.from_json_records(json.loads(payload))


def save_result(result, path) -> None:
    """Serialize a solver result to an ``.npz`` archive.

    The ``_meta`` blob is the versioned summary schema
    (:meth:`repro.results.LowRankApproximation.to_json`); the factor
    arrays and the per-iteration history ride alongside.  The
    ``extra`` dicts of the history records are not persisted — they are
    re-derivable by re-running and can be large.
    """
    kind = KIND_OF.get(type(result))
    if kind is None or kind == "generic":
        raise TypeError(f"cannot serialize {type(result).__name__}")
    meta = result.to_json(include_history=False)
    arrays: dict[str, np.ndarray] = {}
    if kind == "qb":
        arrays["Q"] = result.Q
        arrays["B"] = result.B
    elif kind == "ubv":
        arrays["U"] = result.U
        arrays["Bmat"] = result.Bmat
        arrays["V"] = result.V
    else:
        L = sp.csr_matrix(result.L)
        U = sp.csr_matrix(result.U)
        arrays.update(L_data=L.data, L_indices=L.indices, L_indptr=L.indptr,
                      U_data=U.data, U_indices=U.indices, U_indptr=U.indptr,
                      L_shape=np.array(L.shape), U_shape=np.array(U.shape),
                      row_perm=result.row_perm, col_perm=result.col_perm)
    _atomic_savez(
        path,
        _meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
        _history=np.frombuffer(_history_payload(result.history).encode(),
                               dtype=np.uint8),
        **arrays)


def load_result(source):
    """Load a result previously written by :func:`save_result`.

    ``source`` is a path or a binary file object (for instance an
    ``io.BytesIO`` over archive bytes the caller has already verified).
    """
    with np.load(source, allow_pickle=False) as z:
        meta = json.loads(bytes(z["_meta"]).decode())
        history = _history_from_payload(bytes(z["_history"]).decode())
        common = dict(rank=int(meta["rank"]), tolerance=meta["tolerance"],
                      indicator=meta["indicator"], a_fro=meta["a_fro"],
                      converged=meta["converged"], history=history,
                      elapsed=meta["elapsed"])
        kind = meta["kind"]
        if kind == "qb":
            return QBApproximation(Q=z["Q"], B=z["B"], **common)
        if kind == "ubv":
            return UBVApproximation(U=z["U"], Bmat=z["Bmat"], V=z["V"],
                                    **common)
        L = sp.csr_matrix((z["L_data"], z["L_indices"], z["L_indptr"]),
                          shape=tuple(z["L_shape"]))
        U = sp.csr_matrix((z["U_data"], z["U_indices"], z["U_indptr"]),
                          shape=tuple(z["U_shape"]))
        return LUApproximation(
            L=L.tocsc(), U=U, row_perm=z["row_perm"],
            col_perm=z["col_perm"], threshold=meta.get("threshold", 0.0),
            dropped_norm=meta.get("dropped_norm", 0.0),
            control_triggered=meta.get("control_triggered", False),
            **common)


# ---------------------------------------------------------------------------
# Checkpoints: generic state-dict persistence for the solver drivers.
#
# Layout of the .npz archive (format version 1):
#   _ckpt_meta            JSON blob: {"version", "scalars": {...},
#                         "sparse": {key: fmt}, "sparse_lists": {key:
#                         [fmt, ...]}, "array_lists": {key: n}}
#   a__<key>              plain ndarray entries
#   s__<key>__{data,indices,indptr,shape}           sparse entries
#   al__<key>__<i>        list-of-ndarray entries
#   sl__<key>__<i>__{data,indices,indptr,shape}     list-of-sparse entries
#
# Keys therefore must not contain the "__" separator.
# ---------------------------------------------------------------------------

CHECKPOINT_VERSION = 1


def _pack_sparse(arrays: dict, prefix: str, M) -> str:
    fmt = "csc" if sp.issparse(M) and M.format == "csc" else "csr"
    M = M.tocsc() if fmt == "csc" else M.tocsr()
    arrays[f"{prefix}__data"] = M.data
    arrays[f"{prefix}__indices"] = M.indices
    arrays[f"{prefix}__indptr"] = M.indptr
    arrays[f"{prefix}__shape"] = np.asarray(M.shape)
    return fmt


def _unpack_sparse(z, prefix: str, fmt: str):
    cls = sp.csc_matrix if fmt == "csc" else sp.csr_matrix
    return cls((z[f"{prefix}__data"], z[f"{prefix}__indices"],
                z[f"{prefix}__indptr"]), shape=tuple(z[f"{prefix}__shape"]))


def save_checkpoint(path, state: dict) -> None:
    """Persist a solver-state dict to an ``.npz`` checkpoint.

    Values may be numpy arrays, scipy sparse matrices, (possibly empty)
    lists of either, or anything ``json.dumps`` accepts (ints, floats,
    strings, dicts — e.g. an RNG bit-generator state).  The write is
    atomic (:func:`atomic_write`) — a crash mid-write can never leave a
    torn checkpoint that poisons a later resume, and concurrent writers
    never corrupt each other.
    """
    arrays: dict[str, np.ndarray] = {}
    meta: dict = {"version": CHECKPOINT_VERSION, "scalars": {},
                  "sparse": {}, "sparse_lists": {}, "array_lists": {}}
    for key, val in state.items():
        if "__" in key:
            raise CheckpointError(
                f"checkpoint key {key!r} must not contain '__'")
        if isinstance(val, np.ndarray):
            arrays[f"a__{key}"] = val
        elif sp.issparse(val):
            meta["sparse"][key] = _pack_sparse(arrays, f"s__{key}", val)
        elif isinstance(val, list) and val and sp.issparse(val[0]):
            meta["sparse_lists"][key] = [
                _pack_sparse(arrays, f"sl__{key}__{i}", M)
                for i, M in enumerate(val)]
        elif isinstance(val, list) and val and isinstance(val[0], np.ndarray):
            meta["array_lists"][key] = len(val)
            for i, a in enumerate(val):
                arrays[f"al__{key}__{i}"] = a
        elif isinstance(val, list) and not val:
            meta["array_lists"][key] = 0
        else:
            try:
                json.dumps(val)
            except TypeError as exc:
                raise CheckpointError(
                    f"checkpoint value for {key!r} is not serializable "
                    f"({type(val).__name__})") from exc
            meta["scalars"][key] = val
    _atomic_savez(
        path, _ckpt_meta=np.frombuffer(json.dumps(meta).encode(),
                                       dtype=np.uint8), **arrays)


def load_checkpoint(path) -> dict:
    """Load a state dict previously written by :func:`save_checkpoint`."""
    path = Path(path)
    if not path.exists():
        raise CheckpointError(f"no checkpoint at {path}")
    state: dict = {}
    with np.load(path, allow_pickle=False) as z:
        meta = json.loads(bytes(z["_ckpt_meta"]).decode())
        if meta.get("version") != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"unsupported checkpoint version {meta.get('version')!r}")
        state.update(meta["scalars"])
        for key, fmt in meta["sparse"].items():
            state[key] = _unpack_sparse(z, f"s__{key}", fmt)
        for key, fmts in meta["sparse_lists"].items():
            state[key] = [_unpack_sparse(z, f"sl__{key}__{i}", fmt)
                          for i, fmt in enumerate(fmts)]
        for key, n in meta["array_lists"].items():
            state[key] = [z[f"al__{key}__{i}"] for i in range(n)]
        for name in z.files:
            if name.startswith("a__"):
                state[name[3:]] = z[name]
    return state


def resolve_checkpoint(resume_from) -> dict:
    """Accept either a state dict (from a checkpoint callback) or a path."""
    if resume_from is None:
        raise CheckpointError("resume_from is None")
    if isinstance(resume_from, dict):
        return resume_from
    return load_checkpoint(resume_from)
