"""Content-addressed factorization cache with τ-dominance reuse.

Factorizations are the expensive artifact of this system; requests are
cheap to describe.  The cache key is therefore *content-addressed*:

    (matrix fingerprint, canonical method name, config.cache_key())

where :func:`matrix_fingerprint` hashes the canonicalized CSR structure
and values (not the spec that produced the matrix — two routes to the
same matrix share cache entries) and
:meth:`repro.api.config.SolverConfig.cache_key` excludes the tolerance.

**τ-dominance rule.**  A fixed-precision factorization computed at a
tighter tolerance ``τ' <= τ`` satisfies any looser request for the same
key: the stored result converged below ``τ' * ||A||_F``, hence below
``τ * ||A||_F``.  Lookups succeed on the tightest stored entry whose
tolerance is at most the requested one; the per-key store keeps only the
tightest converged entry (it dominates every looser one).

**Durable tier.**  With a :class:`DiskCacheTier` attached, every store
is written through to disk as an atomic ``.npz`` archive plus a JSON
sidecar carrying the key, the tolerance, the wire result and a SHA-256
checksum of the archive bytes, and an append-only journal records the
mutation.  A fresh service process pointed at the same directory serves
τ-dominated requests from disk without recomputation; entries that fail
their checksum (torn by a crash, corrupted on disk) are *quarantined* —
moved aside and treated as misses, never fatal to serving.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import secrets
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np
import scipy.sparse as sp

from ..exceptions import CacheIntegrityError

#: Version tag of the on-disk spill format (sidecar ``schema`` field).
DISK_CACHE_SCHEMA = "repro.cache/v1"


def matrix_fingerprint(A) -> str:
    """SHA-256 content hash of a matrix (canonical CSR form).

    Dense inputs and every sparse format map to one canonical CSR with
    sorted indices and summed duplicates, so logically-equal matrices
    collide regardless of how they were assembled.
    """
    if sp.issparse(A):
        M = A.tocsr(copy=True)
        M.sum_duplicates()
        M.sort_indices()
        parts = (np.asarray(M.shape, dtype=np.int64), M.indptr.astype(
            np.int64), M.indices.astype(np.int64), M.data.astype(np.float64))
    else:
        arr = np.ascontiguousarray(np.asarray(A, dtype=np.float64))
        parts = (np.asarray(arr.shape, dtype=np.int64), arr)
    h = hashlib.sha256()
    for p in parts:
        h.update(np.ascontiguousarray(p).tobytes())
    return h.hexdigest()


@dataclass
class CacheEntry:
    """One cached factorization: the tightest-τ result for its key."""

    tol: float
    result: Any                 # live LowRankApproximation
    result_json: dict
    hits: int = 0


@dataclass
class FactorizationCache:
    """LRU cache of factorizations keyed by matrix content + config.

    ``capacity`` bounds the number of distinct keys; eviction is LRU on
    lookup/store order.  Only *converged* results are stored — an
    unconverged factorization satisfies no tolerance.  With ``disk``
    attached (a :class:`DiskCacheTier`), stores write through to disk
    and memory misses fall back to the durable tier, promoting disk hits
    back into memory.
    """

    capacity: int = 64
    disk: "DiskCacheTier | None" = None
    _entries: "OrderedDict[tuple, CacheEntry]" = field(
        default_factory=OrderedDict, repr=False)
    hits: int = 0
    dominated_hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0

    def __len__(self) -> int:
        return len(self._entries)

    @staticmethod
    def key(fingerprint: str, method: str, config) -> tuple:
        return (fingerprint, method, config.cache_key())

    def lookup(self, fingerprint: str, method: str, config, tol: float):
        """Return ``(entry, status)``; status is ``"hit"``, ``"dominated"``
        (τ-dominance reuse at a strictly tighter stored τ), ``"disk"``
        (served from the durable tier) or ``None`` on miss."""
        key = self.key(fingerprint, method, config)
        entry = self._entries.get(key)
        if entry is None or entry.tol > float(tol):
            if self.disk is not None:
                got = self.disk.lookup(key, float(tol))
                if got is not None:
                    stored_tol, result, result_json = got
                    entry = CacheEntry(tol=stored_tol, result=result,
                                       result_json=result_json)
                    self._entries[key] = entry
                    self._entries.move_to_end(key)
                    while len(self._entries) > self.capacity:
                        self._entries.popitem(last=False)
                        self.evictions += 1
                    entry.hits += 1
                    self.hits += 1
                    return entry, "disk"
            self.misses += 1
            return None, None
        self._entries.move_to_end(key)
        entry.hits += 1
        if entry.tol < float(tol):
            self.dominated_hits += 1
            self.hits += 1
            return entry, "dominated"
        self.hits += 1
        return entry, "hit"

    def store(self, fingerprint: str, method: str, config, tol: float,
              result, result_json: dict) -> bool:
        """Insert a converged factorization; returns True if stored.

        A stored entry is replaced only by a strictly tighter one (the
        tighter τ dominates); looser results are dropped as redundant.
        """
        if not getattr(result, "converged", False):
            return False
        key = self.key(fingerprint, method, config)
        existing = self._entries.get(key)
        if existing is not None and existing.tol <= float(tol):
            self._entries.move_to_end(key)
            return False
        self._entries[key] = CacheEntry(tol=float(tol), result=result,
                                        result_json=result_json)
        self._entries.move_to_end(key)
        self.stores += 1
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1
        if self.disk is not None:
            self.disk.store(key, float(tol), result, result_json)
        return True

    def clear(self) -> None:
        self._entries.clear()

    def stats(self) -> dict:
        total = self.hits + self.misses
        out = {
            "entries": len(self._entries),
            "capacity": self.capacity,
            "hits": self.hits,
            "dominated_hits": self.dominated_hits,
            "misses": self.misses,
            "stores": self.stores,
            "evictions": self.evictions,
            "hit_rate": (self.hits / total) if total else 0.0,
        }
        if self.disk is not None:
            out["disk"] = self.disk.stats()
        return out


# ---------------------------------------------------------------------------
# Durable tier: content-addressed disk spill
# ---------------------------------------------------------------------------

def _entry_id(key: tuple) -> str:
    """Stable content address of a cache key (hex, filesystem-safe).

    The key is ``(fingerprint, method, config.cache_key())`` — all
    strings — so its canonical JSON is deterministic across processes.
    """
    blob = json.dumps(list(key), separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:32]


def _sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


class DiskCacheTier:
    """Write-through durable spill of the factorization cache.

    Layout under ``root``::

        entries/<id>.npz    the factorization (repro.serialize.save_result)
        entries/<id>.json   sidecar: schema, key, tol, result_json, sha256
        quarantine/         damaged entries moved aside, never deleted
        journal.log         append-only JSON lines auditing every mutation

    where ``<id>`` is the SHA-256 content address of the cache key.  All
    writes are atomic (:func:`repro.serialize.atomic_write`), the archive
    is written *before* its sidecar — a sidecar's existence implies a
    complete archive, modulo disk corruption, which the checksum catches
    at lookup.  A lookup reads the archive once and loads exactly the
    bytes it verified.  τ-dominance matches the in-memory rule: one entry
    per key, replaced only by a strictly tighter tolerance.

    The durable tier degrades to memory-only rather than failing a
    solve: results whose factors cannot be serialized (summary-only LU
    results from SPMD routes carry ``L=None``) are skipped, counted
    under ``spill_skipped``; a write the disk refuses (full, read-only,
    over quota) is counted under ``spill_failed`` and leaves no entry.
    """

    def __init__(self, root):
        self.root = Path(root)
        self.entries_dir = self.root / "entries"
        self.quarantine_dir = self.root / "quarantine"
        self.journal_path = self.root / "journal.log"
        self.entries_dir.mkdir(parents=True, exist_ok=True)
        self.quarantine_dir.mkdir(parents=True, exist_ok=True)
        self.disk_hits = 0
        self.disk_misses = 0
        self.disk_stores = 0
        self.corrupt = 0
        self.spill_skipped = 0
        self.spill_failed = 0

    # -- journal -------------------------------------------------------
    def _journal(self, record: dict) -> None:
        record = dict(record, ts=time.time())
        with open(self.journal_path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, separators=(",", ":")) + "\n")
            fh.flush()
            os.fsync(fh.fileno())

    def journal_records(self) -> list[dict]:
        """Parse the journal (damaged trailing lines are skipped)."""
        if not self.journal_path.exists():
            return []
        out = []
        for line in self.journal_path.read_text().splitlines():
            try:
                out.append(json.loads(line))
            except json.JSONDecodeError:
                continue  # torn tail from a crash mid-append
        return out

    # -- store ---------------------------------------------------------
    def store(self, key: tuple, tol: float, result,
              result_json: dict) -> bool:
        """Write-through one converged entry; returns True if spilled."""
        from .. import serialize
        eid = _entry_id(key)
        npz = self.entries_dir / f"{eid}.npz"
        sidecar = self.entries_dir / f"{eid}.json"
        existing = self._read_sidecar(sidecar)
        if existing is not None and existing.get("tol", np.inf) <= tol:
            return False  # stored entry dominates this one
        try:
            serialize.save_result(result, npz)
        except TypeError:
            self.spill_skipped += 1
            return False
        except OSError:
            self.spill_failed += 1  # nothing replaced: any old entry holds
            return False
        try:
            meta = {"schema": DISK_CACHE_SCHEMA, "key": list(key),
                    "tol": float(tol), "result_json": result_json,
                    "sha256": _sha256_file(npz)}
            with serialize.atomic_write(sidecar) as fh:
                fh.write(json.dumps(meta, separators=(",", ":")).encode())
            self._journal({"op": "store", "id": eid, "tol": float(tol)})
        except OSError:
            # the new archive replaced the one any old sidecar describes,
            # and an entry the journal does not record must not stay
            self.spill_failed += 1
            for path in (npz, sidecar):
                try:
                    path.unlink()
                except OSError:
                    pass
            return False
        self.disk_stores += 1
        return True

    # -- lookup --------------------------------------------------------
    def _read_sidecar(self, sidecar: Path) -> dict | None:
        try:
            meta = json.loads(sidecar.read_text())
        except (OSError, json.JSONDecodeError):
            return None
        if meta.get("schema") != DISK_CACHE_SCHEMA:
            return None
        return meta

    def lookup(self, key: tuple, tol: float):
        """Return ``(stored_tol, result, result_json)`` or ``None``.

        Checksum-verified: the archive is read once, its SHA-256 checked
        against the sidecar, and those same bytes are loaded.  A
        mismatching or unreadable entry is quarantined and reported as a
        miss.
        """
        from .. import serialize
        eid = _entry_id(key)
        npz = self.entries_dir / f"{eid}.npz"
        sidecar = self.entries_dir / f"{eid}.json"
        if not sidecar.exists():
            self.disk_misses += 1
            return None
        meta = self._read_sidecar(sidecar)
        if meta is None or list(meta.get("key", [])) != list(key):
            self._quarantine(eid, "sidecar unreadable or key mismatch")
            self.disk_misses += 1
            return None
        stored_tol = float(meta["tol"])
        if stored_tol > tol:
            self.disk_misses += 1
            return None
        try:
            blob = npz.read_bytes()
        except OSError:
            blob = None
        if blob is None or \
                hashlib.sha256(blob).hexdigest() != meta.get("sha256"):
            self._quarantine(eid, "checksum mismatch")
            self.disk_misses += 1
            return None
        try:
            result = serialize.load_result(io.BytesIO(blob))
        except Exception:  # noqa: BLE001 - damaged archive == miss
            self._quarantine(eid, "archive unreadable")
            self.disk_misses += 1
            return None
        self.disk_hits += 1
        return stored_tol, result, meta["result_json"]

    def _quarantine(self, eid: str, reason: str) -> None:
        """Move a damaged entry aside; serving continues as a miss.

        Each quarantine gets its own ``<id>.<token>`` stem, so a key
        damaged twice keeps both copies; the journal record names the
        files it moved.
        """
        self.corrupt += 1
        stem = f"{eid}.{secrets.token_hex(4)}"
        moved = []
        for suffix in (".npz", ".json"):
            src = self.entries_dir / f"{eid}{suffix}"
            if src.exists():
                dst = self.quarantine_dir / f"{stem}{suffix}"
                try:
                    os.replace(src, dst)
                    moved.append(dst.name)
                except OSError:
                    pass
        try:
            self._journal({"op": "quarantine", "id": eid, "reason": reason,
                           "files": moved})
        except OSError:
            pass  # a full disk costs the record, never the request

    # -- maintenance ---------------------------------------------------
    def verify(self) -> list[CacheIntegrityError]:
        """Audit every entry; quarantines and reports the damaged ones."""
        problems = []
        for sidecar in sorted(self.entries_dir.glob("*.json")):
            eid = sidecar.stem
            meta = self._read_sidecar(sidecar)
            npz = self.entries_dir / f"{eid}.npz"
            if meta is None:
                self._quarantine(eid, "sidecar unreadable")
                problems.append(CacheIntegrityError(
                    f"cache entry {eid}: sidecar unreadable",
                    entry=eid, reason="sidecar"))
            elif not npz.exists() or _sha256_file(npz) != meta.get("sha256"):
                self._quarantine(eid, "checksum mismatch")
                problems.append(CacheIntegrityError(
                    f"cache entry {eid}: checksum mismatch",
                    entry=eid, reason="checksum"))
        return problems

    def entry_count(self) -> int:
        return sum(1 for _ in self.entries_dir.glob("*.json"))

    def stats(self) -> dict:
        return {
            "entries": self.entry_count(),
            "hits": self.disk_hits,
            "misses": self.disk_misses,
            "stores": self.disk_stores,
            "corrupt": self.corrupt,
            "spill_skipped": self.spill_skipped,
            "spill_failed": self.spill_failed,
        }
